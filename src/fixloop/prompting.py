"""Prompt assembly and the output-format ladder.

One prompt asks the model to fix one error.  Its body is fixed-order:
the checker command, the rendered error, its explanation, the numbered
code snippets, the fix instructions, and the output-format instructions.
The format section comes in five rungs that differ only in what the
model must echo back:

* ``P0`` — whole revised snippets, no changelog at all.
* ``P1`` — changelog groups with FixedCode sections, plain lines.
* ``P2`` — P1 plus mandatory ``[N]`` line-number prefixes.
* ``P3`` — P2 plus the matching OriginalCode section per fix.
* ``P4`` — P3 plus a free-text FixDescription per group (the default).

The template text is a versioned resource shipped with the package and
can be overridden per run (e.g. to reword the preamble for a linter).

A prompt shows the error's locations under three fixed budgets:
``MAX_SNIPPETS`` merged snippets, ``MAX_TOTAL_LINES`` snippet lines and
``CHAR_BUDGET`` characters of prompt text.  ``build_prompt`` drops
trailing locations until all three hold; the primary location is never
dropped, so an over-budget primary-only prompt is still returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import IntEnum
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .diagnostics import Diagnostic
from .localization import DEFAULT_WINDOW, Snippet, collect_locations, extract_snippets
from .workspace import Workspace

MAX_SNIPPETS = 8
MAX_TOTAL_LINES = 1200
CHAR_BUDGET = 48_000


class PromptVariant(IntEnum):
    P0 = 0
    P1 = 1
    P2 = 2
    P3 = 3
    P4 = 4

    @classmethod
    def parse(cls, name: str) -> "PromptVariant":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown prompt variant {name!r} (P0..P4)") from None


@dataclass
class Prompt:
    text: str
    variant: PromptVariant
    snippet_index: Dict[str, List[Tuple[int, int]]]  # file -> shown (start, end) windows


@functools.cache
def default_template() -> str:
    """The builtin prompt template, read from the package once per process."""
    return resources.files("fixloop.templates").joinpath("fix_prompt.txt").read_text("utf-8")


# ----------------------------------------------------------------------
# format-instruction blocks
# ----------------------------------------------------------------------

_TAIL_CHANGELOG = (
    "For\n"
    "your answer, return one or more ChangeLog groups, each containing\n"
    "one or more fixes to the above code snippets. Each group must be\n"
    "formatted with the below instructions."
)

_TAIL_SNIPPETS = (
    "For\n"
    "your answer, return the complete revised code snippets with all\n"
    "fixes applied, formatted with the below instructions."
)

# P2-P4 ask for [N]-prefixed lines alike; P3 and P4 ask for the same pairs
_PREFIXED = (
    "be prefixed with [N] that matches the line index N in the above\n"
    "snippets, and then be prefixed with exactly the same whitespace\n"
    "indentation as the original snippets above."
)

_PAIRS = (
    "pairs of (OriginalCode, FixedCode) code snippets. Each\n"
    "OriginalCode snippet must list all consecutive original lines of\n"
    "code that must be replaced (including a few lines before and\n"
    "after the fixes), followed by the FixedCode snippet with all\n"
    "consecutive fixed lines of code that must replace the original\n"
    "lines of code (including the same few lines before and after the\n"
    "changes). In each pair, the OriginalCode and FixedCode snippets\n"
    "must start at the same source code line number N. Each listed\n"
    "code line, in both the OriginalCode and FixedCode snippets, must\n" + _PREFIXED
)

_PROSE = {
    PromptVariant.P0: (
        "Format instructions: Return every code snippet that requires a\n"
        "fix. Repeat the snippet's header line exactly as it appears\n"
        "above, followed by all of the snippet's revised code lines\n"
        "without the [N] line-number prefixes. Do not return any other\n"
        "text in your answer."
    ),
    PromptVariant.P1: (
        "Format instructions: Each ChangeLog group must list one or more\n"
        "FixedCode code snippets. Each FixedCode snippet must declare the\n"
        "range of original source code lines that it replaces, and must\n"
        "then list all fixed lines of code that replace them."
    ),
    PromptVariant.P2: (
        "Format instructions: Each ChangeLog group must list one or more\n"
        "FixedCode code snippets. Each FixedCode snippet must list all\n"
        "consecutive fixed lines of code that replace the original lines\n"
        "of code, and must start at the source code line number N of the\n"
        "first original line that it replaces. Each listed code line must\n" + _PREFIXED
    ),
    PromptVariant.P3: "Format instructions: Each ChangeLog group must list one or more\n" + _PAIRS,
    PromptVariant.P4: (
        "Format instructions: Each ChangeLog group must start with a\n"
        "description of its included fixes. The group must then list one\n"
        "or more " + _PAIRS
    ),
}


def _example_skeleton(variant: PromptVariant) -> Optional[str]:
    """The canonical two-group example, trimmed to the variant's elements."""
    if variant is PromptVariant.P0:
        return None

    def group(gid: str, pairs: List[Tuple[Tuple[int, int], Tuple[int, int]]]) -> List[str]:
        out = [f"ChangeLog:{gid}@<file>"]
        if variant is PromptVariant.P4:
            out.append("FixDescription: <summary of the fixes in this group>.")
        for (oa, ob), (fa, fb) in pairs:
            if variant >= PromptVariant.P3:
                out.append(f"OriginalCode@{oa}-{ob}:")
                for n in range(oa, ob + 1):
                    out.append(f"[{n}] <white space> <original code line>")
            out.append(f"FixedCode@{fa}-{fb}:")
            for n in range(fa, fb + 1):
                if variant >= PromptVariant.P2:
                    out.append(f"[{n}] <white space> <fixed code line>")
                else:
                    out.append("<white space> <fixed code line>")
        return out

    lines: List[str] = []
    lines += group("1", [((4, 6), (4, 6)), ((9, 10), (9, 9))])
    lines.append("...")
    lines += group("K", [((15, 16), (15, 17)), ((23, 23), (23, 23))])
    return "\n".join(lines)


def format_instructions(variant: PromptVariant) -> str:
    prose = _PROSE[variant]
    example = _example_skeleton(variant)
    if example is None:
        return prose
    return f"{prose}\n---\n{example}"


def instructions_tail(variant: PromptVariant) -> str:
    return _TAIL_SNIPPETS if variant is PromptVariant.P0 else _TAIL_CHANGELOG


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


def instantiate_prompt(
    diag: Diagnostic,
    explanation: str,
    snippets: List[Snippet],
    variant: PromptVariant,
    cmd: str,
    language: str = "Rust",
    extension: str = ".rs",
    template: Optional[str] = None,
) -> Prompt:
    """Fill the template with one error and its context.

    The error rendering and its explanation are both shown; when they are
    the same text (compiler errors explain themselves) it appears once."""
    template = template if template is not None else default_template()
    rendered = diag.rendered.rstrip("\n")
    explanation = explanation.rstrip("\n")
    if explanation and explanation != rendered:
        error_block = f"{rendered}\n{explanation}"
    else:
        error_block = rendered
    holes = {
        "cmd": cmd,
        "lang": language,
        "ext": extension,
        "error_block": error_block,
        "code_snippets": "\n\n".join(s.render() for s in snippets),
        "instructions_tail": instructions_tail(variant),
        "format_instructions": format_instructions(variant),
    }
    text = template
    for name, value in holes.items():
        # plain replacement, not str.format: templates and code may contain
        # literal braces that must survive untouched
        text = text.replace("{" + name + "}", value)
    index: Dict[str, List[Tuple[int, int]]] = {}
    for s in snippets:
        index.setdefault(s.file, []).append((s.window_start, s.window_end))
    return Prompt(text, variant, index)


def build_prompt(
    ws: Workspace,
    diag: Diagnostic,
    explanation: str,
    variant: PromptVariant,
    cmd: str,
    language: str = "Rust",
    extension: str = ".rs",
    window: int = DEFAULT_WINDOW,
    template: Optional[str] = None,
) -> Optional[Prompt]:
    """Localize, extract, and instantiate with the most leading locations
    that fit the budgets.  Returns None when no span location is indexed."""
    locations = collect_locations(diag, ws)
    for keep in range(len(locations), 0, -1):
        snippets = extract_snippets(ws, locations[:keep], window)
        if keep > 1 and (
            len(snippets) > MAX_SNIPPETS or sum(s.line_count for s in snippets) > MAX_TOTAL_LINES
        ):
            continue
        prompt = instantiate_prompt(diag, explanation, snippets, variant, cmd, language, extension, template)
        if keep == 1 or len(prompt.text) <= CHAR_BUDGET:
            return prompt
    return None
