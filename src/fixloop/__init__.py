"""Automatic repair of compiler and linter errors.

The pipeline runs a checker over a project, groups the reported errors,
asks an LLM backend for fixes in a line-addressed changelog format,
validates and ranks the candidate edits, and iterates until the project
is clean or a give-up heuristic fires.

Library entry points: :class:`Workspace` + a checker + a backend feed
:func:`fix_project`; the ``fixloop`` console script wraps the same call.

Each public name below is imported from its module the first time it is
asked for, so a child process that needs one module (a spawned
``python -m fixloop.scripted_checker`` check) does not load the rest.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "changelog": ("ChangeLog", "FormatError", "parse_response", "render_changelog", "validate"),
    "checker": ("BUILTIN_PROFILES", "CheckerProfile", "SubprocessChecker", "load_profile", "run_checker"),
    "diagnostics": ("Diagnostic", "ErrorKey", "SourceSpan", "parse_checker_output"),
    "errors": (
        "BackendError",
        "CheckerError",
        "ConfigError",
        "EditError",
        "FixloopError",
        "PatchError",
        "ReplayError",
    ),
    "llm": (
        "Completion",
        "CompletionRequest",
        "HttpBackend",
        "RecordingBackend",
        "ReplayBackend",
        "ReplayStore",
    ),
    "localization": ("Snippet", "extract_snippets"),
    "orchestrator": ("FixReport", "KeyOutcome", "Orchestrator", "RunConfig", "RunLog", "fix_project"),
    "patching": ("PatchPlan", "apply", "plan"),
    "prompting": ("Prompt", "PromptVariant", "build_prompt"),
    "workspace": ("Workspace",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    # An AttributeError here lets ``from fixloop import checker`` fall back
    # to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
