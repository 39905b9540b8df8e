"""Stand-in model: serves a generated answer table in place of an LLM.

The model attributes a prompt to a defect by the primary location in the
prompt's error block (``--> FILE:LINE:COL``) and the current text of that
line, which it reads back from the prompt's numbered snippet.  The answer
table maps that text to the candidates to return; each candidate becomes a
P4 changelog that replaces the line.  A prompt it cannot attribute, and a
``None`` candidate, get a malformed answer, which the loop rejects.

``StandInBackend`` serves the table in-process (``bigtree``) and times each
answer; ``LoopbackServer`` serves it as a chat-completion endpoint on
127.0.0.1 from one thread (``cargo-http``) and times each request from
reading its body to writing the reply.  The benchmark reports those times
as ``llm.server_ms``.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, List, Optional

MALFORMED = "I could not find a safe fix for this error."

_LOCATION = re.compile(r"--> (\S+?):(\d+):\d+")


class AnswerTable:
    def __init__(self, table: dict):
        self.by_file: Dict[str, Dict[str, list]] = {
            d["file"]: d["answers"] for d in table["defects"]
        }
        self.unattributed = 0

    def respond(self, prompt: str, n: int) -> List[str]:
        where = _LOCATION.search(prompt)
        if where is None:
            return self._unattributed(n)
        file, line = where.group(1), int(where.group(2))
        current = _snippet_line(prompt, file, line)
        candidates = self.by_file.get(file, {}).get(current) if current is not None else None
        if not candidates:
            return self._unattributed(n)
        return [_changelog(file, line, current, candidates[i % len(candidates)]) for i in range(n)]

    def _unattributed(self, n: int) -> List[str]:
        self.unattributed += 1
        return [MALFORMED] * n


def _snippet_line(prompt: str, file: str, line: int) -> Optional[str]:
    """Text of ``line`` as the prompt's snippet for ``file`` shows it."""
    header = re.search(rf"^{re.escape(file)}@\d+-\d+:$", prompt, re.MULTILINE)
    if header is None:
        return None
    end = prompt.find("\n\n", header.end())
    body = prompt[header.end() : end if end >= 0 else len(prompt)]
    found = re.search(rf"^\[{line}\] (.*)$", body, re.MULTILINE)
    return found.group(1) if found else None


def _changelog(file: str, line: int, current: str, replacement: Optional[List[str]]) -> str:
    if replacement is None:
        return MALFORMED
    fixed = "\n".join(f"[{line + i}] {text}" for i, text in enumerate(replacement))
    return (
        f"ChangeLog:1@{file}\n"
        f"FixDescription: Rewrite line {line}.\n"
        f"OriginalCode@{line}-{line}:\n"
        f"[{line}] {current}\n"
        f"FixedCode@{line}-{line + len(replacement) - 1}:\n"
        f"{fixed}\n"
    )


class StandInBackend:
    """In-process backend with the product backends' ``complete`` method."""

    def __init__(self, table: AnswerTable):
        self.table = table
        self.serve_s = 0.0

    def complete(self, request):
        from fixloop.llm import Completion

        start = time.perf_counter()
        texts = self.table.respond(request.prompt_text, request.n)
        self.serve_s += time.perf_counter() - start
        return [Completion(i, text) for i, text in enumerate(texts)]


class LoopbackServer:
    """Chat-completion endpoint on 127.0.0.1, answering from one thread."""

    def __init__(self, table: AnswerTable):
        self.table = table
        self.requests = 0
        self.serve_s = 0.0  # written by the server thread only
        handler = _handler_for(self)
        self._server = HTTPServer(("127.0.0.1", 0), handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "LoopbackServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()


def _handler_for(owner: LoopbackServer):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self) -> None:  # noqa: N802 - http.server naming
            start = time.perf_counter()
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            prompt = body["messages"][0]["content"]
            texts = owner.table.respond(prompt, int(body.get("n", 1)))
            owner.requests += 1
            reply = json.dumps(
                {
                    "choices": [
                        {"index": i, "message": {"role": "assistant", "content": t}, "finish_reason": "stop"}
                        for i, t in enumerate(texts)
                    ]
                }
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(reply)))
            self.end_headers()
            self.wfile.write(reply)
            self.wfile.flush()
            owner.serve_s += time.perf_counter() - start

        def log_message(self, *args) -> None:
            pass

    return Handler
