"""Completion backends.

Two product backends implement the same one-method protocol:

* :class:`HttpBackend` posts a chat-completion request (one user message
  holding the whole prompt) to a configurable endpoint and maps the
  ``n`` choices back to :class:`Completion` values in index order.
  Every request samples with the same :data:`SAMPLING` settings, and the
  bearer token, if any, comes from the ``API_KEY_ENV`` variable.
  Transient failures (transport errors, 429/5xx statuses, and a body
  that cannot be read as choices) are retried with bounded exponential
  backoff; when the retries run out, it raises :class:`BackendError`.

* :class:`ReplayBackend` serves completions from a recorded store so a
  whole run is deterministic and network-free.  Slots are keyed by the
  request sequence number *and* a digest of the prompt text: if the
  pipeline no longer produces the prompt the store was recorded against,
  the run fails loudly instead of silently replaying stale answers.

:class:`RecordingBackend` tees another backend into a store, which is how
replay fixtures are captured in the first place.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Protocol, Sequence

from .errors import BackendError, ConfigError, ReplayError

log = logging.getLogger(__name__)

API_KEY_ENV = "FIXLOOP_API_KEY"

# The sampling settings of every completion request, sent verbatim.
SAMPLING = {
    "temperature": 0.2,
    "top_p": 1.0,
    "frequency_penalty": 0.0,
    "presence_penalty": 0.0,
    "max_tokens": 800,
}


@dataclass(frozen=True)
class CompletionRequest:
    prompt_text: str = ""
    n: int = 1
    model_name: str = ""

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass(frozen=True)
class Completion:
    index: int
    text: str


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> List[Completion]:
        ...


def prompt_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", errors="surrogateescape")).hexdigest()


# ----------------------------------------------------------------------
# HTTP backend
# ----------------------------------------------------------------------

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}


class HttpBackend:
    """Generic chat-completion client.

    The request body follows the widespread shape::

        {"model": ..., "messages": [{"role": "user", "content": prompt}],
         "n": ..., **SAMPLING}

    The sampling parameters are echoed to the debug log.  An unreadable
    body is retried like a 5xx, then raises :class:`BackendError`; a
    missing choice in a readable body is an empty completion."""

    def __init__(self, endpoint: str, timeout_s: float = 120.0, retries: int = 3, backoff_s: float = 0.5):
        if not endpoint:
            raise ConfigError("HTTP backend needs an endpoint URL")
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.timeout_s = timeout_s
        self.retries = max(1, retries)
        self.backoff_s = backoff_s

    def _payload(self, req: CompletionRequest) -> dict:
        return {
            "model": req.model_name,
            "messages": [{"role": "user", "content": req.prompt_text}],
            "n": req.n,
            **SAMPLING,
        }

    def complete(self, req: CompletionRequest) -> List[Completion]:
        payload = self._payload(req)
        log.debug("llm request: model=%s n=%s %s", req.model_name, req.n, SAMPLING)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        data = json.dumps(payload).encode("utf-8")
        last_error = ""
        for attempt in range(self.retries):
            if attempt:
                time.sleep(self.backoff_s * (2 ** (attempt - 1)))
            http_req = urllib.request.Request(self.endpoint, data=data, headers=headers, method="POST")
            try:
                with urllib.request.urlopen(http_req, timeout=self.timeout_s) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                exc.close()
                status, body = exc.code, b""
            except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
                last_error = f"transport failure: {exc}"
                continue
            if status in _RETRYABLE_STATUS:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise BackendError(f"completion endpoint returned HTTP {status}")
            completions = self._parse_body(body, req.n)
            if completions is not None:
                return completions
            last_error = "malformed response body"
        raise BackendError(f"completion request failed after {self.retries} attempts: {last_error}")

    @staticmethod
    def _parse_body(body: bytes, n: int) -> Optional[List[Completion]]:
        """The body's ``n`` completions in index order, or None when it is
        unreadable.  A missing choice is an empty text, so a recorded slot
        always holds ``n`` completions."""
        try:
            texts = {}
            for ch in json.loads(body)["choices"]:
                idx = int(ch.get("index", len(texts)))
                text = ch["message"]["content"]
                if not isinstance(text, str):
                    return None
                texts[idx] = text
        except (ValueError, KeyError, TypeError, AttributeError):
            return None
        return [Completion(i, texts.get(i, "")) for i in range(n)]


# ----------------------------------------------------------------------
# replay store
# ----------------------------------------------------------------------

MANIFEST_NAME = "manifest.json"


class ReplayStore:
    """Directory of recorded completions: ``<seq>_<i>.txt`` files plus a
    manifest mapping sequence number -> prompt digest."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def _manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def load_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.is_file():
            return {}
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReplayError(f"unreadable replay manifest {path}: {exc}") from exc

    def save_manifest(self, manifest: dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest_path().write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def completion_path(self, seq: int, index: int) -> Path:
        return self.directory / f"{seq}_{index}.txt"

    def recorded_count(self, seq: int) -> int:
        count = 0
        while self.completion_path(seq, count).is_file():
            count += 1
        return count

    def read(self, seq: int, n: int) -> List[Completion]:
        out = []
        for i in range(n):
            path = self.completion_path(seq, i)
            if not path.is_file():
                raise ReplayError(
                    f"replay store {self.directory} has no completion file {path.name} "
                    f"(slot {seq} holds {self.recorded_count(seq)} completions, {n} requested)"
                )
            out.append(Completion(i, path.read_text(encoding="utf-8")))
        return out

    def record(self, seq: int, digest: str, texts: Sequence[str]) -> None:
        manifest = self.load_manifest()
        if str(seq) in manifest:
            log.warning("replay slot %d already recorded; overwriting", seq)
            stale = self.recorded_count(seq)
            for i in range(stale):
                self.completion_path(seq, i).unlink()
        for i, text in enumerate(texts):
            self.directory.mkdir(parents=True, exist_ok=True)
            self.completion_path(seq, i).write_text(text, encoding="utf-8")
        manifest[str(seq)] = digest
        self.save_manifest(manifest)


class ReplayBackend:
    """Serve completions from a store in request order.

    ``verify_digests=False`` is the authoring mode used when (re)building
    a store's manifest; normal runs verify and fail hard on drift."""

    def __init__(self, directory: Path, verify_digests: bool = True):
        self.store = ReplayStore(directory)
        self.verify_digests = verify_digests
        self._seq = 0
        self._manifest = self.store.load_manifest()
        self.digests_seen: List[str] = []  # authoring mode reads these back

    def complete(self, req: CompletionRequest) -> List[Completion]:
        seq = self._seq
        self._seq += 1
        digest = prompt_digest(req.prompt_text)
        self.digests_seen.append(digest)
        recorded = self._manifest.get(str(seq))
        if self.verify_digests:
            if recorded is None:
                known = ", ".join(sorted(self._manifest, key=int)) or "none"
                raise ReplayError(
                    f"replay store {self.store.directory} has no slot {seq} (recorded slots: {known})"
                )
            if recorded != digest:
                raise ReplayError(
                    f"prompt digest mismatch at replay slot {seq}: recorded {recorded[:12]}..., "
                    f"got {digest[:12]}... — the fixture no longer matches the pipeline"
                )
        return self.store.read(seq, req.n)


class RecordingBackend:
    """Tee another backend's completions into a replay store."""

    def __init__(self, inner: Backend, directory: Path):
        self.inner = inner
        self.store = ReplayStore(directory)
        self._seq = 0

    def complete(self, req: CompletionRequest) -> List[Completion]:
        completions = self.inner.complete(req)
        self.store.record(self._seq, prompt_digest(req.prompt_text), [c.text for c in completions])
        self._seq += 1
        return completions
