"""Completion backends: HTTP client, replay store, recording tee."""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from fixloop.errors import BackendError, ConfigError, ReplayError
from fixloop.llm import (
    FINISH_BACKEND_ERROR,
    FINISH_COMPLETE,
    FINISH_TRUNCATED,
    SAMPLING,
    Completion,
    CompletionRequest,
    HttpBackend,
    RecordingBackend,
    ReplayBackend,
    ReplayStore,
    prompt_digest,
)


# ----------------------------------------------------------------------
# request plumbing
# ----------------------------------------------------------------------


def test_completion_request_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        CompletionRequest(n=0)


def test_prompt_digest_is_stable_sha256():
    assert prompt_digest("abc") == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


# ----------------------------------------------------------------------
# replay store
# ----------------------------------------------------------------------


def test_store_round_trip(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, "d0", ["first", "second"])
    store.record(1, "d1", ["third"])
    assert store.recorded_count(0) == 2
    assert store.recorded_count(1) == 1
    assert store.recorded_count(9) == 0
    assert [c.text for c in store.read(0, 2)] == ["first", "second"]
    assert store.load_manifest() == {"0": "d0", "1": "d1"}
    assert (tmp_path / "replay" / "0_1.txt").read_text() == "second"


def test_store_read_underfilled_slot_raises(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, "d0", ["only one"])
    with pytest.raises(ReplayError, match="slot 0 holds 1 completions, 3 requested"):
        store.read(0, 3)


def test_store_rerecord_clears_stale_files(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, "old", ["a", "b", "c"])
    store.record(0, "new", ["z"])
    assert store.recorded_count(0) == 1
    assert store.load_manifest() == {"0": "new"}


def test_store_corrupt_manifest_raises(tmp_path):
    d = tmp_path / "replay"
    d.mkdir()
    (d / "manifest.json").write_text("{not json")
    with pytest.raises(ReplayError, match="unreadable replay manifest"):
        ReplayStore(d).load_manifest()


def test_replay_backend_serves_in_request_order(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, prompt_digest("p0"), ["r0"])
    store.record(1, prompt_digest("p1"), ["r1a", "r1b"])
    backend = ReplayBackend(tmp_path / "replay")
    assert [c.text for c in backend.complete(CompletionRequest(prompt_text="p0"))] == ["r0"]
    out = backend.complete(CompletionRequest(prompt_text="p1", n=2))
    assert [c.text for c in out] == ["r1a", "r1b"]
    assert all(c.finish_state == FINISH_COMPLETE for c in out)


def test_replay_backend_rejects_digest_drift(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, prompt_digest("recorded prompt"), ["r0"])
    backend = ReplayBackend(tmp_path / "replay")
    with pytest.raises(ReplayError, match="digest mismatch at replay slot 0"):
        backend.complete(CompletionRequest(prompt_text="a different prompt"))


def test_replay_backend_rejects_unknown_slot(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, prompt_digest("p"), ["r0"])
    backend = ReplayBackend(tmp_path / "replay")
    backend.complete(CompletionRequest(prompt_text="p"))
    with pytest.raises(ReplayError, match="no slot 1"):
        backend.complete(CompletionRequest(prompt_text="p"))


def test_replay_backend_authoring_mode_skips_verification(tmp_path):
    store = ReplayStore(tmp_path / "replay")
    store.record(0, "whatever", ["r0"])
    backend = ReplayBackend(tmp_path / "replay", verify_digests=False)
    assert [c.text for c in backend.complete(CompletionRequest(prompt_text="brand new"))] == ["r0"]
    assert backend.digests_seen == [prompt_digest("brand new")]


def test_recording_backend_tees_into_a_store(tmp_path):
    class Canned:
        def complete(self, req):
            return [Completion(i, f"answer {i}") for i in range(req.n)]

    rec = RecordingBackend(Canned(), tmp_path / "captured")
    rec.complete(CompletionRequest(prompt_text="q1", n=2))
    rec.complete(CompletionRequest(prompt_text="q2"))

    replay = ReplayBackend(tmp_path / "captured")
    assert [c.text for c in replay.complete(CompletionRequest(prompt_text="q1", n=2))] == [
        "answer 0",
        "answer 1",
    ]
    assert [c.text for c in replay.complete(CompletionRequest(prompt_text="q2"))] == ["answer 0"]


# ----------------------------------------------------------------------
# HTTP backend against a real local server
# ----------------------------------------------------------------------


class _ScriptedServer:
    """Serves queued (status, body) responses; records request payloads."""

    def __init__(self):
        self.responses = []
        self.requests = []
        self.headers = []
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                outer.requests.append(json.loads(self.rfile.read(length)))
                outer.headers.append(dict(self.headers))
                status, body = outer.responses.pop(0)
                payload = body if isinstance(body, bytes) else json.dumps(body).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def server():
    s = _ScriptedServer()
    yield s
    s.close()


def _choices(*texts, finish="stop"):
    return {
        "choices": [
            {"index": i, "message": {"content": t}, "finish_reason": finish}
            for i, t in enumerate(texts)
        ]
    }


def test_endpoint_required():
    with pytest.raises(ConfigError):
        HttpBackend("")


def test_http_happy_path_maps_choices_by_index(server):
    body = _choices("zeroth", "first")
    body["choices"].reverse()  # arrive out of order
    server.responses.append((200, body))
    backend = HttpBackend(server.endpoint, backoff_s=0)
    req = CompletionRequest(prompt_text="fix it", n=2, model_name="test-model")
    out = backend.complete(req)
    assert [(c.index, c.text) for c in out] == [(0, "zeroth"), (1, "first")]

    sent = server.requests[0]
    assert list(sent) == ["model", "messages", "n", *SAMPLING]
    assert sent["messages"] == [{"role": "user", "content": "fix it"}]
    assert sent["n"] == 2
    assert sent["model"] == "test-model"
    assert {k: sent[k] for k in SAMPLING} == SAMPLING == {
        "temperature": 0.2,
        "top_p": 1.0,
        "frequency_penalty": 0.0,
        "presence_penalty": 0.0,
        "max_tokens": 800,
    }


def test_http_bearer_token_from_environment(server, monkeypatch):
    monkeypatch.setenv("FIXLOOP_API_KEY", "sk-test-123")
    server.responses.append((200, _choices("ok")))
    HttpBackend(server.endpoint, backoff_s=0).complete(CompletionRequest(prompt_text="p"))
    assert server.headers[0].get("Authorization") == "Bearer sk-test-123"


def test_http_length_finish_reason_marks_truncated(server):
    server.responses.append((200, _choices("cut off", finish="length")))
    out = HttpBackend(server.endpoint, backoff_s=0).complete(CompletionRequest(prompt_text="p"))
    assert out[0].finish_state == FINISH_TRUNCATED


def test_http_missing_choice_degrades_that_index_only(server):
    server.responses.append((200, _choices("only one")))
    out = HttpBackend(server.endpoint, backoff_s=0).complete(
        CompletionRequest(prompt_text="p", n=3)
    )
    assert [c.finish_state for c in out] == [
        FINISH_COMPLETE,
        FINISH_BACKEND_ERROR,
        FINISH_BACKEND_ERROR,
    ]


def test_http_retries_transient_status_then_succeeds(server):
    server.responses.append((503, {"error": "overloaded"}))
    server.responses.append((200, _choices("recovered")))
    out = HttpBackend(server.endpoint, retries=3, backoff_s=0).complete(
        CompletionRequest(prompt_text="p")
    )
    assert out[0].text == "recovered"
    assert len(server.requests) == 2


def test_http_client_error_raises_immediately(server):
    server.responses.append((400, {"error": "bad request"}))
    with pytest.raises(BackendError, match="HTTP 400"):
        HttpBackend(server.endpoint, retries=3, backoff_s=0).complete(
            CompletionRequest(prompt_text="p")
        )
    assert len(server.requests) == 1


def test_http_malformed_body_degrades_after_retries(server):
    for _ in range(2):
        server.responses.append((200, b"this is not json"))
    out = HttpBackend(server.endpoint, retries=2, backoff_s=0).complete(
        CompletionRequest(prompt_text="p", n=2)
    )
    assert [c.finish_state for c in out] == [FINISH_BACKEND_ERROR, FINISH_BACKEND_ERROR]
    assert [c.text for c in out] == ["", ""]


def test_http_choice_that_is_not_an_object_degrades(server):
    server.responses.append((200, {"choices": ["not an object"]}))
    out = HttpBackend(server.endpoint, retries=1, backoff_s=0).complete(
        CompletionRequest(prompt_text="p")
    )
    assert [c.finish_state for c in out] == [FINISH_BACKEND_ERROR]


def test_http_retry_exhaustion_raises_backend_error(server):
    for _ in range(3):
        server.responses.append((502, {"error": "bad gateway"}))
    with pytest.raises(BackendError, match="failed after 3 attempts: HTTP 502"):
        HttpBackend(server.endpoint, retries=3, backoff_s=0).complete(
            CompletionRequest(prompt_text="p")
        )


def test_http_connection_refused_raises_backend_error():
    backend = HttpBackend("http://127.0.0.1:9/never", retries=2, backoff_s=0, timeout_s=0.5)
    with pytest.raises(BackendError, match="transport failure"):
        backend.complete(CompletionRequest(prompt_text="p"))
