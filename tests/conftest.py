import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from mtgender.backends import TranslationRecord
from mtgender.corpus import (
    GenderLabel,
    ReferencedEntity,
    SourceSentence,
    Stereotype,
    StereotypeLists,
    Suite,
)
from mtgender.fileio import line_encoder, write_jsonl
from mtgender.resources import data_path

MALE_OCC = "मैकेनिक"
FEMALE_OCC = "नर्स"


def write_translations(path, records) -> None:
    """Write records as a translations file, in the lines translate writes."""
    write_jsonl(path, map(line_encoder(TranslationRecord), records))


def dev_digits(n: int) -> str:
    """Render an integer with Devanagari digits (U+0966..U+096F)."""
    return "".join(chr(0x0966 + int(d)) for d in str(n))


def build_winomt_corpus(n: int = 400) -> list[SourceSentence]:
    """Synthetic challenge corpus: gender-balanced and pro/anti-balanced.

    Quarters: pro-male, pro-female, anti-male, anti-female; n must divide by 4.
    """
    assert n % 4 == 0
    quarters = [
        (GenderLabel.MALE, MALE_OCC, Stereotype.PRO),
        (GenderLabel.FEMALE, FEMALE_OCC, Stereotype.PRO),
        (GenderLabel.MALE, FEMALE_OCC, Stereotype.ANTI),
        (GenderLabel.FEMALE, MALE_OCC, Stereotype.ANTI),
    ]
    sentences = []
    index = 0
    for gold, occupation, stereotype in quarters:
        for _ in range(n // 4):
            sentences.append(
                SourceSentence(
                    id=f"syn-{index:04d}",
                    text=f"{occupation} परीक्षण वाक्य {dev_digits(index)}",
                    suite=Suite.WINOMT,
                    set_id="synthetic",
                    gold_gender=gold,
                    occupation=occupation,
                    stereotype=stereotype,
                    referenced_entity=(
                        ReferencedEntity.ENTITY1 if index % 2 == 0 else ReferencedEntity.ENTITY2
                    ),
                )
            )
            index += 1
    return sentences


@pytest.fixture
def winomt_corpus_400() -> list[SourceSentence]:
    return build_winomt_corpus(400)


@pytest.fixture
def synthetic_lists() -> StereotypeLists:
    return StereotypeLists(frozenset({MALE_OCC}), frozenset({FEMALE_OCC}))


@pytest.fixture
def occupations_1071(tmp_path):
    """A 1071-line occupation file: the bundled sample terms plus generated fillers."""
    base = [
        line.strip()
        for line in data_path("occupations_sample.txt").read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    fillers = [f"पेशा {dev_digits(i)}" for i in range(1071 - len(base))]
    path = tmp_path / "occupations-1071.txt"
    path.write_text("\n".join(base + fillers) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def backends_config(tmp_path):
    """Write a backends config file and return its path."""
    config = {
        "backends": [
            {"name": "echo-gold", "kind": "mock", "mock": {"spec": "echo_gold"}},
            {"name": "always-male", "kind": "mock", "mock": {"spec": "always_male"}},
            {"name": "always-female", "kind": "mock", "mock": {"spec": "always_female"}},
            {"name": "neutralize", "kind": "mock", "mock": {"spec": "neutralizing"}},
            {"name": "coin", "kind": "mock",
             "mock": {"spec": "coin_flip", "seed": 7, "p_male": 0.5}},
            {"name": "replay", "kind": "file_replay", "replay_path": "replay.jsonl"},
        ]
    }
    path = tmp_path / "backends.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# Local HTTP translation server for backend tests


class _ServerState:
    def __init__(self):
        self.lock = threading.Lock()
        self.total_requests = 0
        self.seen_texts = {}
        self.in_flight = 0
        self.max_in_flight = 0
        self.require_token = None
        self.connections = 0  # opened so far
        self.open_connections = 0
        self.close_after_reply = False  # without saying Connection: close
        self.paths = []  # request targets, CONNECT included
        self.last_headers = None
        self.last_body = None


class _Handler(BaseHTTPRequestHandler):
    def log_message(self, *args):  # keep test output clean
        pass

    def setup(self):
        super().setup()
        # headers and body leave in two writes; without this a kept-alive
        # connection waits for the client's delayed ACK between them
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        state = self.server.state
        with state.lock:
            state.connections += 1
            state.open_connections += 1

    def finish(self):
        try:
            super().finish()
        finally:
            state = self.server.state
            with state.lock:
                state.open_connections -= 1

    def do_CONNECT(self):
        with self.server.state.lock:
            self.server.state.paths.append(self.path)
        self._reply(403, {"error": "no tunnels here"})

    def do_POST(self):
        state: _ServerState = self.server.state  # type: ignore[attr-defined]
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        body = json.loads(raw)
        text = body.get("q", "")
        with state.lock:
            state.total_requests += 1
            state.seen_texts[text] = state.seen_texts.get(text, 0) + 1
            attempt = state.seen_texts[text]
            state.in_flight += 1
            state.max_in_flight = max(state.max_in_flight, state.in_flight)
            state.paths.append(self.path)
            state.last_headers = self.headers
            state.last_body = raw
        try:
            if state.require_token is not None:
                if self.headers.get("Authorization") != f"Bearer {state.require_token}":
                    self._reply(401, {"error": "unauthorized"})
                    return
            if "FAIL500" in text:
                self._reply(500, {"error": "boom"})
            elif "FLAKY" in text and attempt == 1:
                self._reply(503, {"error": "try again"})
            elif "THROTTLE" in text and attempt == 1:
                self._reply(429, {"error": "slow down"}, {"Retry-After": "2"})
            elif "WAIT=" in text and attempt == 1:
                self._reply(429, {"error": "come back later"},
                            {"Retry-After": text.split("WAIT=")[1]})
            elif "RATELIMITED" in text:
                self._reply(429, {"error": "slow down"})
            elif "TIMEOUT408" in text and attempt == 1:
                self._reply(408, {"error": "request timeout"})
            elif "TRUNCATED" in text and attempt == 1:
                self.send_response(200)
                self.send_header("Content-Length", "100")
                self.end_headers()
                self.wfile.write(b'{"data": ')
                self.close_connection = True
            elif "SLOW" in text:
                time.sleep(0.5)
                self._reply(200, {"data": {"translations": [{"translatedText": "He waited."}]}})
            elif "REDIRECT" in text:
                self._reply(301, {"error": "moved"}, {"Location": "/elsewhere"})
            elif "NOTFOUND" in text:
                self._reply(404, {"error": "no such model"})
            elif "EMPTY" in text:
                self._reply(200, {"data": {"translations": [{"translatedText": ""}]}})
            elif "BADSHAPE" in text:
                self._reply(200, {"unexpected": True})
            elif "NESTED" in text:  # deeper than the JSON parser can recurse
                self._reply(200, b"[" * 100_000 + b"]" * 100_000)
            else:
                self._reply(
                    200,
                    {"data": {"translations": [{"translatedText": f"He works. [{text}]"}]}},
                )
        finally:
            with state.lock:
                state.in_flight -= 1

    def _reply(self, status, payload, headers=None):
        """Send payload as JSON, or as it is when it is bytes already."""
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(raw)
        if self.server.state.close_after_reply:
            self.close_connection = True


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"


def _serve(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.state = _ServerState()  # type: ignore[attr-defined]
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/translate"
    try:
        yield url, server.state  # type: ignore[attr-defined]
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def http_server():
    """An HTTP/1.0 translation server: one connection per request."""
    yield from _serve(_Handler)


@pytest.fixture
def http11_server():
    """The same server speaking HTTP/1.1, so connections are kept alive."""
    yield from _serve(_KeepAliveHandler)


# --------------------------------------------------------------------------
# Acceptance summary


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if "test_acceptance" in report.nodeid and report.when == "call":
                name = report.nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
