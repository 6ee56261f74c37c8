"""Loopback HTTP/1.1 translation stub for the winomt-http workload.

The stub serves the request template the benchmark writes into the backends
config (``{"q": text}`` in, ``data.translations.0.translatedText`` out). What
it does for a text is fixed in advance by a :class:`Plan`: how long to take,
which status to answer on the first attempt, and the English reply that
carries the designed pronouns. Later attempts of a faulted text succeed.

It is built to measure the client, not itself:

* each response leaves in one ``write`` and ``TCP_NODELAY`` is set, because
  headers and body in two writes on a keep-alive connection meet the
  client's delayed ACK and cost tens of milliseconds per request;
* it runs one thread per client connection and no more;
* :meth:`Stub.calibrate` measures the requests per second it can serve at
  zero delay, so a reader can tell when the stub, not the program, bounds
  throughput.

Counters are kept per window: :meth:`Stub.take_stats` returns what happened
since the previous call and starts a new window.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REASONS = {200: "OK", 429: "Too Many Requests", 503: "Service Unavailable"}
CALIBRATION_TEXT = "calibration"


@dataclass(frozen=True)
class Plan:
    """What the stub does for one source text."""

    delay_s: float
    reply: str
    first_status: int = 200  # status of the first attempt; later attempts get 200


@dataclass
class StubStats:
    requests: int = 0
    connections: int = 0
    ok: int = 0
    status_429: int = 0
    status_503: int = 0
    retries: int = 0
    in_flight_max: int = 0
    service_s: list[float] = field(default_factory=list)

    @property
    def ok_per_attempt(self) -> float:
        return self.ok / self.requests if self.requests else 0.0

    def service_ms(self, q: float) -> float:
        """Service-time percentile in ms (q in 0..100); 0 when nothing was served."""
        if not self.service_s:
            return 0.0
        ordered = sorted(self.service_s)
        return 1000.0 * ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]

    def busy_share(self, wall_s: float, concurrency: int) -> float:
        """Stub service time over the time the client's workers had available."""
        return sum(self.service_s) / (wall_s * concurrency) if wall_s > 0 else 0.0


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    stub: "Stub"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30  # an idle keep-alive connection is dropped after this long

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.server.stub._opened(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.stub._closed(self.connection)

    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        text = json.loads(self.rfile.read(length)).get("q", "")
        start = time.perf_counter()
        status, payload = self.server.stub._serve(text)
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {REASONS[status]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Retry-After: 0\r\n" if status == 429 else "")
            + "\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)
        self.server.stub._served(text, status, time.perf_counter() - start)


class Stub:
    """A running loopback stub; close it with :meth:`close`."""

    def __init__(self, plans: dict[str, Plan]) -> None:
        self.plans = plans
        self._lock = threading.Lock()
        self._attempts: dict[str, int] = {}
        self._in_flight = 0
        self._stats = StubStats()
        self._seen: set[str] = set()
        self._open: set[socket.socket] = set()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/translate"

    def reset_attempts(self) -> None:
        """Forget earlier attempts, so every planned fault fires once more."""
        with self._lock:
            self._attempts.clear()

    def take_stats(self) -> StubStats:
        with self._lock:
            stats, self._stats = self._stats, StubStats()
            stats.retries = stats.requests - len(self._seen)
            self._seen = set()
        return stats

    def calibrate(self, requests: int, clients: int) -> float:
        """Requests per second served at zero delay over keep-alive connections."""
        host, port = self._server.server_address[:2]
        body = json.dumps({"q": CALIBRATION_TEXT}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        errors: list[BaseException] = []

        def client(n: int) -> None:
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                for _ in range(n):
                    conn.request("POST", "/translate", body, headers)
                    conn.getresponse().read()
            except (OSError, http.client.HTTPException) as exc:
                errors.append(exc)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=client, args=(requests // clients,)) for _ in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            raise RuntimeError(f"stub calibration failed: {errors[0]!r}")
        self.take_stats()
        return (requests // clients) * clients / elapsed

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        with self._lock:
            open_sockets = list(self._open)
        for sock in open_sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._thread.join()
        # handler threads end once their connection is gone; wait for them
        deadline = time.monotonic() + 10
        while True:
            with self._lock:
                if not self._open or time.monotonic() > deadline:
                    break
            time.sleep(0.01)

    # -- called from handler threads ------------------------------------

    def _opened(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.add(sock)
            self._stats.connections += 1

    def _closed(self, sock: socket.socket) -> None:
        with self._lock:
            self._open.discard(sock)

    def _serve(self, text: str) -> tuple[int, dict]:
        plan = self.plans.get(text) or Plan(0.0, CALIBRATION_TEXT)
        with self._lock:
            attempt = self._attempts[text] = self._attempts.get(text, 0) + 1
            self._in_flight += 1
            self._stats.in_flight_max = max(self._stats.in_flight_max, self._in_flight)
        try:
            if plan.delay_s:
                time.sleep(plan.delay_s)
        finally:
            with self._lock:
                self._in_flight -= 1
        if attempt == 1 and plan.first_status != 200:
            return plan.first_status, {"error": REASONS[plan.first_status]}
        return 200, {"data": {"translations": [{"translatedText": plan.reply}]}}

    def _served(self, text: str, status: int, service_s: float) -> None:
        with self._lock:
            stats = self._stats
            stats.requests += 1
            self._seen.add(text)
            stats.service_s.append(service_s)
            if status == 200:
                stats.ok += 1
            elif status == 429:
                stats.status_429 += 1
            elif status == 503:
                stats.status_503 += 1
