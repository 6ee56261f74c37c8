"""Keep-alive HTTP POSTs to one endpoint, on the standard library.

Only the http backend imports this module: http.client and ssl take about
30 ms to import, which every other backend and stage would otherwise pay at
start-up.
"""

from __future__ import annotations

import base64
import http.client
import ssl
import threading
import urllib.parse
import urllib.request
from typing import Mapping, NamedTuple

# a reused connection fails like this, before any response byte, when the
# server closed it while it sat idle (RemoteDisconnected is a
# ConnectionResetError)
_IDLE_CLOSED = (BrokenPipeError, ConnectionResetError)

# characters left as they are when quoting the request target: everything
# that may appear in a URL, '%' included so escapes are not escaped again
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"


class Response(NamedTuple):
    status: int
    body: bytes
    retry_after: str | None


class KeepAliveClient:
    """POSTs to one URL over one keep-alive connection per calling thread.

    The host, port, request target and proxy are resolved once, here. The
    proxy comes from HTTP_PROXY / HTTPS_PROXY unless NO_PROXY lists the
    host: a plain-HTTP request goes to the proxy with an absolute-form
    request line, an HTTPS one through a CONNECT tunnel. TLS is verified
    against the default CA store (SSL_CERT_FILE / SSL_CERT_DIR).
    """

    # what a POST can raise short of an HTTP response
    ERRORS = (OSError, http.client.HTTPException)

    def __init__(self, url: str, timeout_s: float, headers: Mapping[str, str]) -> None:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, not {url!r}")
        self._https = parts.scheme == "https"
        host, port = parts.hostname, parts.port or (443 if self._https else 80)
        path = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._target = urllib.parse.quote(path, safe=_URL_SAFE)
        self._headers = dict(headers)
        self._address = (host, port)
        self._tunnel: tuple[str, int] | None = None
        self._proxy_headers: dict[str, str] = {}

        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            if proxy_parts.scheme != "http" or not proxy_parts.hostname:
                raise ValueError(f"{parts.scheme} proxy must be an http:// URL, not {proxy!r}")
            self._address = (proxy_parts.hostname, proxy_parts.port or 80)
            if proxy_parts.username is not None:
                credentials = (f"{urllib.parse.unquote(proxy_parts.username)}:"
                               f"{urllib.parse.unquote(proxy_parts.password or '')}")
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                self._proxy_headers = {"Proxy-Authorization": f"Basic {token}"}
            if self._https:
                self._tunnel = (host, port)
            else:
                origin = parts.netloc.rpartition("@")[2]
                self._target = f"http://{origin}{self._target}"
                self._headers.update(self._proxy_headers)

        self._timeout_s = timeout_s
        self._tls = ssl.create_default_context() if self._https else None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._opened: list[http.client.HTTPConnection] = []

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._https:
                conn = http.client.HTTPSConnection(*self._address, timeout=self._timeout_s,
                                                   context=self._tls)
                if self._tunnel is not None:
                    conn.set_tunnel(*self._tunnel, headers=self._proxy_headers)
            else:
                conn = http.client.HTTPConnection(*self._address, timeout=self._timeout_s)
            self._local.conn = conn
            with self._lock:
                self._opened.append(conn)
        return conn

    def post(self, body: bytes) -> Response:
        """POST body on this thread's connection and read the whole response.

        A request that fails on a reused connection before any response byte
        arrives is sent once more on a new connection. Any other failure
        closes the connection (the next call opens a new one) and raises one
        of ERRORS.
        """
        conn = self._connection()
        try:
            reused = conn.sock is not None
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except _IDLE_CLOSED:
                if not reused:
                    raise
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            return Response(response.status, response.read(), response.getheader("Retry-After"))
        except self.ERRORS:
            conn.close()
            raise

    def close(self) -> None:
        """Close every connection opened so far, from whichever thread."""
        with self._lock:
            opened, self._opened = self._opened, []
        for conn in opened:
            conn.close()
        self._local = threading.local()
