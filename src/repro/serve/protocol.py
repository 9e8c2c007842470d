"""The HTTP/JSON wire protocol of :mod:`repro.serve`.

The serving layer speaks a deliberately small subset of HTTP/1.1 —
request line, headers, ``Content-Length`` bodies, keep-alive — parsed
and emitted here over :mod:`asyncio` streams, with every payload a
JSON object.  Nothing outside the standard library is involved, and
the same module serves both directions: the asyncio server reads
requests with :func:`read_request` and answers with
:func:`json_response`; the blocking client in
:mod:`repro.serve.client` builds on :mod:`http.client` and shares only
the payload conventions.

Every node is addressed as ``"host:port"``; :func:`parse_endpoint` is
the one parser of that form, shared by the client, the server and the
replication module.

Error convention: every non-2xx response carries
``{"error": <message>, "status": <code>}``.  Server-side handlers
raise :class:`ServeError` (or any :class:`~repro.exceptions.ReproError`,
mapped to 400) and the connection loop renders it; the client raises
:class:`ServeError` back out of the same payload, so a scripted caller
sees one exception type end to end.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Optional
from urllib.parse import parse_qsl

import asyncio

from repro.exceptions import ReproError

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Largest accepted request body (bundles with databases included)."""

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    414: "URI Too Long",
    421: "Misdirected Request",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServeError(ReproError):
    """A request the server refuses, with its HTTP status attached.

    ``extra`` rides along in the error payload — machine-readable
    context beyond the message, e.g. the primary endpoint on a 421
    mutation redirect or the fencing term on a refused replication
    stream.  The client reattaches whatever extra fields it decodes,
    so both ends see the same structured refusal.
    """

    def __init__(
        self, status: int, message: str,
        extra: Optional[dict[str, Any]] = None,
    ):
        super().__init__(message)
        self.status = status
        self.extra = dict(extra) if extra else {}


class ProtocolError(ServeError):
    """Bytes on the wire that are not a well-formed request."""

    def __init__(self, message: str):
        super().__init__(400, message)


@dataclass
class Request:
    """One parsed HTTP request.

    ``trace_id`` is the client's ``X-Trace-Id`` header when present
    (so callers can stitch a distributed waterfall) and empty
    otherwise — the server's :class:`~repro.obs.tracing.Trace` mints
    an id lazily only when something reads it.  ``parse_seconds``
    is the wall time :func:`read_request` spent turning bytes into this
    object — the server records it as the trace's ``parse`` span.
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    query: dict[str, str] = field(default_factory=dict)
    trace_id: str = ""
    parse_seconds: float = 0.0

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> dict[str, Any]:
        """The body as a JSON object (``{}`` when empty)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except (ValueError, RecursionError) as exc:
            raise ServeError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(payload, dict):
            raise ServeError(
                400,
                f"request body must be a JSON object, got "
                f"{type(payload).__name__}",
            )
        return payload


async def read_request(
    reader: asyncio.StreamReader,
    on_started: Optional[Any] = None,
) -> Optional[Request]:
    """Read one request off the stream; ``None`` on a clean EOF.

    ``on_started`` (a zero-argument callable) fires as soon as the
    request *line* has arrived — before headers and body are read —
    which is how the server marks a connection busy early enough that
    graceful shutdown drains a request whose body is still in flight.

    A line longer than the stream's limit makes ``readline()`` raise
    ``ValueError``; that becomes a 414 for the request line and a 431
    for a header line.
    """
    try:
        line = await reader.readline()
    except ConnectionResetError:
        return None
    except ValueError:
        raise ServeError(414, "request line too long")
    if not line:
        return None
    if on_started is not None:
        on_started()
    parse_start = time.perf_counter()
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ProtocolError(f"malformed request line: {line!r}")
    method, target = parts[0].upper(), parts[1]
    path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string)) if query_string else {}
    headers: dict[str, str] = {}
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            raise ServeError(431, "header line too long")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError("connection closed mid-headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {raw!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        length = -1
    if length < 0:
        raise ProtocolError(f"bad Content-Length: {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise ServeError(413, f"request body over {MAX_BODY_BYTES} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body")
    return Request(
        method=method,
        path=path,
        headers=headers,
        body=body,
        query=query,
        trace_id=headers.get("x-trace-id", ""),
        parse_seconds=time.perf_counter() - parse_start,
    )


def json_response(
    status: int, payload: dict[str, Any], close: bool = False
) -> bytes:
    """One complete HTTP/1.1 response with a JSON body."""
    return text_response(
        status, json.dumps(payload), close, content_type="application/json"
    )


def text_response(
    status: int, body_text: str, close: bool = False,
    content_type: str = "text/plain; version=0.0.4; charset=utf-8",
) -> bytes:
    """One complete HTTP/1.1 response with a text body: the one place a
    response head is written.

    The default content type is the Prometheus text exposition type —
    ``GET /metrics`` is the only non-JSON endpoint the server has.
    """
    body = body_text.encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if close:
        head += "Connection: close\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def error_payload(
    status: int, message: str, extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """The uniform error body both ends of the wire agree on."""
    payload = {"error": message, "status": status}
    if extra:
        payload.update(extra)
    return payload


def is_count(value: Any) -> bool:
    """Whether a decoded JSON value is an integer >= 0 (``true`` is
    not): what every seq, term and lag on the wire must be."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def parse_endpoint(text: str) -> tuple[str, int]:
    """Split ``"host:port"``; raises :class:`ValueError` when malformed."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be 'host:port', got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"endpoint port must be an integer, got {text!r}")
    if not (0 < port < 65536):
        raise ValueError(f"endpoint port out of range: {text!r}")
    return host, port
