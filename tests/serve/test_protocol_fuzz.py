"""Arbitrary bytes on the wire meet no unhandled exception.

Whatever a peer sends, :func:`read_request` answers a :class:`Request`,
``None`` (a clean end of stream) or a :class:`ServeError` the
connection loop renders as a 4xx.  The streams mix raw bytes with
fragments of real requests, so the parse gets past the request line
into headers, ``Content-Length`` and bodies, and every stream is read
to its end the way a keep-alive connection would be.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import Request, ServeError, read_request

FRAGMENTS = st.sampled_from([
    b"GET", b"POST", b" ", b"/", b"/tenants/app/implies", b"?a=1&b",
    b"HTTP/1.1", b"HTTP/", b"\r\n", b"\n", b"\r\n\r\n", b":",
    b"Content-Length", b"Content-Length: 2", b"content-length: -1",
    b"Content-Length: x", b"Connection: close", b"X-Trace-Id: t",
    b"{}", b'{"target": 1}', b"\x00", b"\xff",
])
STREAMS = st.one_of(
    st.binary(max_size=512),
    st.lists(
        st.one_of(FRAGMENTS, st.binary(max_size=16)), max_size=40
    ).map(b"".join),
)


async def read_stream(data: bytes, limit: int) -> list:
    """Every outcome of reading ``data`` request by request."""
    reader = asyncio.StreamReader(limit=limit)
    reader.feed_data(data)
    reader.feed_eof()
    outcomes = []
    while True:
        try:
            request = await read_request(reader)
        except ServeError as exc:
            return outcomes + [exc]
        outcomes.append(request)
        if request is None:
            return outcomes


@settings(max_examples=300, deadline=None)
@given(data=STREAMS, limit=st.sampled_from([8, 64, 2 ** 16]))
def test_read_request_answers_a_request_none_or_a_serve_error(data, limit):
    outcomes = asyncio.run(read_stream(data, limit))
    *requests, last = outcomes
    assert all(isinstance(request, Request) for request in requests)
    assert last is None or isinstance(last, ServeError)
    if isinstance(last, ServeError):
        assert 400 <= last.status < 500


def test_a_whole_request_parses():
    [request, end] = asyncio.run(read_stream(
        b"POST /tenants/app/implies?trace=1 HTTP/1.1\r\n"
        b"Content-Length: 2\r\nX-Trace-Id: t\r\n\r\n{}", 2 ** 16,
    ))
    assert (request.method, request.path, request.query) == (
        "POST", "/tenants/app/implies", {"trace": "1"}
    )
    assert (request.body, request.trace_id, end) == (b"{}", "t", None)
