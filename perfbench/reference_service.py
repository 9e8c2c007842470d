"""A fixed reference HTTP service: the yardstick for the host's speed.

The served workloads time a few round trips to this service between
their requests, on the CPU that runs both the client and the program
(see :class:`common.ReferenceService`).  It does work of the program's
kind and runs none of its code: an asyncio keep-alive HTTP/1.1 server
that parses each JSON request, walks a fixed table, and answers JSON.
Its round trip slows with the host the way a served request does —
the same context switches, loopback sockets, parsing and interpreter
work — where a pure computation in the client's thread does not.

Prints ``listening on 127.0.0.1:<port>`` once ready; exits on SIGTERM
or when its standard input closes.
"""

from __future__ import annotations

import asyncio
import json
import random
import signal
import sys

TABLE = {
    f"R{i}[A{i % 7},A{(i * 3) % 7}]": [f"S{(i * k) % 997}" for k in range(6)]
    for i in range(20000)
}
KEYS = list(TABLE)
WALK = 40


def answer(body: dict) -> bytes:
    rng = random.Random(body["n"])
    seen = set()
    for _ in range(WALK):
        seen.update(TABLE[KEYS[rng.randrange(len(KEYS))]])
    return json.dumps({
        "target": body["target"],
        "verdict": len(seen) % 2 == 0,
        "seen": sorted(seen)[:20],
    }).encode()


async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            out = answer(json.loads(await reader.readexactly(length)))
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(out) + out
            )
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    loop = asyncio.get_running_loop()
    stop = loop.create_future()
    loop.add_signal_handler(signal.SIGTERM, stop.cancel)
    loop.add_reader(sys.stdin.fileno(), lambda: stop.done() or stop.cancel())
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    print(f"listening on 127.0.0.1:{port}", flush=True)
    try:
        await stop
    except asyncio.CancelledError:
        pass
    server.close()


if __name__ == "__main__":
    asyncio.run(main())
