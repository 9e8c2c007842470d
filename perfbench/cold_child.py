"""The ``engine_cold`` child: the program used as a library.

Reads one JSON message per stdin line — a bundle, a batch of targets
and one dependency to add — and for each builds everything from
scratch: parse the bundle, build a fresh ``ReasoningSession``, ask the
batch with ``implies_all``, ``add`` the dependency, ask the batch
again.  Writes one JSON line back per message with the verdicts and
the CPU time of each public call: the calls are single-threaded and do
no I/O, so that is their wall time less any time the child waited for
the CPU.  With ``"trace": true`` the reply
also carries the session's own counters (``session.stats()``).

A ``probe`` line instead times the host-speed probe
(:func:`common.time_probe`) and replies with its CPU seconds per probe.

Prints ``ready`` once its imports are done; exits on EOF.
"""

from __future__ import annotations

import json
import sys
import time

from common import time_probe
from repro.engine.session import ReasoningSession
from repro.io import bundle_from_payload

PROBE = "probe\n"
PROBE_REPEATS = 10

STAT_KEYS = (
    "reach_compiles", "reach_compile_seconds", "reach_nodes",
    "reach_invalidations", "closure_hits", "closure_misses",
    "fd_kernels_compiled", "chase_runs", "chase_rounds",
    "chase_rows_scanned", "engines",
)


def answer(line: str) -> dict:
    clock = time.thread_time
    started = clock()
    message = json.loads(line)
    schema, dependencies, _db = bundle_from_payload(message["bundle"])
    parsed = clock()
    session = ReasoningSession(schema, dependencies)
    built = clock()
    first = session.implies_all(message["targets"])
    asked = clock()
    session.add(message["add"])
    added = clock()
    second = session.implies_all(message["targets"])
    done = clock()
    reply = {
        "first": [a.verdict for a in first],
        "second": [a.verdict for a in second],
        "degraded": sum(a.degraded for a in first + second),
        "seconds": done - started,
        "spans": {
            "parse": parsed - started,
            "build": built - parsed,
            "batch": asked - built,
            "add": added - asked,
            "rebatch": done - added,
        },
    }
    if message.get("trace"):
        stats = session.stats()
        reply["stats"] = {key: stats[key] for key in STAT_KEYS}
    return reply


def main() -> int:
    print("ready", flush=True)
    for line in sys.stdin:
        try:
            if line == PROBE:
                reply = {"probe": time_probe(PROBE_REPEATS)}
            else:
                reply = answer(line)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
