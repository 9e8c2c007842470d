"""Command-line interface.

Usage (after ``pip install -e .``)::

    python -m repro check   bundle.json       # database vs dependencies
    python -m repro implies bundle.json "MGR[NAME] <= PERSON[NAME]"
    python -m repro implies bundle.json --finite "R[B] <= R[A]"
    python -m repro implies bundle.json --json "MGR[NAME] <= PERSON[NAME]"
    python -m repro prove   bundle.json "MGR[NAME] <= PERSON[NAME]"
    python -m repro batch   bundle.json targets.txt   # many questions, one load
    python -m repro whatif  bundle.json targets.txt --add "R[A] <= S[A]"
    python -m repro discover bundle.json --json   # mine FDs/INDs from data
    python -m repro shell   bundle.json       # interactive lifecycle REPL
    python -m repro keys    bundle.json       # candidate keys per relation
    python -m repro summary bundle.json       # structural profile
    python -m repro serve   --port 8765 --tenant app=bundle.json
    python -m repro call    /tenants/app/implies '{"target": "MGR[NAME] <= PERSON[NAME]"}'
    python -m repro top     --port 8765       # live /metrics table

``bundle.json`` follows the :mod:`repro.io` format: a schema, a list
of dependencies in the text DSL, and optionally a database instance.
Every subcommand loads the bundle into one
:class:`~repro.engine.session.ReasoningSession`, which indexes the
premises once and routes each question to the right engine.  The
lifecycle subcommands (``shell``, ``whatif``) then evolve that session
in place — add/retract premises, compare verdicts across versions —
instead of reloading per question.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from repro.engine.answer import Semantics
from repro.engine.session import ReasoningSession, flips_to_json
from repro.exceptions import ReproError
from repro.io import bundle_from_json, load_session, patch_from_json


def _load(path: str) -> ReasoningSession:
    with open(path, encoding="utf-8") as fp:
        return load_session(fp)


def _semantics(args: argparse.Namespace) -> Semantics:
    return Semantics.FINITE if getattr(args, "finite", False) else Semantics.UNRESTRICTED


def _read_targets(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fp:
        lines = [line.strip() for line in fp]
    return [line for line in lines if line and not line.startswith("#")]


def _cmd_check(args: argparse.Namespace) -> int:
    session = _load(args.bundle)
    if session.db is None:
        print("bundle has no database to check", file=sys.stderr)
        return 2
    report = session.check()
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0 if report.ok else 1
    for dep, holds in report.results:
        if holds:
            print(f"OK        {dep}")
        else:
            print(f"VIOLATED  {dep}")
            for witness in report.witnesses[dep][:3]:
                print(f"          witness: {witness}")
    total = len(report.results)
    print(f"\n{report.satisfied_count}/{total} dependencies hold")
    return 0 if report.ok else 1


def _cmd_implies(args: argparse.Namespace) -> int:
    session = _load(args.bundle)
    answer = session.implies(args.dependency, semantics=_semantics(args))
    if args.json:
        print(json.dumps(answer.to_json(), indent=2))
    else:
        print(answer.describe())
    return 0 if answer.verdict else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    session = _load(args.bundle)
    answer = session.prove(args.dependency)
    if not answer.verdict:
        if answer.stats.get("subset_complete", True):
            print(f"{answer.target} is NOT implied by the premises")
        else:
            # The proof calculus only saw the class-matching premises;
            # mixed sets can imply more (Section 4), so don't overclaim.
            kind = "IND" if answer.engine.value == "corollary-3.2" else "FD"
            print(f"{answer.target} is NOT provable from the {kind} premises "
                  f"alone (premises are mixed; 'implies' decides via the "
                  f"chase)")
        return 1
    print(answer.proof)
    print("\nproof verified by the independent checker")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    session = _load(args.bundle)
    targets = _read_targets(args.targets)
    if not targets:
        print("targets file has no dependencies to decide", file=sys.stderr)
        return 2
    answers = session.implies_all(targets, semantics=_semantics(args))
    implied = sum(answer.verdict for answer in answers)
    if args.json:
        stats = session.stats()
        print(json.dumps({
            "answers": [answer.to_json() for answer in answers],
            "implied": implied,
            "total": len(answers),
            "reach_cache_hits": stats["reach_cache_hits"],
        }, indent=2))
        return 0 if implied == len(answers) else 1
    width = max(len(str(answer.target)) for answer in answers)
    for answer in answers:
        print(f"{str(answer.target):<{width}}  {answer.verdict_word:<12} "
              f"{answer.engine.value}")
    stats = session.stats()
    print(f"\n{implied}/{len(answers)} implied "
          f"(premises indexed once; {stats['reach_cache_hits']} "
          f"exploration cache hit(s))")
    return 0 if implied == len(answers) else 1


def _cmd_discover(args: argparse.Namespace) -> int:
    """Mine the bundle database's FDs/INDs and reduce them to a cover."""
    from repro.discovery import discover

    with open(args.bundle, encoding="utf-8") as fp:
        _schema, _deps, db = bundle_from_json(fp.read())
    if db is None:
        print("bundle has no database to profile", file=sys.stderr)
        return 2
    classes = tuple(
        part.strip() for part in args.classes.split(",") if part.strip()
    )
    try:
        report = discover(
            db,
            classes=classes,
            max_lhs=args.max_lhs,
            max_ind_arity=args.max_ind_arity,
            prune=not args.no_prune,
            reduce=not args.no_reduce,
            reduce_strategy=args.strategy,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.describe())
    if args.bundle_out:
        with open(args.bundle_out, "w", encoding="utf-8") as fp:
            fp.write(report.bundle_json())
        print(
            f"cover bundle written to {args.bundle_out}",
            file=sys.stderr if args.json else sys.stdout,
        )
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    """Diff verdicts across a hypothetical premise change."""
    session = _load(args.bundle)
    targets = _read_targets(args.targets)
    if not targets:
        print("targets file has no dependencies to decide", file=sys.stderr)
        return 2
    add = list(args.add or [])
    retract = list(args.retract or [])
    if args.patch:
        with open(args.patch, encoding="utf-8") as fp:
            patch_add, patch_retract = patch_from_json(fp.read(), session.schema)
        add.extend(patch_add)
        retract.extend(patch_retract)
    if not add and not retract:
        print("whatif needs --add, --retract, or --patch", file=sys.stderr)
        return 2
    flips = session.whatif(
        targets, add=add, retract=retract, semantics=_semantics(args)
    )
    flipped = sum(flip.flipped for flip in flips)
    if args.json:
        print(json.dumps(flips_to_json(flips), indent=2))
        return 1 if flipped else 0
    width = max(len(str(flip.target)) for flip in flips)
    for flip in flips:
        marker = "  FLIPPED" if flip.flipped else ""
        print(f"{str(flip.target):<{width}}  {flip.before.verdict_word:<12} "
              f"-> {flip.after.verdict_word:<12}{marker}")
    base = flips[0].before.version if flips else 0
    variant = flips[0].after.version if flips else 0
    print(f"\n{flipped}/{len(flips)} verdicts flipped "
          f"(base v{base} -> variant v{variant})")
    return 1 if flipped else 0


_SHELL_HELP = """\
commands:
  implies [-f] <dep>   decide Sigma |= dep (-f: finite semantics)
  prove <dep>          formal checked proof for dep
  add <dep>            assert a premise (bumps the version)
  retract <dep>        withdraw a premise (bumps the version)
  keys [REL]           candidate keys (one relation or all)
  closure REL A,B      attribute closure X+ within REL
  deps                 list the current premises
  discover             mine FDs/INDs from the bundled database
  stats                session cache/workload counters
  version              current session version
  help                 this text
  quit                 leave the shell (also: exit, Ctrl-D)"""


def _shell_dispatch(session: ReasoningSession, line: str) -> bool:
    """Run one shell command; returns False when the shell should exit."""
    words = line.split(None, 1)
    command, rest = words[0], (words[1].strip() if len(words) > 1 else "")
    if command in ("quit", "exit"):
        return False
    if command == "help":
        print(_SHELL_HELP)
    elif command == "version":
        print(f"v{session.version}")
    elif command == "stats":
        for key, value in session.stats().items():
            print(f"  {key}: {value}")
    elif command == "deps":
        for dep in session.dependencies:
            print(f"  {dep}")
        print(f"({len(session.dependencies)} premises, v{session.version})")
    elif command == "discover":
        if session.db is None:
            print("bundle has no database to profile", file=sys.stderr)
        else:
            from repro.discovery import discover

            print(discover(session.db).describe())
    elif command == "add":
        delta = session.add(rest)
        print(f"v{session.version}: +{len(delta.added)} premise")
    elif command == "retract":
        delta = session.retract(rest)
        print(f"v{session.version}: -{len(delta.removed)} premise")
    elif command == "implies":
        semantics = Semantics.UNRESTRICTED
        for flag in ("-f", "--finite"):
            if rest.startswith(flag + " "):
                semantics = Semantics.FINITE
                rest = rest[len(flag):].strip()
                break
        print(session.implies(rest, semantics=semantics).describe())
    elif command == "prove":
        answer = session.prove(rest)
        print(answer.proof if answer.verdict
              else f"{answer.target} is not provable here")
    elif command == "keys":
        for name, keys in session.keys(rest or None).items():
            rendered = ", ".join(
                "{" + ",".join(sorted(key)) + "}" for key in keys
            )
            print(f"  {name}: {rendered}")
    elif command == "closure":
        parts = rest.split(None, 1)
        if len(parts) != 2:
            print("usage: closure REL A,B", file=sys.stderr)
        else:
            attrs = [a.strip() for a in parts[1].split(",") if a.strip()]
            closed = session.closure(parts[0], attrs)
            print("{" + ",".join(sorted(closed)) + "}")
    else:
        print(f"unknown command {command!r} (try 'help')", file=sys.stderr)
    return True


def _cmd_shell(args: argparse.Namespace) -> int:
    """Interactive premise-lifecycle REPL over one bundle."""
    session = _load(args.bundle)
    print(f"repro shell — {session!r}")
    print("type 'help' for commands, 'quit' to leave")
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            sys.stdout.write("repro> ")
            sys.stdout.flush()
        line = sys.stdin.readline()
        if not line:  # EOF
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not _shell_dispatch(session, line):
                break
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant reasoning server until drained."""
    import asyncio

    from repro.serve import (
        FaultInjector,
        ReasoningServer,
        ServeError,
        StateDir,
        TenantRegistry,
        serve_main,
    )

    try:
        faults = FaultInjector(
            args.faults or "", latency_ms=args.fault_latency_ms
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state_dir = None
    if args.state_dir:
        state_dir = StateDir(
            args.state_dir, faults=faults,
            snapshot_every=args.snapshot_every,
        )
    registry = TenantRegistry(
        artifact_capacity=args.lru_capacity, state_dir=state_dir
    )
    if registry.recovered_tenants:
        print(
            f"recovered {registry.recovered_tenants} tenant(s) "
            f"({registry.replayed_records} WAL record(s) replayed) "
            f"from {args.state_dir}",
            flush=True,
        )
    for spec in args.tenant or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            print(
                f"error: --tenant expects NAME=BUNDLE.json, got {spec!r}",
                file=sys.stderr,
            )
            return 2
        if name in registry.tenants:
            continue  # already recovered from --state-dir
        with open(path, encoding="utf-8") as fp:
            schema, dependencies, db = bundle_from_json(fp.read())
        try:
            registry.create(name, schema, dependencies, db=db)
        except ServeError as exc:
            print(f"error: --tenant {spec!r}: {exc}", file=sys.stderr)
            return 2
    try:
        server = ReasoningServer(
            registry, host=args.host, port=args.port, grace=args.grace,
            default_deadline=args.default_deadline, faults=faults,
            replica_of=args.replica_of, heartbeat=args.heartbeat,
            failover_after=args.failover_after,
            default_max_lag=args.max_lag, advertise=args.advertise,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return asyncio.run(serve_main(server))


def _cmd_call(args: argparse.Namespace) -> int:
    """One request against a running server (scripting/smoke tests)."""
    from repro.serve import ServeClient, ServeError

    payload = None
    if args.body is not None:
        try:
            payload = json.loads(args.body)
        except json.JSONDecodeError as exc:
            print(f"error: body is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(payload, dict):
            print("error: body must be a JSON object", file=sys.stderr)
            return 2
    method = args.method
    if method is None:
        method = "GET" if payload is None else "POST"
    client = ServeClient(host=args.host, port=args.port, timeout=args.timeout)
    try:
        result = client.request(method.upper(), args.path, payload)
    except ServeError as exc:
        refusal = {"error": str(exc), "status": exc.status, **exc.extra}
        print(json.dumps(refusal, indent=2))
        return 2
    finally:
        client.close()
    if args.json:
        # The machine envelope: the payload plus client-side wall time
        # and transport counters (retries, backoff slept).
        print(json.dumps({
            "result": result,
            "call_seconds": client.last_call_seconds,
            "transport": client.transport_stats(),
        }, indent=2))
    else:
        print(json.dumps(result, indent=2))
    # Verdict-style payloads drive shell conditionals: falsy verdict -> 1.
    if isinstance(result, dict) and result.get("verdict") is False:
        return 1
    return 0


def _format_top(metrics: dict, endpoint: str) -> str:
    """One ``repro top`` frame from a ``/metrics?format=json`` payload."""
    counters = sorted(metrics.get("counters", {}).items())
    gauges = sorted(metrics.get("gauges", {}).items())
    histograms = sorted(metrics.get("histograms", {}).items())
    names = [name for name, _ in counters + gauges + histograms]
    width = max([len(name) for name in names] + [24])

    def value_fmt(name: str):
        if "_seconds" in name:
            return lambda v: f"{v * 1e3:.2f}ms"
        return lambda v: f"{v:.6g}" if isinstance(v, float) else str(v)

    lines = [
        f"repro top — {endpoint} — "
        f"{len(counters)} counters, {len(gauges)} gauges, "
        f"{len(histograms)} histograms",
    ]
    if counters:
        lines.append("")
        lines.append(f"{'COUNTER':<{width}}  {'TOTAL':>12}")
        for name, value in counters:
            lines.append(f"{name:<{width}}  {value:>12}")
    if gauges:
        lines.append("")
        lines.append(f"{'GAUGE':<{width}}  {'VALUE':>12}")
        for name, value in gauges:
            lines.append(f"{name:<{width}}  {value_fmt(name)(value):>12}")
    if histograms:
        lines.append("")
        lines.append(
            f"{'HISTOGRAM':<{width}}  {'COUNT':>8} {'P50':>10} "
            f"{'P95':>10} {'P99':>10} {'MAX':>10}"
        )
        for name, hist in histograms:
            fmt = value_fmt(name)
            lines.append(
                f"{name:<{width}}  {hist['count']:>8} "
                f"{fmt(hist['p50']):>10} {fmt(hist['p95']):>10} "
                f"{fmt(hist['p99']):>10} {fmt(hist['max']):>10}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live metrics table polled from a running server's ``/metrics``."""
    from repro.serve import ServeClient, ServeError

    endpoint = f"{args.host}:{args.port}"
    client = ServeClient(host=args.host, port=args.port, timeout=args.timeout)
    try:
        while True:
            try:
                metrics = client.request("GET", "/metrics?format=json")
            except (ServeError, OSError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            frame = _format_top(metrics, endpoint)
            if not args.once:
                sys.stdout.write("\x1b[2J\x1b[H")  # clear, home cursor
            print(frame, flush=True)
            if args.once:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def _cmd_keys(args: argparse.Namespace) -> int:
    session = _load(args.bundle)
    for rel in session.schema:
        keys = session.keys(rel.name)[rel.name]
        rendered = ", ".join(
            "{" + ",".join(sorted(key)) + "}" for key in keys
        )
        print(f"{rel}: {rendered}")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.analysis.ind_graph import summarize_ind_set

    session = _load(args.bundle)
    inds, fds = session.index.inds, session.index.fds
    total = len(session.dependencies)
    print(f"schema: {session.schema}")
    print(f"dependencies: {len(inds)} INDs, {len(fds)} FDs, "
          f"{total - len(inds) - len(fds)} other")
    if inds:
        print(f"IND profile: {summarize_ind_set(inds)}")
    if session.db is not None:
        print(f"database: {session.db.total_tuples()} tuples, "
              f"{len(session.db.active_domain())} distinct values")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Inclusion/functional dependency tooling "
            "(Casanova-Fagin-Papadimitriou, PODS 1982)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a database against its dependencies")
    p_check.add_argument("bundle", help="path to a bundle JSON file")
    p_check.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    p_check.set_defaults(func=_cmd_check)

    p_implies = sub.add_parser("implies", help="decide an implication question")
    p_implies.add_argument("bundle")
    p_implies.add_argument("dependency", help="target in the text DSL")
    p_implies.add_argument(
        "--finite", action="store_true",
        help="finite implication (unary FD/IND fragment)",
    )
    p_implies.add_argument(
        "--json", action="store_true", help="machine-readable JSON answer"
    )
    p_implies.set_defaults(func=_cmd_implies)

    p_prove = sub.add_parser("prove", help="produce a formal checked proof")
    p_prove.add_argument("bundle")
    p_prove.add_argument("dependency")
    p_prove.set_defaults(func=_cmd_prove)

    p_batch = sub.add_parser(
        "batch",
        help="decide many implication questions in one session",
    )
    p_batch.add_argument("bundle")
    p_batch.add_argument(
        "targets",
        help="file with one DSL dependency per line ('#' comments allowed)",
    )
    p_batch.add_argument(
        "--finite", action="store_true",
        help="finite implication (unary FD/IND fragment)",
    )
    p_batch.add_argument(
        "--json", action="store_true", help="machine-readable JSON answers"
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_discover = sub.add_parser(
        "discover",
        help="mine the FDs/INDs the bundle's database satisfies",
    )
    p_discover.add_argument("bundle", help="bundle JSON with a 'database' section")
    p_discover.add_argument(
        "--classes", default="fd,ind", metavar="KINDS",
        help="comma-separated classes to mine (default: fd,ind)",
    )
    p_discover.add_argument(
        "--max-lhs", type=int, default=None, metavar="K",
        help="cap FD left-hand-side size (default: full lattice)",
    )
    p_discover.add_argument(
        "--max-ind-arity", type=int, default=None, metavar="K",
        help="cap IND arity (default: unbounded)",
    )
    p_discover.add_argument(
        "--no-prune", action="store_true",
        help="disable implication pruning (validate every candidate)",
    )
    p_discover.add_argument(
        "--no-reduce", action="store_true",
        help="report all satisfied dependencies, not a minimal cover",
    )
    p_discover.add_argument(
        "--strategy", default="auto",
        choices=("auto", "full", "class-local"),
        help="minimal-cover reduction strategy (default: auto)",
    )
    p_discover.add_argument(
        "--bundle-out", metavar="BUNDLE_JSON",
        help="write the schema + cover as a loadable bundle",
    )
    p_discover.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    p_discover.set_defaults(func=_cmd_discover)

    p_whatif = sub.add_parser(
        "whatif",
        help="diff verdicts across a hypothetical premise change",
    )
    p_whatif.add_argument("bundle")
    p_whatif.add_argument(
        "targets",
        help="file with one DSL dependency per line ('#' comments allowed)",
    )
    p_whatif.add_argument(
        "--add", action="append", metavar="DEP",
        help="premise to add in the variant (repeatable)",
    )
    p_whatif.add_argument(
        "--retract", action="append", metavar="DEP",
        help="premise to retract in the variant (repeatable)",
    )
    p_whatif.add_argument(
        "--patch", metavar="PATCH_JSON",
        help="JSON patch file with 'add'/'retract' sections (repro.io)",
    )
    p_whatif.add_argument(
        "--finite", action="store_true",
        help="finite implication (unary FD/IND fragment)",
    )
    p_whatif.add_argument(
        "--json", action="store_true", help="machine-readable JSON diff"
    )
    p_whatif.set_defaults(func=_cmd_whatif)

    p_shell = sub.add_parser(
        "shell",
        help="interactive add/retract/implies REPL over one bundle",
    )
    p_shell.add_argument("bundle")
    p_shell.set_defaults(func=_cmd_shell)

    p_serve = sub.add_parser(
        "serve",
        help="run the multi-tenant HTTP reasoning server",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port; 0 picks a free one (default 8765)",
    )
    p_serve.add_argument(
        "--tenant", action="append", metavar="NAME=BUNDLE.json",
        help="pre-load a tenant from a bundle file (repeatable)",
    )
    p_serve.add_argument(
        "--grace", type=float, default=10.0,
        help="seconds to wait for in-flight requests on shutdown",
    )
    p_serve.add_argument(
        "--lru-capacity", type=int, default=32,
        help="shared compiled-artifact LRU size (default 32)",
    )
    p_serve.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable tenant state: WAL + snapshots here; recovered on boot",
    )
    p_serve.add_argument(
        "--snapshot-every", type=int, default=64, metavar="N",
        help="checkpoint a tenant after N WAL appends (default 64)",
    )
    p_serve.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="per-request compute deadline when the request sets none; "
             "expiry yields a degraded 'unknown' answer, not an error",
    )
    p_serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm fault-injection points (comma list, ':once' suffix "
             "supported; testing only)",
    )
    p_serve.add_argument(
        "--fault-latency-ms", type=float, default=0.0, metavar="MS",
        help="injected per-dispatch latency for the 'latency' fault point",
    )
    p_serve.add_argument(
        "--replica-of", default=None, metavar="HOST:PORT",
        help="boot as a read-only follower of this primary: bootstrap "
             "every tenant, apply its WAL stream, redirect mutations",
    )
    p_serve.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="SECONDS",
        help="follower heartbeat interval to the primary (default 1.0)",
    )
    p_serve.add_argument(
        "--failover-after", type=int, default=3, metavar="N",
        help="promote after N consecutive missed heartbeats; 0 never "
             "promotes (default 3)",
    )
    p_serve.add_argument(
        "--max-lag", type=int, default=None, metavar="N",
        help="default bounded-staleness for follower reads: reject a "
             "read more than N records behind the primary with a 503 "
             "(requests may override with their own 'max_lag')",
    )
    p_serve.add_argument(
        "--advertise", default=None, metavar="HOST:PORT",
        help="the address peers and redirected clients should dial "
             "(default: the bound host:port)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_call = sub.add_parser(
        "call",
        help="send one request to a running reasoning server",
    )
    p_call.add_argument("path", help="route, e.g. /health or /tenants/app/implies")
    p_call.add_argument(
        "body", nargs="?", default=None,
        help="JSON object body (implies POST; omit for GET)",
    )
    p_call.add_argument("--host", default="127.0.0.1")
    p_call.add_argument("--port", type=int, default=8765)
    p_call.add_argument(
        "--method", default=None, metavar="VERB",
        help="override the HTTP method (default: GET, or POST with a body)",
    )
    p_call.add_argument(
        "--timeout", type=float, default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    p_call.add_argument(
        "--json", action="store_true",
        help="wrap the payload in a machine envelope with per-call wall "
             "time and client transport counters",
    )
    p_call.set_defaults(func=_cmd_call)

    p_top = sub.add_parser(
        "top",
        help="live metrics table polled from a running server",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=8765)
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="poll interval (default 2.0)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="print one frame and exit (scripting/smoke tests)",
    )
    p_top.add_argument(
        "--timeout", type=float, default=30.0,
        help="socket timeout in seconds (default 30)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_keys = sub.add_parser("keys", help="candidate keys per relation")
    p_keys.add_argument("bundle")
    p_keys.set_defaults(func=_cmd_keys)

    p_summary = sub.add_parser("summary", help="structural profile of the bundle")
    p_summary.add_argument("bundle")
    p_summary.set_defaults(func=_cmd_summary)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
