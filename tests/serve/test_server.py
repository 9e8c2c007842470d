"""HTTP end-to-end: routes, errors, degraded answers, and shutdown."""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.serve.server as server_module
from repro.serve import BackgroundServer, ServeClient, ServeError
from repro.serve.protocol import MAX_BODY_BYTES

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

BUNDLE = {
    "schema": {"MGR": ["NAME", "DEPT"], "EMP": ["NAME", "DEPT"],
               "PERSON": ["NAME"]},
    "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
                     "EMP: NAME -> DEPT",
                     "EMP[NAME] <= PERSON[NAME]"],
    "database": {"MGR": [["Hilbert", "Math"]],
                 "EMP": [["Hilbert", "Math"]],
                 "PERSON": [["Hilbert"]]},
}

# The route list in the server's module docstring: path -> its methods.
ROUTES: dict[str, set[str]] = {}
for _method, _path in re.findall(
    r"^ {4}(GET|POST|DELETE|PUT) +(/\S*)", server_module.__doc__,
    re.MULTILINE,
):
    ROUTES.setdefault(_path, set()).add(_method)
UNKNOWN_PATHS = ["/nope", "/tenants/N/bogus", "/replication/bogus"]
ROUTE_MATRIX = [
    (method, path)
    for path in [*ROUTES, *UNKNOWN_PATHS]
    for method in ("GET", "POST", "DELETE", "PUT")
    if (method, path) != ("POST", "/shutdown")  # it would drain the server
]


@pytest.fixture(scope="module")
def server():
    with BackgroundServer() as bg:
        yield bg


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


@pytest.fixture
def tenant(client):
    """A fresh uniquely named tenant per test."""
    name = f"t{time.monotonic_ns()}"
    client.create_tenant(name, BUNDLE)
    yield name
    client.drop_tenant(name)


class TestRoutes:
    def test_health(self, client):
        payload = client.health()
        assert payload["ok"] is True
        assert payload["draining"] is False

    def test_create_and_list_tenants(self, client, tenant):
        assert tenant in client.tenants()
        stats = client.tenant_stats(tenant)
        assert stats["name"] == tenant
        assert stats["premises"] == 3
        assert stats["premise_hash"]

    def test_implies(self, client, tenant):
        answer = client.implies(tenant, "MGR[NAME] <= PERSON[NAME]")
        assert answer["verdict"] is True
        assert answer["target"] == "MGR[NAME] <= PERSON[NAME]"
        missed = client.implies(tenant, "PERSON[NAME] <= MGR[NAME]")
        assert missed["verdict"] is False

    def test_implies_finite_semantics(self, client):
        # Finite implication is decidable in the unary fragment only,
        # so this tenant carries unary premises.
        unary = {
            "schema": {"R": ["A", "B"], "S": ["A"]},
            "dependencies": ["R[A] <= S[A]", "R: A -> B"],
        }
        client.create_tenant("finite-t", unary)
        try:
            answer = client.implies(
                "finite-t", "R[A] <= S[A]", semantics="finite"
            )
            assert answer["semantics"] == "finite"
            assert answer["verdict"] is True
        finally:
            client.drop_tenant("finite-t")

    def test_finite_semantics_outside_unary_fragment_is_400(
        self, client, tenant
    ):
        with pytest.raises(ServeError) as excinfo:
            client.implies(
                tenant, "MGR[NAME] <= PERSON[NAME]", semantics="finite"
            )
        assert excinfo.value.status == 400

    def test_implies_all(self, client, tenant):
        result = client.implies_all(
            tenant,
            ["MGR[NAME] <= PERSON[NAME]", "PERSON[NAME] <= MGR[NAME]"],
        )
        assert result["implied"] == 1
        assert result["total"] == 2
        verdicts = [answer["verdict"] for answer in result["answers"]]
        assert verdicts == [True, False]

    def test_add_retract_roundtrip(self, client, tenant):
        before = client.implies(tenant, "MGR[NAME] <= PERSON[NAME]")
        assert before["verdict"] is True
        retracted = client.retract(tenant, ["EMP[NAME] <= PERSON[NAME]"])
        assert retracted["version"] == 1
        assert not client.implies(tenant, "MGR[NAME] <= PERSON[NAME]")["verdict"]
        added = client.add(tenant, ["EMP[NAME] <= PERSON[NAME]"])
        assert added["version"] == 2
        assert client.implies(tenant, "MGR[NAME] <= PERSON[NAME]")["verdict"]

    def test_whatif(self, client, tenant):
        result = client.whatif(
            tenant,
            ["MGR[NAME] <= PERSON[NAME]"],
            retract=["EMP[NAME] <= PERSON[NAME]"],
        )
        assert result["flipped"] == 1
        flip = result["flips"][0]
        assert flip["before"]["verdict"] is True
        assert flip["after"]["verdict"] is False
        # Speculation must not have touched the live tenant.
        assert client.implies(tenant, "MGR[NAME] <= PERSON[NAME]")["verdict"]

    def test_check(self, client, tenant):
        report = client.check(tenant)
        assert report["ok"] is True

    def test_server_stats_aggregate(self, client, tenant):
        client.implies(tenant, "MGR[NAME] <= PERSON[NAME]")
        stats = client.stats()
        assert stats["requests_served"] > 0
        assert stats["tenants"] >= 1
        assert "artifact_cache" in stats
        assert tenant in stats["tenant_stats"]

    def test_identical_tenants_share_artifacts_over_http(self, client):
        first = client.create_tenant("lru-a", BUNDLE)
        second = client.create_tenant("lru-b", BUNDLE)
        try:
            assert first["premise_hash"] == second["premise_hash"]
            # The first may itself have hit a donor left by an earlier
            # test (donors outlive dropped tenants); the second must.
            assert second["shared_artifacts"] is True
        finally:
            client.drop_tenant("lru-a")
            client.drop_tenant("lru-b")


# A premise set whose chase diverges (fresh nulls forever): the unary
# cyclic IND + FD pair spins out an infinite null chain, and the dummy
# binary IND keeps the target routed to the chase engine rather than
# the unary decision procedures.
DIVERGING_BUNDLE = {
    "schema": {"R": ["A", "B"], "T": ["X", "Y"], "U": ["X", "Y"]},
    "dependencies": ["R[B] <= R[A]", "R: A -> B", "T[X,Y] <= U[X,Y]"],
}
DIVERGING_TARGET = "R: B -> A"
TINY_BUDGET = {"max_rounds": 10, "max_tuples": 30}

# A chase that never converges and whose rounds grow dearer: its work is
# quadratic in the rounds run (200 rounds take ~0.6 s, 400 ~2 s on a
# 2-core container), so ``max_rounds`` sets how long a question holds.
SLOW_BUNDLE = {
    "schema": {"R": ["A", "B", "C"], "S": ["A", "B", "C"]},
    "dependencies": ["S[A,C] <= R[C,B]", "S[A,B] <= S[C,A]",
                     "R[C,B] <= S[A,B]", "S[C,A] <= S[C,B]",
                     "S: C -> A", "R: B -> C"],
}
SLOW_TARGET = "R: C,B -> A"


@pytest.fixture
def slow_tenant(client, request):
    """A fresh tenant over :data:`SLOW_BUNDLE`; ``max_rounds`` comes
    from the test's parameter."""
    name = f"slow{time.monotonic_ns()}"
    client.create_tenant(
        name, SLOW_BUNDLE, options={"max_rounds": request.param}
    )
    yield name
    client.drop_tenant(name)


class TestDegraded:
    @pytest.fixture
    def diverging(self, client):
        name = f"d{time.monotonic_ns()}"
        client.create_tenant(name, DIVERGING_BUNDLE, options=TINY_BUDGET)
        yield name
        client.drop_tenant(name)

    def test_budget_exhaustion_is_degraded_200_not_4xx(
        self, client, diverging
    ):
        """Blowing max_rounds/max_tuples through the server is overload,
        not caller error: HTTP 200, verdict 'unknown', degraded=true."""
        answer = client.implies(diverging, DIVERGING_TARGET)
        assert answer["verdict"] == "unknown"
        assert answer["degraded"] is True
        assert answer["stats"]["reason"] == "chase-budget"
        assert answer["stats"]["rounds"] == TINY_BUDGET["max_rounds"]
        assert answer["stats"]["tuples"] > 0

    def test_expired_deadline_is_degraded(self, client, tenant):
        answer = client.implies(
            tenant, "MGR[NAME] <= PERSON[NAME]", deadline_ms=1e-6
        )
        assert answer["verdict"] == "unknown"
        assert answer["degraded"] is True
        assert answer["stats"]["reason"] == "deadline"
        assert answer["stats"]["elapsed_ms"] >= 0

    def test_generous_deadline_answers_normally(self, client, tenant):
        answer = client.implies(
            tenant, "MGR[NAME] <= PERSON[NAME]", deadline_ms=60_000
        )
        assert answer["verdict"] is True
        assert answer["degraded"] is False

    def test_degraded_counters_in_stats(self, client, diverging):
        before = client.stats()["degraded_answers"]
        client.implies(diverging, DIVERGING_TARGET)
        stats = client.stats()
        assert stats["degraded_answers"] == before + 1
        coalescer = stats["tenant_stats"][diverging]["coalescer"]
        assert coalescer["degraded"] >= 1

    def test_implies_all_mixes_verdicts_and_unknowns(
        self, client, diverging
    ):
        result = client.implies_all(
            diverging, ["R[B] <= R[A]", DIVERGING_TARGET]
        )
        verdicts = [a["verdict"] for a in result["answers"]]
        assert verdicts == [True, "unknown"]
        assert result["implied"] == 1
        assert result["unknown"] == 1
        assert result["degraded"] == 1
        assert result["total"] == 2

    @pytest.mark.parametrize("slow_tenant", [200], indirect=True)
    def test_whatif_degrades_at_its_deadline(self, client, slow_tenant):
        """A whatif keeps the body's deadline across both passes: what
        the clock cuts answers unknown, and an unknown never flips."""
        before = client.stats()["degraded_answers"]
        started = time.perf_counter()
        result = client.request("POST", f"/tenants/{slow_tenant}/whatif", {
            "targets": [SLOW_TARGET], "add": ["R[A] <= R[A]"],
            "deadline_ms": 50,
        })
        assert time.perf_counter() - started < 1.0
        [flip] = result["flips"]
        for side in ("before", "after"):
            assert flip[side]["verdict"] == "unknown"
            assert flip[side]["degraded"] is True
            assert flip[side]["stats"]["reason"] == "deadline"
        assert (flip["flipped"], result["flipped"], result["total"]) == (
            False, 0, 1
        )
        assert client.stats()["degraded_answers"] == before + 2

    def test_session_degraded_counter_per_tenant(self, client, diverging):
        client.implies(diverging, DIVERGING_TARGET)
        stats = client.tenant_stats(diverging)
        assert stats["degraded_answers"] >= 1

    def test_bad_deadline_is_400(self, client, tenant):
        for bad in (0, -5, "soon", True):
            with pytest.raises(ServeError) as excinfo:
                client.request(
                    "POST",
                    f"/tenants/{tenant}/implies",
                    {"target": "MGR[NAME] <= PERSON[NAME]",
                     "deadline_ms": bad},
                )
            assert excinfo.value.status == 400, bad

    def test_unknown_option_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.create_tenant(
                "opt-bad", DIVERGING_BUNDLE, options={"max_ram": 1}
            )
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client.create_tenant(
                "opt-bad", DIVERGING_BUNDLE, options={"max_rounds": 0}
            )
        assert excinfo.value.status == 400

    def test_server_wide_default_deadline(self, make_client):
        with BackgroundServer(default_deadline=1e-9) as bg:
            client = make_client(port=bg.port)
            client.create_tenant("app", BUNDLE)
            answer = client.implies("app", "MGR[NAME] <= PERSON[NAME]")
            assert answer["verdict"] == "unknown"
            assert answer["stats"]["reason"] == "deadline"
            # An explicit per-request deadline overrides the default.
            answer = client.implies(
                "app", "MGR[NAME] <= PERSON[NAME]", deadline_ms=60_000
            )
            assert answer["verdict"] is True


class TestWhatifOffTheLoop:
    @pytest.mark.parametrize("slow_tenant", [400], indirect=True)
    def test_health_answers_while_a_whatif_chases(
        self, server, client, slow_tenant
    ):
        """The whole whatif runs on a fork in the executor, so a
        request beside it does not wait for its chase (~2 s on a
        2-core container); a whatif that chased on the event loop
        would hold the health check for nearly all of it."""
        timings = {}

        def speculate():
            with ServeClient(port=server.port) as own:
                started = time.perf_counter()
                try:
                    timings["result"] = own.whatif(
                        slow_tenant, [SLOW_TARGET], add=[SLOW_TARGET]
                    )
                finally:
                    timings["whatif"] = time.perf_counter() - started

        thread = threading.Thread(target=speculate)
        thread.start()
        try:
            time.sleep(0.25)  # the whatif is in its chase by now
            started = time.perf_counter()
            assert client.health()["ok"] is True
            timings["health"] = time.perf_counter() - started
        finally:
            thread.join(timeout=60)
        assert timings["health"] < timings["whatif"] / 4
        [flip] = timings["result"]["flips"]
        assert flip["before"]["stats"]["reason"] == "chase-budget"
        assert flip["after"]["verdict"] is True
        # The live tenant neither counted nor ran the speculation.
        assert client.tenant_stats(slow_tenant)["queries"] == 0


def _recv_response(sock):
    """Read one complete HTTP response off a raw socket."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return data, b""
        data += chunk
    header, _, body = data.partition(b"\r\n\r\n")
    length = int(
        [line for line in header.split(b"\r\n")
         if line.lower().startswith(b"content-length")][0].split(b":")[1]
    )
    while len(body) < length:
        body += sock.recv(65536)
    return header, body[:length]


class TestProtocolLimits:
    def test_body_over_cap_is_413_and_closes(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(
                f"POST /tenants HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode()
            )
            header, body = _recv_response(sock)
            assert b"413" in header.split(b"\r\n")[0]
            assert b"Connection: close" in header
            assert json.loads(body)["status"] == 413
            # The server refused without reading the body and closed.
            sock.settimeout(5)
            assert sock.recv(4096) == b""

    def test_body_at_exact_cap_is_read_not_413(self, server):
        filler = b'{"pad": "' + b"a" * (MAX_BODY_BYTES - 11) + b'"}'
        assert len(filler) == MAX_BODY_BYTES
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=30
        ) as sock:
            sock.sendall(
                f"POST /tenants HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(filler)}\r\n\r\n".encode() + filler
            )
            header, body = _recv_response(sock)
            # Read in full and rejected on *content* (no tenant name),
            # proving the cap is exclusive: 400, not 413.
            assert b"400" in header.split(b"\r\n")[0]
            assert json.loads(body)["status"] == 400

    def test_malformed_json_is_400_and_keeps_connection(self, server):
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            bad = b"{nope"
            sock.sendall(
                f"POST /tenants HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(bad)}\r\n\r\n".encode() + bad
            )
            header, body = _recv_response(sock)
            assert b"400" in header.split(b"\r\n")[0]
            assert b"Connection: close" not in header
            assert "not valid JSON" in json.loads(body)["error"]
            # The same keep-alive connection still serves requests.
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            header, body = _recv_response(sock)
            assert b"200" in header.split(b"\r\n")[0]
            assert json.loads(body)["ok"] is True

    @pytest.mark.parametrize(
        "raw, status_line",
        [
            (b"POST /tenants HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
             b"HTTP/1.1 400 Bad Request"),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
             b"HTTP/1.1 414 URI Too Long"),
            (b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000
             + b"\r\n\r\n",
             b"HTTP/1.1 431 Request Header Fields Too Large"),
        ],
        ids=["negative-content-length", "long-request-line",
             "long-header-line"],
    )
    def test_unreadable_request_gets_a_status_line(
        self, server, raw, status_line
    ):
        # Each of these used to close the socket with no response.
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        ) as sock:
            sock.sendall(raw)
            header, body = _recv_response(sock)
            assert header.split(b"\r\n")[0] == status_line
            assert b"Connection: close" in header
            assert json.loads(body)["status"] == int(status_line.split()[1])


class TestBackgroundServerStop:
    def test_stop_joins_cleanly(self):
        bg = BackgroundServer().start()
        bg.stop()
        assert not bg._thread.is_alive()

    def test_stop_raises_when_thread_will_not_die(self):
        """Regression: a leaked server thread must be loud, not silent —
        it keeps the port bound and poisons whatever runs next."""
        bg = BackgroundServer().start()
        real_thread = bg._thread
        hung = threading.Thread(target=time.sleep, args=(5,), daemon=True)
        hung.start()
        bg._thread = hung
        try:
            with pytest.raises(RuntimeError, match="failed to stop"):
                bg.stop(timeout=0.2)
        finally:
            bg._thread = real_thread
            bg.stop()


class TestErrors:
    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_tenant_is_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.implies("ghost", "MGR[NAME] <= PERSON[NAME]")
        assert excinfo.value.status == 404

    def test_duplicate_tenant_is_409(self, client, tenant):
        with pytest.raises(ServeError) as excinfo:
            client.create_tenant(tenant, BUNDLE)
        assert excinfo.value.status == 409

    def test_unroutable_tenant_name_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.create_tenant("a/b", BUNDLE)
        assert excinfo.value.status == 400
        assert "a/b" not in client.tenants()

    def test_bad_dsl_is_400(self, client, tenant):
        with pytest.raises(ServeError) as excinfo:
            client.implies(tenant, "not a dependency")
        assert excinfo.value.status == 400

    def test_bad_bundle_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.create_tenant("broken", {"schema": "oops"})
        assert excinfo.value.status == 400

    def test_non_scalar_database_cell_is_400(self, client):
        bundle = {"schema": {"R": ["A"]}, "database": {"R": [[{"x": 1}]]}}
        with pytest.raises(ServeError) as excinfo:
            client.create_tenant("cells", bundle)
        assert excinfo.value.status == 400
        assert "row 0 of relation 'R' holds {'x': 1}" in str(excinfo.value)
        assert "cells" not in client.tenants()

    def test_deeply_nested_body_is_400(self, server):
        depth = 100_000
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("POST", "/tenants", body=b"[" * depth + b"]" * depth)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "not valid JSON" in payload["error"]

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/health", {})
        assert excinfo.value.status == 405

    def test_route_list_is_read_from_the_docstring(self):
        assert ROUTES["/health"] == {"GET"}
        assert ROUTES["/tenants"] == {"GET", "POST"}
        assert ROUTES["/tenants/N"] == {"DELETE"}

    @pytest.mark.parametrize("method, path", ROUTE_MATRIX)
    def test_route_matrix(self, server, client, tenant, method, path):
        """A documented route answers its method and 405 to any other;
        an unknown path answers 404 to every method."""
        name = tenant
        if (method, path) == ("DELETE", "/tenants/N"):
            name = f"{tenant}-dropped"  # the fixture drops its own
            client.create_tenant(name, BUNDLE)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                method, re.sub(r"/N\b", f"/{name}", path), body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            response.read()
        finally:
            conn.close()
        if path not in ROUTES:
            assert response.status == 404
        elif method in ROUTES[path]:
            assert response.status not in (404, 405)
        else:
            assert response.status == 405

    def test_missing_target_is_400(self, client, tenant):
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", f"/tenants/{tenant}/implies", {})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("key", ["", 5])
    @pytest.mark.parametrize("deps", [["PERSON[NAME] <= EMP[NAME]"], []])
    def test_bad_idempotency_key_is_400(self, client, tenant, key, deps):
        with pytest.raises(ServeError) as excinfo:
            client.request(
                "POST",
                f"/tenants/{tenant}/add",
                {"dependencies": deps, "key": key},
            )
        assert excinfo.value.status == 400
        assert str(excinfo.value) == "'key' must be a non-empty string"
        assert client.tenant_stats(tenant)["version"] == 0

    def test_unknown_semantics_is_400(self, client, tenant):
        with pytest.raises(ServeError) as excinfo:
            client.request(
                "POST",
                f"/tenants/{tenant}/implies",
                {"target": "MGR[NAME] <= PERSON[NAME]",
                 "semantics": "modal"},
            )
        assert excinfo.value.status == 400

    def test_non_object_body_is_400(self, server):
        with ServeClient(port=server.port) as raw:
            with pytest.raises(ServeError) as excinfo:
                conn = raw._connection()
                conn.request(
                    "POST", "/tenants",
                    body=b"[1, 2]",
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                raise ServeError(response.status, payload["error"])
            assert excinfo.value.status == 400


class TestShutdownEndpoint:
    def test_post_shutdown_drains_and_exits(self, make_client):
        with BackgroundServer() as bg:
            client = make_client(port=bg.port)
            assert client.shutdown()["draining"] is True
            bg._thread.join(timeout=10)
            assert not bg._thread.is_alive()
            # A fresh connection must now be refused.
            with pytest.raises((ServeError, OSError)):
                make_client(port=bg.port).health()


class TestSigtermDrain:
    def test_sigterm_finishes_inflight_request_then_exits_zero(
        self, tmp_path
    ):
        """Regression: SIGTERM while a request body is still in flight
        must serve that request to completion, then exit 0."""
        bundle_path = tmp_path / "bundle.json"
        bundle_path.write_text(json.dumps(BUNDLE))
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--tenant", f"app={bundle_path}"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert "listening on" in ready, ready
            port = int(ready.rsplit(":", 1)[1])

            body = json.dumps(
                {"target": "MGR[NAME] <= PERSON[NAME]"}
            ).encode()
            head = (
                f"POST /tenants/app/implies HTTP/1.1\r\n"
                f"Host: 127.0.0.1\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            with socket.create_connection(
                ("127.0.0.1", port), timeout=10
            ) as sock:
                # Request line + headers arrive; the body stalls.  The
                # connection is now "busy": SIGTERM must wait for it.
                sock.sendall(head + body[:5])
                time.sleep(0.3)
                proc.send_signal(signal.SIGTERM)
                time.sleep(0.3)
                sock.sendall(body[5:])
                sock.settimeout(10)
                response = b""
                while b"\r\n\r\n" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
                header, _, rest = response.partition(b"\r\n\r\n")
                assert b"200 OK" in header, response
                assert b"Connection: close" in header
                length = int(
                    [line for line in header.split(b"\r\n")
                     if line.lower().startswith(b"content-length")][0]
                    .split(b":")[1]
                )
                while len(rest) < length:
                    rest += sock.recv(4096)
                payload = json.loads(rest[:length])
                assert payload["verdict"] is True
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_sigterm_idle_server_exits_zero(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
