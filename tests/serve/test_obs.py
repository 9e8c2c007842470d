"""Serving-layer observability end to end.

Covers the ``/metrics`` exposition (Prometheus text and JSON forms),
the ``?trace=1`` span-waterfall echo, the ``/debug/traces`` ring, the
pinned ``/stats`` JSON shape (the hand-rolled counters migrated onto
the metrics registry without changing the wire format), client-side
transport counters, and trace-id propagation from a traced mutation
through the primary's WAL record to the follower's applied copy.
"""

import http.client
import json
import time

import pytest

from repro.serve import (
    BackgroundServer,
    ServeClient,
    ServeError,
    TenantRegistry,
)
from repro.serve.wal import StateDir

BUNDLE = {
    "schema": {"MGR": ["NAME", "DEPT"], "EMP": ["NAME", "DEPT"],
               "PERSON": ["NAME"]},
    "dependencies": ["MGR[NAME,DEPT] <= EMP[NAME,DEPT]",
                     "EMP[NAME] <= PERSON[NAME]"],
}
EXTRA_DEP = "PERSON[NAME] <= EMP[NAME]"
PROBE = "MGR[NAME] <= PERSON[NAME]"


def wait_until(predicate, timeout=15.0, interval=0.02, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


def raw_request(port, method, path, body=None, headers=None):
    """One HTTP round trip below ServeClient — custom headers, raw body."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def scrape_prometheus(port):
    status, headers, body = raw_request(port, "GET", "/metrics")
    assert status == 200
    return headers, body.decode()


def parse_exposition(text):
    """Parse the text exposition into ``{series: value}`` + family types.

    Raises on anything malformed — this doubles as the validity check
    the CI smoke run performs.
    """
    series, types = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert kind in {"counter", "gauge", "histogram"}, line
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), line
            continue
        name_part, _, value_part = line.rpartition(" ")
        assert name_part and value_part, line
        assert name_part not in series, f"duplicate series {name_part}"
        series[name_part] = float(value_part)
    return series, types


@pytest.fixture(scope="module")
def server():
    with BackgroundServer() as bg:
        with ServeClient(port=bg.port) as client:
            client.create_tenant("obs", BUNDLE)
            client.implies("obs", PROBE)
            client.add("obs", [EXTRA_DEP])
            client.whatif("obs", add=[EXTRA_DEP], targets=[PROBE])
        yield bg


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestMetricsEndpoint:
    def test_prometheus_exposition_is_valid(self, server):
        _, text = scrape_prometheus(server.port)
        series, types = parse_exposition(text)
        assert types["repro_requests_total"] == "counter"
        assert types["repro_request_seconds"] == "histogram"
        assert types["repro_tenants"] == "gauge"
        assert series["repro_tenants"] == 1
        # Latency histograms exist per op, with coherent series.
        for op in ("implies", "mutate", "whatif"):
            count = series[f'repro_request_seconds_count{{op="{op}"}}']
            assert count >= 1, op
            inf = series[
                f'repro_request_seconds_bucket{{le="+Inf",op="{op}"}}'
            ]
            assert inf == count
            assert series[f'repro_request_seconds_sum{{op="{op}"}}'] > 0

    def test_content_type_is_text(self, server):
        headers, _ = scrape_prometheus(server.port)
        assert headers["Content-Type"].startswith("text/plain")

    def test_counters_are_monotone_across_scrapes(self, server, client):
        before, _ = parse_exposition(scrape_prometheus(server.port)[1])
        client.implies("obs", PROBE)
        after, types = parse_exposition(scrape_prometheus(server.port)[1])
        counters = [
            name for name, kind in types.items() if kind == "counter"
        ]
        assert counters
        for name in counters:
            for key in before:
                if key == name or key.startswith(name + "{"):
                    assert after[key] >= before[key], key
        assert (
            after["repro_requests_total"] > before["repro_requests_total"]
        )

    def test_json_form_mirrors_the_text_form(self, server, client):
        payload = client.request("GET", "/metrics?format=json")
        assert set(payload) >= {"counters", "gauges", "histograms"}
        assert payload["counters"]["repro_requests_total"] >= 1
        assert payload["gauges"]["repro_tenants"] == 1
        implied = payload["histograms"]['repro_request_seconds{op="implies"}']
        assert implied["count"] >= 1
        assert implied["p50"] > 0

    def test_non_get_metrics_is_405(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/metrics", {})
        assert excinfo.value.status == 405


class TestTraceEchoAndRing:
    def test_trace_echo_returns_the_span_waterfall(self, server, client):
        answer = client.request(
            "POST", "/tenants/obs/implies?trace=1", {"target": PROBE}
        )
        trace = answer["trace"]
        assert trace["trace_id"]
        assert trace["duration_ms"] > 0
        spans = {span["span"] for span in trace["spans"]}
        assert "parse" in spans
        assert "decide" in spans or "coalesce-wait" in spans

    def test_client_trace_id_is_adopted(self, server):
        status, _, body = raw_request(
            server.port,
            "POST",
            "/tenants/obs/implies?trace=1",
            body={"target": PROBE},
            headers={"X-Trace-Id": "deadbeef00000001"},
        )
        assert status == 200
        assert json.loads(body)["trace"]["trace_id"] == "deadbeef00000001"

    def test_untraced_responses_have_no_trace_key(self, server, client):
        assert "trace" not in client.implies("obs", PROBE)

    def test_debug_traces_ring(self, server, client):
        client.implies("obs", PROBE)
        ring = client.request("GET", "/debug/traces?limit=3")
        assert ring["recorded"] >= 1
        assert ring["capacity"] == 256
        assert 1 <= len(ring["traces"]) <= 3
        durations = [trace["duration_ms"] for trace in ring["traces"]]
        assert durations == sorted(durations, reverse=True)

    def test_debug_traces_rejects_bad_limits(self, client):
        for bad in ("0", "-1", "nope"):
            with pytest.raises(ServeError) as excinfo:
                client.request("GET", f"/debug/traces?limit={bad}")
            assert excinfo.value.status == 400


class TestStatsShape:
    def test_stats_json_shape_is_pinned(self, server, client):
        """The counter migration must not change the /stats wire format.

        Pin the exact top-level key set and the artifact-cache shape a
        plain (non-durable, non-replicated) server emits; new keys are
        an intentional API change and should update this test.
        """
        stats = client.stats()
        assert set(stats) == {
            "ok",
            "draining",
            "requests_served",
            "degraded_answers",
            "default_deadline",
            "connections",
            "tenants",
            "artifact_cache",
            "tenant_stats",
        }
        assert stats["ok"] is True
        assert isinstance(stats["requests_served"], int)
        assert isinstance(stats["degraded_answers"], int)
        assert set(stats["artifact_cache"]) == {
            "capacity", "entries", "hits", "misses", "evictions", "drifted",
        }
        tenant = stats["tenant_stats"]["obs"]
        assert tenant["name"] == "obs"
        assert set(tenant["coalescer"]) == {
            "requests", "batches", "unique_decides", "deduplicated",
            "barrier_flushes", "pending", "degraded",
        }

    def test_requests_served_still_counts(self, server, client):
        before = client.stats()["requests_served"]
        client.implies("obs", PROBE)
        assert client.stats()["requests_served"] > before


class TestRegistryBuiltBeforeTheServer:
    def test_its_tenant_reports_into_the_server_metrics(self, tmp_path):
        """A tenant created before ``BackgroundServer(registry=...)``
        lands in the same histograms and counters as one created over
        HTTP: the registry owns the metrics the server exposes."""
        registry = TenantRegistry(state_dir=StateDir(str(tmp_path)))
        registry.create_from_bundle("early", BUNDLE)
        with BackgroundServer(registry=registry) as bg:
            with ServeClient(port=bg.port) as client:
                client.implies("early", PROBE)
                client.add("early", [EXTRA_DEP])
            series, _ = parse_exposition(scrape_prometheus(bg.port)[1])
        assert series["repro_coalescer_batch_size_count"] == 1
        assert series["repro_wal_fsync_seconds_count"] == 1
        assert series["repro_artifact_cache_misses_total"] == 1
        for event in ("hits", "evictions", "drifted"):
            assert series[f"repro_artifact_cache_{event}_total"] == 0


class TestClientTransportStats:
    def test_transport_counters_accumulate(self, server):
        with ServeClient(port=server.port) as client:
            client.implies("obs", PROBE)
            client.stats()
            transport = client.transport_stats()
            assert transport["requests_sent"] == 2
            assert transport["retried"] == 0
            assert transport["backoff_slept"] == 0.0
            assert transport["last_call_seconds"] > 0


class TestTracePropagation:
    def test_trace_id_rides_wal_and_replication(
        self, tmp_path, make_client
    ):
        """A traced mutation's id survives primary WAL -> follower WAL,
        and the echoed waterfall shows the fsync and ship spans."""
        trace_id = "cafef00d12345678"
        primary_registry = TenantRegistry(
            state_dir=StateDir(str(tmp_path / "primary"))
        )
        with BackgroundServer(registry=primary_registry) as primary:
            client = make_client(port=primary.port)
            client.create_tenant("app", BUNDLE)
            follower_registry = TenantRegistry(
                state_dir=StateDir(str(tmp_path / "follower"))
            )
            with BackgroundServer(
                replica_of=f"127.0.0.1:{primary.port}",
                registry=follower_registry,
                heartbeat=0.05,
            ) as follower:
                wait_until(
                    lambda: "app" in follower.server.registry.tenants,
                    message="follower tenant bootstrap",
                )
                status, _, body = raw_request(
                    primary.port,
                    "POST",
                    "/tenants/app/add?trace=1",
                    body={"dependencies": [EXTRA_DEP]},
                    headers={"X-Trace-Id": trace_id},
                )
                assert status == 200
                payload = json.loads(body)

                # The echoed waterfall carries the client's id and the
                # durability + replication spans.
                trace = payload["trace"]
                assert trace["trace_id"] == trace_id
                by_name = {}
                for span in trace["spans"]:
                    by_name.setdefault(span["span"], []).append(span)
                assert by_name["wal-fsync"][0]["duration_ms"] >= 0
                [ship] = by_name["ship"]
                assert ship["follower"] == f"127.0.0.1:{follower.port}"
                assert ship["ok"] is True
                assert "mutate" in by_name

                # Primary: the WAL record is stamped with the trace id.
                tenant = primary.server.registry.tenants["app"]
                assert tenant.last_record["trace"] == trace_id
                [record] = tenant.store.read_from(0)
                assert record["trace"] == trace_id

                # Follower: the ack was synchronous, so the applied and
                # durably logged copy already carries the same id.
                mirrored = follower.server.registry.tenants["app"]
                assert mirrored.replicated_seq == 1
                [applied] = mirrored.store.read_from(0)
                assert applied["trace"] == trace_id
                assert applied["seq"] == record["seq"]
