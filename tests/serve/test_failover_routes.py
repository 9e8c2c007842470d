"""FailoverClient's tenant routes: which node each goes to, what it sends.

Nothing here touches the network.  Every per-endpoint
:class:`ServeClient` has ``request`` replaced by a recorder, and the
topology is set by hand, so each case checks only routing and the wire
payload against what a plain :class:`ServeClient` sends for the same
call.
"""

import json
import uuid

import pytest

from repro.serve import FailoverClient, ServeClient, ServeError

PRIMARY = "127.0.0.1:7101"
FOLLOWER = "127.0.0.1:7102"
NEW_PRIMARY = "127.0.0.1:7103"

TARGET = "MGR[NAME] <= PERSON[NAME]"
DEP = "EMP: NAME -> DEPT"
BUNDLE = {"schema": {"MGR": ["NAME", "DEPT"]}, "dependencies": []}


def record(client, calls, endpoint, health=None, redirect_to=None):
    """Replace ``client.request`` with a recorder of ``(endpoint, wire)``.

    ``health`` is what ``GET /health`` answers (unrecorded); with
    ``redirect_to`` every other request is refused with a 421 naming it.
    """

    def fake_request(method, path, payload=None):
        if path == "/health":
            return dict(health or {})
        body = None if payload is None else json.dumps(payload)
        calls.append((endpoint, (method, path, body)))
        if redirect_to is not None:
            raise ServeError(
                421, "not the primary",
                extra={"primary": redirect_to, "role": "follower"},
            )
        return {"tenants": ["app"], "ok": True}

    client.request = fake_request


def fleet(calls, max_lag=None):
    """A client over a known primary and follower, recording both."""
    fc = FailoverClient([PRIMARY, FOLLOWER], max_lag=max_lag)
    for endpoint in (PRIMARY, FOLLOWER):
        record(fc._client(endpoint), calls, endpoint)
    fc._primary = PRIMARY
    fc._followers = [FOLLOWER]
    return fc


def plain_wire(call):
    """What one plain ServeClient sends for ``call``."""
    calls = []
    client = ServeClient()
    record(client, calls, None)
    call(client)
    return [wire for _, wire in calls]


READS = {
    "implies": lambda c: c.implies(
        "app", TARGET, semantics="finite", deadline_ms=50
    ),
    "implies_all": lambda c: c.implies_all(
        "app", [TARGET], deadline_ms=50
    ),
    "whatif": lambda c: c.whatif("app", [TARGET], retract=[DEP]),
    "check": lambda c: c.check("app"),
    "tenants": lambda c: c.tenants(),
    "tenant_stats": lambda c: c.tenant_stats("app"),
}

PRIMARY_ROUTES = {
    "add": lambda c: c.add("app", [DEP], key="k-add"),
    "retract": lambda c: c.retract("app", [DEP], key="k-retract"),
    "create_tenant": lambda c: c.create_tenant(
        "app", BUNDLE, options={"reach_budget": 5}
    ),
    "drop_tenant": lambda c: c.drop_tenant("app"),
}

LAG_CHECKED = ("implies", "implies_all", "whatif", "check")


@pytest.mark.parametrize(
    "call, endpoint",
    [(call, FOLLOWER) for call in READS.values()]
    + [(call, PRIMARY) for call in PRIMARY_ROUTES.values()],
    ids=list(READS) + list(PRIMARY_ROUTES),
)
def test_route_lands_on_its_node_with_plain_client_bytes(call, endpoint):
    calls = []
    call(fleet(calls))
    assert [sent_to for sent_to, _ in calls] == [endpoint]
    assert [wire for _, wire in calls] == plain_wire(call)


def test_add_follows_a_421_to_the_new_primary_with_the_same_key():
    calls = []
    fc = FailoverClient(
        [PRIMARY, FOLLOWER], failover_timeout=5.0, sleep=lambda _s: None
    )
    follower_health = {"role": "follower", "term": 2, "primary": NEW_PRIMARY}
    record(
        fc._client(PRIMARY), calls, PRIMARY,
        health=follower_health, redirect_to=NEW_PRIMARY,
    )
    record(fc._client(FOLLOWER), calls, FOLLOWER, health=follower_health)
    record(
        fc._client(NEW_PRIMARY), calls, NEW_PRIMARY,
        health={"role": "primary", "term": 2},
    )
    fc._primary = PRIMARY
    fc._followers = [FOLLOWER]

    fc.add("app", [DEP])

    assert [sent_to for sent_to, _ in calls] == [PRIMARY, NEW_PRIMARY]
    first, resent = (json.loads(wire[2]) for _, wire in calls)
    assert uuid.UUID(first["key"])
    assert resent == first
    assert fc.redirects == 1
    assert fc.resolve() == NEW_PRIMARY


@pytest.mark.parametrize("name", LAG_CHECKED)
def test_max_lag_bounds_every_lag_checked_read(name):
    calls = []
    READS[name](fleet(calls, max_lag=3))
    [(_, (_, _, body))] = calls
    assert json.loads(body)["max_lag"] == 3


@pytest.mark.parametrize("name", ("tenants", "tenant_stats"))
def test_max_lag_leaves_bodiless_reads_bodiless(name):
    calls = []
    READS[name](fleet(calls, max_lag=3))
    [(_, (method, _, body))] = calls
    assert (method, body) == ("GET", None)


@pytest.mark.parametrize("name", ("implies", "implies_all"))
def test_an_explicit_max_lag_wins_over_the_default(name):
    calls = []
    fc = fleet(calls, max_lag=3)
    if name == "implies":
        fc.implies("app", TARGET, max_lag=0)
    else:
        fc.implies_all("app", [TARGET], max_lag=0)
    [(_, (_, _, body))] = calls
    assert json.loads(body)["max_lag"] == 0


@pytest.mark.parametrize("endpoint", ["h:abc", "h:70000", "nohost"])
def test_a_malformed_endpoint_fails_at_construction(endpoint):
    with pytest.raises(ValueError):
        FailoverClient([PRIMARY, endpoint])
