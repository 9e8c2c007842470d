"""Inputs for every workload, and their oracle verdicts.

Everything the program under test receives is generated here: the
served tenant bundle, its target pool and mutation plan, and the
``engine_cold`` bundles.

The premise sets are fixed datasets: their shape comes from a constant
(per bundle class and size), and so do the sources each batch asks
about, because reach compiles, closures and chase runs cost whatever
the premise graph and the source make them cost — a benchmark whose
seeds drew new graphs would measure the graphs.  The served tenant and
its target pool are fixed too: an implied target's answer carries its
witness chain, so the targets set the tail of the latency.  The
``--seed`` draws the request streams: the order in which the served
workloads ask their pool (:func:`served._loop`), and the right-hand
side of every question in the ``engine_cold`` IND and FD bundles.  The
chase-routed bundles (unary and mixed) do not vary with the seed at
all.  The expected verdicts come from the in-tree reference
implementations only — ``decide_ind_naive``, ``attribute_closure_naive``
and the naive chase strategy — never from the engines being measured.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from repro.core.fd_closure import attribute_closure_naive
from repro.core.fdind_chase import chase_implies
from repro.core.ind_decision import decide_ind_naive, index_by_lhs
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.parser import parse_dependency
from repro.model.schema import DatabaseSchema, RelationSchema
from repro.workloads.random_deps import random_inds

TENANT = "bench"

# -- the served tenant ---------------------------------------------------

CHAIN_RELATIONS = 100
NOISE_PREMISES = 400
COLD_RELATIONS = 8
POOL_SOURCES = 20
TARGETS_PER_SOURCE = 10
ZIPF_EXPONENT = 1.1


@dataclass
class ServedInputs:
    """One served workload's tenant, target pool and mutation plan.

    ``toggles`` alternate between deps whose left relation lies in the
    hot sources' reachable footprint (forcing a reach invalidation) and
    deps over relations no query touches (absorbed as free extensions).
    ``replay`` is a cold premise the hot-reads set-up adds once under a
    fixed idempotency key; re-sending it is an acknowledged no-op write.
    """

    bundle: dict
    pool: list[str]
    groups: list[list[int]]
    weights: list[float]
    toggles: list[str]
    replay: str

    @property
    def base(self) -> list[str]:
        return list(self.bundle["dependencies"])


def _ind(lhs_rel, lhs, rhs_rel, rhs) -> str:
    return str(IND(lhs_rel, tuple(lhs), rhs_rel, tuple(rhs)))


def served_inputs() -> ServedInputs:
    """A ~500-premise chain+noise tenant (the shape of
    ``repro.bench.serving_workload``) plus ~200 targets over 20 sources."""
    shape = random.Random("served-tenant")
    attrs = ("A", "B", "C")
    chain_schema = DatabaseSchema(
        RelationSchema(f"R{i}", attrs) for i in range(CHAIN_RELATIONS)
    )
    schema = {f"R{i}": list(attrs) for i in range(CHAIN_RELATIONS)}
    schema["QUIET"] = ["A", "B"]
    for i in range(COLD_RELATIONS):
        schema[f"X{i}"] = ["A", "B"]
    premises = [
        _ind(f"R{i}", "AB", f"R{i + 1}", "AB")
        for i in range(CHAIN_RELATIONS - 1)
    ]
    premises += [
        str(ind)
        for ind in random_inds(
            shape, chain_schema, count=NOISE_PREMISES, max_arity=2
        )
    ]
    premises += [
        _ind(f"X{i}", "A", f"X{i + 1}", "A") for i in range(COLD_RELATIONS - 1)
    ]
    sources: list[tuple[int, tuple[str, ...]]] = []
    while len(sources) < POOL_SOURCES:
        relation = shape.randrange(CHAIN_RELATIONS - 10)
        arity = 1 if len(sources) < 14 else 2
        source = (relation, tuple(shape.sample(attrs, arity)))
        if source not in sources:
            sources.append(source)
    pool: list[str] = []
    groups: list[list[int]] = []
    for relation, lhs in sources:
        group: list[int] = []
        seen = set()
        while len(group) < TARGETS_PER_SOURCE:
            roll = shape.random()
            if roll < 0.2:
                rhs_rel, rhs = "QUIET", tuple(shape.sample(("A", "B"), len(lhs)))
            elif roll < 0.6:
                rhs_rel = f"R{shape.randrange(relation + 1, CHAIN_RELATIONS)}"
                rhs = lhs
            else:
                rhs_rel = f"R{shape.randrange(CHAIN_RELATIONS)}"
                rhs = tuple(shape.sample(attrs, len(lhs)))
            target = _ind(f"R{relation}", lhs, rhs_rel, rhs)
            if (rhs_rel == f"R{relation}" and rhs == lhs) or target in seen:
                continue
            seen.add(target)
            group.append(len(pool))
            pool.append(target)
        groups.append(group)
    ranks = list(range(len(pool)))
    shape.shuffle(ranks)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in ranks]
    hot = [
        _ind(f"R{shape.randrange(20, CHAIN_RELATIONS)}", attr, "QUIET", attr)
        for attr in ("A", "B")
    ]
    cold = [_ind(f"X{a}", "B", f"X{b}", "B") for a, b in ((0, 3), (5, 2))]
    return ServedInputs(
        bundle={"schema": schema, "dependencies": premises},
        pool=pool,
        groups=groups,
        weights=weights,
        toggles=[hot[0], cold[0], hot[1], cold[1]],
        replay=_ind(f"X{COLD_RELATIONS - 1}", "B", "X0", "A"),
    )


def toggle_step(inputs: ServedInputs, index: int) -> tuple[str, str]:
    """Mutation ``index`` (0-based) of the plan: add then retract each
    toggle in turn, so at most one toggle is ever live."""
    toggle = inputs.toggles[(index // 2) % len(inputs.toggles)]
    return ("add" if index % 2 == 0 else "retract"), toggle


def live_toggle(inputs: ServedInputs, mutations: int):
    """The toggle live after ``mutations`` plan steps (``None``: base)."""
    if mutations % 2 == 0:
        return None
    return inputs.toggles[(mutations // 2) % len(inputs.toggles)]


def ind_oracle(premise_texts: list[str], targets: list[str]) -> list[bool]:
    """Corollary 3.2 by the naive reference BFS."""
    index = index_by_lhs(parse_dependency(text) for text in premise_texts)
    return [
        decide_ind_naive(parse_dependency(target), index).implied
        for target in targets
    ]


# -- engine_cold bundles -------------------------------------------------

COLD_SCHEDULE = tuple(
    (kind, size)
    for kind, sizes in (
        ("ind", (100, 200, 400, 800, 1400, 2000)),
        ("fd", (100, 250, 500, 1000, 1500, 2000)),
        ("unary", (100, 150, 200, 250, 300, 400)),
        ("mixed", (100, 150, 200, 250, 300, 350)),
    )
    for size in sizes
)
"""(class, premises) of each bundle in the ``engine_cold`` cycle."""


@dataclass
class ColdBundle:
    """One ``engine_cold`` question set and its expected verdicts."""

    kind: str
    bundle: dict
    targets: list[str]
    add: str
    expected: list[bool] = field(default_factory=list)
    expected_after: list[bool] = field(default_factory=list)

    def message(self) -> str:
        """The line the child receives: the bundle, its batch, its add."""
        return json.dumps(
            {"bundle": self.bundle, "targets": self.targets, "add": self.add}
        )


def _relations(rng, count, low, high):
    return {
        f"R{i}": [f"A{j}" for j in range(rng.randint(low, high))]
        for i in range(count)
    }


LAYERS = 4
"""Layers of the acyclic bundles: INDs only go from one layer to the next."""


def _random_ind(rng, schema, names, layered, max_arity):
    while True:
        if layered:
            width = len(names) // LAYERS
            layer = rng.randrange(LAYERS - 1)
            i = layer * width + rng.randrange(width)
            j = (layer + 1) * width + rng.randrange(width)
        else:
            i, j = rng.randrange(len(names)), rng.randrange(len(names))
        left, right = schema[names[i]], schema[names[j]]
        arity = rng.randint(1, min(len(left), len(right), max_arity))
        lhs, rhs = rng.sample(left, arity), rng.sample(right, arity)
        if i == j and lhs == rhs:
            continue
        return _ind(names[i], lhs, names[j], rhs)


def _random_fd(rng, schema, names, max_lhs):
    name = rng.choice(names)
    attrs = schema[name]
    lhs = rng.sample(attrs, rng.randint(1, min(max_lhs, len(attrs) - 1)))
    rhs = rng.choice([a for a in attrs if a not in lhs])
    return str(FD(name, tuple(lhs), (rhs,)))


def _batch(shape, make_target, sources, repeats):
    """Most sources asked 1-3 times, the last two ``repeats`` times:
    the cold-cache regime where compiling a source rarely pays.

    ``make_target(None)`` names a source, ``make_target(source)`` one
    question about it; only the latter draws from the seed."""
    targets: list[str] = []
    for index in range(sources):
        source = make_target(None)
        times = repeats if index >= sources - 2 else shape.randint(1, 3)
        asked: set[str] = set()
        for _ in range(times * 4):
            if len(asked) == times:
                break
            target = make_target(source)
            if target not in asked:
                asked.add(target)
                targets.append(target)
    return targets


def _cold_bundle(rng: random.Random, kind: str, size: int) -> ColdBundle:
    shape = random.Random(f"{kind}:{size}")
    if kind == "ind":
        schema = _relations(shape, max(20, size // 4), 3, 4)
        names = list(schema)
        deps = {
            _random_ind(shape, schema, names, layered=False, max_arity=3)
            for _ in range(size)
        }

        def target(source):
            if source is None:
                name = shape.choice(names)
                return name, shape.sample(schema[name], shape.randint(1, 2))
            name, lhs = source
            other = rng.choice(names)
            return _ind(name, lhs, other, rng.sample(schema[other], len(lhs)))

        targets = _batch(shape, target, sources=60, repeats=12)
    elif kind == "fd":
        schema = _relations(shape, max(5, size // 8), 6, 8)
        names = list(schema)
        deps = {_random_fd(shape, schema, names, max_lhs=2) for _ in range(size)}

        def target(source):
            if source is None:
                name = shape.choice(names)
                return name, shape.sample(schema[name], shape.randint(1, 2))
            name, lhs = source
            rhs = rng.choice([a for a in schema[name] if a not in lhs])
            return str(FD(name, tuple(lhs), (rhs,)))

        targets = _batch(shape, target, sources=60, repeats=12)
    else:
        arity = 1 if kind == "unary" else 2
        schema = _relations(shape, max(10, size // 6), 2, 3 if arity == 1 else 4)
        names = list(schema)
        deps = set()
        while len(deps) < size:
            if shape.random() < 0.6:
                deps.add(_random_ind(
                    shape, schema, names, layered=True, max_arity=arity
                ))
            else:
                deps.add(_random_fd(shape, schema, names, max_lhs=arity))

        first_layer = itertools.cycle(range(len(names) // LAYERS))

        def target(source):
            if source is None:
                return next(first_layer)
            left = schema[names[source]]
            if shape.random() < 0.5:
                lhs = shape.sample(
                    left, shape.randint(1, min(arity, len(left) - 1))
                )
                rhs = shape.choice([a for a in left if a not in lhs])
                return str(FD(names[source], tuple(lhs), (rhs,)))
            other = names[shape.randrange(len(names) // LAYERS, len(names))]
            right = schema[other]
            width = shape.randint(1, min(arity, len(left), len(right)))
            return _ind(
                names[source], shape.sample(left, width),
                other, shape.sample(right, width),
            )

        # A chase stops at the goal, so a question's verdict sets its
        # cost, and one added IND can double the next chase: the chase
        # classes are the same under every seed.
        targets = _batch(
            shape, target, sources=len(names) // LAYERS, repeats=4
        )
    bundle = {"schema": schema, "dependencies": sorted(deps)}
    add = _fixed_add(shape, kind, schema, deps)
    return ColdBundle(kind=kind, bundle=bundle, targets=targets, add=add)


def _fixed_add(shape: random.Random, kind: str, schema: dict, deps: set) -> str:
    """The bundle's added dependency, the same under every seed: what
    an ``add`` costs, and how much of the session it invalidates,
    depends on which dependency it is."""
    names = list(schema)
    while True:
        if kind == "fd":
            add = _random_fd(shape, schema, names, max_lhs=2)
        else:
            add = _random_ind(
                shape, schema, names, layered=kind != "ind",
                max_arity=1 if kind == "unary" else 2,
            )
        if add not in deps:
            return add


def cold_oracle(item: ColdBundle, premise_texts: list[str]) -> list[bool]:
    """Reference verdicts: naive IND BFS, naive closure, naive chase."""
    if item.kind == "ind":
        return ind_oracle(premise_texts, item.targets)
    premises = [parse_dependency(text) for text in premise_texts]
    if item.kind == "fd":
        verdicts = []
        for text in item.targets:
            fd = parse_dependency(text)
            closure = attribute_closure_naive(fd.lhs, premises, fd.relation)
            verdicts.append(fd.rhs_set <= closure)
        return verdicts
    schema = DatabaseSchema(
        RelationSchema(name, tuple(attrs))
        for name, attrs in item.bundle["schema"].items()
    )
    return [
        chase_implies(
            schema, premises, parse_dependency(text), strategy="naive"
        ).implied
        for text in item.targets
    ]


def cold_inputs(seed: int) -> list[ColdBundle]:
    """The ``engine_cold`` bundle cycle with its oracle verdicts."""
    rng = random.Random(seed)
    items = []
    for kind, size in COLD_SCHEDULE:
        item = _cold_bundle(rng, kind, size)
        base = item.bundle["dependencies"]
        item.expected = cold_oracle(item, base)
        item.expected_after = cold_oracle(item, base + [item.add])
        items.append(item)
    return items
