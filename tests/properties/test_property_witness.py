"""Differential property for the reach index's resumable witness walk.

A :class:`~repro.core.reach_index.ReachIndex` answers an implied IND
question by advancing one BFS per source only until the goal has a
parent.  Asked from one to three sources in a random order — goals the
walk has already passed, goals beyond its frontier, and goals it never
reaches — every implied answer must carry the chain, links and
``frontier_peak`` of the early-exit kernel BFS (``decide_ind`` over a
fresh :class:`~repro.core.ind_kernel.KernelIndex`), and every
non-trivial answer's ``explored`` is the size of the source's whole
reachable set.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ind_decision import decide_ind, reachable_expressions
from repro.core.ind_kernel import KernelIndex
from repro.core.reach_index import ReachIndex
from repro.deps.ind import IND

from tests.properties.strategies import attribute_subsequences, inds, schemas

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


@COMMON
@given(schemas(), st.data())
def test_resumed_walks_match_the_early_exit_bfs(schema, data):
    premises = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(1, 10)))]
    reach = ReachIndex(KernelIndex(premises))
    rels = list(schema)
    questions = []
    for _ in range(data.draw(st.integers(1, 3))):
        rel = data.draw(st.sampled_from(rels))
        start = (rel.name, data.draw(attribute_subsequences(rel)))
        closure = reachable_expressions(start, KernelIndex(premises))
        goals = sorted(closure - {start})
        if goals:
            picked = data.draw(
                st.lists(st.sampled_from(goals), min_size=1, max_size=5)
            )
        else:
            picked = []
        # A goal outside the closure (when the scheme has one) too.
        far = data.draw(st.sampled_from(rels))
        if far.arity >= len(start[1]):
            picked.append((far.name, far.attributes[: len(start[1])]))
        questions += [(start, goal, len(closure)) for goal in picked]

    for start, goal, reachable in data.draw(st.permutations(questions)):
        target = IND(start[0], start[1], goal[0], goal[1])
        answer = reach.decide(target)
        bfs = decide_ind(target, KernelIndex(premises))
        assert answer.implied == bfs.implied
        if start == goal:
            continue
        assert answer.explored == reachable
        if answer.implied:
            assert answer.chain == bfs.chain
            assert answer.links == bfs.links
            assert answer.frontier_peak == bfs.frontier_peak
        else:
            assert answer.frontier_peak == 0
