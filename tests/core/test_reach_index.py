"""The SCC-condensed bitset closure index (``core/reach_index.py``)."""

import sys
import threading

import pytest

from repro.core.ind_decision import (
    chain_is_valid,
    decide_ind,
    reachable_expressions,
)
from repro.core.ind_kernel import KernelIndex
from repro.core.reach_index import ReachIndex
from repro.deps.ind import IND
from repro.exceptions import SearchBudgetExceeded


def chain_premises(length=6, attr="A"):
    return [
        IND(f"R{i}", (attr,), f"R{i+1}", (attr,)) for i in range(length - 1)
    ]


def build(premises):
    kernels = KernelIndex(premises)
    return ReachIndex(kernels), kernels


class TestCondensation:
    def test_chain_condenses_to_singleton_sccs(self):
        reach, _ = build(chain_premises())
        assert reach.reachable(("R0", ("A",)), ("R5", ("A",)))
        assert not reach.reachable(("R5", ("A",)), ("R0", ("A",)))
        stats = reach.stats()
        assert stats["nodes"] == 6 and stats["sccs"] == 6
        # Chain labels are nested suffixes: 6+5+...+1 total bits.
        assert stats["label_bits"] == 21

    def test_cycle_collapses_into_one_component(self):
        cycle = chain_premises(4) + [IND("R3", ("A",), "R0", ("A",))]
        reach, _ = build(cycle)
        assert reach.reachable(("R0", ("A",)), ("R3", ("A",)))
        assert reach.reachable(("R3", ("A",)), ("R0", ("A",)))
        stats = reach.stats()
        assert stats["nodes"] == 4 and stats["sccs"] == 1
        assert stats["label_bits"] == 1

    def test_materialization_is_shared_across_sources(self):
        reach, _ = build(chain_premises())
        reach.ensure_source(("R0", ("A",)))
        compiles = reach.compiles
        # R3[A] was materialized as part of R0[A]'s component: deciding
        # from it is a pure hit, no recompile.
        assert reach.is_hot(("R3", ("A",)))
        assert reach.reachable(("R3", ("A",)), ("R5", ("A",)))
        assert reach.compiles == compiles

    def test_deep_chain_exceeds_default_recursion(self):
        # The iterative Tarjan must survive components far deeper than
        # CPython's default recursion limit.
        depth = 3000
        reach, _ = build(chain_premises(depth))
        assert reach.reachable(("R0", ("A",)), (f"R{depth-1}", ("A",)))
        assert reach.stats()["sccs"] == depth


class TestDecide:
    def test_verdict_and_chain_match_the_kernel_bfs(self):
        premises = chain_premises() + [IND("R2", ("A",), "R0", ("A",))]
        reach, kernels = build(premises)
        target = IND("R0", ("A",), "R4", ("A",))
        indexed = reach.decide(target)
        bfs = decide_ind(target, kernels)
        assert indexed.implied == bfs.implied is True
        assert indexed.chain == bfs.chain
        assert indexed.links == bfs.links
        assert chain_is_valid(target, indexed.chain, indexed.links)

    def test_explored_matches_the_exhaustive_exploration(self):
        premises = chain_premises()
        reach, kernels = build(premises)
        miss = IND("R2", ("A",), "R0", ("A",))
        closure = reachable_expressions(("R2", ("A",)), kernels)
        assert reach.decide(miss).explored == len(closure)

    def test_trivial_target_answers_without_compiling(self):
        reach, _ = build(chain_premises())
        result = reach.decide(IND("R0", ("A",), "R0", ("A",)))
        assert result.implied and result.chain == [("R0", ("A",))]
        assert reach.stats()["nodes"] == 0  # nothing materialized

    def test_budget_exceeded_rolls_back_instead_of_half_compiling(self):
        # R0[A,B] fans out through a permuting premise set; a tiny
        # budget must raise and leave the index empty, not poisoned.
        premises = [
            IND(f"R{i}", ("A", "B"), f"R{i+1}", ("B", "A")) for i in range(20)
        ]
        reach, _ = build(premises)
        with pytest.raises(SearchBudgetExceeded):
            reach.decide(IND("R0", ("A", "B"), "QUIET", ("A", "B")), max_nodes=5)
        assert reach.stats()["nodes"] == 0
        # ...and a later, budgeted query compiles cleanly.
        assert reach.decide(IND("R0", ("A", "B"), "R20", ("A", "B"))).implied

    def test_budget_overrun_preserves_previously_compiled_components(self):
        # The budget is per-call (newly materialized nodes), and a
        # failed expansion rolls back to the prior compiled state
        # instead of resetting the whole index.
        premises = chain_premises(30) + [
            IND(f"S{i}", ("A", "B"), f"S{i+1}", ("B", "A")) for i in range(40)
        ]
        reach, _ = build(premises)
        assert reach.decide(IND("R0", ("A",), "R29", ("A",))).implied  # 30 nodes
        nodes, compiles = reach.stats()["nodes"], reach.compiles
        with pytest.raises(SearchBudgetExceeded):
            # The S-fan needs 41 new nodes; 30 already-materialized R
            # nodes must not eat this call's budget...
            reach.decide(IND("S0", ("A", "B"), "QUIET", ("A", "B")), max_nodes=35)
        # ...and the failed expansion leaves the R component untouched.
        assert reach.stats()["nodes"] == nodes
        assert reach.is_hot(("R0", ("A",)))
        answer = reach.decide(IND("R0", ("A",), "R29", ("A",)))
        assert answer.implied and reach.compiles == compiles

    def test_new_sources_extend_without_recondensing_old_components(self):
        # Successor-closure means old nodes never reach new ones, so a
        # new source's compilation appends components and leaves old
        # labels, counts, and witness views exactly as they were.
        premises = chain_premises(10) + [
            IND(f"S{i}", ("A",), f"S{i+1}", ("A",)) for i in range(9)
        ]
        reach, _ = build(premises)
        first = reach.decide(IND("R0", ("A",), "R9", ("A",)))
        labels_before = list(reach._labels)
        views_before = dict(reach._views)
        assert reach.decide(IND("S0", ("A",), "S9", ("A",))).implied
        assert reach._labels[: len(labels_before)] == labels_before
        assert all(reach._views[k] is v for k, v in views_before.items())
        # The old source still answers identically after the extension.
        again = reach.decide(IND("R0", ("A",), "R9", ("A",)))
        assert again.chain == first.chain and again.explored == first.explored


class TestLifecyclePolicy:
    def test_fresh_lhs_add_is_a_monotone_extension(self):
        reach, kernels = build(chain_premises())
        reach.ensure_source(("R0", ("A",)))
        epoch = reach.epoch
        kernels.add(IND("QUIET", ("A",), "R0", ("A",)))
        reach.note_mutation(added_lhs=["QUIET"])
        assert reach.epoch == epoch and not reach.dirty
        assert reach.extensions == 1
        # The new source compiles against the live kernels and sees
        # both the new premise and the shared old component.
        assert reach.reachable(("QUIET", ("A",)), ("R5", ("A",)))

    def test_in_footprint_mutation_marks_dirty_and_recompiles_lazily(self):
        reach, kernels = build(chain_premises())
        reach.ensure_source(("R0", ("A",)))
        epoch = reach.epoch
        removed = IND("R2", ("A",), "R3", ("A",))
        kernels.discard(removed)
        reach.note_mutation(removed_lhs=["R2"])
        assert reach.dirty and reach.epoch == epoch
        assert not reach.is_hot(("R0", ("A",)))
        assert not reach.reachable(("R0", ("A",)), ("R5", ("A",)))
        assert reach.epoch == epoch + 1 and not reach.dirty

    def test_unreported_kernel_drift_self_invalidates(self):
        reach, kernels = build(chain_premises())
        assert not reach.reachable(("R5", ("A",)), ("R0", ("A",)))
        # Mutate the kernel index without telling the reach index.
        kernels.add(IND("R5", ("A",), "R0", ("A",)))
        assert not reach.is_hot(("R5", ("A",)))
        assert reach.reachable(("R5", ("A",)), ("R0", ("A",)))

    def test_copy_is_independent_after_divergence(self):
        reach, kernels = build(chain_premises())
        reach.ensure_source(("R0", ("A",)))
        twin_kernels = kernels.copy()
        twin = reach.copy(twin_kernels)
        assert twin.is_hot(("R0", ("A",)))  # warm from the start

        # Parent mutates; the twin's compiled state must not notice.
        kernels.discard(IND("R0", ("A",), "R1", ("A",)))
        reach.note_mutation(removed_lhs=["R0"])
        assert not reach.reachable(("R0", ("A",)), ("R5", ("A",)))
        assert twin.reachable(("R0", ("A",)), ("R5", ("A",)))

        # Twin mutates; the parent keeps its own (already recompiled) view.
        twin_kernels.add(IND("R5", ("A",), "R0", ("A",)))
        twin.note_mutation(added_lhs=["R5"])
        assert twin.reachable(("R5", ("A",)), ("R0", ("A",)))
        assert not reach.reachable(("R0", ("A",)), ("R5", ("A",)))


def ladder_premises(levels):
    """R0[A,B] reaches both orders of every later level: two nodes per
    level, each with two successors, so BFS parents depend on order."""
    premises = []
    for i in range(levels):
        premises.append(IND(f"R{i}", ("A", "B"), f"R{i+1}", ("A", "B")))
        premises.append(IND(f"R{i}", ("A", "B"), f"R{i+1}", ("B", "A")))
    return premises


class TestWitnessWalk:
    SOURCE = ("R0", ("A",))
    SHALLOW = IND("R0", ("A",), "R1", ("A",))
    DEEP = IND("R0", ("A",), "R9", ("A",))

    def test_shallow_goal_stops_short_of_the_component(self):
        reach, kernels = build(chain_premises(10))
        answer = reach.decide(self.SHALLOW)
        view = reach._views[reach._ids[self.SOURCE]]
        # Expanding R0 found R1: the walk stops there, with R2..R9
        # neither discovered nor queued...
        assert len(view.parents) == 2 and list(view.queue) == [
            reach._ids[("R1", ("A",))]
        ]
        # ...while ``explored`` still reports the whole reachable set.
        assert answer.explored == 10
        bfs = decide_ind(self.SHALLOW, kernels)
        assert (answer.chain, answer.links, answer.frontier_peak) == (
            bfs.chain, bfs.links, bfs.frontier_peak
        )

    def test_resumed_walk_keeps_its_running_peak(self):
        # R0[A] fans out to five nodes, only the last of which leads on
        # (to T, then U): the queue peaks at 5 and has shrunk to [T]
        # when the walk stops at T.  Resumed for U, the walk must still
        # report the peak 5 the early-exit BFS reports, not the queue
        # length it resumed with.
        premises = [IND("R0", ("A",), f"S{i}", ("A",)) for i in range(1, 6)]
        premises += [IND("S5", ("A",), "T", ("A",)), IND("T", ("A",), "U", ("A",))]
        reach, kernels = build(premises)
        assert reach.decide(IND("R0", ("A",), "T", ("A",))).frontier_peak == 5
        deep = IND("R0", ("A",), "U", ("A",))
        assert reach.decide(deep).frontier_peak == 5
        assert decide_ind(deep, kernels).frontier_peak == 5

    def test_fork_advances_its_own_walk(self):
        reach, kernels = build(chain_premises(10))
        reach.decide(self.SHALLOW)
        source = reach._ids[self.SOURCE]
        view = reach._views[source]
        parents, queue = dict(view.parents), list(view.queue)
        twin = reach.copy(kernels.copy())
        child = twin.decide(self.DEEP)
        assert len(twin._views[source].parents) == 10
        # The parent's unfinished walk did not move.
        assert reach._views[source] is view
        assert view.parents == parents and list(view.queue) == queue
        # Resuming it later gives the child's answer.
        answer = reach.decide(self.DEEP)
        assert (answer.chain, answer.links, answer.frontier_peak) == (
            child.chain, child.links, child.frontier_peak
        )

    def test_parent_and_forks_walk_one_source_concurrently(self):
        """``whatif`` re-queries a fork on an executor thread while the
        parent keeps answering: the parent and three forks of it (more
        walkers than cores) advance one source's walk at once, and each
        side's chains are still the kernel BFS's."""
        levels = 300
        premises = ladder_premises(levels)
        reach, kernels = build(premises)
        start = ("R0", ("A", "B"))
        reach.decide(IND(*start, "R1", ("B", "A")))  # an unfinished walk
        indexes = [reach] + [reach.copy(kernels.copy()) for _ in range(3)]
        targets = [
            IND(*start, f"R{level}", attrs)
            for level in range(2, levels + 1, 7)
            for attrs in (("B", "A"), ("A", "B"))
        ]
        expected = {
            target: (bfs.chain, bfs.links, bfs.frontier_peak)
            for target in targets
            for bfs in [decide_ind(target, KernelIndex(premises))]
        }
        results = [[] for _ in indexes]
        errors = []

        def walk(index, out):
            try:
                for target in targets:
                    answer = index.decide(target)
                    out.append(
                        (target, (answer.chain, answer.links, answer.frontier_peak))
                    )
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=walk, args=(index, out))
                for index, out in zip(indexes, results)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for out in results:
            assert len(out) == len(targets)
            assert all(got == expected[target] for target, got in out)
