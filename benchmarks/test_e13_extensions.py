"""E13 — extension features beyond the paper's minimum.

* Armstrong-database generators (FD gadget lattice, IND pad
  saturation) — the constructive form of the existence results the
  paper cites;
* formal FD proofs (Armstrong's axioms) from closure derivations.
"""

import random

import pytest

from repro.core.armstrong_fd import armstrong_relation, is_armstrong_relation
from repro.core.armstrong_ind import armstrong_database, is_armstrong_database
from repro.core.fd_axioms import check_fd_proof, prove_fd
from repro.deps.fd import FD
from repro.model.schema import RelationSchema
from repro.workloads.random_deps import random_inds, random_schema


@pytest.mark.parametrize("attrs", [3, 4, 5])
def test_fd_armstrong_generation(benchmark, attrs):
    schema = RelationSchema("R", tuple(f"A{i}" for i in range(attrs)))
    fds = [
        FD("R", (f"A{i}",), (f"A{i+1}",)) for i in range(attrs - 1)
    ]
    relation = benchmark(lambda: armstrong_relation(schema, fds))
    assert is_armstrong_relation(relation, fds)


@pytest.mark.parametrize("seed", [0, 1])
def test_ind_armstrong_generation(benchmark, seed):
    rng = random.Random(seed)
    schema = random_schema(rng, n_relations=3, max_arity=3)
    premises = random_inds(rng, schema, count=5, max_arity=2)
    db = benchmark(lambda: armstrong_database(schema, premises))
    exact, mismatches = is_armstrong_database(db, premises, max_arity=2)
    assert exact, [str(m) for m in mismatches[:3]]


def test_section7_armstrong_via_generator(benchmark):
    from repro.core.section7 import section7_family

    family = section7_family(3)
    db = benchmark(lambda: armstrong_database(family.schema, family.inds))
    assert db.satisfies_all(family.inds)


@pytest.mark.parametrize("chain", [4, 8])
def test_fd_proof_construction(benchmark, chain):
    attrs = tuple(f"A{i}" for i in range(chain + 1))
    premises = [FD("R", (attrs[i],), (attrs[i + 1],)) for i in range(chain)]
    target = FD("R", (attrs[0],), (attrs[-1],))

    def run():
        proof = prove_fd(target, premises)
        assert check_fd_proof(proof, target)
        return len(proof)

    lines = benchmark(run)
    assert lines >= chain
