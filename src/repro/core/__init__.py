"""Core inference engines: the paper's contribution, executable.

* ``ind_axioms`` — the complete axiomatization IND1-IND3 with formal,
  independently checkable proof objects (Section 3).
* ``ind_decision`` — the Corollary 3.2 decision procedure.
* ``ind_prover`` — constructive completeness: decisions into proofs,
  plus the polynomial special cases.
* ``ind_chase`` — the Rule (*) canonical-database construction from the
  proof of Theorem 3.1.
* ``pspace`` — Savitch-style quadratic-space reachability and the
  nondeterministic linear-space guesser (Theorem 3.3 upper bound).
* ``fd_closure`` — the FD substrate (attribute closure, implication,
  covers, keys), with the linear-time [BB] counter kernel.
* ``fdind_chase`` — the general chase for FDs + INDs (semi-decision;
  the combined problem is undecidable), semi-naive by default.
* ``ind_kernel`` — compiled premise kernels for the Corollary 3.2
  search (memoized successor maps, interned expressions).
* ``reach_index`` — the SCC-condensed bitset closure index amortizing
  IND reachability across a session's query stream.
* ``interaction`` — Propositions 4.1-4.3 as checked inference rules.
* ``finite_unary`` — finite implication for unary FDs + INDs (the
  counting/cycle arguments of Theorem 4.4 and Section 6, algorithmic).
* ``kary`` — Section 5's characterization of k-ary axiomatizability.
* ``armstrong6`` — Section 6's cycle family and Figure 6.1 database.
* ``section7`` — Section 7's dependency set and Figures 7.1-7.5.
* ``emvd_chase`` — EMVD chase and the Sagiv-Walecka family (Thm 5.3).
"""

from repro.core.fd_closure import (
    FDClosureKernel,
    attribute_closure,
    attribute_closure_naive,
    candidate_keys,
    fd_implies,
    implied_fds,
    minimal_cover,
)
from repro.core.ind_kernel import INDKernel, KernelIndex, compile_ind
from repro.core.reach_index import ReachIndex
from repro.core.ind_axioms import (
    Proof,
    ProofStep,
    apply_projection,
    apply_transitivity,
    check_proof,
    reflexivity,
)
from repro.core.ind_decision import DecisionResult, decide_ind, decide_ind_naive
from repro.core.ind_prover import (
    decide_bounded_arity,
    decide_typed,
    implies_ind,
    prove_ind,
)
from repro.core.ind_chase import decide_by_rule_star, rule_star_database
from repro.core.acyclic import decide_fdind_acyclic, ind_flow_is_acyclic
from repro.core.armstrong_fd import armstrong_relation, is_armstrong_relation
from repro.core.armstrong_ind import armstrong_database, is_armstrong_database
from repro.core.fd_axioms import FdProof, check_fd_proof, prove_fd

__all__ = [
    "FDClosureKernel",
    "INDKernel",
    "KernelIndex",
    "ReachIndex",
    "attribute_closure",
    "attribute_closure_naive",
    "compile_ind",
    "candidate_keys",
    "fd_implies",
    "implied_fds",
    "minimal_cover",
    "Proof",
    "ProofStep",
    "apply_projection",
    "apply_transitivity",
    "check_proof",
    "reflexivity",
    "DecisionResult",
    "decide_ind",
    "decide_ind_naive",
    "decide_bounded_arity",
    "decide_typed",
    "implies_ind",
    "prove_ind",
    "decide_by_rule_star",
    "rule_star_database",
    "decide_fdind_acyclic",
    "ind_flow_is_acyclic",
    "armstrong_relation",
    "is_armstrong_relation",
    "armstrong_database",
    "is_armstrong_database",
    "FdProof",
    "check_fd_proof",
    "prove_fd",
]
