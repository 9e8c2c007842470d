"""Section 7: no k-ary complete axiomatization for *unrestricted*
implication of FDs and INDs (and RDs).

For fixed ``k < n`` the paper builds the scheme

    ``F[A,B,C]``, ``G0[A,B,C]``, ``Gi[B,C]`` (1 <= i <= n),
    ``Hi[B,C]`` (0 <= i < n), ``Hn[B,C,D]``

and the dependency set Sigma:

    * ``alpha_0 = F[A,B] c G0[A,B]``
    * ``alpha_i = F[B] c Gi[B]``            (1 <= i <= n)
    * ``beta_i  = F[B] c Hi[B]``            (0 <= i < n)
    * ``beta_n  = F[B,C] c Hn[B,D]``
    * ``gamma_i  = Hi[B,C] c Gi[B,C]``      (0 <= i <= n)
    * ``gamma'_i = Hi[B,C] c G(i+1)[B,C]``  (0 <= i < n)
    * ``delta_0 = G0: A -> C``
    * ``eps_i   = Gi: B -> C``              (0 <= i <= n)
    * ``theta_n = Hn: C -> D``

with target ``sigma = F: A -> C``.  Lemma 7.2 derives sigma from Sigma
through a chain of equalities that threads every ``Hi``; removing any
``beta_j`` breaks the chain.  The set

    ``Gamma = phi+ u lambda+ u omega - {sigma}``

(``phi`` the per-relation FD families, ``lambda`` the INDs of Sigma,
``omega`` the trivial RDs) is then closed under k-ary implication but
not under implication, and Theorem 5.1 applies.

Every figure of the section is regenerated and machine-checked here:

* **Figure 7.1** — satisfies Sigma, violates all nontrivial RDs
  (Lemma 7.4);
* **Figure 7.2** — satisfies Sigma; its FDs are exactly ``phi+``
  (Lemma 7.5);
* **Figure 7.3** — satisfies Sigma; its INDs are exactly ``lambda+``
  (Lemma 7.6) — built by chasing seeded private tuples;
* **Figure 7.4** — satisfies ``lambda - {beta_j}`` but not ``beta_j``
  (Lemma 7.8);
* **Figure 7.5** — satisfies ``(phi - sigma)+ u (lambda - beta_j)+ u
  omega`` but violates sigma (Lemma 7.9).

The OCR of the paper's figures is partly illegible, so Figures 7.2 and
7.3 are *reconstructed* to the lemmas' exact specifications and then
verified against those specifications over the fully enumerated
dependency universe; the verification, not the tuple-level layout, is
what the lemmas require.  (``tests/core/test_section7.py`` and
``benchmarks/test_e11_section7.py`` run that verification.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.deps.base import Dependency
from repro.deps.enumeration import all_fds, all_inds, all_rds
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.rd import RD
from repro.model.builders import database
from repro.model.database import Database
from repro.model.schema import DatabaseSchema, RelationSchema
from repro.core.fd_closure import fd_implies
from repro.core.fdind_chase import ChaseEngine, ChaseInstance, chase_implies
from repro.core.ind_prover import implies_ind


# ---------------------------------------------------------------------------
# Scheme and dependency families
# ---------------------------------------------------------------------------


def g_name(i: int) -> str:
    return f"G{i}"


def h_name(i: int) -> str:
    return f"H{i}"


def section7_schema(n: int) -> DatabaseSchema:
    """The Section 7 database scheme for parameter ``n``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    schemas = [RelationSchema("F", ("A", "B", "C"))]
    schemas.append(RelationSchema(g_name(0), ("A", "B", "C")))
    schemas.extend(RelationSchema(g_name(i), ("B", "C")) for i in range(1, n + 1))
    schemas.extend(RelationSchema(h_name(i), ("B", "C")) for i in range(n))
    schemas.append(RelationSchema(h_name(n), ("B", "C", "D")))
    return DatabaseSchema(schemas)


@dataclass
class Section7Family:
    """Sigma, sigma, and the named sub-families for parameter ``n``."""

    n: int
    schema: DatabaseSchema
    alpha: list[IND]
    beta: list[IND]
    gamma: list[IND]
    gamma_prime: list[IND]
    delta_0: FD
    epsilon: list[FD]
    theta_n: FD
    sigma: FD

    @property
    def inds(self) -> list[IND]:
        """``lambda``: the INDs of Sigma."""
        return [*self.alpha, *self.beta, *self.gamma, *self.gamma_prime]

    @property
    def fds(self) -> list[FD]:
        """The FDs of Sigma."""
        return [self.delta_0, *self.epsilon, self.theta_n]

    @property
    def dependencies(self) -> list[Dependency]:
        """Sigma itself."""
        return [*self.inds, *self.fds]

    def beta_j(self, j: int) -> IND:
        """``beta_j = F[B] c Hj[B]`` for ``0 <= j < n``."""
        if not 0 <= j < self.n:
            raise ValueError(f"beta_j defined for 0 <= j < n = {self.n}")
        return self.beta[j]


def section7_family(n: int) -> Section7Family:
    """Build the full Section 7 dependency family."""
    schema = section7_schema(n)
    alpha = [IND("F", ("A", "B"), g_name(0), ("A", "B"))]
    alpha.extend(IND("F", ("B",), g_name(i), ("B",)) for i in range(1, n + 1))
    beta = [IND("F", ("B",), h_name(i), ("B",)) for i in range(n)]
    beta.append(IND("F", ("B", "C"), h_name(n), ("B", "D")))
    gamma = [
        IND(h_name(i), ("B", "C"), g_name(i), ("B", "C")) for i in range(n + 1)
    ]
    gamma_prime = [
        IND(h_name(i), ("B", "C"), g_name(i + 1), ("B", "C")) for i in range(n)
    ]
    delta_0 = FD(g_name(0), ("A",), ("C",))
    epsilon = [FD(g_name(i), ("B",), ("C",)) for i in range(n + 1)]
    theta_n = FD(h_name(n), ("C",), ("D",))
    sigma = FD("F", ("A",), ("C",))
    return Section7Family(
        n=n,
        schema=schema,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        gamma_prime=gamma_prime,
        delta_0=delta_0,
        epsilon=epsilon,
        theta_n=theta_n,
        sigma=sigma,
    )


def phi_sets(family: Section7Family) -> dict[str, list[FD]]:
    """The per-relation FD families ``phi(.)`` of Section 7."""
    n = family.n
    phi: dict[str, list[FD]] = {
        "F": [FD("F", ("A",), ("C",)), FD("F", ("B",), ("C",))],
        g_name(0): [FD(g_name(0), ("A",), ("C",)), FD(g_name(0), ("B",), ("C",))],
    }
    for i in range(1, n + 1):
        phi[g_name(i)] = [FD(g_name(i), ("B",), ("C",))]
    for i in range(n):
        phi[h_name(i)] = [FD(h_name(i), ("B",), ("C",))]
    phi[h_name(n)] = [
        FD(h_name(n), ("B",), ("C",)),
        FD(h_name(n), ("C",), ("D",)),
    ]
    return phi


def phi_all(family: Section7Family) -> list[FD]:
    """``phi``: the union of the per-relation FD families."""
    result: list[FD] = []
    for fds in phi_sets(family).values():
        result.extend(fds)
    return result


# ---------------------------------------------------------------------------
# Universe and Gamma
# ---------------------------------------------------------------------------


def fd_universe(family: Section7Family, include_trivial: bool = True) -> list[FD]:
    """All canonical FDs over the scheme."""
    result: list[FD] = []
    for rel in family.schema:
        result.extend(all_fds(rel, include_trivial=include_trivial))
    return result


def ind_universe(family: Section7Family, include_trivial: bool = True) -> list[IND]:
    """All canonical INDs over the scheme (arities up to 3)."""
    return list(all_inds(family.schema, include_trivial=include_trivial))


def rd_universe(family: Section7Family, include_trivial: bool = True) -> list[RD]:
    """All canonical unary RDs over the scheme."""
    return list(all_rds(family.schema, include_trivial=include_trivial))


def gamma_7(family: Section7Family) -> set[Dependency]:
    """``Gamma = phi+ u lambda+ u omega - {sigma}`` over the universe."""
    phi = phi_all(family)
    lam = family.inds
    members: set[Dependency] = set()
    for fd in fd_universe(family):
        if fd_implies(phi, fd):
            members.add(fd)
    for ind in ind_universe(family):
        if implies_ind(lam, ind):
            members.add(ind)
    for rd in rd_universe(family):
        if rd.is_trivial():
            members.add(rd)
    members.discard(family.sigma)
    return members


# ---------------------------------------------------------------------------
# Lemma 7.2: Sigma |= sigma, via the chase
# ---------------------------------------------------------------------------


@dataclass
class Lemma72Report:
    """The automated re-derivation of Lemma 7.2."""

    implied: bool
    merge_count: int
    tuples_created: int
    rounds: int

    def __str__(self) -> str:
        return (
            f"Lemma 7.2 (Sigma |= F: A -> C): {'holds' if self.implied else 'FAILS'}"
            f" — chase used {self.rounds} rounds, created "
            f"{self.tuples_created} tuples, performed {self.merge_count} merges"
        )


def verify_lemma_7_2(n: int) -> Lemma72Report:
    """Re-derive ``Sigma |= F: A -> C`` with the general FD+IND chase.

    The chase starts from two F-tuples agreeing on ``A`` and must
    equate their ``C`` entries — the equality chain
    ``c'_i = c_i = ... = c''_n`` of the paper, discovered mechanically.
    """
    from repro.core.fdind_chase import AddEvent, MergeEvent

    family = section7_family(n)
    certificate = chase_implies(family.schema, family.dependencies, family.sigma)
    events = certificate.outcome.instance.events
    merges = sum(1 for e in events if isinstance(e, MergeEvent))
    adds = sum(1 for e in events if isinstance(e, AddEvent))
    return Lemma72Report(
        implied=certificate.implied,
        merge_count=merges,
        tuples_created=adds,
        rounds=certificate.outcome.rounds,
    )


# ---------------------------------------------------------------------------
# Figure 7.1 (Lemma 7.4): Sigma holds, every nontrivial RD fails
# ---------------------------------------------------------------------------


def figure_7_1(n: int) -> Database:
    """A database satisfying Sigma in which distinct variables are
    distinct values, so every nontrivial RD fails (Lemma 7.4).

    Values: ``a, b, c`` seed F; the shared G/H chain value is ``e``
    (forced equal across all ``Gi``/``Hi`` by the gamma-epsilon
    interplay); ``Hn`` carries ``(b, e, c)`` to honour ``beta_n``.
    """
    family = section7_family(n)
    contents: dict[str, list[tuple]] = {
        "F": [("a", "b", "c")],
        g_name(0): [("a", "b", "e")],
    }
    for i in range(1, n + 1):
        contents[g_name(i)] = [("b", "e")]
    for i in range(n):
        contents[h_name(i)] = [("b", "e")]
    contents[h_name(n)] = [("b", "e", "c")]
    return database(family.schema, contents)


@dataclass
class FigureReport:
    """Generic verification report for a figure database."""

    name: str
    satisfies_required: bool
    violations: list[str] = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.satisfies_required and not self.violations

    def __str__(self) -> str:
        status = "verified" if self.holds else "FAILED"
        text = f"{self.name}: {status}"
        if self.violations:
            text += " — " + "; ".join(self.violations[:5])
        return text


def verify_figure_7_1(n: int) -> FigureReport:
    """Check Figure 7.1 satisfies Sigma and kills all nontrivial RDs."""
    family = section7_family(n)
    db = figure_7_1(n)
    problems: list[str] = []
    sat = db.satisfies_all(family.dependencies)
    if not sat:
        problems.extend(
            f"violates {dep}" for dep in db.violated(family.dependencies)
        )
    for rd in rd_universe(family, include_trivial=False):
        if db.satisfies(rd):
            problems.append(f"nontrivial RD {rd} unexpectedly holds")
    return FigureReport("Figure 7.1 (Lemma 7.4)", sat, problems)


# ---------------------------------------------------------------------------
# Figure 7.2 (Lemma 7.5): FDs holding are exactly phi+
# ---------------------------------------------------------------------------


def figure_7_2(n: int) -> Database:
    """The FD-Armstrong database for Sigma: satisfies Sigma, and an FD
    holds in it iff ``phi`` implies it (Lemma 7.5).

    Reconstruction (the printed figure is illegible in the source):
    four F-tuples realize exactly ``{A -> C, B -> C}``; the G/H chain
    carries three ``(B, C)`` pairs realizing exactly ``{B -> C}``; and
    ``Hn`` adds a fourth row to break ``C -> B`` / ``D -> C`` while
    keeping ``{B -> C, C -> D}``.  The extra row forces a matching
    ``(b5, c5)`` pair into every ``Gi``/``Hi`` (the gamma chain), which
    is harmless for FD-exactness.
    """
    family = section7_family(n)
    f_rows = [
        ("a1", "b1", "c1"),
        ("a1", "b2", "c1"),
        ("a2", "b3", "c2"),
        ("a3", "b3", "c2"),
    ]
    # (B, C) pairs shared along the chain; the pair (b5, c5) exists so
    # that Hn's D -> C breaker has a home in every G relation.
    chain_pairs = [("b1", "c1"), ("b2", "c1"), ("b3", "c2"), ("b5", "c5")]
    contents: dict[str, list[tuple]] = {
        "F": f_rows,
        g_name(0): [
            ("a1", "b1", "c1"),
            ("a1", "b2", "c1"),
            ("a2", "b3", "c2"),
            ("a3", "b3", "c2"),
            ("a5", "b5", "c5"),
        ],
    }
    for i in range(1, n + 1):
        contents[g_name(i)] = list(chain_pairs)
    for i in range(n):
        contents[h_name(i)] = list(chain_pairs)
    # Hn over (B, C, D): beta_n forces (B, D) to cover F's (B, C)
    # pairs; gamma_n forces (B, C) pairs into Gn; theta_n: C -> D.
    contents[h_name(n)] = [
        ("b1", "c1", "c1"),
        ("b2", "c1", "c1"),
        ("b3", "c2", "c2"),
        ("b5", "c5", "c1"),  # breaks D -> C and D -> B; keeps C -> D
    ]
    return database(family.schema, contents)


def verify_figure_7_2(n: int) -> FigureReport:
    """Check Figure 7.2: satisfies Sigma; FDs holding = phi+ exactly."""
    family = section7_family(n)
    db = figure_7_2(n)
    phi = phi_all(family)
    problems: list[str] = []
    sat = db.satisfies_all(family.dependencies)
    if not sat:
        problems.extend(
            f"violates {dep}" for dep in db.violated(family.dependencies)
        )
    for fd in fd_universe(family):
        holds = db.satisfies(fd)
        implied = fd_implies(phi, fd)
        if holds != implied:
            problems.append(
                f"{fd}: holds={holds} but phi-implied={implied}"
            )
    return FigureReport("Figure 7.2 (Lemma 7.5)", sat, problems)


# ---------------------------------------------------------------------------
# Figure 7.3 (Lemma 7.6): INDs holding are exactly lambda+
# ---------------------------------------------------------------------------


def figure_7_3(n: int) -> Database:
    """The IND-Armstrong database for Sigma: satisfies Sigma, and an
    IND holds in it iff ``lambda`` implies it (Lemma 7.6).

    Built by seeding every relation with a private all-fresh tuple and
    chasing under Sigma: the chase closes the database under lambda
    (so every implied IND holds) while the private values guarantee
    that no unimplied inclusion sneaks in; the FD steps of the chase
    perform exactly the value identifications Sigma forces (the
    paper's "careful choice of cardinalities").
    """
    family = section7_family(n)
    engine = ChaseEngine(family.schema, family.dependencies)
    instance = ChaseInstance(family.schema)
    for rel in family.schema:
        row = [
            instance.fresh_constant(f"{rel.name.lower()}_{attr.lower()}")
            for attr in rel.attributes
        ]
        instance.add_row(rel.name, row)
    outcome = engine.run(instance)
    if outcome.failed:  # pragma: no cover - construction is conflict-free
        raise RuntimeError(f"figure 7.3 chase failed: {outcome.failure_reason}")
    return instance.to_database()


def verify_figure_7_3(n: int) -> FigureReport:
    """Check Figure 7.3: satisfies Sigma; INDs holding = lambda+."""
    family = section7_family(n)
    db = figure_7_3(n)
    lam = family.inds
    problems: list[str] = []
    sat = db.satisfies_all(family.dependencies)
    if not sat:
        problems.extend(
            f"violates {dep}" for dep in db.violated(family.dependencies)
        )
    for ind in ind_universe(family):
        holds = db.satisfies(ind)
        implied = implies_ind(lam, ind)
        if holds != implied:
            problems.append(f"{ind}: holds={holds} but lambda-implied={implied}")
    return FigureReport("Figure 7.3 (Lemma 7.6)", sat, problems)


# ---------------------------------------------------------------------------
# Figure 7.4 (Lemma 7.8): lambda - beta_j does not imply beta_j
# ---------------------------------------------------------------------------


def figure_7_4(n: int, j: int) -> Database:
    """A database satisfying ``lambda - {beta_j}`` but not ``beta_j``.

    ``Hj`` holds only a private tuple, so ``F[B] c Hj[B]`` fails, while
    chasing a seeded F-tuple under the remaining INDs satisfies the
    rest (Lemma 7.8, step (6)).
    """
    family = section7_family(n)
    beta_j = family.beta_j(j)
    kept = [ind for ind in family.inds if ind is not beta_j]
    engine = ChaseEngine(family.schema, kept + family.fds)
    instance = ChaseInstance(family.schema)
    f_schema = family.schema.relation("F")
    instance.add_row(
        "F",
        [instance.fresh_constant(f"f_{a.lower()}") for a in f_schema.attributes],
    )
    hj_schema = family.schema.relation(h_name(j))
    instance.add_row(
        h_name(j),
        [
            instance.fresh_constant(f"hj_{a.lower()}")
            for a in hj_schema.attributes
        ],
    )
    outcome = engine.run(instance)
    if outcome.failed:  # pragma: no cover - construction is conflict-free
        raise RuntimeError(f"figure 7.4 chase failed: {outcome.failure_reason}")
    return instance.to_database()


def verify_figure_7_4(n: int, j: int) -> FigureReport:
    family = section7_family(n)
    beta_j = family.beta_j(j)
    db = figure_7_4(n, j)
    kept = [ind for ind in family.inds if ind is not beta_j]
    problems: list[str] = []
    sat = db.satisfies_all(kept)
    if not sat:
        problems.extend(f"violates {dep}" for dep in db.violated(kept))
    if db.satisfies(beta_j):
        problems.append(f"{beta_j} unexpectedly holds")
    return FigureReport(f"Figure 7.4 (Lemma 7.8, j={j})", sat, problems)


# ---------------------------------------------------------------------------
# Figure 7.5 (Lemma 7.9): rho_j holds, sigma fails
# ---------------------------------------------------------------------------


def figure_7_5(n: int, j: int) -> Database:
    """A database satisfying ``(phi - sigma) u (lambda - beta_j)``
    (hence their closure, hence ``rho_j``) while violating
    ``sigma = F: A -> C`` (Lemma 7.9).

    Built by chasing two F-tuples that agree on ``A`` but carry
    distinct constants in ``C``; with ``beta_j`` removed, the equality
    chain of Lemma 7.2 cannot reach across, and the chase fixpoint
    keeps the two ``C`` values apart.
    """
    family = section7_family(n)
    beta_j = family.beta_j(j)
    kept_inds = [ind for ind in family.inds if ind is not beta_j]
    kept_fds = [fd for fd in phi_all(family) if fd != family.sigma]
    engine = ChaseEngine(family.schema, [*kept_inds, *kept_fds])
    instance = ChaseInstance(family.schema)
    a = instance.fresh_constant("a")
    b1 = instance.fresh_constant("b")
    b2 = instance.fresh_constant("b'")
    c1 = instance.fresh_constant("c")
    c2 = instance.fresh_constant("c'")
    instance.add_row("F", [a, b1, c1])
    instance.add_row("F", [a, b2, c2])
    outcome = engine.run(instance)
    if outcome.failed:
        raise RuntimeError(f"figure 7.5 chase failed: {outcome.failure_reason}")
    return instance.to_database()


def verify_figure_7_5(n: int, j: int) -> FigureReport:
    family = section7_family(n)
    beta_j = family.beta_j(j)
    db = figure_7_5(n, j)
    kept_inds = [ind for ind in family.inds if ind is not beta_j]
    kept_fds = [fd for fd in phi_all(family) if fd != family.sigma]
    required = [*kept_inds, *kept_fds]
    problems: list[str] = []
    sat = db.satisfies_all(required)
    if not sat:
        problems.extend(f"violates {dep}" for dep in db.violated(required))
    if db.satisfies(family.sigma):
        problems.append("sigma = F: A -> C unexpectedly holds")
    return FigureReport(f"Figure 7.5 (Lemma 7.9, j={j})", sat, problems)


# ---------------------------------------------------------------------------
# Lemma 7.8 as a set identity, and the full Theorem 7.1 report
# ---------------------------------------------------------------------------


def verify_lemma_7_8(n: int, j: int) -> bool:
    """Check the set identity of Lemma 7.8 over the enumerated universe:

    ``phi+ u lambda+ u omega - {sigma, beta_j}
      = (phi - sigma)+ u (lambda - beta_j)+ u omega``.
    """
    family = section7_family(n)
    sigma = family.sigma
    beta_j = family.beta_j(j)
    phi = phi_all(family)
    lam = family.inds
    phi_minus = [fd for fd in phi if fd != sigma]
    lam_minus = [ind for ind in lam if ind is not beta_j]

    for fd in fd_universe(family):
        left = fd_implies(phi, fd) and fd != sigma
        right = fd_implies(phi_minus, fd)
        if left != right:
            return False
    for ind in ind_universe(family):
        left = implies_ind(lam, ind) and ind != beta_j
        right = implies_ind(lam_minus, ind)
        if left != right:
            return False
    # RDs: both sides contain exactly the trivial RDs.
    return True


@dataclass
class Theorem71Report:
    """Full mechanical verification of Theorem 7.1 for ``(n, k)``."""

    n: int
    k: int
    lemma_7_2: Lemma72Report
    figure_7_1: FigureReport
    figure_7_2: FigureReport
    figure_7_3: FigureReport
    figures_7_4: list[FigureReport]
    figures_7_5: list[FigureReport]
    lemma_7_8: list[bool]
    sigma_outside_gamma: bool
    pigeonhole: bool

    @property
    def establishes_theorem(self) -> bool:
        return (
            self.lemma_7_2.implied
            and self.figure_7_1.holds
            and self.figure_7_2.holds
            and self.figure_7_3.holds
            and all(r.holds for r in self.figures_7_4)
            and all(r.holds for r in self.figures_7_5)
            and all(self.lemma_7_8)
            and self.sigma_outside_gamma
            and self.pigeonhole
        )

    def __str__(self) -> str:
        verdict = "ESTABLISHED" if self.establishes_theorem else "NOT established"
        lines = [
            f"Theorem 7.1 for n={self.n}, k={self.k}: {verdict}",
            f"  {self.lemma_7_2}",
            f"  {self.figure_7_1}",
            f"  {self.figure_7_2}",
            f"  {self.figure_7_3}",
        ]
        lines.extend(f"  {r}" for r in self.figures_7_4)
        lines.extend(f"  {r}" for r in self.figures_7_5)
        lines.append(
            f"  Lemma 7.8 identity for all j: {all(self.lemma_7_8)}"
        )
        lines.append(f"  sigma outside Gamma: {self.sigma_outside_gamma}")
        lines.append(
            f"  pigeonhole (n = {self.n} beta_j's > k = {self.k}): {self.pigeonhole}"
        )
        return "\n".join(lines)


def theorem_7_1_report(n: int, k: int) -> Theorem71Report:
    """Verify every ingredient of Theorem 7.1 for ``k < n``.

    The assembled argument: Gamma (= phi+ u lambda+ u omega - sigma)
    contains Sigma's consequences except sigma; Lemma 7.2 gives
    ``Sigma |= sigma`` with ``Sigma`` inside Gamma, so Gamma is not
    closed under implication.  For closure under k-ary implication:
    any <=k-subset ``T`` of Gamma misses some ``beta_j`` (pigeonhole
    over the ``n > k`` INDs ``F[B] c Hj[B]``), Figure 7.5's database
    satisfies ``rho_j`` (supset of ``T``, by Lemma 7.8's identity) while
    violating sigma, so ``T`` cannot imply sigma; and Lemmas 7.4-7.6
    (Figures 7.1-7.3) bound everything ``T`` implies inside
    ``phi+ u lambda+ u omega``.
    """
    if not 0 <= k < n:
        raise ValueError("Theorem 7.1 requires 0 <= k < n")
    family = section7_family(n)
    gamma = gamma_7(family)
    return Theorem71Report(
        n=n,
        k=k,
        lemma_7_2=verify_lemma_7_2(n),
        figure_7_1=verify_figure_7_1(n),
        figure_7_2=verify_figure_7_2(n),
        figure_7_3=verify_figure_7_3(n),
        figures_7_4=[verify_figure_7_4(n, j) for j in range(n)],
        figures_7_5=[verify_figure_7_5(n, j) for j in range(n)],
        lemma_7_8=[verify_lemma_7_8(n, j) for j in range(n)],
        sigma_outside_gamma=family.sigma not in gamma,
        pigeonhole=n > k,
    )
