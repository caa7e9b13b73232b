"""Concrete pro-p groups: semidirect products Z_p x| Z_p^(d-1).

Elements are pairs (a, v) with the product (a1, v1)(a2, v2) =
(a1 + a2, v1 M^a2 + v2), so conjugation by the distinguished generator
x = (1, 0) acts on the fiber as the matrix M.

Subgroups are kept in split form: a witness element whose first coordinate
has minimal valuation, together with the fiber intersection as a span that
is invariant under the witness twist.  This representation is complete for
closed subgroups of these metabelian groups, because every subgroup meets
the fiber in a module span and projects onto a closed subgroup of Z_p.

The form is canonical.  For U = <w> F_U with w = (p^e u, v_w), u a unit and
F_U invariant under T = M^(a_w), U ∩ F = F_U + Z_p w^(p^(N-e)), still
T-invariant as T fixes the vector of w^(p^(N-e)), a power of w.  The elements
of U with first coordinate p^e are the coset w^(u^-1) (U ∩ F), and
(p^e, v)(0, f) = (p^e, v + f); so the witness (p^e, v) with v reduced
modulo U ∩ F (`Span.reduce`) depends on U alone: equal subgroups have equal keys.

The subgroup generated by all p-th powers of U = (w, F, T = M^(a_w)) is
generated by w^p and the span pF + F (T-1)^(p-1): expanding the geometric
sum (1 + T^u + ... + T^((p-1)u)) binomially, every middle term has a
binomial coefficient divisible by p while the top term is (T^u - 1)^(p-1),
and (T^u - 1) is a Z[T]-multiple of (T - 1).  That closed form is what
`power_subgroup` computes with no closure: T commutes with T - 1, so the span is
T-invariant when F is.

Normal closures and commutators have closed forms of the same kind.  For any
subgroup U, the normal closure is U^G = U[U, G]: [U, G] is normal in
<U, G> = G, so U[U, G] is a subgroup; it is normal because u^g = u[u, g];
and any normal subgroup containing U contains every [u, g].  G/F = Z_p is
abelian, so [U, G] lies in the fiber F, and a fiber subgroup is normal
exactly when its span is M-invariant (conjugation by x = (1, 0) is v -> vM,
and the fiber is abelian).  In a finite group, [<X>, <Y>] is the normal
closure in <X, Y> of the commutators [X, Y]; take X the generators of
U = (w, F_U) with w = (a, v_w), and Y those of G, x and the fiber basis.
With [g, h] = g^-1 h^-1 g h and T = M^a, the commutators are

    [(0, f), x]     = (0, f (M - I))         for f in F_U,
    [w, x]          = (0, v_w (M - I)),
    [w, (0, e)]     = (0, -e (T - I))        for e in the fiber,
    [(0, f), (0, e)] = 1,

the inverse generators giving the same spans.  Hence [U, G] is the fiber
subgroup whose span is the M-invariant span generated by F_U (M - I),
v_w (M - I) and F (T - I); `commutator_subgroup` computes it, and
`normal_closure` returns the witness w with fiber F_U + [U, G].

Every invariant span in this module comes from one step.  A span S is closed
under M^a and M^-a exactly when it is closed under F = M^a - I: as
M^(p^N) = I (below), M^-a is a power of M^a, and S M^a = S + S F.  The least
F-invariant span containing S is spanned by the rows of S, S F, S F^2, ...;
by Cayley-Hamilton over Z/p^N, F^n is a combination of I, F, ..., F^(n-1)
for the fiber dimension n, so the batches up to S F^(n-1) suffice.  F is
(M - I) times a polynomial in M - I, so F^K = 0 for the K below as well,
and the list also ends at the first all-zero batch.  The same step with
F = M - I gives the M-invariant span of [U, G].

The group law itself rests on the binomial step of `power_subgroup`, the
Mahler expansion that makes a -> M^a analytic.  The action M is unipotent mod p, so E = M - I
satisfies E^k = pA for some k <= d - 1 (the nilpotency degree of E mod p) and
an integral matrix A; hence v(E^j) >= floor(j/k), and E^K = 0 at precision
p^N for some K <= kN.  For every integer a >= 0,

    M^a = (I + E)^a = sum_{j<K} C(a, j) E^j,

so each group keeps the table [E^0, ..., E^(K-1)], and a twist is a linear
combination of it with no matrix product.  Powers take the same route: with
T = M^a and F = T - I, the identity of polynomials in F

    I + T + ... + T^(n-1) = ((I + F)^n - I) / F = sum_{j>=0} C(n, j+1) F^j

holds over Z, and F = E times a polynomial in E, so F^K = 0: for a fiber
vector x, x (I + T + ... + T^(n-1)) is a sum of at most K terms C(n, j+1) x F^j.

Reducing exponents mod p^N needs M^(p^N) = I at precision.  By Kummer,
v_p C(p^N, j) = N - v_p(j) for 1 <= j <= p^N, so the term C(p^N, j) E^j
vanishes at precision whenever floor(j/k) >= v_p(j).  For k <= p this always
holds: if v_p(j) = t >= 1 then j >= p^t and floor(j/k) >= p^(t-1) >= t.  As
k is at most the fiber dimension, a fiber of dimension at most p gives
M^(p^N) = I.  Above that it can fail: for a Jordan block I + J of size n > p
the j = p term is alone on its superdiagonal with valuation N - 1, so
M^(p^N) != I and reducing exponents mod p^N breaks associativity.
`SemidirectGroup` therefore checks M^(p^N) = I with one binomial sum when it
is built and rejects the action otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import ContextMismatch, NotNormal, NotProP
from .lattice import PotencyReport, PotencyStep
from .linalg import (
    BUDGET_SLACK,
    PMatrix,
    Span,
    binomial_sum,
    binomials,
    fixpoint,
    powers_to_zero,
    vec_add,
    vec_scale,
)
from .padic import PadicContext, PadicScalar

TWIST_CACHE_SIZE = 256  # twists kept per group; a miss costs one binomial sum


@dataclass(frozen=True)
class GroupElement:
    a: int
    v: tuple

    def to_json(self):
        return {"a": self.a, "v": list(self.v)}


class SemidirectGroup:
    """Z_p acting on Z_p^(d-1) through an invertible, unipotent-mod-p matrix.

    The action must have p-power order dividing p^N at precision, so that
    exponents can be reduced mod p^N; the module docstring says when.
    """

    __slots__ = ("ctx", "fiber_dim", "action", "_twist_cache", "_powers")

    def __init__(self, ctx: PadicContext, action: PMatrix):
        if action.ctx != ctx:
            raise ContextMismatch("action matrix context differs")
        if action.rows != action.cols:
            raise ValueError("action matrix must be square")
        I = PMatrix.identity(ctx, action.rows)
        # E^(d N) = 0 at p^N exactly when E = M - I is nilpotent mod p
        powers = powers_to_zero(action - I, action.rows * ctx.precision)
        if powers is None:
            raise NotProP("action matrix is not unipotent mod p")
        if binomial_sum(powers, ctx.modulus) != I:
            raise NotProP("action matrix has p-power order above p^N at this precision")
        self.ctx = ctx
        self.fiber_dim = action.rows
        self.action = action
        self._twist_cache: dict[int, PMatrix] = {}
        self._powers = powers  # [E^0, ..., E^(K-1)] for E = M - I, with E^K = 0

    @property
    def dim(self) -> int:
        return self.fiber_dim + 1

    def identity_element(self) -> GroupElement:
        return GroupElement(0, (0,) * self.fiber_dim)

    def element(self, a, v) -> GroupElement:
        mod = self.ctx.modulus
        a = a.value if isinstance(a, PadicScalar) else a % mod
        return GroupElement(a % mod, tuple(x % mod for x in v))

    def standard_generators(self) -> list[GroupElement]:
        gens = [self.element(1, (0,) * self.fiber_dim)]
        for i in range(self.fiber_dim):
            gens.append(self.element(0, tuple(1 if j == i else 0 for j in range(self.fiber_dim))))
        return gens

    def twist(self, a: int) -> PMatrix:
        """M^a for an exponent residue 0 <= a < p^N: the binomial sum of C(a, j) E^j."""
        a %= self.ctx.modulus
        m = self._twist_cache.get(a)
        if m is None:
            m = binomial_sum(self._powers, a)
            if len(self._twist_cache) >= TWIST_CACHE_SIZE:
                del self._twist_cache[next(iter(self._twist_cache))]  # the oldest entry
            self._twist_cache[a] = m
        return m

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        mod = self.ctx.modulus
        tw = self.twist(h.a)
        return GroupElement((g.a + h.a) % mod, vec_add(tw.apply_row(g.v), h.v, mod))

    def inv(self, g: GroupElement) -> GroupElement:
        mod = self.ctx.modulus
        tw = self.twist(-g.a)
        return GroupElement(-g.a % mod, vec_scale(-1, tw.apply_row(g.v), mod))

    def conj(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """h^-1 g h."""
        return self.mul(self.inv(h), self.mul(g, h))

    def comm(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g^-1 h^-1 g h."""
        return self.mul(self.inv(self.mul(h, g)), self.mul(g, h))

    def pow(self, g: GroupElement, n) -> GroupElement:
        """g^n for an integer or p-adic exponent.

        The fiber part is v (I + T + ... + T^(n-1)) = sum_j C(n, j+1) v F^j
        for T = M^a and F = T - I; F^K = 0, so at most K terms (module docstring).
        """
        mod = self.ctx.modulus
        if isinstance(n, PadicScalar):
            n = n.value
        if n < 0:
            return self.pow(self.inv(g), -n)
        F = self.twist(g.a) - self._powers[0]
        acc = (0,) * self.fiber_dim
        w = g.v
        for c in islice(binomials(n), 1, None):
            if not any(w):
                break
            c %= mod
            acc = tuple((x + c * y) % mod for x, y in zip(acc, w))
            w = F.apply_row(w)
        return GroupElement(n * g.a % mod, acc)

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "precision": self.ctx.precision,
            "fiber_dim": self.fiber_dim,
            "action": self.action.entries,
        }

    @classmethod
    def from_json(cls, data: dict, ctx: PadicContext | None = None) -> "SemidirectGroup":
        if ctx is None:
            ctx = PadicContext(int(data["p"]), int(data["precision"]))
        return cls(ctx, PMatrix(ctx, data["action"]))


class SubgroupData:
    """A closed subgroup in canonical split form: `fiber` is U ∩ F and `witness`
    None or (p^e, v) with v reduced modulo it (module docstring).  The fiber
    passed in must be invariant under the witness twist; it is not closed here."""

    __slots__ = ("group", "witness", "fiber")

    def __init__(self, group: SemidirectGroup, witness: GroupElement | None, fiber: Span):
        self.group = group
        ctx = group.ctx
        if witness is not None and witness.a % ctx.modulus == 0:
            fiber = fiber.sum(Span(ctx, group.fiber_dim, [witness.v]))
            witness = None
        if witness is not None:
            e, u = ctx.unit_part(witness.a)
            witness = group.pow(witness, ctx.inv(u))  # first coordinate p^e exactly
            deep = group.pow(witness, ctx.p ** (ctx.precision - e))  # fixed by the twist
            fiber = fiber.sum(Span(ctx, group.fiber_dim, [deep.v]))
            witness = GroupElement(witness.a, fiber.reduce(witness.v))
        self.witness = witness
        self.fiber = fiber

    @property
    def h_valuation(self):
        """Valuation of the witness H-coordinate; precision N for a fiber subgroup."""
        if self.witness is None:
            return self.group.ctx.precision
        return self.group.ctx.val(self.witness.a)

    def generators(self) -> list[GroupElement]:
        gens = [] if self.witness is None else [self.witness]
        gens.extend(GroupElement(0, row) for row in self.fiber.rows)
        return gens

    def fiber_intersection(self) -> Span:
        """U ∩ F, the stored fiber; a method still because bench/tracing.py wraps it by name."""
        return self.fiber

    def contains_element(self, x: GroupElement) -> bool:
        g = self.group
        mod = g.ctx.modulus
        if x.a % mod == 0:
            return self.fiber.member(x.v)
        if self.witness is None:
            return False
        lam, r = divmod(x.a % mod, self.witness.a)
        if r:
            return False
        rest = g.mul(g.inv(g.pow(self.witness, lam)), x)
        assert rest.a % mod == 0
        return self.fiber.member(rest.v)

    def contains(self, other: "SubgroupData") -> bool:
        return all(self.contains_element(x) for x in other.generators())

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupData)
            and self.group is other.group
            and self.witness == other.witness
            and self.fiber == other.fiber
        )

    def __hash__(self):
        return hash((self.group, self.witness, self.fiber))

    def is_trivial(self) -> bool:
        return self.witness is None and self.fiber.is_zero()

    def index_exp_in_group(self) -> int:
        """log_p |G : U| at precision."""
        g = self.group
        fiber_index = Span.full(g.ctx, g.fiber_dim).index_exp(self.fiber)
        return self.h_valuation + fiber_index

    def __repr__(self):
        return (
            f"SubgroupData(h_val={self.h_valuation}, witness={self.witness}, "
            f"fiber={list(self.fiber.rows)!r})"
        )


def _invariant_span(group: SemidirectGroup, rows, F: PMatrix) -> Span:
    """Least F-invariant fiber span containing the rows: the span of S, S F, ...,
    S F^(n-1) for fiber dimension n, cut at the first all-zero batch (module docstring)."""
    rows = list(rows)
    batch = rows
    for _ in range(group.fiber_dim - 1):
        batch = [w for w in map(F.apply_row, batch) if any(w)]
        if not batch:
            break
        rows.extend(batch)
    return Span(group.ctx, group.fiber_dim, rows)


def _twist_closure(group: SemidirectGroup, S: Span, a: int) -> Span:
    """Closure of a fiber span under M^a and M^-a: its (M^a - I)-invariant span."""
    return _invariant_span(group, S.rows, group.twist(a) - group._powers[0])


def generated_subgroup(group: SemidirectGroup, gens) -> SubgroupData:
    """Least split-form subgroup containing the generators: a witness of least valuation,
    the other generators divided by its powers into the fiber, closed under its twist."""
    ctx = group.ctx
    mod = ctx.modulus
    gens = [g for g in gens if g != group.identity_element()]
    fiber_vectors = [g.v for g in gens if g.a % mod == 0]
    carried = [g for g in gens if g.a % mod != 0]
    if not carried:
        return SubgroupData(group, None, Span(ctx, group.fiber_dim, fiber_vectors))
    witness = min(carried, key=lambda g: ctx.val(g.a))
    e, u = ctx.unit_part(witness.a)
    uinv = ctx.inv(u)
    for g in carried:
        if g is witness:
            continue
        lam = g.a * uinv // ctx.p**e % mod
        rest = group.mul(group.inv(group.pow(witness, lam)), g)
        assert rest.a % mod == 0
        fiber_vectors.append(rest.v)
    fiber = _twist_closure(group, Span(ctx, group.fiber_dim, fiber_vectors), witness.a)
    return SubgroupData(group, witness, fiber)


def full_subgroup(group: SemidirectGroup) -> SubgroupData:
    return generated_subgroup(group, group.standard_generators())


def normal_closure(U: SubgroupData) -> SubgroupData:
    """U^G = U[U, G]: U's witness, with fiber F_U + [U, G] (module docstring)."""
    return SubgroupData(U.group, U.witness, U.fiber.sum(commutator_subgroup(U).fiber))


def join(U: SubgroupData, V: SubgroupData) -> SubgroupData:
    return generated_subgroup(U.group, U.generators() + V.generators())


def commutator_subgroup(U: SubgroupData) -> SubgroupData:
    """[U, G], a fiber subgroup: the M-invariant span of F_U (M - I),
    v_w (M - I) and F (M^(a_w) - I) for U's witness (a_w, v_w) (module docstring)."""
    group = U.group
    I = group._powers[0]
    E = group.action - I
    rows = [E.apply_row(f) for f in U.fiber.rows]
    if U.witness is not None:
        rows.append(E.apply_row(U.witness.v))
        rows.extend((group.twist(U.witness.a) - I).entries)
    return SubgroupData(group, None, _invariant_span(group, rows, E))


def power_subgroup(U: SubgroupData) -> SubgroupData:
    """The subgroup generated by all p-th powers of U (closed form; see module docstring)."""
    group = U.group
    p = group.ctx.p
    pF = U.fiber.scale(p)
    if U.witness is None:
        return SubgroupData(group, None, pF)
    F = group.twist(U.witness.a) - group._powers[0]
    deep = U.fiber.rows
    for _ in range(p - 1):
        deep = [F.apply_row(r) for r in deep]
    fiber = pF.sum(Span(group.ctx, group.fiber_dim, deep))
    return SubgroupData(group, group.pow(U.witness, p), fiber)


# ---------------------------------------------------------------------------
# standard series and the saturability check
# ---------------------------------------------------------------------------


def _series(group: SemidirectGroup, first: SubgroupData, step) -> list[SubgroupData]:
    # both series map the trivial subgroup to itself: skip that last step
    budget = 6 * group.ctx.precision * group.dim + BUDGET_SLACK
    return fixpoint(lambda U: U if U.is_trivial() else step(U), first, budget)


def gamma_series(group: SemidirectGroup) -> list[SubgroupData]:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G], to stabilisation at precision."""
    return _series(group, full_subgroup(group), commutator_subgroup)


def lower_p_series_group(group: SemidirectGroup) -> list[SubgroupData]:
    """G_1 = G, G_{i+1} = [G_i, G] G_i^p, to stabilisation at precision."""

    def step(U):
        # [U, G] is normal, and U^p is characteristic in the normal U: the join is normal
        return join(commutator_subgroup(U), power_subgroup(U))

    return _series(group, full_subgroup(group), step)


def frattini_p(group: SemidirectGroup) -> SubgroupData:
    """Phi(G) = G^p [G, G]."""
    full = full_subgroup(group)
    return join(power_subgroup(full), commutator_subgroup(full))  # both factors are normal


def frattini_p_power(group: SemidirectGroup) -> SubgroupData:
    """Phi(G)^p, the subgroup generated by p-th powers of Phi(G)."""
    return power_subgroup(frattini_p(group))


@dataclass
class GammaPhiReport:
    holds: bool
    gamma_generators: list
    failing: list


def check_gamma_p_in_phi_p(group: SemidirectGroup) -> GammaPhiReport:
    """Membership of the gamma_p generators in Phi(G)^p."""
    group.ctx.require_odd()
    p = group.ctx.p
    gammas = gamma_series(group)
    gamma_p = gammas[p - 1] if len(gammas) >= p else gammas[-1]
    phi_p = frattini_p_power(group)
    failing = [g for g in gamma_p.generators() if not phi_p.contains_element(g)]
    return GammaPhiReport(not failing, gamma_p.generators(), failing)


def verify_group_potent_filtration(group: SemidirectGroup, chain) -> PotencyReport:
    """Stepwise potency certificate for a given chain of normal subgroups."""
    std = group.standard_generators()
    for U in chain:
        for g in U.generators():
            for h in std:
                if not U.contains_element(group.conj(g, h)):
                    raise NotNormal("chain member is not normal in the ambient group")
    p = group.ctx.p
    steps = []
    for i in range(len(chain) - 1):
        comm = commutator_subgroup(chain[i])
        step_ok = chain[i + 1].contains(comm)
        deep = chain[i]
        for _ in range(p - 1):
            deep = commutator_subgroup(deep)
        deep_ok = power_subgroup(chain[i + 1]).contains(deep)
        steps.append(PotencyStep(i + 1, step_ok, deep_ok))
    terminal_ok = chain[-1].is_trivial()
    return PotencyReport(steps, terminal_ok)
