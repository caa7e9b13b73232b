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

Dividing by a witness power needs no inverse: when h.a = x.a = a, h^-1 x =
(-a, -h.v M^(-a))(a, x.v) = (0, -h.v M^(-a) M^a + x.v) = (0, x.v - h.v).  So
w^-lam x = (0, x.v - (w^lam).v) whenever x.a = lam a_w, as `contains_element`,
`generated_subgroup` and `join` use.

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
`normal_closure` returns the witness w with fiber F_U + [U, G].  By the same
u^g = u[u, g], U is normal exactly when [U, G] <= U, that is [U, G] <= F_U.

Iterated commutators are images under the table of E = M - I below.  Let C be
a fiber subgroup whose span S is M-invariant, as every [U, G] is.  By the
list above [C, G] is the M-invariant span generated by S E; but S E is
already E-invariant, since s in S gives s E in S and so (s E) E in S E.
Hence [C, G] = S E with no closure, and [C,_k G] = S E^k.  The whole fiber
F is such a C with [F, G] = F E = [G, G], so gamma_(k+1)(G) = F E^k for
k >= 1; in particular gamma_p = F E^(p-1), spanned by the rows of E^(p-1).
E^k is entry k of the group's table, and zero from its length K on.

Joins of normal subgroups need no closure either.  Let U and V be normal with
witnesses (p^e_U, .), (p^e_V, .), e_U <= e_V, and w_V = w_U^lam (0, x) for
lam = p^(e_V - e_U) (no x when V lies in the fiber).  As [uv, g] =
[u, g]^v [v, g] and [U, G] <= U ∩ F, [UV, G] = [U, G][V, G] lies in F_U + F_V.
So S = F_U + F_V + Z_p x, a span inside UV, has S (M^a - I) <= [UV, G] <= S
for every a: S is twist-invariant, <w_U> S is a subgroup between U, V and
UV, and `join` returns UV = <w_U> S with no generator loop.

The lower p-series G_1 = G, G_(i+1) = [G_i, G] G_i^p and its potency
certificate are read off the same table.  Write F E^k for the span of the
rows of E^k, zero for k >= K, and S_i for the fiber span of G_i.  For i >= 1:
- the series: G_i has witness (p^(i-1), 0) and fiber
  S_i = sum_(k<i) p^(i-1-k) F E^k, so S_1 = F and S_(i+1) = p S_i + F E^i;
- [G_i, G] = S_i E, which lies in S_i and in S_(i+1);
- [G_i,_(p-1) G] = D_i, for D_1 = F E^(p-1) and D_i = p D_(i-1) + F E^(p+i-2).
Induct on i, from G_1 = G = <(1, 0)> F.  Each term p^(i-1-k) F E^k of S_i is
E-invariant, as F E^(k+1) = (F E) E^k lies in F E^k; so S_i is, and so is
S_i E.  With T = M^(p^(i-1)) = sum_j C(p^(i-1), j) E^j (below), the list of
commutators makes [G_i, G] the M-invariant span generated by S_i E and
F (T - I), which lies in the sum of the terms C(p^(i-1), j) F E^j for
1 <= j < K (the witness's vector is 0).  By Kummer, C(p^(i-1), j) is 0 for
j > p^(i-1) and otherwise has valuation i - 1 - v_p(j) >= i - j, as
v_p(j) <= j - 1.  So for j <= i the term lies in p^(i-j) F E^j, the image
under E of the term k = j - 1 of S_i, and for j > i in F E^j, inside
F E^i = (F E^(i-1)) E.  S_i E is E-invariant, hence M-invariant, and
[G_i, G] = S_i E with no closure.  As T - I is E times a polynomial in E,
S_i (T - I)^(p-1) lies in S_i E; so `power_subgroup` gives G_i^p the witness
(p^i, 0) over p S_i plus a part of S_i E, and `join` gives [G_i, G] G_i^p
the witness (p^i, 0) over p S_i + S_i E = sum_(k<=i) p^(i-k) F E^k = S_(i+1):
the terms with k < i come from p S_i, those with k >= 1 from S_i E, and the
one term not in p S_i is F E^i.  For the third, [G_i, G] = S_i E is a fiber
subgroup with M-invariant span, so [G_i,_(p-1) G] = S_i E^(p-1) by the
iterated commutators above: D_1 = F E^(p-1), and S_i = p S_(i-1) + F E^(i-1)
gives D_i = p D_(i-1) + F E^(p+i-2).  Once D_(i-1) = 0 it stays 0, as
F E^(p+i-2) = (F E^(i-2) E^(p-1)) E lies in D_(i-1) E.

These terms are canonical as built: the witness (p^i, 0) has unit part 1,
its power (p^N, 0) adds nothing to the fiber, 0 reduces to 0, and S_(i+1) is
invariant under the witness twist, a polynomial in E.  At i >= N the witness
is the identity and G_(i+1) is the fiber subgroup S_(i+1).  So
`lower_p_series_group` builds each term from one span, with no commutator,
power or join.  On that series, unaltered, `verify_group_potent_filtration`
takes no commutator: the first inclusion holds by construction, and
G_(i+1)^p is built only when D_i is nonzero.  Any other chain takes the
subgroup route.  The split lattice L_E with fiber matrix E obeys the same
recursions (`lattice` docstring), but L_E is not L(G): for M = exp(A), L(G)
is the split lattice of A, while E = exp(A) - I.

A `SubgroupData` is a plain value: its group, witness and fiber, and nothing
computed from it is kept on it.  The one derived subgroup a group stores is
Phi(G) = G_2, in its `_phi` slot: `check_gamma_p_in_phi_p` (through
Phi(G)^p) and `lower_p_series_group` (as its second term) both need it, so
`frattini_p` builds it once per group.  No other term of the series is kept.
A group and its stored G_2 refer to each other, so once `frattini_p` has run
they are freed by the cyclic garbage collector rather than as soon as the
last outside reference goes.

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

and every caller reads the twist through its increment

    F_a = M^a - I = sum_{1<=j<K} C(a, j) E^j,

a linear combination with no matrix product.  Each group keeps the table
[E^0, ..., E^(K-1)] and, beside it, its transpose by entries: for fiber
column s and row r the tuple (E^1[r][s], ..., E^(K-1)[r][s]).  A miss
computes the K - 1 coefficients C(a, j) mod p^N once, by the exact
recurrence of `binomials`, and each entry of F_a is then one dot product of
them with a tuple of the table.  F_a is stored as its n columns, so a row
vector times F_a is one dot product per column; the bounded cache, keyed by
a mod p^N, holds these columns.  The product (a1 + a2, v1 + v1 F_a2 + v2),
the inverse (-a, -(v + v F_-a)), `pow`, the twist closure, U^p and [U, G]
all read them, [U, G] with E = F_1; `twist` returns I + F_a as a matrix.

Powers take the same route: with T = M^a and F = T - I, the identity of
polynomials in F

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
`SemidirectGroup` therefore checks F_(p^N) = 0 when it is built, with the
same kernel at the unreduced exponent p^N, and rejects the action otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from operator import is_, mul

from .errors import ContextMismatch, NotNormal, NotProP
from .lattice import PotencyReport, PotencyStep
from .linalg import PMatrix, Span, binomials, fixpoint, powers_to_zero, vec_sub
from .padic import PadicContext

# increments M^a - I kept per group; a miss costs K - 1 binomials and n^2 dot products
TWIST_CACHE_SIZE = 256


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

    __slots__ = ("ctx", "fiber_dim", "action", "_twist_cache", "_powers", "_table", "_phi")

    def __init__(self, ctx: PadicContext, action: PMatrix):
        if action.ctx != ctx:
            raise ContextMismatch("action matrix context differs")
        if action.rows != action.cols:
            raise ValueError("action matrix must be square")
        n = action.rows
        # E^(d N) = 0 at p^N exactly when E = M - I is nilpotent mod p
        powers = powers_to_zero(action - PMatrix.identity(ctx, n), n * ctx.precision)
        if powers is None:
            raise NotProP("action matrix is not unipotent mod p")
        self.ctx = ctx
        self.fiber_dim = n
        self.action = action
        self._twist_cache: dict[int, tuple] = {}  # a mod p^N -> the columns of F_a
        self._powers = powers  # [E^0, ..., E^(K-1)] for E = M - I, with E^K = 0
        # column s, row r: (E^1[r][s], ..., E^(K-1)[r][s])
        self._table = tuple(
            tuple(tuple(P.entries[r][s] for P in powers[1:]) for r in range(n)) for s in range(n)
        )
        self._phi = None  # Phi(G) = G_2 as a SubgroupData, built by frattini_p
        if any(map(any, self._increment_columns(ctx.modulus))):
            raise NotProP("action matrix has p-power order above p^N at this precision")

    @property
    def dim(self) -> int:
        return self.fiber_dim + 1

    def identity_element(self) -> GroupElement:
        return GroupElement(0, (0,) * self.fiber_dim)

    def element(self, a: int, v) -> GroupElement:
        mod = self.ctx.modulus
        return GroupElement(a % mod, tuple(x % mod for x in v))

    def standard_generators(self) -> list[GroupElement]:
        gens = [self.element(1, (0,) * self.fiber_dim)]
        for i in range(self.fiber_dim):
            gens.append(self.element(0, tuple(1 if j == i else 0 for j in range(self.fiber_dim))))
        return gens

    def _increment_columns(self, a: int) -> tuple:
        """The columns of F_a = M^a - I = sum_{1<=j<K} C(a, j) E^j for an integer a >= 0."""
        mod = self.ctx.modulus
        cs = [c % mod for c in islice(binomials(a), 1, len(self._powers))]
        return tuple(tuple(sum(map(mul, cs, entry)) % mod for entry in col) for col in self._table)

    def _increment(self, a: int) -> tuple:
        """F_a = M^a - I as its n columns, for a taken mod p^N; kept in the bounded cache."""
        a %= self.ctx.modulus
        F = self._twist_cache.get(a)
        if F is None:
            F = self._increment_columns(a)
            if len(self._twist_cache) >= TWIST_CACHE_SIZE:
                del self._twist_cache[next(iter(self._twist_cache))]  # the oldest entry
            self._twist_cache[a] = F
        return F

    def twist(self, a: int) -> PMatrix:
        """M^a = I + F_a for an exponent residue 0 <= a < p^N."""
        mod = self.ctx.modulus
        rows = zip(*self._increment(a))
        entries = [[(x + (r == s)) % mod for s, x in enumerate(row)] for r, row in enumerate(rows)]
        return PMatrix._reduced(self.ctx, entries)

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """(a1 + a2, v1 + v1 F_a2 + v2)."""
        mod = self.ctx.modulus
        v = g.v
        F = self._increment(h.a)
        w = tuple((x + sum(map(mul, v, col)) + y) % mod for x, col, y in zip(v, F, h.v, strict=True))
        return GroupElement((g.a + h.a) % mod, w)

    def inv(self, g: GroupElement) -> GroupElement:
        """(-a, -(v + v F_-a))."""
        mod = self.ctx.modulus
        v = g.v
        F = self._increment(-g.a)
        w = tuple(-(x + sum(map(mul, v, col))) % mod for x, col in zip(v, F, strict=True))
        return GroupElement(-g.a % mod, w)

    def conj(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """h^-1 g h."""
        return self.mul(self.inv(h), self.mul(g, h))

    def comm(self, g: GroupElement, h: GroupElement) -> GroupElement:
        """g^-1 h^-1 g h."""
        return self.mul(self.inv(self.mul(h, g)), self.mul(g, h))

    def pow(self, g: GroupElement, n: int) -> GroupElement:
        """g^n for an integer exponent (a p-adic one as its residue mod p^N).

        The fiber part is v (I + T + ... + T^(n-1)) = sum_j C(n, j+1) v F^j
        for T = M^a and F = T - I; F^K = 0, so at most K terms (module docstring).
        """
        mod = self.ctx.modulus
        if n < 0:
            return self.pow(self.inv(g), -n)
        F = self._increment(g.a)
        acc = (0,) * self.fiber_dim
        w = g.v
        for c in islice(binomials(n), 1, None):
            if not any(w):
                break
            c %= mod
            acc = tuple((x + c * y) % mod for x, y in zip(acc, w, strict=True))
            w = _row_times(w, F, mod)
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
    passed in must be invariant under the witness twist; it is not closed here.
    A plain value: the three fields are the whole object and its key."""

    __slots__ = ("group", "witness", "fiber")

    def __init__(self, group: SemidirectGroup, witness: GroupElement | None, fiber: Span):
        self.group = group
        ctx = group.ctx
        if witness is not None and witness.a % ctx.modulus == 0:
            fiber = fiber.add_rows([witness.v])
            witness = None
        if witness is not None:
            e, u = ctx.unit_part(witness.a)
            witness = group.pow(witness, ctx.inv(u))  # first coordinate p^e exactly
            deep = group.pow(witness, ctx.p ** (ctx.precision - e))  # fixed by the twist
            fiber = fiber.add_rows([deep.v])
            witness = GroupElement(witness.a, fiber.reduce(witness.v))
        self.witness = witness
        self.fiber = fiber

    @classmethod
    def _canonical(cls, group: SemidirectGroup, witness: GroupElement | None, fiber: Span) -> "SubgroupData":
        """Wrap a key already in canonical form, skipping the normalisation."""
        U = cls.__new__(cls)
        U.group, U.witness, U.fiber = group, witness, fiber
        return U

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
        return self.fiber.member(vec_sub(x.v, g.pow(self.witness, lam).v, mod))  # w^-lam x

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

    def __repr__(self):
        return (
            f"SubgroupData(h_val={self.h_valuation}, witness={self.witness}, "
            f"fiber={list(self.fiber.rows)!r})"
        )


def _row_times(v, F, mod):
    """The row vector v times the matrix with columns F."""
    return tuple(sum(map(mul, v, col)) % mod for col in F)


def _invariant_span(group: SemidirectGroup, rows, F) -> Span:
    """Least F-invariant fiber span containing the rows, for F given by its columns: the
    span of S, S F, ..., S F^(n-1) for fiber dimension n, cut at the first all-zero batch
    (module docstring)."""
    mod = group.ctx.modulus
    rows = list(rows)
    batch = rows
    for _ in range(group.fiber_dim - 1):
        batch = [w for w in (_row_times(r, F, mod) for r in batch) if any(w)]
        if not batch:
            break
        rows.extend(batch)
    return Span(group.ctx, group.fiber_dim, rows)


def _twist_closure(group: SemidirectGroup, S: Span, a: int) -> Span:
    """Closure of a fiber span under M^a and M^-a: its (M^a - I)-invariant span."""
    return _invariant_span(group, S.rows, group._increment(a))


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
        fiber_vectors.append(vec_sub(g.v, group.pow(witness, lam).v, mod))  # w^-lam g
    fiber = _twist_closure(group, Span(ctx, group.fiber_dim, fiber_vectors), witness.a)
    return SubgroupData(group, witness, fiber)


def full_subgroup(group: SemidirectGroup) -> SubgroupData:
    """G itself, witness (1, 0) over the whole fiber: canonical as built (unit part 1, and
    the power (p^N, 0) adds nothing)."""
    x = GroupElement(1, (0,) * group.fiber_dim)
    return SubgroupData._canonical(group, x, Span.full(group.ctx, group.fiber_dim))


def normal_closure(U: SubgroupData) -> SubgroupData:
    """U^G = U[U, G]: U's witness, with fiber F_U + [U, G] (module docstring)."""
    return SubgroupData(U.group, U.witness, U.fiber.sum(commutator_subgroup(U).fiber))


def join(U: SubgroupData, V: SubgroupData) -> SubgroupData:
    """UV for normal U and V, in closed form: the witness of least valuation, with fiber
    F_U + F_V + Z_p x for the fiber part x of w_U^(-a_V/a_U) w_V (module docstring)."""
    U, V = sorted((U, V), key=lambda X: X.h_valuation)
    group = U.group
    fiber = U.fiber.sum(V.fiber)
    if V.witness is not None:
        h = group.pow(U.witness, V.witness.a // U.witness.a)
        fiber = fiber.add_rows([vec_sub(V.witness.v, h.v, group.ctx.modulus)])
    return SubgroupData(group, U.witness, fiber)


def commutator_subgroup(U: SubgroupData) -> SubgroupData:
    """[U, G], a fiber subgroup: the M-invariant span of F_U (M - I),
    v_w (M - I) and F (M^(a_w) - I) for U's witness (a_w, v_w) (module docstring)."""
    group = U.group
    mod = group.ctx.modulus
    E = group._increment(1)  # F_1 = M - I
    rows = [_row_times(f, E, mod) for f in U.fiber.rows]
    if U.witness is not None:
        rows.append(_row_times(U.witness.v, E, mod))
        rows.extend(zip(*group._increment(U.witness.a)))  # the rows of M^(a_w) - I
    return SubgroupData(group, None, _invariant_span(group, rows, E))


def _commutator_image(group: SemidirectGroup, S: Span, k: int) -> Span:
    """[C,_k G] = S E^k for a fiber subgroup C with M-invariant span S (module docstring)."""
    E = group._powers
    return S.image(E[k]) if k < len(E) else Span.zero(group.ctx, group.fiber_dim)


def power_subgroup(U: SubgroupData) -> SubgroupData:
    """The subgroup generated by all p-th powers of U (closed form; see module docstring)."""
    group = U.group
    p = group.ctx.p
    pF = U.fiber.scale(p)
    if U.witness is None:
        return SubgroupData(group, None, pF)
    F = group._increment(U.witness.a)
    mod = group.ctx.modulus
    deep = U.fiber.rows
    for _ in range(p - 1):
        deep = [_row_times(r, F, mod) for r in deep]
    return SubgroupData(group, group.pow(U.witness, p), pF.add_rows(deep))


# ---------------------------------------------------------------------------
# standard series and the saturability check
# ---------------------------------------------------------------------------


def _series(group: SemidirectGroup, first: SubgroupData, step) -> list[SubgroupData]:
    # both series map the trivial subgroup to itself: skip that last step
    budget = group.ctx.precision * group.dim + 1  # |G| = p^(N dim): see fixpoint
    return fixpoint(lambda U: U if U.is_trivial() else step(U), first, budget)


def gamma_series(group: SemidirectGroup) -> list[SubgroupData]:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G], to stabilisation at precision."""
    return _series(group, full_subgroup(group), commutator_subgroup)


def _scaled_plus_power(group: SemidirectGroup, S: Span, k: int) -> Span:
    """p S + F E^k, one elimination; F E^k is spanned by the rows of E^k, zero for k >= K."""
    ctx = group.ctx
    mod = ctx.modulus
    rows = [[ctx.p * e % mod for e in r] for r in S.rows]
    if k < len(group._powers):
        rows.extend(group._powers[k].entries)
    return Span(ctx, group.fiber_dim, rows)


def _lower_p_term(group: SemidirectGroup, i: int, S: Span) -> SubgroupData:
    """G_(i+1) from the fiber span S = S_i of G_i: witness (p^i, 0) over p S_i + F E^i,
    canonical as built (module docstring)."""
    a = group.ctx.p**i % group.ctx.modulus
    witness = GroupElement(a, (0,) * group.fiber_dim) if a else None
    return SubgroupData._canonical(group, witness, _scaled_plus_power(group, S, i))


class LowerPSeries(list):
    """G_1, G_2, ... as `lower_p_series_group` built them for `group`.  `built` keeps the
    term objects, so that `verify_group_potent_filtration` can tell the series unaltered."""

    __slots__ = ("group", "built")

    def __init__(self, group: SemidirectGroup, terms):
        super().__init__(terms)
        self.group = group
        self.built = tuple(terms)

    def unaltered(self, group: SemidirectGroup) -> bool:
        return self.group is group and len(self) == len(self.built) and all(map(is_, self, self.built))


def lower_p_series_group(group: SemidirectGroup) -> LowerPSeries:
    """G_1 = G, G_{i+1} = [G_i, G] G_i^p, to stabilisation at precision: G_2 the stored
    Phi(G), then G_(i+1) from S_(i+1) = p S_i + F E^i (module docstring)."""
    index = count(1)  # the step's argument is G_i for i = 1, 2, ...

    def step(U):
        i = next(index)
        return frattini_p(group) if i == 1 else _lower_p_term(group, i, U.fiber)

    return LowerPSeries(group, _series(group, full_subgroup(group), step))


def frattini_p(group: SemidirectGroup) -> SubgroupData:
    """Phi(G) = G^p [G, G] = G_2 = <(p, 0)> (pF + F E), one stored object per group."""
    if group._phi is None:
        group._phi = _lower_p_term(group, 1, Span.full(group.ctx, group.fiber_dim))
    return group._phi


def frattini_p_power(group: SemidirectGroup) -> SubgroupData:
    """Phi(G)^p, the subgroup generated by p-th powers of Phi(G)."""
    return power_subgroup(frattini_p(group))


@dataclass
class GammaPhiReport:
    holds: bool
    gamma_generators: list
    failing: list


def check_gamma_p_in_phi_p(group: SemidirectGroup) -> GammaPhiReport:
    """Membership of the gamma_p generators in Phi(G)^p, with gamma_p = F E^(p-1)."""
    group.ctx.require_odd()
    p = group.ctx.p
    full = Span.full(group.ctx, group.fiber_dim)
    gamma_p = SubgroupData(group, None, _commutator_image(group, full, p - 1))  # F E^(p-1)
    phi_p = frattini_p_power(group)
    failing = [g for g in gamma_p.generators() if not phi_p.contains_element(g)]
    return GammaPhiReport(not failing, gamma_p.generators(), failing)


def verify_group_potent_filtration(group: SemidirectGroup, chain) -> PotencyReport:
    """Stepwise potency certificate for a given chain of normal subgroups.

    Two routes give the same report.  On the group's own `lower_p_series_group`, unaltered,
    no commutator is taken: the first inclusion holds by construction, and
    [G_i,_(p-1) G] is the chain D_i (module docstring), checked against G_(i+1)^p only when
    nonzero.  Any other chain takes the subgroup route: [N_i, G] built once per member for
    normality, the step, and [N_i,_{p-1} G] as its image under E^(p-2)."""
    if isinstance(chain, LowerPSeries) and chain.unaltered(group):
        return _lower_p_report(group, chain)
    comms = [commutator_subgroup(U) for U in chain]  # fiber subgroups: compare spans
    if not all(U.fiber.contains(C.fiber) for U, C in zip(chain, comms)):
        raise NotNormal("chain member is not normal in the ambient group")
    p = group.ctx.p
    steps = []
    for i in range(len(chain) - 1):
        step_ok = chain[i + 1].fiber.contains(comms[i].fiber)
        deep = _commutator_image(group, comms[i].fiber, p - 2)  # [N_i,_{p-1} G]
        deep_ok = power_subgroup(chain[i + 1]).fiber.contains(deep)
        steps.append(PotencyStep(i + 1, step_ok, deep_ok))
    terminal_ok = chain[-1].is_trivial()
    return PotencyReport(steps, terminal_ok)


def _lower_p_report(group: SemidirectGroup, series: LowerPSeries) -> PotencyReport:
    """The certificate of the lower p-series from D_1 = F E^(p-1), D_i = p D_(i-1) + F E^(p+i-2)."""
    p = group.ctx.p
    steps = []
    deep = _commutator_image(group, Span.full(group.ctx, group.fiber_dim), p - 1)  # D_1 = F E^(p-1)
    for i in range(1, len(series)):
        if i > 1 and not deep.is_zero():  # once zero, D stays zero
            deep = _scaled_plus_power(group, deep, p + i - 2)
        deep_ok = deep.is_zero() or power_subgroup(series[i]).fiber.contains(deep)
        steps.append(PotencyStep(i, True, deep_ok))
    return PotencyReport(steps, series[-1].is_trivial())
