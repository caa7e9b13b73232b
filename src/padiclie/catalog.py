"""Constructors for the named lattices, groups and fixtures, and the
isomorphism test for 3-dimensional soluble lattices.

Presentation-to-matrix convention: in relations [y_i, x] = prod_j y_j^(a_ij)
the exponent vectors form the ROWS of the fiber matrix A; the matching
semidirect group acts through M = I + A (an exp(A) variant is available
when the exponential converges).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd

from .bch import evaluate_words, hausdorff_table
from .classifier import SimilarityDescriptor, classify, descriptors_equal
from .errors import (
    BadParameter,
    ContextMismatch,
    NotDim3,
    NotSoluble,
    PrecisionExhausted,
    ResidualNilpotenceViolated,
)
from .lattice import Lattice
from .linalg import (
    PMatrix,
    Span,
    isolated_kernel,
    mat_exp,
    solve_over_rows,
    structural_profile,
    vec_add,
    vec_scale,
)
from .padic import PadicContext
from .propgroup import SemidirectGroup


def _lattice_from_fiber_matrix(ctx: PadicContext, A: PMatrix, labels) -> Lattice:
    """Dim-3 lattice with abelian ideal (y1, y2) and [y_i, x] = sum_j A_ij y_j."""
    d = 3
    constants = [[[0] * d for _ in range(d)] for _ in range(d)]
    mod = ctx.modulus
    for i in range(2):
        for j in range(2):
            constants[1 + i][0][1 + j] = A.entries[i][j] % mod
            constants[0][1 + i][1 + j] = -A.entries[i][j] % mod
    return Lattice(ctx, constants, labels)


def _require_residually_nilpotent(A: PMatrix):
    p = A.ctx.p
    sq = A @ A
    if any(e % p for row in sq.entries for e in row):
        raise ResidualNilpotenceViolated("fiber matrix squared is nonzero mod p")


def make_2dim(ctx: PadicContext, s: int):
    """[y, x] = p^s y and the rank-1 semidirect group with action 1 + p^s."""
    if s < 1:
        raise BadParameter("residual nilpotence needs s >= 1")
    if s >= ctx.precision:
        raise BadParameter("s must be below the working precision")
    ps = ctx.p**s
    constants = [[[0, 0], [0, -ps]], [[0, ps], [0, 0]]]
    lattice = Lattice(ctx, constants, ("x", "y"))
    group = SemidirectGroup(ctx, PMatrix(ctx, [[1 + ps]]))
    return lattice, group


THM73_FAMILIES = ("G0", "G1", "G2", "G3", "G4", "G5")


def thm73_fiber_matrix(ctx: PadicContext, family: str, params: dict) -> PMatrix:
    """The fiber matrix A of a family member, parameter ranges enforced."""
    p = ctx.p
    s = params.get("s")
    r = params.get("r")
    d = params.get("d")

    def need(cond, msg):
        if not cond:
            raise BadParameter(msg)

    if family == "G0":
        if s is None:  # abelian limit
            return PMatrix.zero(ctx, 2)
        need(s >= 0, "G0 needs s >= 0")
        return PMatrix(ctx, [[0, -(p**s)], [0, 0]])
    if family == "G1":
        need(s is not None and s >= 1, "G1 needs s >= 1")
        return PMatrix(ctx, [[p**s, 0], [0, p**s]])
    if family == "G2":
        need(s is not None and s >= 1, "G2 needs s >= 1")
        need(r is not None and r >= 1, "G2 needs r >= 1")
        need(d is not None, "G2 needs d")
        ps, pr = p**s, p**r
        return PMatrix(ctx, [[ps, ps * pr * d], [ps * pr, ps]])
    if family == "G3":
        need(s is not None and s >= 0 and r is not None and r >= 0, "G3 needs s, r >= 0")
        need(d is not None, "G3 needs d")
        need(s >= 1 or (r >= 1 and d % p == 0), "G3 needs s >= 1, or r >= 1 with p | d")
        ps = p**s
        return PMatrix(ctx, [[0, ps * d], [ps, ps * p**r]])
    if family in ("G4", "G5"):
        need(s is not None and s >= 0 and r is not None and r >= 0, "needs s, r >= 0")
        need(s + r >= 1, "needs s + r >= 1")
        ps, pr = p**s, p**r
        top = pr if family == "G4" else pr * ctx.rho
        return PMatrix(ctx, [[0, ps * top], [ps, 0]])
    raise BadParameter(f"unknown family {family}")


def make_thm73(ctx: PadicContext, family: str, params: dict, exp_action: bool = False):
    """Lattice and group of a classified 3-dimensional family member."""
    A = thm73_fiber_matrix(ctx, family, params)
    _require_residually_nilpotent(A)
    labels = ("x", "y", "z") if family == "G0" else ("x", "y1", "y2")
    lattice = _lattice_from_fiber_matrix(ctx, A, labels)
    action = mat_exp(A) if exp_action else PMatrix.identity(ctx, 2) + A
    group = SemidirectGroup(ctx, action)
    return lattice, group


def make_example_dim_p(ctx: PadicContext):
    """The dimension-p cyclic-shift pair: e_i -> e_(i+1), wrapping to p e_1."""
    p = ctx.p
    if p < 5:
        raise BadParameter("dimension-p fixture needs p >= 5")
    d = p - 1
    M = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for i in range(d - 1):
        M[i][i + 1] = 1
    M[d - 1][0] = p
    group = SemidirectGroup(ctx, PMatrix(ctx, M))
    dim = p
    constants = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    mod = ctx.modulus
    for i in range(d):
        target = [0] * dim
        if i < d - 1:
            target[2 + i] = 1
        else:
            target[1] = p
        for k in range(dim):
            constants[1 + i][0][k] = target[k] % mod
            constants[0][1 + i][k] = -target[k] % mod
    labels = ("x",) + tuple(f"y{i+1}" for i in range(d))
    lattice = Lattice(ctx, constants, labels)
    return group, lattice


def make_insoluble(ctx: PadicContext, which: str) -> Lattice:
    """The two insoluble 3-dimensional structure-constant lattices."""
    if ctx.p < 5:
        raise BadParameter("insoluble fixtures need p >= 5")
    p = ctx.p
    d = 3
    constants = [[[0] * d for _ in range(d)] for _ in range(d)]
    mod = ctx.modulus

    def setpair(i, j, vec):
        constants[i][j] = [e % mod for e in vec]
        constants[j][i] = [-e % mod for e in vec]

    if which == "sl2tri":
        labels = ("x", "y", "h")
        setpair(0, 1, (0, 0, 1))  # [x,y] = h
        setpair(0, 2, (-2 * p, 0, 0))  # [x,h] = -2p x
        setpair(1, 2, (0, 2 * p, 0))  # [y,h] = 2p y
    elif which == "sl1delta":
        labels = ("x", "y", "z")
        setpair(0, 1, (0, 0, p))  # [x,y] = p z
        setpair(0, 2, (0, p * ctx.rho, 0))  # [x,z] = p rho y
        setpair(1, 2, (-1, 0, 0))  # [y,z] = -x
    else:
        raise BadParameter(f"unknown insoluble fixture {which}")
    return Lattice(ctx, constants, labels)


def make_levi_example(ctx: PadicContext, k: int) -> Lattice:
    """The 5-dimensional powerful lattice whose radical has no complement."""
    if k < 2:
        raise BadParameter("needs k >= 2")
    if ctx.p < 5:
        raise BadParameter("needs p >= 5")
    if ctx.precision < 2 * k + 2:
        raise BadParameter("precision too low to separate the defect")
    p = ctx.p
    pk = p**k
    d = 5
    constants = [[[0] * d for _ in range(d)] for _ in range(d)]
    mod = ctx.modulus

    def setpair(i, j, vec):
        constants[i][j] = [e % mod for e in vec]
        constants[j][i] = [-e % mod for e in vec]

    # basis (x, y, h, a, b); brackets computed inside gl_3 from the scaled
    # elementary-matrix realisation
    setpair(0, 1, (0, 0, pk, 0, 0))  # [x,y] = p^k h
    setpair(0, 2, (-2 * pk, 0, 0, 3 * p, 0))  # [x,h] = -2 p^k x + 3p a
    setpair(1, 2, (0, 2 * pk, 0, 0, 0))  # [y,h] = 2 p^k y
    setpair(0, 3, (0, 0, 0, 0, -pk))  # [x,a] = -p^k b
    setpair(1, 4, (0, 0, 0, -pk, 0))  # [y,b] = -p^k a
    setpair(2, 3, (0, 0, 0, -pk, 0))  # [h,a] = -p^k a
    setpair(2, 4, (0, 0, 0, 0, pk))  # [h,b] = p^k b
    return Lattice(ctx, constants, ("x", "y", "h", "a", "b"))


@dataclass
class LeviReport:
    powerful: bool
    radical_ok: bool
    lifts_checked: int
    defect_always_outside: bool

    @property
    def passed(self):
        return self.powerful and self.radical_ok and self.defect_always_outside

    def lines(self):
        return [
            f"[L,L] <= pL: {'ok' if self.powerful else 'FAIL'}",
            f"radical = span(a,b): {'ok' if self.radical_ok else 'FAIL'}",
            f"no-complement defect over {self.lifts_checked} lift offsets: "
            f"{'ok' if self.defect_always_outside else 'FAIL'}",
        ]


def check_levi_example(L: Lattice, k: int) -> LeviReport:
    """The three documented properties of the no-complement fixture.

    The defect scan ranges over all lifts h~ = h + alpha a + beta b and
    x~ = x + gamma a + delta b with offsets mod p^k, checking that
    [h~, x~] - 2 p^k x~ lies in R but never in p^k R.
    """
    ctx = L.ctx
    p, mod = ctx.p, ctx.modulus
    pk = p**k
    full = L.full_span()
    powerful = full.scale(p).contains(L.bracket_span(full, full))
    radical = L.soluble_radical()
    expected = Span(ctx, 5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    radical_ok = radical == expected

    x = L.basis_vector(0)
    h = L.basis_vector(2)
    a = L.basis_vector(3)
    b = L.basis_vector(4)
    base = vec_add(L.bracket(h, x), vec_scale(-2 * pk, x, mod), mod)
    va = L.bracket(a, x)
    vb = L.bracket(b, x)
    vg = vec_add(L.bracket(h, a), vec_scale(-2 * pk, a, mod), mod)
    vd = vec_add(L.bracket(h, b), vec_scale(-2 * pk, b, mod), mod)
    vectors = [base, va, vb, vg, vd]
    if any(any(v[i] for i in range(3)) for v in vectors):
        return LeviReport(powerful, radical_ok, 0, False)
    always_outside = True
    count = 0
    rng = range(pk)
    for alpha in rng:
        pa = (base[3] + alpha * va[3]) % mod, (base[4] + alpha * va[4]) % mod
        for beta in rng:
            pb = (pa[0] + beta * vb[3]) % mod, (pa[1] + beta * vb[4]) % mod
            for gamma in rng:
                pg = (pb[0] + gamma * vg[3]) % mod, (pb[1] + gamma * vg[4]) % mod
                for delta in rng:
                    ca = (pg[0] + delta * vd[3]) % mod
                    cb = (pg[1] + delta * vd[4]) % mod
                    count += 1
                    if ca % pk == 0 and cb % pk == 0:
                        always_outside = False
    return LeviReport(powerful, radical_ok, count, always_outside)


def make_p2_groups(ctx: PadicContext, sign: str, s) -> SemidirectGroup:
    """The two rank-2 families at p = 2: actions 1 + 2^s and -1 - 2^s."""
    if ctx.p != 2:
        raise BadParameter("p = 2 context required")
    if s is not None and s < 2:
        raise BadParameter("s >= 2 (or None for the limit) required")
    two_s = 0 if s is None else 2**s
    if sign == "+":
        m = 1 + two_s
    elif sign == "-":
        m = -1 - two_s
    else:
        raise BadParameter("sign must be '+' or '-'")
    return SemidirectGroup(ctx, PMatrix(ctx, [[m]]))


def abelianization_torsion_exp(group: SemidirectGroup) -> int:
    """log_2 (or log_p) of the torsion part of G/[G,G] for rank-1 fibers."""
    ctx = group.ctx
    E = group.action - PMatrix.identity(ctx, group.fiber_dim)
    image = Span.full(ctx, group.fiber_dim).image(E)
    return Span.full(ctx, group.fiber_dim).index_exp(image)


# ---------------------------------------------------------------------------
# the order-p^3 pair, as finite Lie rings
# ---------------------------------------------------------------------------


class FiniteLieRing:
    """A finite Lie ring on Z/m_1 x ... x Z/m_d with structure constants."""

    def __init__(self, p: int, moduli, constants, labels):
        self.p = p
        self.moduli = tuple(moduli)
        self.dim = len(self.moduli)
        self.constants = constants
        self.labels = tuple(labels)

    def _norm(self, v):
        return tuple(a % m for a, m in zip(v, self.moduli))

    def basis_vector(self, i):
        return self._norm(tuple(1 if j == i else 0 for j in range(self.dim)))

    def bracket(self, u, v):
        out = [0] * self.dim
        for i, a in enumerate(u):
            if not a:
                continue
            for j, b in enumerate(v):
                if not b:
                    continue
                for kk, c in enumerate(self.constants[i][j]):
                    if c:
                        out[kk] += a * b * c
        return self._norm(out)

    def scale(self, c: Fraction | int, v):
        out = []
        for a, m in zip(v, self.moduli):
            if isinstance(c, Fraction):
                out.append(a * c.numerator * pow(c.denominator, -1, m) % m)
            else:
                out.append(a * c % m)
        return tuple(out)

    def add(self, u, v):
        return self._norm(tuple(a + b for a, b in zip(u, v)))

    def zero(self):
        return (0,) * self.dim

    def elements(self):
        return product(*(range(m) for m in self.moduli))

    def nilpotency_class(self) -> int:
        gens = [self.basis_vector(i) for i in range(self.dim)]
        layer = list(gens)
        c = 1
        while layer and c <= self.dim + 2:
            layer = [
                w
                for u in layer
                for g in gens
                if any(w := self.bracket(u, g))
            ]
            if layer:
                c += 1
        return c

    # group structure through the series; the constants are fixed, so is the class
    @cached_property
    def _series_table(self):
        return hausdorff_table(max(self.nilpotency_class(), 1))

    def mul(self, u, v):
        out = self.zero()
        for coeff, val in evaluate_words(self._series_table, u, v, self.bracket):
            out = self.add(out, self.scale(coeff, val))
        return out

    def neg(self, u):
        return self._norm(tuple(-a for a in u))

    def comm(self, u, v):
        return self.mul(self.neg(u), self.mul(self.neg(v), self.mul(u, v)))

    def element_order(self, u) -> int:
        """Group order of u; powers are integer multiples, so it is additive."""
        order = 1
        for a, m in zip(u, self.moduli):
            if a:
                o = m // gcd(a, m)
                order = order * o // gcd(order, o)
        return order

    def order_multiset(self) -> Counter:
        return Counter(self.element_order(u) for u in self.elements())


def make_p3_pair(p: int):
    """The two nilpotent Lie rings of order p^3, as finite rings."""
    if p < 5:
        raise BadParameter("the series needs class 2 < p")
    L1 = FiniteLieRing(
        p,
        (p, p * p),
        [[(0, 0), (0, -p)], [(0, p), (0, 0)]],  # [y, x] = p y
        ("x", "y"),
    )
    L2 = FiniteLieRing(
        p,
        (p, p, p),
        [
            [(0, 0, 0), (0, 0, 1), (0, 0, 0)],
            [(0, 0, -1), (0, 0, 0), (0, 0, 0)],
            [(0, 0, 0), (0, 0, 0), (0, 0, 0)],
        ],  # [x, y] = z central
        ("x", "y", "z"),
    )
    return L1, L2


# ---------------------------------------------------------------------------
# isomorphism test in dimension 3
# ---------------------------------------------------------------------------


@dataclass
class IsoCertificate:
    isomorphic: bool
    kind: str
    left: object
    right: object

    def _fmt(self, v, p):
        if isinstance(v, SimilarityDescriptor):
            return v.render(p)
        if isinstance(v, tuple):
            return " ".join(self._fmt(x, p) for x in v)
        if isinstance(v, int):
            return f"derived pivot valuation {v}"
        return str(v)

    def lines(self, p: int):
        return [
            f"kind: {self.kind}",
            f"left:  {self._fmt(self.left, p)}",
            f"right: {self._fmt(self.right, p)}",
            f"isomorphic at precision: {'yes' if self.isomorphic else 'no'}",
        ]


def _ideal_basis_and_complement(L: Lattice, w1, w2):
    ctx = L.ctx
    for j in range(3):
        ej = L.basis_vector(j)
        if PMatrix(ctx, [list(w1), list(w2), list(ej)]).det() % ctx.p:
            return ej
    raise PrecisionExhausted("no unimodular complement to the ideal at precision")


def _truncate_lattice(L: Lattice, precision: int) -> Lattice:
    ctx2 = PadicContext(L.ctx.p, precision, L.ctx.rho)
    constants = [
        [[e % ctx2.modulus for e in vec] for vec in row] for row in L.constants
    ]
    return Lattice(ctx2, constants, L.labels, validate=False)


def _action_from_ideal_basis(L: Lattice, w1, w2) -> PMatrix:
    if any(L.bracket(w1, w2)):
        raise PrecisionExhausted("abelian ideal candidate has nonzero bracket at precision")
    x = _ideal_basis_and_complement(L, w1, w2)
    rows = []
    for w in (w1, w2):
        coeffs = solve_over_rows([w1, w2], L.bracket(w, x), L.ctx, 3)
        if coeffs is None:
            raise PrecisionExhausted("ideal is not invariant at precision")
        rows.append(coeffs)
    return PMatrix(L.ctx, rows)


def _at_precision(L: Lattice, vectors, precision: int):
    """Lattice and vectors truncated to an honest determination precision."""
    if precision < 3:
        raise PrecisionExhausted("invariant not determined at this precision")
    if precision == L.ctx.precision:
        return L, [tuple(v) for v in vectors]
    Lt = _truncate_lattice(L, precision)
    mod = Lt.ctx.modulus
    return Lt, [tuple(e % mod for e in v) for v in vectors]


def action_matrix_on_abelian_ideal(L: Lattice, derived: Span) -> PMatrix:
    """The fiber action on the unique 2-dimensional abelian ideal.

    `derived` is [L, L].  Its elementary-divisor generators are honest only
    modulo p^(N - e), and a centraliser kernel only modulo the depth of the
    bracket pairing, so each stage truncates to its determination precision
    before proceeding; the matrix is returned in the truncated context and
    descriptor comparisons degrade gracefully instead of comparing wobble
    digits.
    """
    ctx = L.ctx
    profile = derived.structural_profile()
    if len(profile) == 2:
        e_max = max(e for e, _ in profile)
        Lt, (w1, w2) = _at_precision(L, [profile[0][1], profile[1][1]], ctx.precision - e_max)
        return _action_from_ideal_basis(Lt, w1, w2)
    if len(profile) != 1:
        raise PrecisionExhausted("derived span has no usable rank at precision")
    e1, line = profile[0]
    L1, (w,) = _at_precision(L, [line], ctx.precision - e1)
    pairing = [list(L1.bracket(L1.basis_vector(i), w)) for i in range(3)]
    depth = max((e for e, _ in structural_profile(pairing, L1.ctx, 3)), default=0)
    ideal = isolated_kernel(pairing, L1.ctx, 3)
    basis = [w0 for e, w0 in ideal.structural_profile() if e == 0]
    if len(basis) != 2:
        raise PrecisionExhausted("centraliser of the derived line is not 2-dimensional")
    L2, (w1, w2) = _at_precision(L, basis, L1.ctx.precision - depth)
    return _action_from_ideal_basis(L2, w1, w2)


def _require_dim3_soluble(L: Lattice):
    if L.dim != 3:
        raise NotDim3(f"the dimension-3 invariant needs a 3-dimensional lattice, got {L.dim}")
    if not L.is_soluble():
        raise NotSoluble("the dimension-3 invariant needs a lattice soluble at precision")


def _store_dim3_invariant(L: Lattice):
    """Determine the invariant of a checked lattice and keep it in its slot.

    The branch follows the structure of the derived span: central means
    nilpotent type with the derived size as invariant; otherwise the class
    is the multiplicative-similarity descriptor of the action on the unique
    2-dimensional abelian ideal.  A `PrecisionExhausted` leaves the slot
    empty.
    """
    full = L.full_span()
    derived = L.bracket_span(full, full)
    if derived.is_zero():
        inv = ("abelian",)
    elif L.bracket_span(full, derived).is_zero():
        if derived.structural_rank() != 1:
            raise PrecisionExhausted("central derived span of rank > 1 in dimension 3")
        inv = ("heisenberg", L.ctx.precision - derived.size_exp())
    else:
        inv = ("action", classify(action_matrix_on_abelian_ideal(L, derived)))
    L.dim3_invariant = inv
    return inv


def dim3_invariant(L: Lattice):
    """('abelian',) | ('heisenberg', s) | ('action', descriptor), once per lattice.

    Raises NotDim3 or NotSoluble for a lattice outside the classification.
    Two lattices over the same prime are isomorphic at precision exactly when
    their invariants have the same branch and equal values, descriptors
    compared with `descriptors_equal`.
    """
    if L.dim3_invariant is None:
        _require_dim3_soluble(L)
        _store_dim3_invariant(L)
    return L.dim3_invariant


def iso_test_3dim(L1: Lattice, L2: Lattice) -> IsoCertificate:
    """Isomorphism of 3-dimensional soluble lattices: a comparison of invariants.

    Both lattices are checked before either invariant is computed, and a
    lattice whose invariant is stored has passed those checks already.
    """
    pending = [L for L in ((L1,) if L1 is L2 else (L1, L2)) if L.dim3_invariant is None]
    for L in pending:
        _require_dim3_soluble(L)
    if L1.ctx.p != L2.ctx.p:
        raise ContextMismatch(f"lattices over different primes: {L1.ctx.p} and {L2.ctx.p}")
    for L in pending:
        _store_dim3_invariant(L)
    inv1, inv2 = L1.dim3_invariant, L2.dim3_invariant
    if inv1[0] != inv2[0]:
        return IsoCertificate(False, f"{inv1[0]}/{inv2[0]}", inv1, inv2)
    if inv1[0] == "abelian":
        return IsoCertificate(True, "nilpotent", "abelian", "abelian")
    if inv1[0] == "heisenberg":
        return IsoCertificate(inv1[1] == inv2[1], "nilpotent", inv1[1], inv2[1])
    d1, d2 = inv1[1], inv2[1]
    return IsoCertificate(descriptors_equal(d1, d2, L1.ctx.p), "action", d1, d2)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # lattice | group | pair
    parameters: str
    description: str


CATALOG_MANIFEST = (
    CatalogEntry("2dim", "pair", "s >= 1", "rank-2 family [y,x] = p^s y with its group"),
    CatalogEntry("G0", "pair", "s >= 0 or None", "two-step nilpotent family, central [x,y] = p^s z"),
    CatalogEntry("G1", "pair", "s >= 1", "scalar fiber action p^s"),
    CatalogEntry("G2", "pair", "s,r >= 1, d", "one-unit fiber action p^s(1 + p^r core)"),
    CatalogEntry("G3", "pair", "s,r >= 0, d; s>=1 or (r>=1, p|d)", "companion-form fiber action with trace p^(s+r)"),
    CatalogEntry("G4", "pair", "s,r >= 0, s+r >= 1", "trace-zero fiber action, square determinant class"),
    CatalogEntry("G5", "pair", "s,r >= 0, s+r >= 1", "trace-zero fiber action, non-square determinant class"),
    CatalogEntry("p3-pair", "pair", "p >= 5", "the two nilpotent Lie rings of order p^3 with their groups"),
    CatalogEntry("example-dim-p", "pair", "p >= 5", "dimension-p cyclic-shift action with p-scaled wrap-around"),
    CatalogEntry("sl2tri", "lattice", "p >= 5", "insoluble: [x,y]=h, [x,h]=-2px, [y,h]=2py"),
    CatalogEntry("sl1delta", "lattice", "p >= 5", "insoluble: [x,y]=pz, [x,z]=p rho y, [y,z]=-x"),
    CatalogEntry("levi", "lattice", "k >= 2", "powerful 5-dim lattice whose radical has no complement"),
    CatalogEntry("p2-plus", "group", "p=2, s >= 2 or None", "action 1 + 2^s"),
    CatalogEntry("p2-minus", "group", "p=2, s >= 2 or None", "action -1 - 2^s"),
)


def thm73_grid(ctx: PadicContext, s_values=(0, 1, 2), r_values=(0, 1, 2), d_values=None):
    """All valid family members over a small parameter grid, deduplicated by label."""
    if d_values is None:
        d_values = (0, 1, ctx.rho, ctx.p)
    out = []
    for s in s_values:
        out.append((f"G0(s={s})", "G0", {"s": s}))
    out.append(("G0(abelian)", "G0", {"s": None}))
    for s in s_values:
        if s >= 1:
            out.append((f"G1(s={s})", "G1", {"s": s}))
    for s in s_values:
        for r in r_values:
            if s >= 1 and r >= 1:
                for d in d_values:
                    out.append((f"G2(s={s},r={r},d={d})", "G2", {"s": s, "r": r, "d": d}))
    for s in s_values:
        for r in r_values:
            for d in d_values:
                if s >= 1 or (r >= 1 and d % ctx.p == 0):
                    out.append((f"G3(s={s},r={r},d={d})", "G3", {"s": s, "r": r, "d": d}))
    for s in s_values:
        for r in r_values:
            if s + r >= 1:
                out.append((f"G4(s={s},r={r})", "G4", {"s": s, "r": r}))
                out.append((f"G5(s={s},r={r})", "G5", {"s": s, "r": r}))
    return out
