"""Constructors for the named lattices, groups and fixtures, and the
isomorphism test for 3-dimensional soluble lattices.

Presentation-to-matrix convention: in relations [y_i, x] = prod_j y_j^(a_ij)
the exponent vectors form the ROWS of the fiber matrix A; the matching
semidirect group acts through M = I + A (an exp(A) variant is available
when the exponential converges).  `_split_pair` builds the lattice and the
group of every split family from A alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd

from .bch import evaluate_words, hausdorff_table
from .classifier import SimilarityDescriptor, canonical_matrix, classify, descriptors_equal
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
    _nilpotency_degree_mod_p,
    isolated_kernel,
    mat_exp,
    solve_each_over_rows,
    structural_profile,
)
from .padic import PadicContext, is_prime
from .propgroup import SemidirectGroup


def _split_pair(A: PMatrix, labels, action: PMatrix | None = None):
    """Lattice and group of Z_p x| Z_p^n given by the n x n fiber matrix A.

    The lattice has basis (x, y_1, ..., y_n), abelian ideal (y_i) and
    [y_i, x] = sum_j A_ij y_j; the group acts on the fiber through `action`,
    I + A unless given.
    """
    ctx, n = A.ctx, A.rows
    brackets = [(0, 1 + i, [0] + [-a for a in row]) for i, row in enumerate(A.entries)]
    lattice = Lattice.from_brackets(ctx, n + 1, brackets, labels)
    if action is None:
        action = PMatrix.identity(ctx, n) + A
    return lattice, SemidirectGroup(ctx, action)


def _require_residually_nilpotent(A: PMatrix):
    if _nilpotency_degree_mod_p(A) not in (1, 2):  # degree at most 2: A^2 = 0 mod p
        raise ResidualNilpotenceViolated("fiber matrix squared is nonzero mod p")


def make_2dim(ctx: PadicContext, s: int):
    """[y, x] = p^s y and the rank-1 semidirect group with action 1 + p^s."""
    if s < 1:
        raise BadParameter("residual nilpotence needs s >= 1")
    if s >= ctx.precision:
        raise BadParameter("s must be below the working precision")
    return _split_pair(PMatrix(ctx, [[ctx.p**s]]), ("x", "y"))


THM73_FAMILIES = ("G0", "G1", "G2", "G3", "G4", "G5")


def thm73_fiber_matrix(ctx: PadicContext, family: str, params: dict) -> PMatrix:
    """The fiber matrix A of a family member, parameter ranges enforced.  G1-G5 are
    `canonical_matrix` of a descriptor (p odd); G0 is oriented unlike the `nilpotent` form."""
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
        desc = SimilarityDescriptor("scalar", s=s)
    elif family == "G2":
        need(s is not None and s >= 1, "G2 needs s >= 1")
        need(r is not None and r >= 1, "G2 needs r >= 1")
        need(d is not None, "G2 needs d")
        desc = SimilarityDescriptor("scalarplus", s=s, r=r, d=d)
    elif family == "G3":
        need(s is not None and s >= 0 and r is not None and r >= 0, "G3 needs s, r >= 0")
        need(d is not None, "G3 needs d")
        need(s >= 1 or (r >= 1 and d % p == 0), "G3 needs s >= 1, or r >= 1 with p | d")
        desc = SimilarityDescriptor("tracecore", s=s, r=r, d=d)
    elif family in ("G4", "G5"):
        need(s is not None and s >= 0 and r is not None and r >= 0, "needs s, r >= 0")
        need(s + r >= 1, "needs s + r >= 1")
        residue = "square" if family == "G4" else "nonsquare"
        desc = SimilarityDescriptor("zerotrace", s=s, r=r, residue=residue)
    else:
        raise BadParameter(f"unknown family {family}")
    need(p != 2, f"{family} needs an odd prime, got p = 2")  # the classification assumes p odd
    return canonical_matrix(desc, ctx)


def make_thm73(ctx: PadicContext, family: str, params: dict, exp_action: bool = False):
    """Lattice and group of a classified 3-dimensional family member."""
    A = thm73_fiber_matrix(ctx, family, params)
    _require_residually_nilpotent(A)
    labels = ("x", "y", "z") if family == "G0" else ("x", "y1", "y2")
    return _split_pair(A, labels, mat_exp(A) if exp_action else None)


def make_example_dim_p(ctx: PadicContext):
    """The dimension-p cyclic-shift pair: e_i -> e_(i+1), wrapping to p e_1."""
    p = ctx.p
    if p < 5:
        raise BadParameter("dimension-p fixture needs p >= 5")
    d = p - 1
    A = [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d)]
    A[d - 1][0] = p
    labels = ("x",) + tuple(f"y{i+1}" for i in range(d))
    lattice, group = _split_pair(PMatrix(ctx, A), labels)
    return group, lattice


def make_insoluble(ctx: PadicContext, which: str) -> Lattice:
    """The two insoluble 3-dimensional structure-constant lattices."""
    if ctx.p < 5:
        raise BadParameter("insoluble fixtures need p >= 5")
    p = ctx.p
    if which == "sl2tri":
        labels = ("x", "y", "h")
        brackets = [
            (0, 1, (0, 0, 1)),  # [x,y] = h
            (0, 2, (-2 * p, 0, 0)),  # [x,h] = -2p x
            (1, 2, (0, 2 * p, 0)),  # [y,h] = 2p y
        ]
    elif which == "sl1delta":
        labels = ("x", "y", "z")
        brackets = [
            (0, 1, (0, 0, p)),  # [x,y] = p z
            (0, 2, (0, p * ctx.rho, 0)),  # [x,z] = p rho y
            (1, 2, (-1, 0, 0)),  # [y,z] = -x
        ]
    else:
        raise BadParameter(f"unknown insoluble fixture {which}")
    return Lattice.from_brackets(ctx, 3, brackets, labels)


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
    # basis (x, y, h, a, b); brackets computed inside gl_3 from the scaled
    # elementary-matrix realisation
    brackets = [
        (0, 1, (0, 0, pk, 0, 0)),  # [x,y] = p^k h
        (0, 2, (-2 * pk, 0, 0, 3 * p, 0)),  # [x,h] = -2 p^k x + 3p a
        (1, 2, (0, 2 * pk, 0, 0, 0)),  # [y,h] = 2 p^k y
        (0, 3, (0, 0, 0, 0, -pk)),  # [x,a] = -p^k b
        (1, 4, (0, 0, 0, -pk, 0)),  # [y,b] = -p^k a
        (2, 3, (0, 0, 0, -pk, 0)),  # [h,a] = -p^k a
        (2, 4, (0, 0, 0, 0, pk)),  # [h,b] = p^k b
    ]
    return Lattice.from_brackets(ctx, 5, brackets, ("x", "y", "h", "a", "b"))


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
        for coeff, val in evaluate_words(self._series_table.terms, u, v, self.bracket):
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
    if not is_prime(p):
        raise BadParameter(f"p = {p} is not prime")
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
    ctx = L.ctx  # a unit determinant mod p does not depend on the precision
    for j in range(3):
        ej = L.basis_vector(j)
        if PMatrix(ctx, [list(w1), list(w2), list(ej)]).det() % ctx.p:
            return ej
    raise PrecisionExhausted("no unimodular complement to the ideal at precision")


def _action_from_ideal_basis(L: Lattice, ctx: PadicContext, w1, w2) -> PMatrix:
    """The rows of [w1, x] and [w2, x] over (w1, w2) in `ctx`, both from one elimination."""
    mod = ctx.modulus
    if any(e % mod for e in L.bracket(w1, w2)):
        raise PrecisionExhausted("abelian ideal candidate has nonzero bracket at precision")
    x = _ideal_basis_and_complement(L, w1, w2)
    rows = solve_each_over_rows([w1, w2], [L.bracket(w1, x), L.bracket(w2, x)], ctx, 3)
    if None in rows:
        raise PrecisionExhausted("ideal is not invariant at precision")
    return PMatrix(ctx, rows)


def _at_precision(ctx: PadicContext, precision: int) -> PadicContext:
    """The context of an honest determination precision p^k, k <= N."""
    if precision < 3:
        raise PrecisionExhausted("invariant not determined at this precision")
    if precision == ctx.precision:
        return ctx
    return PadicContext(ctx.p, precision, ctx.rho)


def action_matrix_on_abelian_ideal(L: Lattice, profile) -> PMatrix:
    """The fiber action on the unique 2-dimensional abelian ideal.

    `profile` is the structural profile of [L, L], of rank 1 or 2, as
    `_require_dim3_soluble` returns it.  At rank 2 the ideal is spanned by its
    two generators; at rank 1 it is the centraliser of the derived line.  The
    generators are honest only modulo p^(N - e), and a centraliser kernel only
    modulo the depth of the bracket pairing, so each stage works in the
    context of its determination precision p^k.  No truncated lattice is
    built: the bracket is bilinear in integer structure constants, so a
    bracket taken at p^N and reduced mod p^k (the eliminations reduce their
    rows on entry) is the bracket of the lattice truncated to p^k.  The
    matrix is returned in the truncated context, and descriptor comparisons
    degrade gracefully instead of comparing wobble digits.
    """
    ctx = L.ctx
    if len(profile) == 2:
        (e1, w1), (e2, w2) = profile
        return _action_from_ideal_basis(L, _at_precision(ctx, ctx.precision - max(e1, e2)), w1, w2)
    e1, line = profile[0]
    ctx1 = _at_precision(ctx, ctx.precision - e1)
    pairing = L.ad_matrix(line).entries  # row i: [b_i, line]
    depth = max((e for e, _ in structural_profile(pairing, ctx1, 3)), default=0)
    ideal = isolated_kernel(pairing, ctx1, 3)
    basis = [w0 for e, w0 in ideal.structural_profile() if e == 0]
    if len(basis) != 2:
        raise PrecisionExhausted("centraliser of the derived line is not 2-dimensional")
    return _action_from_ideal_basis(L, _at_precision(ctx, ctx1.precision - depth), *basis)


def _require_dim3_soluble(L: Lattice):
    """Check that L is in the classification; returns [L, L] and its structural profile.

    Solubility is read off the profile's length: in dimension 3, L is soluble
    exactly when [L, L] has structural rank below 3.  The general route,
    `Lattice.is_soluble`, asks whether the saturated derived series
    S_0 = sat [L, L], S_(i+1) = sat [S_i, S_i] ends at 0.  The profile writes
    [L, L] as the span of p^(e_i) w_i with each w_i primitive, with a unit at
    its own pivot column where the later w_j vanish; so the w_i are
    independent mod p, and S_0 is their span.
    - Rank 3: S_0 = L, so S_1 = sat [L, L] = S_0.  The series stops at the
      nonzero fixed point L, and L is not soluble.
    - Rank r <= 2: S_0 is spanned by w_1 and w_2 (by fewer when r < 2).  The
      bracket is bilinear and alternating, so [a w_1 + b w_2, c w_1 + d w_2]
      = (ad - bc) [w_1, w_2] and [S_0, S_0] is the span of [w_1, w_2].  Its
      saturation S_1 is a line or zero, [S_1, S_1] = 0, and the series ends
      at 0: L is soluble.
    A bracket with [u, u] != 0, from the diagonal constants 2^(N-1) that the
    `lattice` module accepts at p = 2, is not alternating; there the two
    readings can differ.
    """
    if L.dim != 3:
        raise NotDim3(f"the dimension-3 invariant needs a 3-dimensional lattice, got {L.dim}")
    full = L.full_span()
    derived = L.bracket_span(full, full)
    profile = derived.structural_profile()
    if len(profile) == 3:
        raise NotSoluble("the dimension-3 invariant needs a lattice soluble at precision")
    return derived, profile


def _store_dim3_invariant(L: Lattice, derived: Span, profile):
    """Determine the invariant of a checked lattice from [L, L] and its profile and keep it.

    The branch follows the structure of the derived span: central means
    nilpotent type with the derived size as invariant; otherwise the class
    is the multiplicative-similarity descriptor of the action on the unique
    2-dimensional abelian ideal.  Centrality is read off the brackets: [L, [L, L]]
    is zero exactly when every [r, b_j], for r a row of the derived span, is
    zero mod p^N, so no span of them is built.  A `PrecisionExhausted` leaves
    the slot empty.
    """
    mod = L.ctx.modulus
    if not profile:
        inv = ("abelian",)
    elif not any(e % mod for r in derived.rows for row in L._brackets_with_basis(r) for e in row):
        if len(profile) != 1:
            raise PrecisionExhausted("central derived span of rank > 1 in dimension 3")
        inv = ("heisenberg", L.ctx.precision - derived.size_exp())
    else:
        inv = ("action", classify(action_matrix_on_abelian_ideal(L, profile)))
    L.dim3_invariant = inv
    return inv


def dim3_invariant(L: Lattice):
    """('abelian',) | ('heisenberg', s) | ('action', descriptor), once per lattice.

    Raises NotDim3 or NotSoluble for a lattice outside the classification.
    Everything is read off [L, L] and its structural profile, built once:
    solubility is the structural rank being below 3, centrality is
    [r, b_j] = 0 for the derived rows r, and each determination precision
    is a truncated context, with no truncated copy of the lattice.
    Two lattices over the same prime are isomorphic at precision exactly when
    their invariants have the same branch and equal values, descriptors
    compared with `descriptors_equal`.
    """
    if L.dim3_invariant is None:
        _store_dim3_invariant(L, *_require_dim3_soluble(L))
    return L.dim3_invariant


def iso_test_3dim(L1: Lattice, L2: Lattice) -> IsoCertificate:
    """Isomorphism of 3-dimensional soluble lattices: a comparison of invariants.

    Both lattices are checked before either invariant is computed, and a
    lattice whose invariant is stored has passed those checks already.
    """
    pending = [
        (L, _require_dim3_soluble(L))
        for L in ((L1,) if L1 is L2 else (L1, L2))
        if L.dim3_invariant is None
    ]
    if L1.ctx.p != L2.ctx.p:
        raise ContextMismatch(f"lattices over different primes: {L1.ctx.p} and {L2.ctx.p}")
    for L, checked in pending:
        _store_dim3_invariant(L, *checked)
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
    if ctx.p == 2:
        raise BadParameter("the Theorem 7.3 grid needs an odd prime, got p = 2")
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
