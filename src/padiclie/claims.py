"""The paper's claims, each one function of its parameters.

A claim builds its fixture and returns its checks as a list of
(label, ok) pairs.  `padiclie verify` prints them and the acceptance
criteria assert them, so both run the same code for each claim.
"""

from __future__ import annotations

from . import catalog
from .classifier import canonical_matrix, classify, full_orbit_partition
from .errors import BadParameter
from .linalg import PMatrix, Span, vec_add, vec_scale
from .padic import PadicContext
from .propgroup import (
    check_gamma_p_in_phi_p,
    lower_p_series_group,
    verify_group_potent_filtration,
)


def random_invertible(ctx: PadicContext, n: int, rng) -> PMatrix:
    """A random n x n matrix mod p^N with unit determinant, by rejection sampling."""
    while True:
        P = PMatrix(ctx, [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)])
        if P.det() % ctx.p != 0:
            return P


def example_4_2(ctx: PadicContext) -> list:
    """Example 4.2: the dimension-p group is not saturable by the sufficient conditions."""
    group, _ = catalog.make_example_dim_p(ctx)
    E = group.action - PMatrix.identity(ctx, group.fiber_dim)
    rep = check_gamma_p_in_phi_p(group)
    pot = verify_group_potent_filtration(group, lower_p_series_group(group))
    return [
        ("(M-1)^(p-1) = p * identity on the fiber", E.pow(ctx.p - 1) == ctx.p * PMatrix.identity(ctx, group.fiber_dim)),
        ("gamma_p(G) not contained in Phi(G)^p", not rep.holds),
        ("lower p-series fails potency at step 1", pot.first_failure() == 1),
    ]


def example_4_7(ctx: PadicContext) -> list:
    """Example 4.7: the lattice of the dimension-p group fails the sufficient condition."""
    _, lat = catalog.make_example_dim_p(ctx)
    gammas = lat.lower_central()
    fiber = [lat.basis_vector(i) for i in range(1, lat.dim)]
    expected = Span(ctx, lat.dim, [tuple(ctx.p * x % ctx.modulus for x in v) for v in fiber])
    pot = lat.verify_potent_filtration(lat.lower_p_series())
    return [
        ("gamma_p(L) = p * fiber", len(gammas) > ctx.p - 1 and gammas[ctx.p - 1] == expected),
        ("saturable sufficient condition fails", not lat.saturable_sufficient()),
        ("lower p-series fails potency at step 1", pot.first_failure() == 1),
    ]


def p3_pair(p: int) -> list:
    """The order-p^3 pair: both presentations hold and the order multisets differ."""
    L1, L2 = catalog.make_p3_pair(p)
    x, y = L1.basis_vector(0), L1.basis_vector(1)
    presented = any(
        L1.element_order(xs) == p and L1.element_order(ys) == p * p and L1.comm(xs, ys) == L1.scale(p, ys)
        for xs in (x, L1.neg(x))
        for ys in (y, L1.neg(y))
    )
    z = L2.comm(L2.basis_vector(0), L2.basis_vector(1))
    expo = all(L2.element_order(u) in (1, p) for u in L2.elements())
    central = all(L2.comm(z, L2.basis_vector(i)) == L2.zero() for i in range(3))
    return [
        ("first group satisfies x^p = y^(p^2) = 1 and [x,y] = y^p", presented),
        ("second group has exponent p with central commutator", expo and central),
        ("order multisets differ", L1.order_multiset() != L2.order_multiset()),
    ]


def thm73_members(ctx: PadicContext, *ranges) -> list:
    """(name, lattice, group) for each member of `catalog.thm73_grid(ctx, *ranges)`."""
    if ctx.p < 5:
        # the grid's dimension 3 must be below p, and the classification assumes p > 3
        raise BadParameter(f"thm73-grid needs p >= 5, got p = {ctx.p}")
    return [(name, *catalog.make_thm73(ctx, fam, params)) for name, fam, params in catalog.thm73_grid(ctx, *ranges)]


def thm73_saturable(members) -> list:
    """Theorem 7.3: every member passes the sufficient saturability conditions."""
    return [
        ("all grid lattices pass the saturability condition", all(lat.saturable_sufficient() for _, lat, _ in members)),
        ("all grid groups satisfy gamma_p <= Phi^p", all(check_gamma_p_in_phi_p(grp).holds for _, _, grp in members)),
    ]


def thm73_irredundant(members) -> list:
    """Theorem 7.3: no two members are isomorphic."""
    collision = any(
        catalog.iso_test_3dim(La, Lb).isomorphic for i, (_, La, _) in enumerate(members) for _, Lb, _ in members[i + 1 :]
    )
    return [("pairwise isomorphism tests all distinct", not collision)]


def _levi_defect_system(L, k: int):
    """The complement defect [h, x] - 2 p^k x of the Levi lattice L, and its increments per
    unit of the lift offsets: h~ = h + alpha a + beta b and x~ = x + gamma a + delta b move
    it by alpha [a, x] + beta [b, x] + gamma ([h, a] - 2 p^k a) + delta ([h, b] - 2 p^k b)."""
    mod = L.ctx.modulus
    pk = L.ctx.p**k
    x, h, a, b = (L.basis_vector(i) for i in (0, 2, 3, 4))
    base = vec_add(L.bracket(h, x), vec_scale(-2 * pk, x, mod), mod)
    va = L.bracket(a, x)
    vb = L.bracket(b, x)
    vg = vec_add(L.bracket(h, a), vec_scale(-2 * pk, a, mod), mod)
    vd = vec_add(L.bracket(h, b), vec_scale(-2 * pk, b, mod), mod)
    return base, (va, vb, vg, vd)


def _levi_defect(ctx: PadicContext, k: int, base, steps) -> tuple:
    """(offsets covered, whether no lift kills the defect) for offsets mod p^k.

    The statement covers all p^(4k) offsets when the defect and its increments lie in
    R = span(a, b), and none otherwise.  Some offset kills the defect mod p^k exactly when
    -base lies in the span of the increments over Z/p^k, in the (a, b) coordinates."""
    if any(any(v[:3]) for v in (base, *steps)):
        return 0, False
    increments = Span(PadicContext(ctx.p, k), 2, [v[3:] for v in steps])
    return ctx.p ** (4 * k), not increments.member([-e for e in base[3:]])


def levi(ctx: PadicContext, k: int) -> list:
    """The powerful lattice whose soluble radical has no complement: over all lifts
    h~ = h + alpha a + beta b and x~ = x + gamma a + delta b with offsets mod p^k,
    [h~, x~] - 2 p^k x~ lies in R but never in p^k R."""
    L = catalog.make_levi_example(ctx, k)
    full = L.full_span()
    count, always_outside = _levi_defect(ctx, k, *_levi_defect_system(L, k))
    return [
        ("[L,L] contained in pL", full.scale(ctx.p).contains(L.bracket_span(full, full))),
        ("radical is the (a, b) plane", L.soluble_radical() == Span(ctx, 5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])),
        (f"no lift kills the complement defect ({count} offsets)", always_outside),
    ]


def two_dim(ctx: PadicContext, rng, changes: int) -> list:
    """The rank-2 invariant recovers s under `changes` random basis changes per s."""
    checks = []
    for s in (1, 2, 3):
        lat, grp = catalog.make_2dim(ctx, s)
        ok = lat.two_dim_invariant() == s
        for _ in range(changes):
            P = random_invertible(ctx, 2, rng)  # drawn even after a failure, so later samples stay fixed
            ok = ok and lat.change_basis(P).two_dim_invariant() == s
        x, y = grp.standard_generators()
        rel = grp.comm(y, x) == grp.pow(y, ctx.p**s)
        checks.append((f"s = {s}: invariant stable and group relation [y,x] = y^(p^s) holds", ok and rel))
    return checks


def insoluble(ctx: PadicContext) -> list:
    """The two insoluble 3-dimensional lattices are saturable."""
    checks = []
    for which in ("sl2tri", "sl1delta"):
        lat = catalog.make_insoluble(ctx, which)
        checks.append((f"{which}: structure constants validate", True))  # construction would raise
        checks.append((f"{which}: insoluble at precision", not lat.is_soluble()))
        checks.append((f"{which}: saturability condition holds", lat.saturable_sufficient()))
    return checks


def classifier_oracle(p: int, k: int) -> list:
    """The classifier's descriptors against the exhaustive orbit partition mod p^k."""
    ctx = PadicContext(p, k)
    rep = full_orbit_partition(p, k)
    orbits = set(rep.values())
    desc_by_orbit = {}
    canonical = {}  # descriptor key -> its canonical matrix as an entry tuple
    agree = True
    constant = True
    for m, r in rep.items():
        A = PMatrix._reduced(ctx, [[m[0], m[1]], [m[2], m[3]]])  # entries are residues mod p^k
        d = classify(A, strict=False)
        key = d.key()
        cmt = canonical.get(key)
        if cmt is None:
            cm = canonical_matrix(d, ctx)
            cmt = canonical[key] = tuple(e for row in cm.entries for e in row)
        if rep[cmt] != r:
            agree = False
        if r in desc_by_orbit and desc_by_orbit[r] != key:
            constant = False
        desc_by_orbit[r] = key
    injective = len(set(desc_by_orbit.values())) == len(orbits)
    return [
        (f"canonical representative lies in the orbit (all {len(rep)} matrices)", agree),
        ("descriptor constant on each orbit", constant),
        (f"distinct descriptors occupy distinct orbits ({len(orbits)} orbits)", injective),
    ]


def p2_groups(ctx: PadicContext) -> list:
    """The two p = 2 families are told apart by the torsion of their abelianization."""
    checks = []
    for s in (2, 3, 4):
        gp = catalog.make_p2_groups(ctx, "+", s)
        checks.append((f"plus family s={s}: abelianization torsion 2^{s}", catalog.abelianization_torsion_exp(gp) == s))
        gm = catalog.make_p2_groups(ctx, "-", s)
        checks.append((f"minus family s={s}: abelianization torsion 2^1", catalog.abelianization_torsion_exp(gm) == 1))
    ginf = catalog.make_p2_groups(ctx, "+", None)
    checks.append(("limit member is abelian", ginf.action == PMatrix.identity(ctx, 1)))
    return checks
