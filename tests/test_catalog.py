import itertools
import random

import pytest

from padiclie import PadicContext, PMatrix, mat_exp, mat_log
from padiclie import catalog
from padiclie.catalog import (
    CATALOG_MANIFEST,
    abelianization_torsion_exp,
    dim3_invariant,
    iso_test_3dim,
    make_2dim,
    make_example_dim_p,
    make_insoluble,
    make_levi_example,
    make_p2_groups,
    make_p3_pair,
    make_thm73,
    thm73_fiber_matrix,
    thm73_grid,
)
from padiclie.claims import _levi_defect, _levi_defect_system, random_invertible
from padiclie.classifier import classify, descriptors_equal
from padiclie.errors import (
    BadParameter,
    PadicLieError,
    ContextMismatch,
    NotDim3,
    NotSoluble,
    PrecisionExhausted,
    ResidualNilpotenceViolated,
)
from padiclie.lattice import Lattice

from oracles import (
    abelian,
    explicit_fiber_matrix,
    grid,
    levi_defect_scan,
    random_unimodular,
    split_lattice,
    uncached_invariant,
    uncached_verdict,
)


def outcome(build):
    """The matrix entries, or the exception's type and text."""
    try:
        return build().entries
    except BadParameter as exc:
        return type(exc), str(exc)


class TestTwoDim:
    def test_group_relation(self):
        ctx = PadicContext(5, 6)
        for s in (1, 2):
            _, grp = make_2dim(ctx, s)
            x, y = grp.standard_generators()
            assert grp.comm(y, x) == grp.pow(y, 5**s)

    def test_rejects_zero_s(self):
        with pytest.raises(BadParameter):
            make_2dim(PadicContext(5, 6), 0)


class TestThm73:
    def test_parameter_validation(self):
        ctx = PadicContext(5, 8)
        with pytest.raises(BadParameter):
            make_thm73(ctx, "G1", {"s": 0})
        with pytest.raises(BadParameter):
            make_thm73(ctx, "G2", {"s": 1, "r": 0, "d": 1})
        with pytest.raises(BadParameter):
            make_thm73(ctx, "G3", {"s": 0, "r": 1, "d": 1})  # needs p | d when s = 0
        with pytest.raises(BadParameter):
            make_thm73(ctx, "G4", {"s": 0, "r": 0})
        make_thm73(ctx, "G3", {"s": 0, "r": 1, "d": 5})
        make_thm73(ctx, "G3", {"s": 1, "r": 0, "d": 1})

    def test_residual_nilpotence_enforced(self):
        # a hand-built non-residually-nilpotent matrix is rejected by the
        # shared constructor path
        ctx = PadicContext(5, 8)
        from padiclie.catalog import _require_residually_nilpotent

        with pytest.raises(ResidualNilpotenceViolated):
            _require_residually_nilpotent(PMatrix(ctx, [[1, 0], [0, 1]]))
        # against A^2 mod p: every other matrix is a conjugated strictly upper triangular U
        # plus p * noise, with A^2 = 0 mod p unless n = 3 and U_01 U_12 != 0 mod p
        rng = random.Random(41)
        seen = set()
        for p, n in itertools.product((3, 5, 7), (2, 3)):
            ctx = PadicContext(p, 4)
            mod = ctx.modulus
            for k in range(60):
                A = PMatrix(ctx, [[rng.randrange(mod) for _ in range(n)] for _ in range(n)])
                if k % 2:
                    U = [[rng.randrange(p) * (j > i) for j in range(n)] for i in range(n)]
                    P = [[rng.randrange(mod) * (j > i) + (i == j) for j in range(n)] for i in range(n)]
                    Q = [[rng.randrange(mod) * (j < i) + (i == j) for j in range(n)] for i in range(n)]
                    P = PMatrix(ctx, P) @ PMatrix(ctx, Q)  # unimodular
                    A = P.inverse() @ PMatrix(ctx, U) @ P + p * A
                square_zero = all(e % p == 0 for row in (A @ A).entries for e in row)
                seen.add((n, square_zero))
                if square_zero:
                    _require_residually_nilpotent(A)
                else:
                    with pytest.raises(ResidualNilpotenceViolated, match="squared is nonzero mod p"):
                        _require_residually_nilpotent(A)
        assert seen == {(2, True), (2, False), (3, True), (3, False)}

    def test_fiber_matrix_against_explicit_formulas(self):
        values = (None, -2, -1, 0, 1, 2, 3)
        for p, N in ((3, 1), (5, 2), (7, 4), (11, 8)):
            ctx = PadicContext(p, N)
            for family in ("G1", "G2", "G3", "G4", "G5", "G6"):
                for s, r, d in itertools.product(values, values, values + (p, ctx.rho)):
                    params = {k: v for k, v in zip("srd", (s, r, d)) if v is not None}
                    expected = outcome(lambda: explicit_fiber_matrix(ctx, family, params))
                    got = outcome(lambda: thm73_fiber_matrix(ctx, family, params))
                    assert got == expected, (p, N, family, params)

    def test_g0_relations(self):
        ctx = PadicContext(5, 6)
        for s in (0, 1, 2):
            lat, grp = make_thm73(ctx, "G0", {"s": s})
            x, y, z = grp.standard_generators()
            assert grp.comm(x, y) == grp.pow(z, 5**s)
            assert grp.comm(x, z) == grp.identity_element()
            assert grp.comm(y, z) == grp.identity_element()

    def test_g0_series_group_relation(self):
        # the series group of the two-step nilpotent lattice satisfies the
        # same central relation
        from padiclie.bch import bch_commutator

        ctx = PadicContext(5, 6)
        for s in (0, 1):
            lat, _ = make_thm73(ctx, "G0", {"s": s})
            x, y, z = (lat.basis_vector(i) for i in range(3))
            expected = tuple(5**s * c % ctx.modulus for c in z)
            assert bch_commutator(lat, x, y) == expected

    def test_g1_descriptor(self):
        ctx = PadicContext(5, 8)
        for s in (1, 2):
            A = thm73_fiber_matrix(ctx, "G1", {"s": s})
            d = classify(A)
            assert (d.variant, d.s) == ("scalar", s)

    def test_g4_descriptor(self):
        ctx = PadicContext(5, 8)
        for s, r in ((0, 1), (1, 0), (1, 2)):
            d = classify(thm73_fiber_matrix(ctx, "G4", {"s": s, "r": r}))
            assert (d.variant, d.s, d.r, d.residue) == ("zerotrace", s, r, "square")
            d5 = classify(thm73_fiber_matrix(ctx, "G5", {"s": s, "r": r}))
            assert (d5.variant, d5.s, d5.r, d5.residue) == ("zerotrace", s, r, "nonsquare")

    def test_exp_action_variant(self):
        ctx = PadicContext(5, 6)
        lat, grp = make_thm73(ctx, "G4", {"s": 1, "r": 1}, exp_action=True)
        A = thm73_fiber_matrix(ctx, "G4", {"s": 1, "r": 1})
        assert descriptors_equal(classify(mat_log(grp.action)), classify(A), 5)

    def test_grid_rejects_p2(self):
        with pytest.raises(BadParameter, match="odd prime"):
            thm73_grid(PadicContext(2, 6))

    def test_grid_members_all_validate(self):
        assert len(grid(PadicContext(5, 8))) > 50  # each member's lattice and group are built

    def test_presentation_relations_hold_in_group_arithmetic(self):
        # with action 1 + A the fiber is abelian, so [y_i, x] equals the
        # product of y_j to the A_ij exactly
        ctx = PadicContext(5, 8)
        for name, A, lat, grp in grid(ctx):
            x, y1, y2 = grp.standard_generators()
            assert grp.comm(y1, y2) == grp.identity_element()
            for i, yi in enumerate((y1, y2)):
                expected = grp.mul(
                    grp.pow(y1, A.entries[i][0]), grp.pow(y2, A.entries[i][1])
                )
                assert grp.comm(yi, x) == expected, name

    def test_group_serialization_round_trip(self):
        ctx = PadicContext(5, 6)
        _, grp = make_thm73(ctx, "G4", {"s": 0, "r": 1})
        from padiclie.propgroup import SemidirectGroup

        back = SemidirectGroup.from_json(grp.to_json())
        assert back.action.entries == grp.action.entries
        assert back.ctx.p == 5 and back.ctx.precision == 6


def _fiber_rows(lat, grp):
    """The rows [y_i, x] on the fiber, once the brackets [y_i, y_j] are checked to vanish."""
    x = lat.basis_vector(0)
    ys = [lat.basis_vector(1 + i) for i in range(grp.fiber_dim)]
    assert lat.dim == 1 + grp.fiber_dim
    assert not any(any(lat.bracket(u, v)) for u in ys for v in ys)
    rows = [lat.bracket(y, x) for y in ys]
    assert all(row[0] == 0 for row in rows)
    return [list(row[1:]) for row in rows]


class TestSplitPairs:
    @pytest.mark.parametrize("p", [5, 7])
    def test_lattice_rows_are_the_action_minus_identity(self, p):
        ctx = PadicContext(p, 8)
        pairs = [(m.lattice, m.group) for m in grid(ctx)]
        pairs += [make_2dim(ctx, s) for s in (1, 2, 3)]
        pairs.append(make_example_dim_p(ctx)[::-1])
        for lat, grp in pairs:
            I = PMatrix.identity(ctx, grp.fiber_dim)
            assert _fiber_rows(lat, grp) == (grp.action - I).entries

    @pytest.mark.parametrize("p", [5, 7])
    def test_exp_action_keeps_the_rows_of_a(self, p):
        ctx = PadicContext(p, 8)
        for _, A, lat, grp in grid(ctx, exp_action=True):
            assert _fiber_rows(lat, grp) == A.entries
            assert grp.action == mat_exp(A)


class TestP3Pair:
    def test_rejects_composite_before_small_p(self):
        for p in (4, 9, 15):
            with pytest.raises(BadParameter, match=f"p = {p} is not prime"):
                make_p3_pair(p)
        with pytest.raises(BadParameter, match="class 2 < p"):
            make_p3_pair(3)

    def test_group_axioms_sampled(self):
        L1, _ = make_p3_pair(5)
        rng = random.Random(40)
        els = [tuple(rng.randrange(m) for m in L1.moduli) for _ in range(8)]
        for a in els[:4]:
            for b in els[:4]:
                for c in els[:4]:
                    assert L1.mul(L1.mul(a, b), c) == L1.mul(a, L1.mul(b, c))
        for a in els:
            assert L1.mul(a, L1.neg(a)) == L1.zero()


class TestInsoluble:
    def test_iso_test_rejects(self):
        ctx = PadicContext(5, 6)
        with pytest.raises(NotSoluble):
            iso_test_3dim(make_insoluble(ctx, "sl2tri"), make_thm73(ctx, "G1", {"s": 1})[0])


class TestLevi:
    def test_parameter_guards(self):
        with pytest.raises(BadParameter):
            make_levi_example(PadicContext(5, 7), 1)
        with pytest.raises(BadParameter):
            make_levi_example(PadicContext(5, 4), 2)

    @pytest.mark.parametrize("p, N", [(5, 7), (7, 6), (7, 7)])
    def test_defect_membership_matches_scan_on_the_fixture(self, p, N):
        ctx = PadicContext(p, N)
        system = _levi_defect_system(make_levi_example(ctx, 2), 2)
        assert _levi_defect(ctx, 2, *system) == levi_defect_scan(ctx, 2, *system) == (p**8, True)

    def test_defect_membership_matches_scan_on_random_systems(self):
        # entries scaled by p^j for j up to k + 1, so that some defects cannot be killed and
        # some vanish mod p^k but not mod p^(k+1); in one draw of six a vector leaves R, and
        # nothing is scanned
        rng = random.Random(44)
        answers = set()
        for p, k in ((3, 1), (3, 2), (5, 1), (7, 1)):
            ctx = PadicContext(p, k + 2)
            mod = ctx.modulus
            for draw in range(30):
                base, *steps = (
                    [0, 0, 0] + [p ** rng.randrange(k + 2) * rng.randrange(mod) % mod for _ in range(2)]
                    for _ in range(5)
                )
                if draw % 6 == 5:
                    rng.choice(steps)[rng.randrange(3)] = rng.randrange(1, mod)
                answer = _levi_defect(ctx, k, base, steps)
                assert answer == levi_defect_scan(ctx, k, base, steps), (p, k, base, steps)
                answers.add(answer[1] if answer[0] else None)
        assert answers == {True, False, None}


class TestP2Groups:
    def test_torsion(self):
        ctx = PadicContext(2, 8)
        for s in (2, 3, 4):
            assert abelianization_torsion_exp(make_p2_groups(ctx, "+", s)) == s
            assert abelianization_torsion_exp(make_p2_groups(ctx, "-", s)) == 1
        assert make_p2_groups(ctx, "+", None).action == PMatrix.identity(ctx, 1)

    def test_guards(self):
        ctx = PadicContext(2, 8)
        with pytest.raises(BadParameter):
            make_p2_groups(ctx, "+", 1)
        with pytest.raises(BadParameter):
            make_p2_groups(PadicContext(5, 8), "+", 2)


class TestIso:
    def test_reflexive(self):
        ctx = PadicContext(5, 10)
        lat, _ = make_thm73(ctx, "G4", {"s": 0, "r": 1})
        assert iso_test_3dim(lat, lat).isomorphic

    def test_g4_vs_g5(self):
        ctx = PadicContext(5, 10)
        a, _ = make_thm73(ctx, "G4", {"s": 0, "r": 1})
        b, _ = make_thm73(ctx, "G5", {"s": 0, "r": 1})
        assert not iso_test_3dim(a, b).isomorphic

    def test_basis_change_copies(self):
        ctx = PadicContext(5, 12)
        rng = random.Random(41)
        for fam, params in (("G0", {"s": 1}), ("G2", {"s": 1, "r": 1, "d": 2}), ("G3", {"s": 1, "r": 0, "d": 0})):
            lat, _ = make_thm73(ctx, fam, params)
            for _ in range(5):
                assert iso_test_3dim(lat, lat.change_basis(random_invertible(ctx, 3, rng))).isomorphic

    def test_dim_guard(self):
        ctx = PadicContext(5, 6)
        with pytest.raises(NotDim3):
            iso_test_3dim(make_2dim(ctx, 1)[0], make_2dim(ctx, 1)[0])

    @pytest.mark.parametrize("family, params", [("G1", {"s": 1}), ("G0", {"s": 1})])
    def test_different_primes_raise(self, family, params):
        a, _ = make_thm73(PadicContext(5, 12), family, params)
        b, _ = make_thm73(PadicContext(7, 12), family, params)
        with pytest.raises(ContextMismatch):
            iso_test_3dim(a, b)
        # also once both invariants are stored
        dim3_invariant(a)
        dim3_invariant(b)
        with pytest.raises(ContextMismatch):
            iso_test_3dim(b, a)

    def test_different_precisions_compare(self):
        # descriptors compare d at the common determined precision
        other, _ = make_thm73(PadicContext(5, 9), "G1", {"s": 2})
        for family, params in (("G1", {"s": 1}), ("G3", {"s": 1, "r": 0, "d": 1})):
            a, _ = make_thm73(PadicContext(5, 12), family, params)
            b, _ = make_thm73(PadicContext(5, 9), family, params)
            assert iso_test_3dim(a, b).isomorphic
            assert not iso_test_3dim(a, other).isomorphic


def _grid_versions(p, rng):
    """Every grid member at p, N = 12, and three random unimodular basis changes of each."""
    ctx = PadicContext(p, 12)
    out = []
    for m in grid(ctx):
        out.append((m.label, m.lattice))
        out += [(m.label, m.lattice.change_basis(random_invertible(ctx, 3, rng))) for _ in range(3)]
    return out


class TestStoredInvariant:
    @pytest.mark.parametrize("p", [5, 7])
    def test_stored_invariant_against_uncached_path(self, p):
        versions = _grid_versions(p, random.Random(900 + p))
        lattices = [lat for _, lat in versions]
        oracle = [uncached_invariant(lat) for lat in lattices]
        for i, a in enumerate(lattices):
            for j in range(i, len(lattices)):
                cert = iso_test_3dim(a, lattices[j])
                assert cert.isomorphic == uncached_verdict(oracle[i], oracle[j], p)
                assert cert.isomorphic == (versions[i][0] == versions[j][0])
        for lat, inv in zip(lattices, oracle):
            assert lat.dim3_invariant == inv
            fresh = Lattice(lat.ctx, lat.constants, validate=False)
            assert fresh.dim3_invariant is None
            assert dim3_invariant(fresh) == lat.dim3_invariant

    def test_pairwise_runs_each_lattice_once(self, monkeypatch):
        counts = {"invariant": 0, "soluble": 0}
        store, check = catalog._store_dim3_invariant, catalog._require_dim3_soluble

        def counted_store(L, *args):
            counts["invariant"] += 1
            return store(L, *args)

        def counted_check(L):
            counts["soluble"] += 1
            return check(L)

        monkeypatch.setattr(catalog, "_store_dim3_invariant", counted_store)
        monkeypatch.setattr(catalog, "_require_dim3_soluble", counted_check)
        monkeypatch.setattr(Lattice, "is_soluble", None)  # the saturated derived series is not run
        lattices = [lat for _, lat in _grid_versions(5, random.Random(7))[:40]]
        for i, a in enumerate(lattices):
            for b in lattices[i + 1:]:
                iso_test_3dim(a, b)
        assert counts == {"invariant": len(lattices), "soluble": len(lattices)}
        for lat in lattices:
            iso_test_3dim(lat, lat)
            dim3_invariant(lat)
        assert counts == {"invariant": len(lattices), "soluble": len(lattices)}

    def test_errors_repeat_and_leave_the_slot_empty(self):
        ctx6 = PadicContext(5, 6)
        good, _ = make_thm73(ctx6, "G1", {"s": 1})
        flat, _ = make_2dim(ctx6, 1)
        insoluble = make_insoluble(ctx6, "sl2tri")
        ctx3 = PadicContext(5, 3)
        coarse, _ = make_thm73(ctx3, "G1", {"s": 1})  # not determined at N = 3
        coarse_partner, _ = make_thm73(ctx3, "G0", {"s": 0})
        assert dim3_invariant(coarse_partner) == ("heisenberg", 0)
        for lat, partner, error in (
            (flat, good, NotDim3),
            (insoluble, good, NotSoluble),
            (coarse, coarse_partner, PrecisionExhausted),
        ):
            for _ in range(2):
                with pytest.raises(error):
                    dim3_invariant(lat)
                with pytest.raises(error):
                    iso_test_3dim(lat, partner)
                with pytest.raises(error):
                    iso_test_3dim(partner, lat)
                assert lat.dim3_invariant is None

    def test_both_lattices_checked_before_either_invariant(self, monkeypatch):
        ctx = PadicContext(5, 6)
        good, _ = make_thm73(ctx, "G1", {"s": 1})
        monkeypatch.setattr(catalog, "_store_dim3_invariant", None)  # must not be reached
        with pytest.raises(NotSoluble):
            iso_test_3dim(good, make_insoluble(ctx, "sl2tri"))
        assert good.dim3_invariant is None

    def test_basis_change_copy_starts_empty(self):
        ctx = PadicContext(5, 12)
        lat, _ = make_thm73(ctx, "G3", {"s": 1, "r": 0, "d": 1})
        inv = dim3_invariant(lat)
        assert lat.dim3_invariant == inv
        copy = lat.change_basis(PMatrix(ctx, [[1, 1, 0], [0, 1, 0], [2, 0, 1]]))
        assert copy.dim3_invariant is None
        assert iso_test_3dim(lat, copy).isomorphic
        assert descriptors_equal(copy.dim3_invariant[1], inv[1], 5)


def _random_split_pair(ctx, rng):
    """A split pair whose four fiber entries are units times p^v, v uniform in 0..N-1."""
    p, N = ctx.p, ctx.precision
    entries = [(rng.randrange(1, p) + p * rng.randrange(p ** (N - 1))) * p ** rng.randrange(N) for _ in range(4)]
    return split_lattice(ctx, [entries[:2], entries[2:]])


def _reference_pool():
    """Seeded lattices for the reference route, at p in {3, 5, 7, 11} and N in {3, 4, 6, 9, 12}.

    The grid members with s in {0, 1, 2}, r in {0, 1} and d in {0, rho} (d = 0 gives the
    derived lines, rho a non-square unit), the insoluble fixtures (p >= 5) and four random
    split pairs whose entries have valuation 0 to N - 1, each under two random unimodular
    basis changes; as built, the split pair of diag(p^(N-1), 1), whose derived span has a
    central first row and a second row that is not; and one 4-dimensional lattice.  The
    default grid ranges would triple the time.
    """
    rng = random.Random(4900)
    pool = []
    for p in (3, 5, 7, 11):
        for N in (3, 4, 6, 9, 12):
            ctx = PadicContext(p, N)
            grid_members = thm73_grid(ctx, (0, 1, 2), (0, 1), (0, ctx.rho))
            members = [split_lattice(ctx, thm73_fiber_matrix(ctx, fam, params).entries) for _, fam, params in grid_members]
            if p >= 5:
                members += [make_insoluble(ctx, "sl2tri"), make_insoluble(ctx, "sl1delta")]
            members += [_random_split_pair(ctx, rng) for _ in range(4)]
            pool += [L.change_basis(random_unimodular(ctx, 3, rng)) for L in members for _ in range(2)]
            pool += [split_lattice(ctx, [[p ** (N - 1), 0], [0, 1]]), abelian(ctx, 4)]
    return pool


def _outcome(route, L):
    try:
        return route(L)
    except PadicLieError as exc:
        return type(exc), str(exc)


class TestReferenceRoute:
    def test_invariant_matches_reference_route(self):
        pool = _reference_pool()
        got = [_outcome(dim3_invariant, L) for L in pool]
        assert got == [_outcome(uncached_invariant, L) for L in pool]
        kinds = {out[0] for out in got}
        assert {"abelian", "heisenberg", "action", NotDim3, NotSoluble, PrecisionExhausted} <= kinds

    def test_solubility_is_the_rank_of_the_derived_span(self):
        for L in _reference_pool():
            if L.dim == 3:
                full = L.full_span()
                assert L.is_soluble() == (L.bracket_span(full, full).structural_rank() < 3)


def test_manifest_names_unique():
    names = [e.name for e in CATALOG_MANIFEST]
    assert len(names) == len(set(names))
    kinds = {e.kind for e in CATALOG_MANIFEST}
    assert kinds <= {"lattice", "group", "pair"}
