import random

import pytest

from padiclie import Lattice, PadicContext, Span, lattice
from padiclie.bch import free_nilpotent_lattice
from padiclie.catalog import make_2dim, make_example_dim_p, make_insoluble, make_levi_example
from padiclie.claims import random_invertible
from padiclie.errors import (
    AntisymmetryViolated,
    ClosureBudgetExceeded,
    JacobiViolated,
    NotASublattice,
    PrecisionExhausted,
)
from padiclie.linalg import fixpoint

from oracles import abelian, direct_sum, filiform, grid, heisenberg, lower_p_series_by_brackets
from oracles import random_split_lattice, random_unimodular


def verdict_pool(p):
    """Lattices for the checks against the bracket route: seeded random split lattices of
    dimension up to p + 2 (two whose lower central series stops at a nonzero term), free
    nilpotent lattices of class < p, filiform lattices of class p - 1 and p + 1, and a
    basis-changed copy of every other one."""
    rng = random.Random(3600 + p)
    pool = []
    for N in (2, 4, 6):
        ctx = PadicContext(p, N)
        pool += [random_split_lattice(ctx, n, rng) for n in range(1, p + 2)]
        pool += [random_split_lattice(ctx, n, rng, unit=True) for n in (2, p)]
        pool += [free_nilpotent_lattice(ctx, c) for c in range(1, min(p, 4))]
        pool += [filiform(ctx, p), filiform(ctx, p + 2)]
    return pool + [L.change_basis(random_unimodular(L.ctx, L.dim, rng)) for L in pool[::2]]


class TestValidation:
    def test_abelian_and_heisenberg_valid(self):
        ctx = PadicContext(5, 4)
        abelian(ctx, 3)
        heisenberg(ctx)

    def test_jacobi_violation(self):
        # [x,y] = z, [x,z] = x, [y,z] = 0 breaks Jacobi on (x, y, z)
        ctx = PadicContext(5, 4)
        d = 3
        constants = [[[0] * d for _ in range(d)] for _ in range(d)]
        constants[0][1] = [0, 0, 1]
        constants[1][0] = [0, 0, -1]
        constants[0][2] = [1, 0, 0]
        constants[2][0] = [-1, 0, 0]
        with pytest.raises(JacobiViolated):
            Lattice(ctx, constants)

    def test_antisymmetry_violation(self):
        ctx = PadicContext(5, 4)
        d = 2
        constants = [[[0] * d for _ in range(d)] for _ in range(d)]
        constants[0][1] = [0, 1]
        constants[1][0] = [0, 1]
        with pytest.raises(AntisymmetryViolated):
            Lattice(ctx, constants)

    def test_shape_check_sees_zero_vectors(self):
        # zero vectors are stored as one shared tuple; one of the wrong length must not become it
        ctx = PadicContext(5, 4)
        for bad in ([0], [0, 0, 0], [5**4, 0, 0]):
            constants = [[[0, 0] for _ in range(2)] for _ in range(2)]
            constants[1][0] = bad
            for validate in (True, False):
                with pytest.raises(ValueError, match="not d x d x d"):
                    Lattice(ctx, constants, validate=validate)
        L = heisenberg(ctx)
        zeros = {id(c) for row in L.constants for c in row if not any(c)}
        assert len(zeros) == 1


class TestBracket:
    def test_alternating(self):
        ctx = PadicContext(5, 4)
        L = heisenberg(ctx)
        rng = random.Random(0)
        for _ in range(50):
            u = tuple(rng.randrange(ctx.modulus) for _ in range(3))
            assert not any(L.bracket(u, u))

    def test_heisenberg_bracket(self):
        ctx = PadicContext(5, 4)
        L = heisenberg(ctx)
        assert L.bracket(L.basis_vector(0), L.basis_vector(1)) == (0, 0, 1)

    def test_dim_p_wraparound_bracket(self):
        ctx = PadicContext(5, 4)
        _, L = make_example_dim_p(ctx)
        y_last = L.basis_vector(L.dim - 1)
        x = L.basis_vector(0)
        expected = tuple(5 if i == 1 else 0 for i in range(L.dim))
        assert L.bracket(y_last, x) == expected

    def test_bracket_span_examples(self):
        ctx = PadicContext(5, 4)
        L = heisenberg(ctx)
        full = L.full_span()
        assert L.bracket_span(full, Span.zero(ctx, 3)).is_zero()
        derived = L.bracket_span(full, full)
        assert derived == Span(ctx, 3, [(0, 0, 1)])
        twod, _ = make_2dim(ctx, 2)
        derived2 = twod.bracket_span(twod.full_span(), twod.full_span())
        assert derived2 == Span(ctx, 2, [(0, 25)])


class TestSeries:
    def test_lower_central(self):
        ctx = PadicContext(5, 4)
        assert abelian(ctx, 2).lower_central()[-1].is_zero()
        gammas = heisenberg(ctx).lower_central()
        assert gammas[1] == Span(ctx, 3, [(0, 0, 1)])
        assert gammas[2].is_zero()

    def test_lower_p_series(self):
        ctx = PadicContext(5, 4)
        A = abelian(ctx, 2)
        terms = A.lower_p_series().terms
        for i, t in enumerate(terms):
            assert t == A.full_span().scale(5**i)
        twod, _ = make_2dim(ctx, 1)
        assert twod.lower_p_series()[1] == twod.full_span().scale(5)
        H = heisenberg(ctx)
        assert H.lower_p_series()[1] == H.full_span().scale(5).sum(Span(ctx, 3, [(0, 0, 1)]))

    def test_derived_series_and_solubility(self):
        ctx = PadicContext(5, 6)
        assert abelian(ctx, 2).derived_series()[-1].is_zero()
        H = heisenberg(ctx)
        ds = H.derived_series()
        assert ds[1] == Span(ctx, 3, [(0, 0, 1)]) and ds[2].is_zero()
        assert H.is_soluble()
        assert not make_insoluble(ctx, "sl2tri").is_soluble()

    def test_nilpotency_class(self):
        ctx = PadicContext(5, 4)
        assert abelian(ctx, 3).nilpotency_class() == 1
        assert heisenberg(ctx).nilpotency_class() == 2


class TestPotency:
    def test_abelian_passes(self):
        ctx = PadicContext(5, 4)
        A = abelian(ctx, 2)
        assert A.verify_potent_filtration(A.lower_p_series()).passed

    def test_heisenberg_passes(self):
        ctx = PadicContext(5, 4)
        H = heisenberg(ctx)
        assert H.verify_potent_filtration(H.lower_p_series()).passed

    @staticmethod
    def reference_report(L, filtration):
        """The certificate with each [N_i,_{p-1} L] bracketed from N_i itself."""
        p = L.ctx.p
        terms = filtration.terms
        steps = [
            lattice.PotencyStep(
                i + 1,
                b.contains(L.bracket_span(a, L.full_span())),
                b.scale(p).contains(L.iterated_bracket_span(a, p - 1)),
            )
            for i, (a, b) in enumerate(zip(terms, terms[1:]))
        ]
        return lattice.PotencyReport(steps, terms[-1].is_zero())

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_shared_brackets_match_fresh_brackets(self, p, monkeypatch):
        pool = verdict_pool(p)
        for N in (4, 8) if p > 3 else ():
            ctx = PadicContext(p, N)
            pool += [m.lattice for m in grid(ctx)]
            pool += [make_insoluble(ctx, which) for which in ("sl2tri", "sl1delta")]
            pool.append(make_example_dim_p(ctx)[1])
            pool += [make_levi_example(ctx, k) for k in (2, 3) if N >= 2 * k + 2]
        assert any(len(L.lower_central()) > p for L in pool)
        assert any(L.nilpotency_class() is None for L in pool)
        # (lattice, filtration, whether it is the lattice's own lower p-series as built)
        cases = [(L, L.lower_p_series(), True) for L in pool]
        cases += [(L, lattice.Filtration(L.lower_central()), False) for L in pool]
        if p == 5:
            cases += [(m.lattice, m.lattice.lower_p_series(), True) for m in grid(PadicContext(5, 6))]
        # a lower p-series altered after it is built: N_3 dropped, so [N_2, L] <= N_4 is asked
        for L in pool[::2]:
            altered = L.lower_p_series()
            if len(altered) > 3:
                del altered.terms[2]
                cases.append((L, altered, False))
        # the series of another lattice: the same one in another basis
        rng = random.Random(p)
        cases += [(L.change_basis(random_unimodular(L.ctx, L.dim, rng)), L.lower_p_series(), False) for L in pool[:8]]
        # filiform of class p = 3: the chain L > 0 fails both tests, and [L,_2 L] = <e4> is
        # nonzero while [L,_3 L] = 0
        crooked = filiform(PadicContext(3, 4), 4)
        cases.append((crooked, lattice.Filtration([crooked.full_span(), Span.zero(crooked.ctx, 4)]), False))

        bracketed = []
        bracket_span = Lattice.bracket_span
        monkeypatch.setattr(Lattice, "bracket_span", lambda L, S, T: bracketed.append(S) or bracket_span(L, S, T))
        failures = set()
        for L, filtration, own in cases:
            bracketed.clear()
            report = L.verify_potent_filtration(filtration)
            assert len(bracketed) == len(set(bracketed))  # each span with L once per call
            assert (not bracketed) == own  # only the own lower p-series skips the bracket route
            assert report == self.reference_report(L, filtration), L
            failures.add(report.first_failure())
        assert None in failures and 1 in failures and max(f or 0 for f in failures) >= 2
        step = crooked.verify_potent_filtration(cases[-1][1]).steps[0]
        assert not step.step_ok and not step.deep_ok

    @pytest.mark.parametrize("p", [5, 7])
    def test_saturable_sufficient_matches_double_bracket(self, p):
        def reference(L):
            """[L,_{p-1} L] <= p(pL + [L, L]), bracketing L with itself for each term."""
            full = L.full_span()
            phi = full.scale(p).sum(L.bracket_span(full, full))
            return phi.scale(p).contains(L.iterated_bracket_span(full, p - 1))

        saturable, others = [], []
        for N in (4, 8):
            ctx = PadicContext(p, N)
            # filiform of dimension p: gamma_p = 0, but gamma_(p-1) is not in p(pL + [L, L])
            saturable += [m.lattice for m in grid(ctx)] + [filiform(ctx, p)]
            others += [make_insoluble(ctx, which) for which in ("sl2tri", "sl1delta")]
            others.append(make_example_dim_p(ctx)[1])
        pool = verdict_pool(p)
        for L in saturable + others + pool:
            assert L.saturable_sufficient() == reference(L)
        assert all(L.saturable_sufficient() for L in saturable)
        assert not others[-1].saturable_sufficient()  # dimension p
        assert {L.saturable_sufficient() for L in pool} == {True, False}

    def test_lower_p_series_fails_at_step_one_or_not_at_all(self):
        # with [N_i, L] <= N_(i+1), gamma_p <= p N_2 gives gamma_(p+i-1) = [gamma_p,_(i-1) L]
        # <= p N_(i+1), so every later step passes, and the stable last term lies in p times itself
        passed = set()
        for p in (3, 5, 7):
            for L in verdict_pool(p):
                report = L.verify_potent_filtration(L.lower_p_series())
                assert report.first_failure() in (None, 1)
                passed.add(report.passed)
        assert passed == {True, False}

    def test_construction_invariant(self):
        # the lower p-series is the bracket route's term by term, each N_i kept with p N_i,
        # and its terms satisfy the first potency inclusion
        ctx = PadicContext(5, 4)
        pool = [heisenberg(ctx), make_2dim(ctx, 1)[0], make_example_dim_p(ctx)[1]]
        pool += [m.lattice for m in grid(ctx)]
        for p in (3, 5, 7):
            pool += verdict_pool(p)
        for L in pool:
            F = L.lower_p_series()
            assert F.terms == lower_p_series_by_brackets(L)
            assert [n for n, _ in F.scaled] == F.terms
            assert all(pn == n.scale(L.ctx.p) for n, pn in F.scaled)
            for a, b in zip(F.terms, F.terms[1:]):
                assert b.contains(L.bracket_span(a, L.full_span()))


class TestSaturability:
    def test_abelian_true(self):
        ctx = PadicContext(5, 4)
        assert abelian(ctx, 3).saturable_sufficient()

    def test_insoluble_dim3_true(self):
        ctx = PadicContext(5, 6)
        for which in ("sl2tri", "sl1delta"):
            assert make_insoluble(ctx, which).saturable_sufficient()

    def test_sufficient_implies_potent(self):
        ctx = PadicContext(5, 6)
        pool = [abelian(ctx, 2), heisenberg(ctx), make_2dim(ctx, 1)[0], make_2dim(ctx, 2)[0]]
        for L in pool:
            if L.saturable_sufficient():
                assert L.verify_potent_filtration(L.lower_p_series()).passed


class TestCentralizer:
    def test_examples(self):
        ctx = PadicContext(5, 6)
        H = heisenberg(ctx)
        assert H.centralizer(Span.zero(ctx, 3)) == H.full_span()
        assert H.centralizer(Span(ctx, 3, [(0, 0, 1)])) == H.full_span()
        twod, _ = make_2dim(ctx, 2)
        derived = twod.bracket_span(twod.full_span(), twod.full_span())
        assert twod.centralizer(derived) == Span(ctx, 2, [(0, 1)])


class TestTwoDimInvariant:
    def test_values(self):
        ctx = PadicContext(5, 8)
        for s in (1, 2, 3):
            assert make_2dim(ctx, s)[0].two_dim_invariant() == s
        assert abelian(ctx, 2).two_dim_invariant() == "abelian"

    def test_zero_s_case(self):
        # [y,x] = y directly (not a catalog member: s = 0 is not residually nilpotent)
        ctx = PadicContext(5, 8)
        constants = [[[0, 0], [0, -1]], [[0, 1], [0, 0]]]
        assert Lattice(ctx, constants).two_dim_invariant() == 0

    def test_basis_change_invariance(self):
        ctx = PadicContext(5, 8)
        rng = random.Random(13)
        L = make_2dim(ctx, 2)[0]
        for _ in range(25):
            P = random_invertible(ctx, 2, rng)
            assert L.change_basis(P).two_dim_invariant() == 2

    def test_precision_guard(self):
        ctx = PadicContext(5, 4)
        constants = [[[0, 0], [0, -(5**3)]], [[0, 5**3], [0, 0]]]
        with pytest.raises(PrecisionExhausted):
            Lattice(ctx, constants).two_dim_invariant()


class TestIsolator:
    def test_examples(self):
        ctx = PadicContext(5, 4)
        H = heisenberg(ctx)
        assert H.isolator(H.full_span().scale(5)) == H.full_span()
        assert H.isolator(Span(ctx, 3, [(5, 0, 0), (0, 1, 0)])) == H.full_span()

    def test_strict_rejects_non_sublattice(self):
        ctx = PadicContext(5, 4)
        H = heisenberg(ctx)
        with pytest.raises(NotASublattice):
            H.isolator(Span(ctx, 3, [(5, 0, 0), (0, 1, 0)]), strict=True)

    def test_laws_on_random_sublattices(self):
        ctx = PadicContext(5, 4)
        rng = random.Random(14)
        H = heisenberg(ctx)
        for _ in range(60):
            gens = [tuple(rng.randrange(ctx.modulus) for _ in range(3)) for _ in range(rng.randrange(1, 3))]
            S = H.sublattice_closure(Span(ctx, 3, gens))
            iso = H.isolator(S)
            assert iso.contains(S)
            assert H.isolator(iso) == iso
            assert iso.index_exp(S) >= 0
            assert len(iso.pivots) == len(S.pivots)

    def test_budget_overrun_raises(self, monkeypatch):
        ctx = PadicContext(5, 4)
        H = heisenberg(ctx)
        # a budget of one step: each loop below needs at least two
        monkeypatch.setattr(lattice, "fixpoint", lambda step, start, budget: fixpoint(step, start, 1))
        S = Span(ctx, 3, [(1, 0, 0), (0, 1, 0)])
        for run in (H.lower_central, lambda: H.sublattice_closure(S), lambda: H.isolator(S)):
            with pytest.raises(ClosureBudgetExceeded):
                run()


class TestRadical:
    def test_soluble_is_everything(self):
        ctx = PadicContext(5, 6)
        for L in (abelian(ctx, 3), heisenberg(ctx), make_2dim(ctx, 1)[0]):
            assert L.soluble_radical() == L.full_span()

    def test_insoluble_is_zero(self):
        ctx = PadicContext(5, 6)
        assert make_insoluble(ctx, "sl2tri").soluble_radical().is_zero()

    def test_direct_sum_block(self):
        ctx = PadicContext(5, 6)
        first, second = make_insoluble(ctx, "sl2tri"), make_2dim(ctx, 1)[0]
        mix = direct_sum(first, second)
        assert mix.soluble_radical() == Span(ctx, 5, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
        # the summands' constants on the diagonal blocks, and zero across them
        blocks = [[c + (0, 0) for c in row] + [(0,) * 5] * 2 for row in first.constants]
        blocks += [[(0,) * 5] * 3 + [(0, 0, 0) + c for c in row] for row in second.constants]
        assert [list(row) for row in mix.constants] == blocks


class TestBasisChange:
    def test_transport(self):
        ctx = PadicContext(5, 4)
        rng = random.Random(15)
        L = heisenberg(ctx)
        for _ in range(20):
            P = random_invertible(ctx, 3, rng)
            L2 = L.change_basis(P)
            Lattice(ctx, L2.constants, L2.labels)  # re-validates Jacobi
            u = tuple(rng.randrange(ctx.modulus) for _ in range(3))
            v = tuple(rng.randrange(ctx.modulus) for _ in range(3))
            lhs = L.bracket(P.apply_row(u), P.apply_row(v))
            rhs = P.apply_row(L2.bracket(u, v))
            assert lhs == rhs

    def test_against_coefficient_sums(self):
        # c'_ij = (sum_{k,l} P_ik P_jl c_kl) P^-1, summed coefficient by coefficient
        ctx = PadicContext(5, 6)
        rng = random.Random(16)
        mod = ctx.modulus
        for L in (make_insoluble(ctx, "sl1delta"), make_example_dim_p(ctx)[1]):
            d = L.dim
            for _ in range(3):
                P = random_invertible(ctx, d, rng)
                Pinv = P.inverse()
                new = L.change_basis(P)
                for i in range(d):
                    for j in range(d):
                        w = [0] * d
                        for k in range(d):
                            for l in range(d):
                                for m in range(d):
                                    w[m] += P.entries[i][k] * P.entries[j][l] * L.constants[k][l][m]
                        expected = Pinv.apply_row([e % mod for e in w])
                        assert new.constants[i][j] == expected


def test_serialization_round_trip():
    for p in (5, 7):
        ctx = PadicContext(p, 6)
        pool = [heisenberg(ctx), make_example_dim_p(ctx)[1], make_levi_example(ctx, 2)]
        pool += [m.lattice for m in grid(ctx)]
        pool += [make_2dim(ctx, s)[0] for s in (1, 2, 3)]
        pool += [make_insoluble(ctx, which) for which in ("sl2tri", "sl1delta")]
        pool += [free_nilpotent_lattice(ctx, c) for c in (1, 2, 3, 4)]
        for L in pool:
            back = Lattice.from_json(L.to_json())
            assert back.constants == L.constants
            assert back.labels == L.labels


@pytest.mark.parametrize(
    "bracket",
    [
        {"i": 0, "j": 3, "c": [0, 0, 1]},  # index past the dimension
        {"i": -1, "j": 0, "c": [0, 0, 1]},  # negative index, not read as the last basis vector
        {"i": 0, "j": 1, "c": [0, 1]},  # too few coefficients
        {"i": 0, "j": 1, "c": [0, 0, 1, 1]},  # too many coefficients, not truncated
        {"i": 1, "j": 1, "c": [0, 0, 1]},  # a basis vector with itself
    ],
)
def test_from_json_rejects_malformed_brackets(bracket):
    ctx = PadicContext(5, 4)
    data = heisenberg(ctx).to_json()
    data["brackets"] = [bracket]
    error = AntisymmetryViolated if bracket["i"] == bracket["j"] else ValueError
    with pytest.raises(error):
        Lattice.from_json(data)
    with pytest.raises(error):
        Lattice.from_brackets(ctx, 3, [(bracket["i"], bracket["j"], bracket["c"])])


@pytest.mark.parametrize(
    "brackets",
    [
        [(0, 1, (0, 0, 1)), (1, 0, (0, 0, 1))],  # the pair reversed: [b_0, b_1] = z and -z
        [(0, 1, (0, 0, 1)), (0, 1, (1, 0, 0))],  # the pair again with another value
        [(0, 2, (0, 1, 0)), (0, 1, (0, 0, 1)), (0, 1, (0, 0, 1))],  # an equal repeat
    ],
)
def test_from_brackets_rejects_repeated_pairs(brackets):
    ctx = PadicContext(5, 4)
    i, j, _ = brackets[-1]
    with pytest.raises(ValueError, match=rf"bracket \[{i}, {j}\] is given twice"):
        Lattice.from_brackets(ctx, 3, brackets)
    data = {"p": 5, "precision": 4, "dim": 3, "brackets": [{"i": i, "j": j, "c": c} for i, j, c in brackets]}
    with pytest.raises(ValueError, match="given twice"):
        Lattice.from_json(data)
