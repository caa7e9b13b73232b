import math
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from padiclie import PadicContext, PMatrix, Span, linalg, mat_exp, mat_log, mat_pow_padic
from padiclie.claims import random_invertible
from padiclie.errors import (
    ClosureBudgetExceeded,
    ConvergenceViolated,
    NotAUnit,
    NotContained,
    NotProP,
)
from padiclie.linalg import (
    _nilpotency_degree_mod_p,
    _series_bound,
    binomials,
    fixpoint,
    left_kernel,
    powers_to_zero,
    solve_over_rows,
)


def ctx5(n=4):
    return PadicContext(5, n)


def random_matrix(ctx, n, rng):
    return PMatrix(ctx, [[rng.randrange(ctx.modulus) for _ in range(n)] for _ in range(n)])


def random_square_zero(ctx, rng):
    """A with A^2 = 0 mod p: a conjugated scaled nilpotent plus p * noise."""
    while True:
        P = random_invertible(ctx, 2, rng)
        A0 = PMatrix(ctx, [[0, 0], [rng.randrange(1, ctx.p), 0]])
        A = (P.inverse() @ A0 @ P) + ctx.p * random_matrix(ctx, 2, rng)
        sq = A @ A
        if all(e % ctx.p == 0 for row in sq.entries for e in row):
            return A


def gauss_jordan_inverse(A):
    """A^-1 by Gauss-Jordan elimination on unit pivots, a route apart from `_eliminate`."""
    ctx, n = A.ctx, A.rows
    mod, p = ctx.modulus, ctx.p
    work = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(A.entries)]
    for j in range(n):
        piv = next((i for i in range(j, n) if work[i][j] % p != 0), None)
        if piv is None:
            raise NotAUnit("matrix is not invertible at this precision")
        work[j], work[piv] = work[piv], work[j]
        inv = pow(work[j][j], -1, mod)
        work[j] = [(inv * e) % mod for e in work[j]]
        for i in range(n):
            if i != j and work[i][j]:
                c = work[i][j]
                work[i] = [(e - c * f) % mod for e, f in zip(work[i], work[j])]
    return PMatrix(ctx, [row[n:] for row in work])


def degree_by_plain_powers(A):
    """Least k <= n with A^k = 0 mod p, or None, by products of residues mod p."""
    p, n = A.ctx.p, A.rows
    B = [[e % p for e in row] for row in A.entries]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        power = [[sum(power[i][t] * B[t][j] for t in range(n)) % p for j in range(n)] for i in range(n)]
        if not any(map(any, power)):
            return k
    return None


class TestSpan:
    def test_canonical_examples(self):
        ctx = PadicContext(5, 3)
        s = Span(ctx, 2, [(5, 0), (0, 1)])
        assert s.pivots == ((0, 1), (1, 0))
        assert Span(ctx, 2, [(1, 1), (1, 1)]).rows == ((1, 1),)
        assert Span(ctx, 2, [(0, 0)]).rows == ()

    def test_canonicalize_idempotent_extensive(self):
        ctx = ctx5()
        rng = random.Random(4)
        for _ in range(100):
            gens = [
                tuple(rng.randrange(ctx.modulus) for _ in range(3))
                for _ in range(rng.randrange(1, 4))
            ]
            s = Span(ctx, 3, gens)
            assert Span(ctx, 3, s.rows) == s
            for g in gens:
                assert s.member(g)

    def test_canonicalize_monotone(self):
        ctx = ctx5()
        rng = random.Random(16)
        for _ in range(50):
            gens = [tuple(rng.randrange(ctx.modulus) for _ in range(3)) for _ in range(2)]
            small = Span(ctx, 3, gens[:1])
            big = Span(ctx, 3, gens)
            assert big.contains(small)

    def test_member_examples(self):
        ctx = ctx5()
        assert Span(ctx, 2, [(1, 0)]).member((5, 0))
        assert not Span(ctx, 2, [(5, 0)]).member((1, 0))
        assert Span(ctx, 2, [(3, 2)]).member((0, 0))

    def test_span_ops_examples(self):
        ctx = ctx5()
        full = Span.full(ctx, 2)
        assert full.index_exp(full.scale(5)) == 2
        image = full.image(PMatrix(ctx, [[0, 0], [1, 0]]))
        assert image.rank() == 1 and image.member((1, 0))
        assert Span(ctx, 2, [(1, 0)]).intersect(Span(ctx, 2, [(0, 1)])).is_zero()

    def test_index_errors_and_multiplicativity(self):
        ctx = ctx5()
        rng = random.Random(5)
        with pytest.raises(NotContained):
            Span(ctx, 2, [(5, 0)]).index_exp(Span(ctx, 2, [(1, 0)]))
        for _ in range(50):
            s = Span(ctx, 3, [tuple(rng.randrange(ctx.modulus) for _ in range(3)) for _ in range(3)])
            t = s.scale(5)
            u = t.scale(5)
            assert s.index_exp(u) == s.index_exp(t) + t.index_exp(u)

    def test_image_composition(self):
        ctx = ctx5()
        rng = random.Random(6)
        for _ in range(50):
            s = Span(ctx, 3, [tuple(rng.randrange(ctx.modulus) for _ in range(3)) for _ in range(2)])
            a = random_matrix(ctx, 3, rng)
            b = random_matrix(ctx, 3, rng)
            assert s.image(a @ b) == s.image(a).image(b)

    def test_saturate_examples(self):
        ctx = ctx5()
        assert Span(ctx, 2, [(5, 0), (0, 1)]).saturate() == Span.full(ctx, 2)
        full = Span.full(ctx, 2)
        assert full.saturate() == full

    def test_saturate_properties(self):
        ctx = ctx5()
        rng = random.Random(7)
        for _ in range(100):
            s = Span(ctx, 3, [tuple(rng.randrange(ctx.modulus) for _ in range(3)) for _ in range(2)])
            sat = s.saturate()
            assert sat.saturate() == sat
            assert sat.contains(s)
            assert sat.index_exp(s) >= 0

    def test_kernel_correct_and_complete(self):
        ctx = ctx5()
        rng = random.Random(8)
        for _ in range(150):
            n, d = rng.randrange(1, 4), rng.randrange(1, 4)
            rows = [[rng.randrange(ctx.modulus) for _ in range(d)] for _ in range(n)]
            ker = left_kernel(rows, ctx, d)
            for kv in ker:
                out = [0] * d
                for i in range(n):
                    for j in range(d):
                        out[j] = (out[j] + kv[i] * rows[i][j]) % ctx.modulus
                assert not any(out)
            assert Span(ctx, n, ker).size_exp() + Span(ctx, d, rows).size_exp() == n * ctx.precision

    def test_solve_over_rows(self):
        ctx = ctx5()
        rng = random.Random(9)
        for _ in range(50):
            rows = [tuple(rng.randrange(ctx.modulus) for _ in range(3)) for _ in range(2)]
            c = [rng.randrange(ctx.modulus) for _ in range(2)]
            target = [
                sum(c[i] * rows[i][j] for i in range(2)) % ctx.modulus for j in range(3)
            ]
            got = solve_over_rows(rows, target, ctx, 3)
            assert got is not None
            back = [
                sum(got[i] * rows[i][j] for i in range(2)) % ctx.modulus for j in range(3)
            ]
            assert back == target

    def test_structural_profile(self):
        ctx = PadicContext(5, 6)
        # a single generator whose leading entry is imprimitive: the Howell
        # form shows two pivots, the structural profile one divisor
        s = Span(ctx, 2, [(5, 1)])
        assert len(s.pivots) == 2
        assert [e for e, _ in s.structural_profile()] == [0]
        assert s.structural_rank() == 1
        plane = Span(ctx, 3, [(5, 1, 0), (0, 0, 1)])
        assert sorted(e for e, _ in plane.structural_profile()) == [0, 0]
        assert plane.saturate() == Span(ctx, 3, [(5, 1, 0), (0, 0, 1)])

    def test_serialization_round_trip(self):
        ctx = ctx5()
        s = Span(ctx, 3, [(5, 1, 0), (0, 25, 3)])
        assert Span.from_json(ctx, s.to_json()) == s

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_trusted_full_and_zero_match_elimination(self, p, n):
        # full and zero skip elimination; eliminating the identity and the
        # empty generator list must give the same canonical spans
        ctx = PadicContext(p, n)
        for d in range(7):
            identity = [[int(i == j) for j in range(d)] for i in range(d)]
            for trusted, eliminated in (
                (Span.full(ctx, d), Span(ctx, d, identity)),
                (Span.zero(ctx, d), Span(ctx, d)),
            ):
                assert trusted == eliminated
                assert hash(trusted) == hash(eliminated)
                assert (trusted.dim, trusted.rows, trusted.pivots) == (
                    eliminated.dim,
                    eliminated.rows,
                    eliminated.pivots,
                )
                assert trusted.size_exp() == eliminated.size_exp()


    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_reduce_is_constant_on_cosets(self, p, n):
        ctx = PadicContext(p, n)
        mod = ctx.modulus
        rng = random.Random(p * 100 + n)
        for _ in range(40):
            d = rng.randrange(1, 5)
            # generators scaled by random powers of p, so pivots of positive valuation appear
            gens = [
                [p ** rng.randrange(n + 1) * rng.randrange(mod) % mod for _ in range(d)]
                for _ in range(rng.randrange(d + 2))
            ]
            s = Span(ctx, d, gens)
            for _ in range(5):
                v = tuple(rng.randrange(mod) for _ in range(d))
                r = s.reduce(v)
                assert s.member(tuple((a - b) % mod for a, b in zip(v, r)))
                assert s.reduce(r) == r
                assert all(r[col] < p**e for col, e in s.pivots)
                coeffs = [rng.randrange(mod) for _ in gens]
                member = [sum(c * g[k] for c, g in zip(coeffs, gens)) % mod for k in range(d)]
                assert s.reduce(tuple((a + b) % mod for a, b in zip(v, member))) == r

    @staticmethod
    def random_gens(ctx, d, rng, count):
        p, n, mod = ctx.p, ctx.precision, ctx.modulus
        return [[p ** rng.randrange(n + 1) * rng.randrange(mod) % mod for _ in range(d)] for _ in range(count)]

    @staticmethod
    def combinations(ctx, rows, rng, count):
        """Random Z/p^N-combinations of the rows: members of their span, not in canonical form."""
        mod = ctx.modulus
        out = []
        if not rows:
            return out
        for _ in range(count):
            coeffs = [rng.randrange(mod) for _ in rows]
            out.append([sum(c * r[k] for c, r in zip(coeffs, rows)) % mod for k in range(len(rows[0]))])
        return out

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_sum_and_add_rows_match_elimination(self, p, n):
        ctx = PadicContext(p, n)
        mod = ctx.modulus
        rng = random.Random(p * 1000 + n)
        shortcuts = []
        for trial in range(90):
            d = rng.randrange(1, 6)
            big = Span(ctx, d, self.random_gens(ctx, d, rng, rng.randrange(d + 2)))
            small = Span(ctx, d, self.combinations(ctx, big.rows, rng, rng.randrange(3)))
            case = trial % 3
            if case == 0:  # b inside a
                a, b = big, small
            elif case == 1:  # a inside b
                a, b = small, big
            else:  # neither, as a rule
                a, b = big, Span(ctx, d, self.random_gens(ctx, d, rng, rng.randrange(1, d + 2)))
            # the same span as b, given by vectors that are not its canonical rows
            unit = rng.choice([u for u in range(1, 4 * p) if u % p])
            raw = [[unit * e % mod for e in r] for r in b.rows] + self.combinations(ctx, b.rows, rng, 2)
            rng.shuffle(raw)
            expected = Span(ctx, d, list(a.rows) + list(b.rows))
            for got in (a.sum(b), a.add_rows(b.rows), a.add_rows(raw)):
                assert (got.rows, got.pivots) == (expected.rows, expected.pivots), (a, b)
            if a.contains(b):
                assert a.sum(b) is a and a.add_rows(raw) is a
            shortcuts.append(a.contains(b))
        assert all(shortcuts[::3]) and not all(shortcuts)  # b inside a, and sums that eliminate

    def test_sum_of_a_contained_span_runs_no_elimination(self, monkeypatch):
        calls = []
        eliminate = linalg._eliminate
        monkeypatch.setattr(linalg, "_eliminate", lambda *a: calls.append(a) or eliminate(*a))
        ctx = PadicContext(5, 4)
        a = Span(ctx, 3, [(1, 2, 3), (0, 5, 10)])
        inside = Span(ctx, 3, [(2, 4, 6)])
        outside = Span(ctx, 3, [(0, 0, 1)])
        calls.clear()
        assert a.sum(inside) is a and a.add_rows([(3, 11, 19), (0, 0, 0)]) is a and a.add_rows([]) is a
        assert calls == []
        assert a.sum(outside) == Span(ctx, 3, [(1, 2, 3), (0, 5, 10), (0, 0, 1)])
        assert len(calls) == 2  # the sum and the reference


class TestMatrixFunctions:
    def test_exp_examples(self):
        ctx = PadicContext(5, 6)
        assert mat_exp(PMatrix.zero(ctx, 2)) == PMatrix.identity(ctx, 2)
        E = PMatrix(ctx, [[0, 0], [3, 0]])
        assert mat_exp(E) == PMatrix.identity(ctx, 2) + E

    def test_exp_log_round_trip(self):
        ctx = PadicContext(5, 6)
        rng = random.Random(10)
        for _ in range(25):
            A = random_square_zero(ctx, rng)
            M = mat_exp(A)
            assert mat_log(M) == A
            assert mat_exp(mat_log(M)) == M
            assert mat_exp(A) @ mat_exp(-A) == PMatrix.identity(ctx, 2)

    def test_log_examples(self):
        ctx = PadicContext(5, 6)
        I = PMatrix.identity(ctx, 2)
        assert mat_log(I) == PMatrix.zero(ctx, 2)
        E = PMatrix(ctx, [[0, 0], [7, 0]])
        assert mat_log(I + E) == E

    @pytest.mark.parametrize("p", [5, 7])
    def test_series_values_where_the_series_ends(self, p):
        # strictly upper-triangular n x n with n <= p - 2: A^n = 0 and every
        # denominator is prime to p, so both sums are finite and exact over Q
        ctx = PadicContext(p, 4)
        rng = random.Random(p)

        def exact(A, coefficients):
            n = len(A)
            power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            total = [[Fraction(0)] * n for _ in range(n)]
            for c in coefficients:
                total = [[t + c * a for t, a in zip(tr, pr)] for tr, pr in zip(total, power)]
                power = [[sum(power[i][t] * A[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
            return PMatrix(ctx, [[ctx.reduce_fraction(x) for x in row] for row in total])

        for n in range(1, p - 1):
            exp_coeffs = [Fraction(1, math.factorial(k)) for k in range(n)]
            log_coeffs = [Fraction(0)] + [Fraction((-1) ** (k - 1), k) for k in range(1, n)]
            for _ in range(4):
                A = [[rng.randrange(ctx.modulus) if j > i else 0 for j in range(n)] for i in range(n)]
                M = PMatrix(ctx, A)
                assert mat_exp(M) == exact(A, exp_coeffs)
                assert mat_log(PMatrix.identity(ctx, n) + M) == exact(A, log_coeffs)

    def test_convergence_guard(self):
        ctx = PadicContext(5, 4)
        with pytest.raises(ConvergenceViolated):
            mat_exp(PMatrix(ctx, [[1, 0], [0, 1]]))
        with pytest.raises(ConvergenceViolated):
            mat_log(PMatrix(ctx, [[2, 0], [0, 2]]))
        ctx3 = PadicContext(3, 4)
        with pytest.raises(ConvergenceViolated):
            mat_exp(PMatrix.zero(ctx3, 2))

    def test_pow_padic(self):
        ctx = PadicContext(5, 4)
        rng = random.Random(11)
        M = mat_exp(random_square_zero(PadicContext(5, 4), rng))
        assert mat_pow_padic(M, 1) == M
        assert mat_pow_padic(M, 0) == PMatrix.identity(ctx, 2)
        for _ in range(30):
            a = rng.randrange(ctx.modulus)
            b = rng.randrange(ctx.modulus)
            assert mat_pow_padic(M, a + b) == mat_pow_padic(M, a) @ mat_pow_padic(M, b)
        with pytest.raises(NotProP):
            mat_pow_padic(PMatrix(ctx, [[2, 0], [0, 1]]), 3)

    def test_inverse(self):
        ctx = PadicContext(5, 5)
        rng = random.Random(12)
        for n in (2, 3):
            for _ in range(20):
                P = random_invertible(ctx, n, rng)
                assert P @ P.inverse() == PMatrix.identity(ctx, n)
        # against Gauss-Jordan; every other matrix has a first row that is a combination
        # of the others mod p, so half have a non-unit determinant and both routes raise
        for p, N in product((2, 3, 5, 7), (1, 2, 3, 6)):
            ctx = PadicContext(p, N)
            for k in range(40):
                n = rng.randint(1, 6)
                A = random_invertible(ctx, n, rng)
                if k % 2 == 0:
                    assert A.inverse() == gauss_jordan_inverse(A)
                    continue
                rows = A.entries
                coeffs = [rng.randrange(p) for _ in rows[1:]]
                rows[0] = [
                    p * rng.randrange(ctx.modulus) + sum(c * r[j] for c, r in zip(coeffs, rows[1:]))
                    for j in range(n)
                ]
                A = PMatrix(ctx, rows)
                with pytest.raises(NotAUnit):
                    gauss_jordan_inverse(A)
                with pytest.raises(NotAUnit, match="not invertible at this precision"):
                    A.inverse()

    def test_matrix_serialization(self):
        ctx = PadicContext(5, 3)
        A = PMatrix(ctx, [[1, 2], [3, 4]])
        assert PMatrix.from_json(ctx, A.to_json()) == A


class TestBinomialSums:
    def test_binomials_match_comb(self):
        for n in (0, 1, 2, 7, 25):
            assert list(binomials(n)) == [math.comb(n, j) for j in range(n + 1)]
        big = 5**12 + 3
        assert list(islice(binomials(big), 30)) == [math.comb(big, j) for j in range(30)]

    def test_powers_to_zero_rejects_non_nilpotent(self):
        ctx = ctx5()
        assert powers_to_zero(PMatrix(ctx, [[0, 1], [1, 0]]), 2 * ctx.precision) is None
        assert powers_to_zero(PMatrix.zero(ctx, 2), 8) == [PMatrix.identity(ctx, 2)]

    def test_nilpotency_degree_mod_p_against_plain_powers(self):
        rng = random.Random(23)
        degrees = set()
        for p, N in product((2, 3, 5, 7), (1, 2, 3, 6)):
            ctx = PadicContext(p, N)
            for k in range(30):
                n = rng.randint(1, 6)
                # even k: conjugated strictly upper triangular plus p * noise, nilpotent mod p
                rows = [
                    [rng.randrange(ctx.modulus) * (1 if j > i or k % 2 else p) for j in range(n)]
                    for i in range(n)
                ]
                P = random_invertible(ctx, n, rng)
                A = P.inverse() @ PMatrix(ctx, rows) @ P
                expected = degree_by_plain_powers(A)
                assert _nilpotency_degree_mod_p(A) == expected
                degrees.add(expected)
        assert None in degrees and {1, 2, 3} <= degrees

    def test_apply_row(self):
        ctx = ctx5()
        rng = random.Random(22)
        A = PMatrix(ctx, [[rng.randrange(ctx.modulus) for _ in range(3)] for _ in range(2)])
        v = (rng.randrange(ctx.modulus), rng.randrange(ctx.modulus))
        mod = ctx.modulus
        expected = [(v[0] * A.entries[0][j] + v[1] * A.entries[1][j]) % mod for j in range(3)]
        assert A.apply_row(v) == tuple(expected)
        for bad in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError):
                A.apply_row(bad)


class TestFixpoint:
    def test_returns_the_iterates(self):
        assert fixpoint(lambda x: min(x + 1, 3), 0, 10) == [0, 1, 2, 3]
        assert fixpoint(lambda x: x, "a", 1) == ["a"]

    def test_budget_counts_every_step(self):
        # three growing steps and the step that confirms the fixed point
        assert fixpoint(lambda x: min(x + 1, 3), 0, 4) == [0, 1, 2, 3]
        with pytest.raises(ClosureBudgetExceeded):
            fixpoint(lambda x: min(x + 1, 3), 0, 3)

    def test_never_stable_raises(self):
        with pytest.raises(ClosureBudgetExceeded):
            fixpoint(lambda x: x + 1, 0, 20)


def _vp(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestSeriesBound:
    def test_least_bound_for_exp_and_log_denominators(self):
        for p in (5, 7, 11, 13):
            top = 26 * (p - 2) * (p - 1)  # the largest scan limit on the grid
            v_n = [0] + [_vp(n, p) for n in range(1, top + 1)]
            v_fact = [0] * (top + 1)
            for n in range(1, top + 1):
                v_fact[n] = v_fact[n - 1] + v_n[n]
            for N in range(1, 25):
                for k in range(1, p - 1):
                    limit = (N + 2) * k * (p - 1)
                    for val in (v_fact, v_n):
                        n0 = _series_bound(p, N, k, val.__getitem__)
                        assert all(n // k - val[n] >= N for n in range(n0, limit + 1))
                        assert n0 == 1 or (n0 - 1) // k - val[n0 - 1] < N
