import random
from fractions import Fraction

import pytest

from padiclie import PadicContext, PMatrix, mat_exp, mat_log
from padiclie.bch import (
    bch_commutator,
    bch_mul,
    bch_neg,
    bch_pow,
    evaluate_words,
    free_nilpotent_lattice,
    hausdorff_table,
    lie_basis_words,
    lie_from_matrix_group,
)
from padiclie.catalog import make_example_dim_p
from padiclie.errors import ClassTooLarge
from padiclie.lattice import Lattice

from oracles import abelian, heisenberg, jacobi_hausdorff_terms, jacobi_reduce, jacobi_word_bracket


class TestTable:
    def test_weight_one(self):
        t = hausdorff_table(1)
        assert {w: c for c, w in t.terms} == {"X": 1, "Y": 1}

    def test_weight_two_invariant(self):
        t = hausdorff_table(2)
        assert t.coefficient("XY") == Fraction(1, 2)
        assert t.coefficient("X") == 1 and t.coefficient("Y") == 1

    def test_denominator_primes_bounded_by_weight(self):
        t = hausdorff_table(6)
        for c, w in t.terms:
            den = c.denominator
            f = 2
            while f * f <= den:
                while den % f == 0:
                    assert f <= len(w)
                    den //= f
                f += 1
            if den > 1:
                assert den <= len(w)

    @pytest.mark.parametrize("W", range(1, 7))
    def test_matches_jacobi_rewriter_route(self, W):
        # the same Dynkin sum, with each composition's bracket rewritten by the oracle
        assert hausdorff_table(W).terms == jacobi_hausdorff_terms(W)

    def test_basis_dimensions_are_witt_numbers(self):
        assert [len(lie_basis_words(m)) for m in range(1, 7)] == [2, 1, 2, 3, 6, 9]

    def test_export(self):
        data = hausdorff_table(3).to_json()
        assert data["weight"] == 3
        assert {"num": 1, "den": 12, "word": "XYY"} in data["terms"]


class TestFreeNilpotentEvaluation:
    def test_constants_match_both_orders_reduced(self):
        # oracle: every ordered pair of words bracketed by the Jacobi rewriter and
        # reduced on its own, with no antisymmetry used
        for p in (5, 7):
            ctx = PadicContext(p, 4)
            for nil_class in (1, 2, 3, 4):
                L = free_nilpotent_lattice(ctx, nil_class)
                words = [w for m in range(1, nil_class + 1) for w in lie_basis_words(m)]
                assert L.labels == tuple(words)
                d = len(words)
                expected = [[[0] * d for _ in range(d)] for _ in range(d)]
                for i, u in enumerate(words):
                    for j, v in enumerate(words):
                        if len(u) + len(v) <= nil_class:
                            for w, c in jacobi_reduce(dict(jacobi_word_bracket(u, v))).items():
                                expected[i][j][words.index(w)] = ctx.reduce_fraction(c)
                assert [[list(vec) for vec in row] for row in L.constants] == expected

    def test_identity_laws_weight_five(self):
        ctx = PadicContext(7, 4)
        L = free_nilpotent_lattice(ctx, 5)
        x = L.basis_vector(0)
        y = L.basis_vector(1)
        zero = (0,) * L.dim
        assert bch_mul(L, x, zero) == x
        assert bch_mul(L, zero, y) == y
        assert bch_mul(L, x, bch_neg(L, x)) == zero

    def test_symmetry(self):
        # the series satisfies F(X, Y) = -F(-Y, -X)
        ctx = PadicContext(7, 4)
        L = free_nilpotent_lattice(ctx, 4)
        rng = random.Random(20)
        for _ in range(20):
            u = tuple(rng.randrange(ctx.modulus) for _ in range(L.dim))
            v = tuple(rng.randrange(ctx.modulus) for _ in range(L.dim))
            lhs = bch_mul(L, u, v)
            rhs = bch_neg(L, bch_mul(L, bch_neg(L, v), bch_neg(L, u)))
            assert lhs == rhs

    def test_associativity_in_free_class_three(self):
        ctx = PadicContext(5, 4)
        L = free_nilpotent_lattice(ctx, 3)
        rng = random.Random(21)
        for _ in range(60):
            u, v, w = (
                tuple(rng.randrange(ctx.modulus) for _ in range(L.dim)) for _ in range(3)
            )
            assert bch_mul(L, u, bch_mul(L, v, w)) == bch_mul(L, bch_mul(L, u, v), w)


class TestLatticeGroupLaw:
    def test_abelian_is_addition(self):
        ctx = PadicContext(5, 4)
        L = abelian(ctx, 2)
        assert bch_mul(L, (3, 4), (10, 20)) == (13, 24)

    def test_heisenberg_product_example(self):
        ctx = PadicContext(5, 2)
        L = heisenberg(ctx)
        assert bch_mul(L, L.basis_vector(0), L.basis_vector(1)) == (1, 1, 13)

    def test_inverse_law(self):
        ctx = PadicContext(5, 6)
        L = heisenberg(ctx)
        rng = random.Random(22)
        for _ in range(50):
            u = tuple(rng.randrange(ctx.modulus) for _ in range(3))
            assert bch_mul(L, u, bch_neg(L, u)) == (0, 0, 0)

    def test_pow(self):
        ctx = PadicContext(5, 4)
        L = heisenberg(ctx)
        rng = random.Random(23)
        assert bch_pow(L, (1, 2, 3), 0) == (0, 0, 0)
        for _ in range(10):
            u = tuple(rng.randrange(ctx.modulus) for _ in range(3))
            acc = (0, 0, 0)
            for n in range(20):
                assert bch_pow(L, u, n) == acc
                acc = bch_mul(L, acc, u)
            # taking p-th powers is multiplication by p
            assert bch_pow(L, u, ctx.p) == tuple(ctx.p * c % ctx.modulus for c in u)

    def test_commutator(self):
        ctx = PadicContext(5, 4)
        L = heisenberg(ctx)
        x, y = L.basis_vector(0), L.basis_vector(1)
        assert bch_commutator(L, x, y) == (0, 0, 1)
        assert bch_commutator(L, x, x) == (0, 0, 0)
        A = abelian(ctx, 2)
        assert bch_commutator(A, (1, 2), (3, 4)) == (0, 0)

    def test_class_too_large(self):
        # the dimension-p lattice: the series has p-divisible denominators
        ctx = PadicContext(5, 4)
        _, L = make_example_dim_p(ctx)
        with pytest.raises(ClassTooLarge):
            bch_mul(L, L.basis_vector(0), L.basis_vector(1))


class TestWordEvaluation:
    def test_each_prefix_bracketed_once(self):
        # a formal bracket is never zero, so every word is evaluated in full
        letters = {"X": ("X",), "Y": ("Y",)}
        for c, brackets in ((3, 3), (4, 4), (5, 12), (6, 17)):
            calls = []

            def bracket(a, b):
                calls.append((a, b))
                return ("[", a, b)

            table = hausdorff_table(c)
            expected = []
            for coeff, word in table.terms:
                val = letters[word[0]]
                for letter in word[1:]:
                    val = ("[", val, letters[letter])
                expected.append((coeff, val))
            assert list(evaluate_words(table.terms, ("X",), ("Y",), bracket)) == expected
            assert len(calls) == brackets


def upper_triangular_lattice(ctx, n):
    """Strictly upper-triangular n x n matrices, basis E_ij (i < j), [A, B] = AB - BA."""
    basis = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {e: k for k, e in enumerate(basis)}
    d = len(basis)
    constants = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            if j == k:
                constants[a][b][index[(i, l)]] += 1
            if l == i:
                constants[a][b][index[(k, j)]] -= 1
    return Lattice(ctx, constants), basis


class TestGroupLawAgainstMatrices:
    def test_bch_mul_is_log_of_exp_product(self):
        # class 3 < p = 7, and U^4 = 0 keeps exp and log convergent (4 < p - 1)
        ctx = PadicContext(7, 6)
        L, basis = upper_triangular_lattice(ctx, 4)
        assert L.nilpotency_class() == 3

        def matrix(u):
            entries = [[0] * 4 for _ in range(4)]
            for c, (i, j) in zip(u, basis):
                entries[i][j] = c
            return PMatrix(ctx, entries)

        rng = random.Random(77)
        for _ in range(25):
            u = tuple(rng.randrange(ctx.modulus) for _ in basis)
            v = tuple(rng.randrange(ctx.modulus) for _ in basis)
            log = mat_log(mat_exp(matrix(u)) @ mat_exp(matrix(v)))
            assert log == matrix(bch_mul(L, u, v))


class TestMatrixGroupRecovery:
    def _pair(self, ctx, rng):
        """exp of two random matrices that are zero outside the first two entries of the last row."""
        mod = ctx.modulus
        return [mat_exp(PMatrix(ctx, [[0, 0, 0], [0, 0, 0], [rng.randrange(mod), rng.randrange(mod), 0]])) for _ in range(2)]

    def test_inverse_pair_sums_to_identity(self):
        ctx = PadicContext(5, 4)
        g = mat_exp(PMatrix(ctx, [[0, 0, 0], [0, 0, 0], [7, 3, 0]]))
        s, b = lie_from_matrix_group(g, g.inverse())
        assert s == PMatrix.identity(ctx, 3)
        assert b == PMatrix.identity(ctx, 3)

    def test_commuting_pair(self):
        ctx = PadicContext(5, 4)
        rng = random.Random(24)
        g, h = self._pair(ctx, rng)
        s, b = lie_from_matrix_group(g, h)
        assert s == g @ h
        assert b == PMatrix.identity(ctx, 3)

    def test_noncommuting_cross_check(self):
        # unipotent pair mixing the action block: both routes must agree
        ctx = PadicContext(5, 4)
        A = PMatrix(ctx, [[0, 0, 0], [5, 0, 0], [0, 1, 0]])
        B = PMatrix(ctx, [[0, 5, 0], [0, 0, 0], [1, 0, 0]])
        g, h = mat_exp(A), mat_exp(B)
        s, b = lie_from_matrix_group(g, h)
        assert s == mat_exp(A + B)
        assert b == mat_exp(A @ B - B @ A)
