"""The lattice and elimination kernels against plain second routes.

`Lattice.bracket` and `bracket_span` run over half of the nonzero structure
constants, `_eliminate` reduces its rows once, `bch_mul` reduces the
series coefficients once per lattice, and the split-group law reads the
cached increment M^a - I as binomial combinations of a table of powers of
M - I.  Each is compared here with a route that does none of that: a dense
triple loop over `constants`, spans of explicitly bracketed generators, the
elimination that reduces at every column, the product that reduces every
term's coefficient separately, and the law (a1 + a2, v1 M^a2 + v2) with M^a2
by square-and-multiply on plain lists.
"""

import random

import pytest

from padiclie import Lattice, PadicContext, PMatrix, Span
from padiclie.bch import bch_mul, evaluate_words, free_nilpotent_lattice, hausdorff_table
from padiclie.catalog import (
    make_2dim,
    make_example_dim_p,
    make_insoluble,
    make_p2_groups,
    make_thm73,
    thm73_grid,
)
from padiclie.errors import ClassTooLarge
from padiclie.linalg import _eliminate, vec_add, vec_scale
from padiclie.propgroup import TWIST_CACHE_SIZE, GroupElement, SemidirectGroup

CONTEXTS = [(p, N) for p in (2, 3, 5, 7) for N in (1, 3, 6)]


def dense_bracket(L, u, v):
    mod, d = L.ctx.modulus, L.dim
    out = [0] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] += u[i] * v[j] * L.constants[i][j][k]
    return tuple(e % mod for e in out)


def random_unimodular(ctx, n, rng):
    """A lower unitriangular times an upper triangular matrix with unit diagonal."""
    mod, p = ctx.modulus, ctx.p
    lower = [[rng.randrange(mod) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [
        [rng.randrange(mod) if j > i else (rng.randrange(1, p) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return PMatrix(ctx, lower) @ PMatrix(ctx, upper)


def diagonal_p2_lattice(ctx):
    """[b0, b1] = b2 and [b0, b0] = 2^(N-1) b2: c_00 = -c_00 mod 2^N, so the constructor accepts it."""
    half = 2 ** (ctx.precision - 1)
    constants = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    constants[0][1] = [0, 0, 1]
    constants[1][0] = [0, 0, -1]
    constants[0][0] = [0, 0, half]
    return Lattice(ctx, constants)


def kernel_pool(ctx, rng):
    """Catalog lattices, free nilpotent lattices and the dim-p lattice, each also basis-changed."""
    p, N = ctx.p, ctx.precision
    pool = [
        Lattice.from_brackets(ctx, 3, [(0, 1, (0, 0, 1))]),
        make_thm73(ctx, "G0", {"s": 1})[0],
    ]
    if N > 1:
        pool.append(make_2dim(ctx, 1)[0])
    if p == 2:
        pool.append(diagonal_p2_lattice(ctx))
    else:
        pool += [make_thm73(ctx, fam, {"s": 1, "r": 1, "d": 1})[0] for fam in ("G1", "G2", "G4", "G5")]
    if p >= 5:
        pool += [make_example_dim_p(ctx)[1], make_insoluble(ctx, "sl2tri"), make_insoluble(ctx, "sl1delta")]
    pool += [free_nilpotent_lattice(ctx, c) for c in range(1, min(p, 5))]
    return pool + [L.change_basis(random_unimodular(ctx, L.dim, rng)) for L in pool]


def random_vector(ctx, d, rng):
    """Entries drawn from [-2 p^N, 3 p^N): negative and unreduced ones included."""
    return tuple(rng.randrange(-2 * ctx.modulus, 3 * ctx.modulus) for _ in range(d))


def random_span(ctx, d, rng):
    gens = [vec_scale(ctx.p ** rng.randrange(2), random_vector(ctx, d, rng), ctx.modulus) for _ in range(rng.randrange(4))]
    return Span(ctx, d, gens)


@pytest.mark.parametrize("p,N", CONTEXTS)
def test_bracket_matches_dense_loop(p, N):
    ctx = PadicContext(p, N)
    rng = random.Random(1000 * p + N)
    for L in kernel_pool(ctx, rng):
        d = L.dim
        pairs = [(L.basis_vector(i), L.basis_vector(j)) for i in range(d) for j in range(d)]
        pairs += [(random_vector(ctx, d, rng), random_vector(ctx, d, rng)) for _ in range(10)]
        for u, v in pairs:
            assert L.bracket(u, v) == dense_bracket(L, u, v)
        assert L.ad_matrix(v).entries == [list(dense_bracket(L, L.basis_vector(i), v)) for i in range(d)]


def test_p2_diagonal_constant_is_kept():
    ctx = PadicContext(2, 3)
    L = diagonal_p2_lattice(ctx)
    e0 = L.basis_vector(0)
    assert L.bracket(e0, e0) == (0, 0, 4)
    assert L.bracket((1, 1, 0), (1, 0, 0)) == (0, 0, 3)  # [b0, b0] + [b1, b0] = 4 b2 - b2


@pytest.mark.parametrize("p,N", CONTEXTS)
def test_bracket_span_matches_bracketed_generators(p, N):
    ctx = PadicContext(p, N)
    rng = random.Random(2000 * p + N)
    for L in kernel_pool(ctx, rng):
        d = L.dim
        P = random_unimodular(ctx, d, rng).entries
        T = Span(ctx, d, P)  # all of L, reached by elimination from a random basis
        assert T == L.full_span()

        def reference(A, B):
            return Span(ctx, d, [dense_bracket(L, a, b) for a in A for b in B])

        assert L.bracket_span(T, T) == reference(P, P)
        assert L.bracket_span(L.full_span(), L.full_span()) == reference(P, P)
        for _ in range(3):
            S, S2 = random_span(ctx, d, rng), random_span(ctx, d, rng)
            assert L.bracket_span(S, T) == reference(S.rows, P)
            assert L.bracket_span(T, S) == reference(S.rows, P)
            assert L.bracket_span(S, S2) == reference(S.rows, S2.rows)


def eliminate_reducing_every_column(rows, ctx, dim, width):
    """The elimination before it reduced once: every read of an entry reduces it again."""
    mod = ctx.modulus
    N = ctx.precision
    p = ctx.p
    active = [list(r) for r in rows if any(e % mod for e in r)]
    pivot_rows = []
    zero_rows = []
    for col in range(dim):
        best = None
        bestv = N
        for r in active:
            e = r[col] % mod
            if e:
                v = ctx.val(e)
                if v < bestv:
                    bestv = v
                    best = r
                    if v == 0:
                        break
        if best is None:
            continue
        active.remove(best)
        v, u = ctx.unit_part(best[col])
        uinv = ctx.inv(u)
        row = [(uinv * e) % mod for e in best]
        piv = p**v
        for r in active:
            e = r[col] % mod
            if e:
                q = e // piv
                for k in range(col, width):
                    r[k] = (r[k] - q * row[k]) % mod
        if v > 0:
            c = p ** (N - v)
            closure = [(c * e) % mod for e in row]
            if any(closure[k] for k in range(width)):
                active.append(closure)
        pivot_rows.append((col, row))
        active = [r for r in active if any(e % mod for e in r)]
    for r in active:
        zero_rows.append([e % mod for e in r])
    return pivot_rows, zero_rows


@pytest.mark.parametrize("p,N", CONTEXTS)
def test_eliminate_matches_reducing_every_column(p, N):
    ctx = PadicContext(p, N)
    mod = ctx.modulus
    rng = random.Random(3000 * p + N)
    for trial in range(150):
        dim = rng.randrange(1, 7)
        n = rng.randrange(9)
        rows = []
        for _ in range(n):
            kind = rng.randrange(4)
            if kind == 0:
                rows.append([0] * dim)
            elif kind == 1:
                rows.append([mod * rng.randrange(-2, 3) for _ in range(dim)])  # zero, unreduced
            else:
                scale = p ** rng.randrange(N + 1)
                rows.append([scale * rng.randrange(-2 * mod, 3 * mod) for _ in range(dim)])
        if rows and rng.randrange(2):
            rows.append([sum(c) for c in zip(*rows)])  # a dependent row
        if trial % 2:  # as `_augmented` calls it: width dim + n
            rows = [r + [int(k == i) for k in range(len(rows))] for i, r in enumerate(rows)]
            width = dim + len(rows)
        else:
            width = dim
        assert _eliminate(rows, ctx, dim) == eliminate_reducing_every_column(rows, ctx, dim, width)


def bch_mul_reducing_every_term(L, u, v):
    """The product with each nonzero term's coefficient reduced on its own, over the dense bracket."""
    table = hausdorff_table(max(L.nilpotency_class(), 1))
    mod = L.ctx.modulus
    out = (0,) * L.dim
    for coeff, val in evaluate_words(table.terms, u, v, lambda a, b: dense_bracket(L, a, b)):
        out = vec_add(out, vec_scale(L.ctx.reduce_fraction(coeff), val, mod), mod)
    return out


@pytest.mark.parametrize("p,N", CONTEXTS)
def test_bch_mul_matches_reducing_every_term(p, N):
    ctx = PadicContext(p, N)
    rng = random.Random(4000 * p + N)
    for L in kernel_pool(ctx, rng):
        if L.nilpotency_class() is None or L.nilpotency_class() >= p:
            with pytest.raises(ClassTooLarge):
                bch_mul(L, L.basis_vector(0), L.basis_vector(0))
            continue
        for _ in range(4):
            u, v = random_vector(ctx, L.dim, rng), random_vector(ctx, L.dim, rng)
            expected = bch_mul_reducing_every_term(L, u, v)
            assert bch_mul(L, u, v) == expected
            assert bch_mul(Lattice(ctx, L.constants, L.labels), u, v) == expected  # fresh slots


class PlainLaw:
    """(a1, v1)(a2, v2) = (a1 + a2, v1 M^a2 + v2) with M^a2 by square-and-multiply on lists."""

    def __init__(self, group):
        self.mod = group.ctx.modulus
        self.n = group.fiber_dim
        self.M = [list(row) for row in group.action.entries]
        self.twists = {}

    def matmul(self, A, B):
        n, mod = self.n, self.mod
        return [[sum(A[i][t] * B[t][j] for t in range(n)) % mod for j in range(n)] for i in range(n)]

    def vecmat(self, v, A):
        return tuple(sum(v[i] * A[i][j] for i in range(self.n)) % self.mod for j in range(self.n))

    def matrix_power(self, A, e):
        out = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        while e:
            if e & 1:
                out = self.matmul(out, A)
            A = self.matmul(A, A)
            e >>= 1
        return out

    def twist(self, a):
        a %= self.mod
        if a not in self.twists:
            self.twists[a] = self.matrix_power(self.M, a)
        return self.twists[a]

    def mul(self, g, h):
        w = self.vecmat(g.v, self.twist(h.a))
        return GroupElement((g.a + h.a) % self.mod, tuple((x + y) % self.mod for x, y in zip(w, h.v)))

    def pow(self, g, k):
        """g^k for k >= 0: square-and-multiply on triples (a, v, M^a), whose product is
        (a1 + a2, v1 M^a2 + v2, M^a1 M^a2)."""
        mod = self.mod
        acc = (0, (0,) * self.n, self.twist(0))
        base = (g.a % mod, g.v, self.twist(g.a))
        while k:
            if k & 1:
                acc = self.triple(acc, base)
            base = self.triple(base, base)
            k >>= 1
        return GroupElement(acc[0], tuple(x % mod for x in acc[1]))

    def triple(self, x, y):
        v = tuple((a + b) % self.mod for a, b in zip(self.vecmat(x[1], y[2]), y[1]))
        return (x[0] + y[0]) % self.mod, v, self.matmul(x[2], y[2])


def law_groups():
    """Grid groups at p = 5, 7 (K up to 24), the dimension-p group (n = 4, K = 48),
    the six p = 2 groups and a trivial action (K = 1), all at N = 12."""
    groups = []
    for p in (5, 7):
        ctx = PadicContext(p, 12)
        groups += [make_thm73(ctx, fam, params)[1] for _, fam, params in thm73_grid(ctx, (0, 1), (0, 1))]
    groups.append(make_example_dim_p(PadicContext(5, 12))[0])
    ctx2 = PadicContext(2, 12)
    groups += [make_p2_groups(ctx2, sign, s) for sign in "+-" for s in (2, 3, None)]
    ctx = PadicContext(3, 12)
    groups.append(SemidirectGroup(ctx, PMatrix.identity(ctx, 2)))
    return groups


def test_law_groups_cover_the_table_lengths():
    lengths = {len(g._powers) for g in law_groups()}
    assert {1, 24, 48} <= lengths


def test_group_law_matches_square_and_multiply():
    rng = random.Random(5000)
    for g in law_groups():
        law = PlainLaw(g)
        mod = g.ctx.modulus
        e = g.identity_element()
        exponents = [0, 1, -1, mod - 1] + [rng.randrange(mod) for _ in range(2)]
        xs = [g.element(a, random_vector(g.ctx, g.fiber_dim, rng)) for a in exponents]
        for x in xs:
            for y in xs:
                assert g.mul(x, y) == law.mul(x, y), (g.action, x, y)
            xi = g.inv(x)
            assert law.mul(x, xi) == e == law.mul(xi, x)
        x = xs[-1]
        for n in exponents + [rng.randrange(mod, 3 * mod)]:
            if n >= 0:
                assert g.pow(x, n) == law.pow(x, n), (g.action, x, n)
            else:
                assert law.mul(g.pow(x, n), law.pow(x, -n)) == e


def test_evicted_increment_is_recomputed_right():
    g = make_example_dim_p(PadicContext(5, 12))[0]
    law = PlainLaw(g)
    mod = g.ctx.modulus
    rng = random.Random(5001)
    x = g.element(rng.randrange(mod), random_vector(g.ctx, g.fiber_dim, rng))
    exponents = rng.sample(range(mod), TWIST_CACHE_SIZE + 10)
    first = g.element(exponents[0], (1,) * g.fiber_dim)
    expected = law.mul(x, first)
    for a in exponents:
        g.mul(x, g.element(a, (0,) * g.fiber_dim))
    assert len(g._twist_cache) == TWIST_CACHE_SIZE
    assert exponents[0] not in g._twist_cache
    assert g.mul(x, first) == expected
    assert exponents[0] in g._twist_cache
