"""The lattice, elimination, series and group-law kernels against the plain routes in `oracles`.

`Lattice.bracket` and `bracket_span` run over half of the nonzero structure constants,
`_eliminate` reduces its rows once, `bch_mul` reduces the series once per lattice, and the
split-group law reads cached increments M^a - I; the routes do none of that.
"""

import random

import pytest

from padiclie import Lattice, PadicContext, PMatrix, Span
from padiclie.bch import bch_mul, free_nilpotent_lattice
from padiclie.catalog import make_2dim, make_example_dim_p, make_insoluble, make_p2_groups, make_thm73
from padiclie.errors import ClassTooLarge
from padiclie.linalg import _eliminate, vec_scale
from padiclie.propgroup import TWIST_CACHE_SIZE, SemidirectGroup

from oracles import PlainLaw, bch_mul_reducing_every_term, dense_bracket, eliminate_reducing_every_column
from oracles import grid, heisenberg, random_element, random_unimodular

CONTEXTS = [(p, N) for p in (2, 3, 5, 7) for N in (1, 3, 6)]


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
        heisenberg(ctx),
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


def law_groups():
    """Grid groups at p = 5, 7 (K up to 24), the dimension-p group (n = 4, K = 48),
    the six p = 2 groups and a trivial action (K = 1), all at N = 12."""
    groups = []
    for p in (5, 7):
        ctx = PadicContext(p, 12)
        groups += [m.group for m in grid(ctx, (0, 1), (0, 1))]
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
    rng = random.Random(17)  # powers in a G3 group and the dimension-p group
    g3 = make_thm73(PadicContext(5, 8), "G3", {"s": 1, "r": 0, "d": 1})[1]
    for g in (g3, make_example_dim_p(PadicContext(5, 4))[0]):
        law, x = PlainLaw(g), random_element(g, rng)
        for n in [0, 1, 2, 3, 7, 8, 100, 12345] + [rng.randrange(g.ctx.modulus) for _ in range(10)]:
            assert g.pow(x, n) == law.pow(x, n), n
    rng = random.Random(21)  # twists by M = I + E, E strictly upper triangular plus p * noise, n <= p
    for p, N, n in ((5, 6, 3), (3, 5, 3), (2, 6, 2), (7, 4, 4)):
        ctx = PadicContext(p, N)
        for _ in range(5):
            E = PMatrix(ctx, [[rng.randrange(ctx.modulus) * (1 if j > i else p) for j in range(n)] for i in range(n)])
            g = SemidirectGroup(ctx, PMatrix.identity(ctx, n) + E)
            assert len(g._powers) <= n * N and (g._powers[-1] @ E).is_zero()
            law = PlainLaw(g)
            for a in [0, 1, 2, p, p**N - 1] + [rng.randrange(ctx.modulus) for _ in range(5)]:
                assert g.twist(a).entries == law.twist(a), (p, a)


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
