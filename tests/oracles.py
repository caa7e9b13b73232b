"""Reference routes and fixtures that only the tests use, each defined once.

Route: what it does -> the library code it is independent of.

- `exp_series`, `log_series`, `hausdorff_oracle`: log(exp X exp Y) by series
  multiplication -> `bch`'s Dynkin sum and basis solver.
- `as_assoc`: a table's series as associative words -> the table's Lie words.
- `jacobi_word_bracket`, `jacobi_reduce`, `jacobi_hausdorff_terms`: the Jacobi
  rewriter of left-normed words -> `bch`'s ab - ba expansion.
- `brute_force_orbit`: one similarity orbit by closure -> `classify`.
- `dense_bracket`: a triple loop over `constants` -> `Lattice`'s sparse view.
- `eliminate_reducing_every_column`: every read reduced again -> `_eliminate`.
- `gauss_jordan_inverse`: Gauss-Jordan on unit pivots -> `_eliminate`.
- `degree_by_plain_powers`: products of residues mod p -> `powers_to_zero`.
- `bch_mul_reducing_every_term`: each coefficient reduced on its own, over
  `dense_bracket` -> `bch_mul`'s reduced series.
- `direct_sum`: L + L' from the summands' brackets -> no library route.
- `lower_p_series_by_brackets`: N_(i+1) = p N_i + [N_i, L], bracketing each
  term -> `lower_p_series`'s p N_i + gamma_(i+1) from the stored series.
- `explicit_fiber_matrix`: G1-G5 entry by entry -> `canonical_matrix`.
- `uncached_invariant`, `uncached_verdict`: the dimension-3 invariant from
  eliminated spans -> the stored slot and the `Lattice` helpers.
- `PlainLaw`: (a1 + a2, v1 M^a2 + v2) with M^a2 by square-and-multiply on
  lists -> the cached increments M^a - I.
- `index_exp_in_group`: log_p |G : U| from the fiber's index -> `propgroup`.
- `fixpoint_twist_closure`, `fixpoint_normal_closure`, `fixpoint_routes`,
  `generator_commutator_subgroup`, `conj_loop_is_normal`: fixed-point loops
  and conjugation -> `propgroup`'s closed forms.
- `lower_p_series_by_subgroups`, `potency_report_by_subgroups`:
  G_(i+1) = [G_i, G] G_i^p as a join, and [N_i,_(p-1) G] as p - 1
  commutator subgroups -> `propgroup`'s lower p-series read off the table of
  E = M - I.
- `levi_defect_scan`: every lift offset mod p^k -> `claims._levi_defect`'s one
  span membership.

Fixtures: `abelian`, `heisenberg`, `filiform`, `random_nilpotent_mod_p`,
`random_split_lattice`, `random_unimodular`, the Theorem-7.3 `grid`, and
`random_element` of a split group.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import pytest

from padiclie import Lattice, PMatrix, Span, propgroup
from padiclie.bch import _accumulate, _pair_compositions, evaluate_words, hausdorff_table, poly_add, poly_mul
from padiclie.bch import poly_scale, reduce_to_basis, word_to_assoc
from padiclie.catalog import action_matrix_on_abelian_ideal, make_thm73, thm73_fiber_matrix, thm73_grid
from padiclie.classifier import _conj_moves, _orbit_from, classify, descriptors_equal
from padiclie.errors import BadParameter, ContextMismatch, NotAUnit
from padiclie.lattice import PotencyReport, PotencyStep
from padiclie.linalg import vec_add, vec_scale
from padiclie.propgroup import GroupElement, SemidirectGroup, generated_subgroup


def abelian(ctx, d):
    return Lattice.from_brackets(ctx, d, [])


def heisenberg(ctx):
    return Lattice.from_brackets(ctx, 3, [(0, 1, (0, 0, 1))], ("x", "y", "z"))


def filiform(ctx, d):
    """[e_1, e_i] = e_(i+1) for 1 < i < d: nilpotent of class d - 1."""
    return Lattice.from_brackets(ctx, d, [(0, i, [int(k == i + 1) for k in range(d)]) for i in range(1, d - 1)])


def random_nilpotent_mod_p(ctx, n, rng):
    """A = p^k U + p R as n lists of residues, for a random strictly upper triangular U, a
    random R and k in {0, 0, 1}: nilpotent mod p, often of degree n when k = 0."""
    p, mod = ctx.p, ctx.modulus
    k = rng.choice((0, 0, 1))
    return [[(rng.randrange(mod) if j > i else 0) * p**k + p * rng.randrange(mod) for j in range(n)] for i in range(n)]


def random_split_lattice(ctx, n, rng, unit=False):
    """Z_p x| Z_p^n with [y_i, x] = sum_j A_ij y_j for A from `random_nilpotent_mod_p`, so
    the lower central series descends, often for more than p terms once n >= p.  With
    `unit`, A also gets 1 at its last diagonal entry, and the series stops at a nonzero term."""
    A = random_nilpotent_mod_p(ctx, n, rng)
    A[-1][-1] += int(unit)
    return Lattice.from_brackets(ctx, n + 1, [(0, 1 + i, [0] + [-a for a in row]) for i, row in enumerate(A)])


def random_unimodular(ctx, n, rng):
    """A lower unitriangular times an upper triangular matrix with unit diagonal."""
    mod, p = ctx.modulus, ctx.p
    lower = [[rng.randrange(mod) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [
        [rng.randrange(mod) if j > i else (rng.randrange(1, p) if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    return PMatrix(ctx, lower) @ PMatrix(ctx, upper)


class Member(NamedTuple):
    label: str
    A: PMatrix
    lattice: Lattice
    group: SemidirectGroup


def grid(ctx, *ranges, exp_action=False):
    """Each member of `thm73_grid(ctx, *ranges)` with its fiber matrix A, lattice and group."""
    return [
        Member(label, thm73_fiber_matrix(ctx, fam, params), *make_thm73(ctx, fam, params, exp_action))
        for label, fam, params in thm73_grid(ctx, *ranges)
    ]


def exp_series(P: dict, W: int) -> dict:
    """exp of a polynomial with zero constant term, truncated at weight W."""
    out = {"": Fraction(1)}
    term = {"": Fraction(1)}
    for n in range(1, W + 1):
        term = poly_scale(Fraction(1, n), poly_mul(term, P, W))
        if not term:
            break
        out = poly_add(out, term)
    return out


def log_series(Q: dict, W: int) -> dict:
    """log(1 + E) for Q = 1 + E with zero-constant-term E, truncated at W."""
    E = dict(Q)
    E.pop("", None)
    if Q.get("", 0) != 1:
        raise ValueError("log expects constant term 1")
    out: dict[str, Fraction] = {}
    term = {"": Fraction(1)}
    for n in range(1, W + 1):
        term = poly_mul(term, E, W)
        if not term:
            break
        out = poly_add(out, poly_scale(Fraction((-1) ** (n - 1), n), term))
    return out


def hausdorff_oracle(W: int) -> dict:
    """log(exp X exp Y) in the free associative algebra, truncated at weight W."""
    X = {"X": Fraction(1)}
    Y = {"Y": Fraction(1)}
    return log_series(poly_mul(exp_series(X, W), exp_series(Y, W), W), W)


def as_assoc(table) -> dict:
    """A `BCHTable`'s series in the free associative algebra."""
    out: dict[str, Fraction] = {}
    for c, w in table.terms:
        out = poly_add(out, poly_scale(c, dict(word_to_assoc(w))))
    return out


def _normalize_word(word: str):
    """Order the first two letters; words starting with a repeat vanish."""
    if len(word) >= 2:
        if word[0] == word[1]:
            return None
        if word[0] > word[1]:
            return (-1, word[1] + word[0] + word[2:])
    return (1, word)


@lru_cache(maxsize=None)
def jacobi_word_bracket(wa: str, wb: str) -> tuple:
    """[A, B] for left-normed words as left-normed words, by the Jacobi rewriter.

    Uses [A, [P, b]] = [[A, P], b] - [[A, b], P] to peel B down to letters; it
    never leaves the Lie words, unlike the library's ab - ba expansion.
    """
    if wa == wb:
        return ()
    if len(wb) == 1:
        norm = _normalize_word(wa + wb)
        if norm is None:
            return ()
        sign, w = norm
        return ((w, Fraction(sign)),)
    prefix, last = wb[:-1], wb[-1]
    out: dict[str, Fraction] = {}
    for w, c in jacobi_word_bracket(wa, prefix):
        for w2, c2 in jacobi_word_bracket(w, last):
            _accumulate(out, w2, c * c2)
    for w, c in jacobi_word_bracket(wa, last):
        for w2, c2 in jacobi_word_bracket(w, prefix):
            _accumulate(out, w2, -c * c2)
    return tuple(sorted(out.items()))


def jacobi_reduce(combo: dict) -> dict:
    """A combination of left-normed words on the canonical basis."""
    vec: dict[str, Fraction] = {}
    for w, c in combo.items():
        vec = poly_add(vec, poly_scale(c, dict(word_to_assoc(w))))
    return reduce_to_basis(vec)


def jacobi_hausdorff_terms(W: int) -> tuple:
    """Dynkin's formula, one right-nested bracket per composition, by the rewriter."""
    acc: dict[str, Fraction] = {}
    for seq in _pair_compositions(W):
        n = len(seq)
        letters = "".join("X" * r + "Y" * s for r, s in seq)
        denom = n * len(letters)
        for r, s in seq:
            denom *= factorial(r) * factorial(s)
        nested = {letters[-1]: Fraction(1)}
        for letter in reversed(letters[:-1]):
            combo: dict[str, Fraction] = {}
            for wb, cb in nested.items():
                for w, c in jacobi_word_bracket(letter, wb):
                    _accumulate(combo, w, cb * c)
            nested = combo
        for w, c in nested.items():
            _accumulate(acc, w, Fraction((-1) ** (n - 1), denom) * c)
    reduced = jacobi_reduce(acc)
    return tuple(sorted(((c, w) for w, c in reduced.items()), key=lambda t: (len(t[1]), t[1])))


def brute_force_orbit(p: int, k: int, A) -> frozenset:
    """Orbit of A mod p^k under unit-scaled conjugation, by closure enumeration.

    A is the entry tuple (a, b, c, d) of the matrix [[a, b], [c, d]].
    """
    q = p**k
    seed = tuple(x % q for x in A)
    moves, g, q = _conj_moves(p, k)
    return frozenset(_orbit_from(seed, moves, g, q))


def dense_bracket(L, u, v):
    mod, d = L.ctx.modulus, L.dim
    out = [0] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] += u[i] * v[j] * L.constants[i][j][k]
    return tuple(e % mod for e in out)


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


def bch_mul_reducing_every_term(L, u, v):
    """The product with each nonzero term's coefficient reduced on its own, over the dense bracket."""
    table = hausdorff_table(max(L.nilpotency_class(), 1))
    mod = L.ctx.modulus
    out = (0,) * L.dim
    for coeff, val in evaluate_words(table.terms, u, v, lambda a, b: dense_bracket(L, a, b)):
        out = vec_add(out, vec_scale(L.ctx.reduce_fraction(coeff), val, mod), mod)
    return out


def direct_sum(L: Lattice, other: Lattice) -> Lattice:
    if L.ctx != other.ctx:
        raise ContextMismatch("direct sum over different contexts")
    d1, d2 = L.dim, other.dim
    brackets = [(i, j, c + (0,) * d2) for i, j, c in L._brackets()]
    brackets += [(d1 + i, d1 + j, (0,) * d1 + c) for i, j, c in other._brackets()]
    labels = tuple(L.labels) + tuple(f"{x}'" for x in other.labels)
    return Lattice.from_brackets(L.ctx, d1 + d2, brackets, labels)


def lower_p_series_by_brackets(L: Lattice) -> list:
    """N_1 = L, N_(i+1) = p N_i + [N_i, L], to the first repeat."""
    full = L.full_span()
    terms = [full]
    while True:
        nxt = terms[-1].scale(L.ctx.p).sum(L.bracket_span(terms[-1], full))
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def explicit_fiber_matrix(ctx, family, params):
    """G1-G5 written out entry by entry, apart from the classifier's canonical matrices."""
    p = ctx.p
    s, r, d = (params.get(k) for k in "srd")

    def need(cond, msg):
        if not cond:
            raise BadParameter(msg)

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


def uncached_invariant(L):
    """The invariant by the path without a stored slot: eliminated spans, no Lattice helpers."""
    ctx = L.ctx
    full = Span(ctx, 3, [[int(i == j) for j in range(3)] for i in range(3)])
    derived = Span(ctx, 3, [L.bracket(u, v) for u in full.rows for v in full.rows])
    if derived.is_zero():
        return ("abelian",)
    if Span(ctx, 3, [L.bracket(u, v) for u in full.rows for v in derived.rows]).is_zero():
        assert derived.structural_rank() == 1
        return ("heisenberg", ctx.precision - derived.size_exp())
    return ("action", classify(action_matrix_on_abelian_ideal(L, derived)))


def uncached_verdict(inv1, inv2, p):
    if inv1[0] != inv2[0]:
        return False
    if inv1[0] == "action":
        return descriptors_equal(inv1[1], inv2[1], p)
    return inv1 == inv2


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


def random_element(g, rng):
    return g.element(rng.randrange(g.ctx.modulus), [rng.randrange(g.ctx.modulus) for _ in range(g.fiber_dim)])


def index_exp_in_group(U) -> int:
    """log_p |G : U| at precision, for a `SubgroupData` U of G."""
    g = U.group
    fiber_index = Span.full(g.ctx, g.fiber_dim).index_exp(U.fiber)
    return U.h_valuation + fiber_index


def fixpoint_twist_closure(group, S, a):
    """Closure of a fiber span under M^a and M^-a, iterated to a fixed point."""
    T = group.twist(a)
    Ti = T.inverse()
    while True:
        nxt = S.sum(S.image(T)).sum(S.image(Ti))
        if nxt == S:
            return S
        S = nxt


def fixpoint_normal_closure(U):
    """Closure of U under conjugation by the standard generators and their inverses."""
    group = U.group
    std = group.standard_generators()
    std += [group.inv(h) for h in std]
    while True:
        gens = U.generators()
        nxt = generated_subgroup(group, gens + [group.conj(g, h) for g in gens for h in std])
        if nxt == U:
            return U
        U = nxt


def generator_commutator_subgroup(U):
    """[U, G]: the normal closure of the commutators of U's and G's generators."""
    group = U.group
    comms = [group.comm(u, h) for u in U.generators() for h in group.standard_generators()]
    return fixpoint_normal_closure(generated_subgroup(group, comms))


def conj_loop_is_normal(U):
    """Normality of U by conjugating its generators with the standard generators."""
    group = U.group
    return all(
        U.contains_element(group.conj(u, h)) for u in U.generators() for h in group.standard_generators()
    )


@contextmanager
def fixpoint_routes():
    """Inside this context every split-form subgroup is closed by the fixed-point loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propgroup, "_twist_closure", fixpoint_twist_closure)
        yield


def lower_p_series_by_subgroups(group):
    """G_1 = G, G_(i+1) = [G_i, G] G_i^p as the join of the commutator and power subgroups
    of G_i, to the first repeat."""
    terms = [propgroup.full_subgroup(group)]
    while True:
        U = terms[-1]
        nxt = propgroup.join(propgroup.commutator_subgroup(U), propgroup.power_subgroup(U))
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)


def potency_report_by_subgroups(group, chain):
    """The potency certificate with [N_i,_(p-1) G] as p - 1 commutator subgroups and
    N_(i+1)^p from `power_subgroup`, with no iterated image of E."""
    steps = []
    for i, (N, nxt) in enumerate(zip(chain, chain[1:])):
        deep = N
        for _ in range(group.ctx.p - 1):
            deep = propgroup.commutator_subgroup(deep)
        step_ok = nxt.contains(propgroup.commutator_subgroup(N))
        steps.append(PotencyStep(i + 1, step_ok, propgroup.power_subgroup(nxt).contains(deep)))
    return PotencyReport(steps, chain[-1].is_trivial())


def levi_defect_scan(ctx, k, base, steps):
    """(offsets scanned, whether no lift kills the defect): every offset (alpha, beta, gamma,
    delta) mod p^k, testing base + alpha va + beta vb + gamma vg + delta vd mod p^k in the
    (a, b) coordinates; no scan once a vector leaves R."""
    p, mod = ctx.p, ctx.modulus
    pk = p**k
    va, vb, vg, vd = steps
    always_outside = not any(any(v[:3]) for v in (base, va, vb, vg, vd))
    count = 0
    rng = range(pk if always_outside else 0)  # no scan once a defect leaves R
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
    return count, always_outside
