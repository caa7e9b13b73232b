"""Matrices and module spans over Z/p^N.

Z/p^N is a chain ring, so Gaussian elimination that pivots on a
minimum-valuation entry produces a canonical triangular basis with p-power
pivots (the elementary-divisor form used everywhere in the package).  Every
elimination to that form, inverses included, routes through `_eliminate`: run
on rows with an identity block appended, it yields kernels and inverses too.

The form depends only on the module M spanned, not on the generators: the
closure rows make the pivot rows from column c on generate the members of M
zero before c (the Howell property), so the pivot at c is p^e for the ideal
p^e of their entries at c, and two pivot rows at c differ by a combination
of later pivot rows, which `_reduce_above` fixes by leaving each entry above
a later pivot p^e in [0, p^e).

The module also houses the matrix exponential and logarithm (convergent
for p >= 5 on matrices whose square vanishes mod p, with truncation bounds
computed from p and N rather than hard-coded), p-adic powers of
unipotent-mod-p matrices, the table of powers of M - I up to the first zero
(at precision 1 its length is the nilpotency degree mod p), the binomial
coefficients that combine that table into powers of M, and `fixpoint`, the
one budgeted iteration behind every series and lattice closure in the
package: a budget overrun raises `ClosureBudgetExceeded`.
"""

from __future__ import annotations

from math import factorial
from operator import mul

from .errors import (
    ClosureBudgetExceeded,
    ConvergenceViolated,
    ContextMismatch,
    NotAUnit,
    NotContained,
    NotProP,
)
from .padic import PadicContext

Vector = tuple[int, ...]


def fixpoint(step, start, budget: int) -> list:
    """The iterates start, step(start), ... up to the first x with step(x) == x.

    Raises ClosureBudgetExceeded when `budget` steps do not reach one.  Callers
    pass N d + 1: their series descend and their closures ascend, and a strictly
    monotone chain of submodules of (Z/p^N)^d (log-size in [0, N d]) or of
    subgroups of a group of order p^(N d) (log-index in [0, N d]) has at most
    N d + 1 members, so N d steps reach the fixed point and one more confirms
    it.  The saturated derived series of `Lattice.is_soluble` descends only in
    exact arithmetic, as saturating at precision can leave the previous term;
    there an overrun raises rather than answers.
    """
    terms = [start]
    for _ in range(budget):
        nxt = step(terms[-1])
        if nxt == terms[-1]:
            return terms
        terms.append(nxt)
    raise ClosureBudgetExceeded(f"iteration did not stabilise within {budget} steps")


def vec_add(u, v, mod):
    return tuple((a + b) % mod for a, b in zip(u, v))


def vec_sub(u, v, mod):
    return tuple((a - b) % mod for a, b in zip(u, v))


def vec_scale(c, v, mod):
    return tuple((c * a) % mod for a in v)


class PMatrix:
    """A matrix over Z/p^N; entries are stored as plain residues."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: PadicContext, entries):
        self.ctx = ctx
        self.entries = [[e % ctx.modulus for e in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")

    @classmethod
    def _reduced(cls, ctx: PadicContext, entries) -> "PMatrix":
        """Wrap rectangular entries already reduced mod p^N, skipping validation."""
        m = cls.__new__(cls)
        m.ctx = ctx
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else 0
        return m

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ctx, n, m=None):
        m = n if m is None else m
        return cls(ctx, [[0] * m for _ in range(n)])

    def _check(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        mod = self.ctx.modulus
        return PMatrix._reduced(
            self.ctx,
            [
                [(a + b) % mod for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        mod = self.ctx.modulus
        return PMatrix._reduced(
            self.ctx,
            [
                [(a - b) % mod for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        return PMatrix(self.ctx, [[-a for a in r] for r in self.entries])

    def __matmul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        mod = self.ctx.modulus
        ot = list(zip(*other.entries))
        return PMatrix._reduced(
            self.ctx,
            [[sum(a * b for a, b in zip(row, col)) % mod for col in ot] for row in self.entries],
        )

    def __mul__(self, c: int):
        mod = self.ctx.modulus
        return PMatrix._reduced(self.ctx, [[(c * a) % mod for a in r] for r in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, PMatrix)
            and self.ctx == other.ctx
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx, tuple(tuple(r) for r in self.entries)))

    def __repr__(self):
        return f"PMatrix({self.entries!r} mod {self.ctx.p}^{self.ctx.precision})"

    def is_zero(self):
        return all(a == 0 for r in self.entries for a in r)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.rows)) % self.ctx.modulus

    def det(self) -> int:
        """Laplace expansion; fine for the small dimensions used here."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of non-square matrix")
        mod = self.ctx.modulus

        def rec(rows, cols):
            if len(cols) == 1:
                return self.entries[rows[0]][cols[0]]
            total = 0
            r0 = rows[0]
            rest = rows[1:]
            for k, c in enumerate(cols):
                a = self.entries[r0][c]
                if a:
                    sub = rec(rest, cols[:k] + cols[k + 1 :])
                    total += a * sub if k % 2 == 0 else -a * sub
            return total % mod

        return rec(tuple(range(n)), tuple(range(n))) % mod

    def pow(self, n: int) -> "PMatrix":
        if n < 0:
            return self.inverse().pow(-n)
        result = PMatrix.identity(self.ctx, self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def inverse(self) -> "PMatrix":
        """Inverse of a unit-determinant matrix: the right half of the canonical form of [A | I]."""
        n = self.rows
        pivot_rows, _ = _augmented(self.entries, self.ctx, n)
        if [(c, self.ctx.val(r[c])) for c, r in pivot_rows] != [(i, 0) for i in range(n)]:
            raise NotAUnit("matrix is not invertible at this precision")
        _reduce_above(pivot_rows, self.ctx, 2 * n)
        return PMatrix._reduced(self.ctx, [r[n:] for _, r in pivot_rows])

    def lift(self, ctx: PadicContext) -> "PMatrix":
        """Canonical integer lift into a higher-precision context."""
        return PMatrix(ctx, self.entries)

    def apply_row(self, v: Vector) -> Vector:
        """Row vector times matrix."""
        if len(v) != self.rows:
            raise ValueError("vector length differs from the matrix's row count")
        mod = self.ctx.modulus
        return tuple(sum(map(mul, v, col)) % mod for col in zip(*self.entries))

    def to_json(self) -> dict:
        return {"rows": self.rows, "entries": [e for row in self.entries for e in row]}

    @classmethod
    def from_json(cls, ctx, data) -> "PMatrix":
        n = int(data["rows"])
        flat = [int(e) for e in data["entries"]]
        if n == 0 or len(flat) % n:
            raise ValueError("bad matrix payload")
        m = len(flat) // n
        return cls(ctx, [flat[i * m : (i + 1) * m] for i in range(n)])


# ---------------------------------------------------------------------------
# elimination kernels
# ---------------------------------------------------------------------------


def _eliminate(rows, ctx, dim):
    """Howell-style elimination pivoting on the first `dim` columns of the rows.

    Returns (pivot_rows, zero_rows): pivot_rows is a list of (col, row) with
    pivot entry exactly p^e at `col`; zero_rows have their first `dim`
    columns identically zero mod p^N.  The closure rows p^(N-e) * pivot_row
    are fed back in, which is what makes the form canonical over Z/p^N.
    The input rows are reduced once on entry; every entry after that is a
    residue, and only the rows changed at a column are tested for zero.
    """
    mod = ctx.modulus
    N = ctx.precision
    p = ctx.p
    active = [r for r in ([e % mod for e in r] for r in rows) if any(r)]
    pivot_rows = []
    for col in range(dim):
        best = None
        bestv = N
        for idx, r in enumerate(active):
            e = r[col]
            if e:
                v = ctx.val(e)
                if v < bestv:
                    bestv, best = v, idx
                    if v == 0:
                        break
        if best is None:
            continue
        piv_row = active.pop(best)
        piv = p**bestv
        uinv = pow(piv_row[col] // piv, -1, mod)
        row = [(uinv * e) % mod for e in piv_row]
        support = [(k, b) for k, b in enumerate(row) if b]
        kept = []
        for r in active:
            q = r[col] // piv  # exact: no active entry here has valuation below bestv
            if q:
                for k, b in support:
                    r[k] = (r[k] - q * b) % mod
                if not any(r):
                    continue
            kept.append(r)
        if bestv:
            c = p ** (N - bestv)
            closure = [(c * e) % mod for e in row]
            if any(closure):
                kept.append(closure)
        active = kept
        pivot_rows.append((col, row))
    for r in active:
        if any(r[k] for k in range(dim)):
            raise AssertionError("elimination left mass in pivot columns")
    return pivot_rows, active


def _reduce_above(pivot_rows, ctx, width):
    """Reduce entries above each pivot modulo the pivot, for canonicity."""
    mod = ctx.modulus
    p = ctx.p
    for j in range(len(pivot_rows)):
        col_j, row_j = pivot_rows[j]
        piv = p ** ctx.val(row_j[col_j])
        for i in range(j):
            _, row_i = pivot_rows[i]
            e = row_i[col_j] % mod
            if e % piv != e:
                q = e // piv
                for k in range(col_j, width):
                    row_i[k] = (row_i[k] - q * row_j[k]) % mod
    return pivot_rows


class Span:
    """A submodule of (Z/p^N)^d in elementary-divisor canonical form.

    Equality of spans is equality of canonical bases.  `pivots` lists
    (column, valuation) pairs with strictly increasing columns.
    """

    __slots__ = ("ctx", "dim", "rows", "pivots")

    def __init__(self, ctx: PadicContext, dim: int, generators=()):
        self.ctx = ctx
        self.dim = dim
        pivot_rows, _ = _eliminate(generators, ctx, dim)
        _reduce_above(pivot_rows, ctx, dim)
        self.rows = tuple(tuple(r) for _, r in pivot_rows)
        self.pivots = tuple((c, ctx.val(r[c])) for c, r in pivot_rows)

    @classmethod
    def _canonical(cls, ctx: PadicContext, dim: int, rows, pivots) -> "Span":
        """Wrap rows and pivots already in canonical form, skipping elimination."""
        s = cls.__new__(cls)
        s.ctx = ctx
        s.dim = dim
        s.rows = rows
        s.pivots = pivots
        return s

    @classmethod
    def zero(cls, ctx, dim):
        return cls._canonical(ctx, dim, (), ())

    @classmethod
    def full(cls, ctx, dim):
        rows = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        return cls._canonical(ctx, dim, rows, tuple((i, 0) for i in range(dim)))

    def _check(self, other):
        if self.ctx != other.ctx or self.dim != other.dim:
            raise ContextMismatch("spans live in different ambients")

    def __eq__(self, other):
        return (
            isinstance(other, Span)
            and self.ctx == other.ctx
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ctx, self.dim, self.rows))

    def __repr__(self):
        return f"Span(dim={self.dim}, rows={list(self.rows)!r})"

    def is_zero(self):
        return not self.rows

    def rank(self):
        return len(self.rows)

    def _divide(self, v: Vector):
        """(quotients, remainder) of v by the canonical basis, each pivot entry left below p^e."""
        mod = self.ctx.modulus
        p = self.ctx.p
        w = [e % mod for e in v]
        coeffs = []
        for (col, e), row in zip(self.pivots, self.rows):
            q = w[col] // p**e
            coeffs.append(q)
            if q:
                for k in range(col, self.dim):
                    w[k] = (w[k] - q * row[k]) % mod
        return coeffs, w

    def solve(self, v: Vector):
        """Coefficients of v over the canonical basis, or None if not a member."""
        coeffs, rest = self._divide(v)
        return None if any(rest) else coeffs

    def reduce(self, v: Vector) -> Vector:
        """Canonical remainder of v modulo the span, constant exactly on cosets: a member
        zero before column c is a combination of the pivot rows from c on (closure rows)."""
        return tuple(self._divide(v)[1])

    def member(self, v: Vector) -> bool:
        return self.solve(v) is not None

    def contains(self, other: "Span") -> bool:
        self._check(other)
        return all(self.member(r) for r in other.rows)

    def sum(self, other: "Span") -> "Span":
        """self + other.  When every row of other is already a member this is self, with
        no elimination: the canonical form of a span is unique (see `add_rows`)."""
        self._check(other)
        return self.add_rows(other.rows)

    def add_rows(self, rows) -> "Span":
        """The span of self and the given vectors; self itself when each is a member."""
        if all(self.member(r) for r in rows):
            return self
        return Span(self.ctx, self.dim, list(self.rows) + list(rows))

    def scale(self, c: int) -> "Span":
        mod = self.ctx.modulus
        return Span(self.ctx, self.dim, [[(c * e) % mod for e in r] for r in self.rows])

    def image(self, matrix: PMatrix) -> "Span":
        """Span of v*A for v in the span."""
        if matrix.rows != self.dim:
            raise ValueError("matrix does not act on this ambient")
        return Span(self.ctx, matrix.cols, [matrix.apply_row(r) for r in self.rows])

    def intersect(self, other: "Span") -> "Span":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Span.zero(self.ctx, self.dim)
        stacked = [list(r) for r in self.rows] + [
            [(-e) % self.ctx.modulus for e in r] for r in other.rows
        ]
        basis = PMatrix._reduced(self.ctx, self.rows)
        a = len(self.rows)
        gens = [basis.apply_row(k[:a]) for k in left_kernel(stacked, self.ctx, self.dim)]
        return Span(self.ctx, self.dim, gens)

    def size_exp(self) -> int:
        """log_p of the number of elements."""
        N = self.ctx.precision
        return sum(N - e for _, e in self.pivots)

    def index_exp(self, other: "Span") -> int:
        """log_p |self : other| for a nested pair; NotContained otherwise."""
        if not self.contains(other):
            raise NotContained("index of a non-nested pair")
        return self.size_exp() - other.size_exp()

    def saturate(self) -> "Span":
        """The span of the primitive parts of the elementary-divisor generators.

        This realises {v : p^k v in the span} in the honest Z_p sense: each
        structural generator p^e w is replaced by w.  Idempotent, extensive,
        and rank-preserving; in particular a span generated by primitive
        vectors is already saturated, even when its column-ordered canonical
        form shows closure pivots of positive valuation.
        """
        return Span(self.ctx, self.dim, [w for _, w in self.structural_profile()])

    def structural_profile(self) -> list[tuple[int, Vector]]:
        return structural_profile(self.rows, self.ctx, self.dim)

    def structural_rank(self) -> int:
        """Number of elementary divisors: the honest rank at precision."""
        return len(self.structural_profile())

    def to_json(self) -> dict:
        return {"dim": self.dim, "generators": [list(r) for r in self.rows]}

    @classmethod
    def from_json(cls, ctx, data) -> "Span":
        return cls(ctx, int(data["dim"]), [[int(e) for e in r] for r in data["generators"]])


def _augmented(rows, ctx, dim):
    """`_eliminate` on the rows with an identity block appended: the last len(rows)
    columns of each output row record the combination of the inputs it is."""
    n = len(rows)
    aug = [list(r) + [1 if k == i else 0 for k in range(n)] for i, r in enumerate(rows)]
    return _eliminate(aug, ctx, dim)


def left_kernel(rows, ctx, dim) -> list[Vector]:
    """Generators of {x : x . rows = 0 mod p^N} for `rows` a list of vectors."""
    return [tuple(r[dim:]) for r in _augmented(rows, ctx, dim)[1]]


def solve_over_rows(rows, target, ctx, dim):
    """Coefficients c with sum_i c_i rows_i = target mod p^N, or None."""
    return solve_each_over_rows(rows, [target], ctx, dim)[0]


def solve_each_over_rows(rows, targets, ctx, dim):
    """`solve_over_rows` for each target in turn, from one elimination of the rows."""
    n = len(rows)
    mod = ctx.modulus
    p = ctx.p
    pivots = [(col, row, p ** ctx.val(row[col])) for col, row in _augmented(rows, ctx, dim)[0]]

    def solve(target):
        w = [e % mod for e in target]
        coeff = [0] * n
        for col, row, piv in pivots:
            a = w[col]
            if a % piv:
                return None
            q = a // piv
            if q:
                for k in range(dim):
                    w[k] = (w[k] - q * row[k]) % mod
                for k in range(n):
                    coeff[k] = (coeff[k] + q * row[dim + k]) % mod
        return None if any(w) else coeff

    return [solve(t) for t in targets]


def isolated_kernel(rows, ctx, dim) -> Span:
    """Span of the coefficient vectors whose row-combination vanishes outright.

    Unlike `left_kernel`, whose generators it profiles, combinations that
    merely become divisible by a high power of p contribute nothing: canonical
    kernel directions with positive pivot valuation are closure artifacts of
    the finite precision and are dropped.  This is the right notion for
    centraliser and radical computations, which evaluate characteristic-zero
    criteria at precision; the result is a saturated (isolated) span.
    """
    profile = structural_profile(left_kernel(rows, ctx, dim), ctx, len(rows))
    return Span(ctx, len(rows), [w for e, w in profile if e == 0])


def structural_profile(rows, ctx, dim) -> list[tuple[int, Vector]]:
    """Elementary-divisor generators (e_i, w_i) with w_i primitive.

    Gaussian elimination pivoting on the globally minimal valuation entry
    and adding no closure rows: the result exposes the Z_p-module structure
    (span = sum of p^e_i w_i with e_1 <= e_2 <= ...), which the
    column-ordered canonical form deliberately hides behind closure pivots.
    """
    mod = ctx.modulus
    p = ctx.p
    work = [[e % mod for e in r] for r in rows]
    work = [r for r in work if any(r)]
    out = []
    while work:
        best = None
        for r in work:
            for j, e in enumerate(r):
                if e:
                    v = ctx.val(e)
                    if best is None or v < best[0]:
                        best = (v, r, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        e0, row, col = best
        work.remove(row)
        q0 = p**e0
        w = [x // q0 for x in row]
        u = ctx.inv(w[col])
        w = [(u * x) % mod for x in w]
        out.append((e0, tuple(w)))
        for r in work:
            if r[col]:
                q = r[col] // q0
                for k in range(dim):
                    r[k] = (r[k] - q * q0 * w[k]) % mod
        work = [r for r in work if any(r)]
    return out


# ---------------------------------------------------------------------------
# matrix exponential / logarithm / p-adic powers
# ---------------------------------------------------------------------------


def _val_factorial(n: int, p: int) -> int:
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def _nilpotency_degree_mod_p(A: PMatrix) -> int | None:
    """Least k with A^k = 0 mod p, or None: the length of A's power table at precision 1."""
    powers = powers_to_zero(PMatrix(PadicContext(A.ctx.p, 1, A.ctx.rho), A.entries), A.rows + 1)
    return None if powers is None else len(powers)


def _series_degree(A: PMatrix, what: str) -> int:
    """Nilpotency degree mod p, checked against convergence of the series.

    Degree k makes the valuation of A^n grow like n/k, which outruns
    v_p(n!) exactly when k < p - 1; the documented sufficient condition
    A^2 = 0 mod p is the case k <= 2.
    """
    ctx = A.ctx
    if ctx.p < 5:
        raise ConvergenceViolated(f"matrix {what} needs p >= 5")
    k = _nilpotency_degree_mod_p(A)
    if k is None or k >= ctx.p - 1:
        raise ConvergenceViolated(f"{what} series diverges: nilpotency degree mod p not below p - 1")
    return max(k, 1)


def _series_bound(p: int, N: int, k: int, denominator_val) -> int:
    """Least n0 >= 1 with floor(n/k) - denominator_val(n) >= N for every n >= n0.

    A^n has valuation at least floor(n/k), so from n0 on the n-th term of the
    series vanishes at precision.  For k < p - 1 the inequality holds past
    (N + 2) k (p - 1) for the denominators n! and n alike, so the scan stops there.
    """
    n0 = 1
    for n in range(1, (N + 2) * k * (p - 1) + 1):
        if n // k - denominator_val(n) < N:
            n0 = n + 1
    return n0


def _series_sum(X: PMatrix, head: int, n0: int, denominator, start) -> PMatrix:
    """start + sum of X^n / denominator(n) for n = 1..n0, exact at X's precision.

    The sum runs `head` digits above the working precision, so that dividing a
    term by the p-part of its denominator keeps every digit that is returned;
    the caller's bound makes that p-part divide the term.  `start` is
    PMatrix.identity or PMatrix.zero.
    """
    ctx = X.ctx
    p = ctx.p
    big = ctx.lift(head)
    Xbig = X.lift(big)
    term = PMatrix.identity(big, X.rows)
    acc = start(big, X.rows)
    for n in range(1, n0 + 1):
        term = term @ Xbig
        unit, q = denominator(n), 1
        while unit % p == 0:
            unit //= p
            q *= p
        if any(e % q for row in term.entries for e in row):
            raise ConvergenceViolated("valuation bookkeeping failed")
        inv_u = pow(unit, -1, big.modulus)
        acc = acc + PMatrix(big, [[(e // q) * inv_u for e in row] for row in term.entries])
    return PMatrix(ctx, acc.entries)


def mat_exp(A: PMatrix) -> PMatrix:
    """Sum of A^n / n!, exact at the working precision.

    Requires p >= 5 and A nilpotent mod p of degree below p - 1 (the
    documented sufficient condition is A^2 = 0 mod p): the valuation of A^n
    then grows fast enough to outrun v_p(n!), and the truncation bound is
    computed from p, N and the degree rather than hard-coded.
    """
    p = A.ctx.p
    k = _series_degree(A, "exponential")
    n0 = _series_bound(p, A.ctx.precision, k, lambda n: _val_factorial(n, p))
    head = _val_factorial(n0, p) + 1
    return _series_sum(A, head, n0, factorial, PMatrix.identity)


def mat_log(M: PMatrix) -> PMatrix:
    """Sum of (-1)^(n-1) (M-I)^n / n, exact at the working precision."""
    ctx = M.ctx
    E = M - PMatrix.identity(ctx, M.rows)
    k = _series_degree(E, "logarithm")
    p = ctx.p
    n0 = _series_bound(p, ctx.precision, k, lambda n: _val_factorial(n, p) - _val_factorial(n - 1, p))  # v_p(n)
    head = 0  # base-p digits of n0
    while p**head <= n0:
        head += 1
    return _series_sum(E, head, n0, lambda n: n if n % 2 else -n, PMatrix.zero)


def binomials(n: int):
    """C(n, 0), C(n, 1), ... exactly, for an integer n >= 0; ends after C(n, n)."""
    c, j = 1, 0
    while c:
        yield c
        j += 1
        c = c * (n - j + 1) // j


def powers_to_zero(E: PMatrix, limit: int) -> list[PMatrix] | None:
    """[E^0, ..., E^(K-1)] with E^K = 0 at precision, or None when E^limit != 0."""
    powers = [PMatrix.identity(E.ctx, E.rows)]
    cur = E
    while not cur.is_zero():
        if len(powers) == limit:  # cur is E^limit
            return None
        powers.append(cur)
        cur = cur @ E
    return powers


def unipotent_order_exp(M: PMatrix) -> int:
    """Least k with M^(p^k) = I at the working precision."""
    ctx = M.ctx
    I = PMatrix.identity(ctx, M.rows)
    if _nilpotency_degree_mod_p(M - I) is None:
        raise NotProP("matrix is not unipotent mod p")
    bound = ctx.precision + 2
    power = M
    for k in range(bound + 1):
        if power == I:
            return k
        power = power.pow(ctx.p)
    raise NotProP(f"no p-power order within exponent bound {bound}")


def mat_pow_padic(M: PMatrix, lam: int) -> PMatrix:
    """M^lam for a p-adic exponent, via the p-power order at precision."""
    q = M.ctx.p ** unipotent_order_exp(M)
    return M.pow(lam % q)
