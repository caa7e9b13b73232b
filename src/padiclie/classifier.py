"""Canonical representatives of multiplicative-similarity classes in gl_2.

Two matrices are multiplicatively similar when one is a unit multiple of a
conjugate of the other.  The classifier extracts, from a residue matrix A
mod p^N, the canonical label of its class:

  Zero | Nilpotent(s) | Scalar(s) | ScalarPlus(s, r, d)
       | TraceCore(s, r, d) | ZeroTrace(s, r, square/nonsquare)

Writing A = p^s A0 with A0 nonzero mod p, only N - s digits of A0 are
meaningful; every case decision below is made inside that window, and the
parameter d is recorded together with the precision at which the window
determines it.  Descriptor equality compares d only at the common recorded
precision.

In strict mode the extracted valuations must satisfy s (+ r) < N - 1,
otherwise PrecisionExhausted is raised; the relaxed mode used by the
enumeration oracle labels every matrix with the coarsest honest descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameter, PrecisionExhausted, ScaleTooLarge
from .linalg import PMatrix
from .padic import PadicContext, is_prime, is_square_unit

BRUTE_FORCE_CAP = 500_000


@dataclass(frozen=True)
class SimilarityDescriptor:
    variant: str  # zero | nilpotent | scalar | scalarplus | tracecore | zerotrace
    s: int | None = None
    r: int | None = None
    d: int | None = None
    dprec: int | None = None  # d is determined mod p^dprec
    residue: str | None = None  # square | nonsquare (zerotrace only)

    def render(self, p: int) -> str:
        """Stable one-line form, e.g. "tracecore s=0 r=1 d=3 (mod 5^2)"."""
        if self.variant == "zero":
            return "zero"
        out = f"{self.variant} s={self.s}"
        if self.variant in ("scalarplus", "tracecore"):
            out += f" r={self.r} d={self.d} (mod {p}^{self.dprec})"
        elif self.variant == "zerotrace":
            out += f" r={self.r} residue={self.residue}"
        return out

    def key(self):
        return (self.variant, self.s, self.r, self.d, self.dprec, self.residue)


def descriptors_equal(a: SimilarityDescriptor, b: SimilarityDescriptor, p: int) -> bool:
    """Equality at the common determined precision of d."""
    if (a.variant, a.s, a.r, a.residue) != (b.variant, b.s, b.r, b.residue):
        return False
    if a.d is None:
        return True
    common = min(a.dprec, b.dprec)
    return (a.d - b.d) % p**common == 0


def classify(A: PMatrix, strict: bool = True) -> SimilarityDescriptor:
    """Canonical multiplicative-similarity label of a 2x2 matrix."""
    ctx = A.ctx
    ctx.require_odd()
    if A.rows != 2 or A.cols != 2:
        raise ValueError("classifier works on 2x2 matrices")
    p, N = ctx.p, ctx.precision
    entries = [e for row in A.entries for e in row]
    if all(e == 0 for e in entries):
        return SimilarityDescriptor("zero")
    s = min(ctx.val(e) for e in entries if e)
    ps = p**s
    a0 = [[e // ps for e in row] for row in A.entries]  # meaningful mod p^(N-s)
    avail = N - s
    win = p**avail

    def _strict(total):
        if strict and total >= N - 1:
            raise PrecisionExhausted(
                f"extracted valuations consume {total} of {N} digits; "
                "raise the working precision"
            )

    lam = a0[0][0] % win
    off = [
        (a0[0][1]) % win,
        (a0[1][0]) % win,
        (a0[0][0] - a0[1][1]) % win,
    ]
    scalar_depth = min((ctx.val(e) if e else avail) for e in off)
    scalar_depth = min(scalar_depth, avail)
    if scalar_depth >= avail:
        _strict(s)
        return SimilarityDescriptor("scalar", s=s)
    if scalar_depth >= 1:
        # scalar mod p^r but not mod p^(r+1)
        r = scalar_depth
        _strict(s + r)
        u1 = pow(lam, -1, win)
        B = [[(u1 * e) % win for e in row] for row in a0]
        pr = p**r
        A1 = [[(B[i][j] - (1 if i == j else 0)) // pr % win for j in range(2)] for i in range(2)]
        tr = (A1[0][0] + A1[1][1]) % win
        t = (-tr * pow(2 + pr * tr, -1, win)) % win
        # u2 = 1 + p^r t; A2 = A1 + tI + p^r t A1 has trace 0 in the window
        A2 = [
            [(A1[i][j] + (t if i == j else 0) + pr * t * A1[i][j]) % win for j in range(2)]
            for i in range(2)
        ]
        dprec = avail - r
        d = (-(A2[0][0] * A2[1][1] - A2[0][1] * A2[1][0])) % p**dprec
        return SimilarityDescriptor("scalarplus", s=s, r=r, d=d, dprec=dprec)
    trace = (a0[0][0] + a0[1][1]) % win
    det = (a0[0][0] * a0[1][1] - a0[0][1] * a0[1][0]) % win
    if trace:
        # nonzero trace in the window
        r = ctx.val(trace)
        _strict(s + r)
        w = trace // p**r
        u = pow(w, -1, win)
        d_full = (-(u * u) * det) % win
        vdet = ctx.val(det) if det else avail
        dprec = min(avail - r + min(vdet, avail), avail)
        return SimilarityDescriptor("tracecore", s=s, r=r, d=d_full % p**dprec, dprec=dprec)
    if det == 0:
        _strict(s)
        return SimilarityDescriptor("nilpotent", s=s)
    r = ctx.val(det)
    _strict(s + r)
    w = det // p**r
    residue = "square" if is_square_unit(-w % p, p) else "nonsquare"
    return SimilarityDescriptor("zerotrace", s=s, r=r, residue=residue)


def canonical_matrix(desc: SimilarityDescriptor, ctx: PadicContext) -> PMatrix:
    """The listed core matrix of the class, scaled by p^s."""
    p = ctx.p
    if desc.variant == "zero":
        return PMatrix.zero(ctx, 2)
    ps = p**desc.s
    if desc.variant == "scalar":
        return PMatrix(ctx, [[ps, 0], [0, ps]])
    if desc.variant == "nilpotent":
        return PMatrix(ctx, [[0, 0], [ps, 0]])
    pr = p**desc.r
    if desc.variant == "scalarplus":
        return PMatrix(ctx, [[ps, ps * pr * desc.d], [ps * pr, ps]])
    if desc.variant == "tracecore":
        return PMatrix(ctx, [[0, ps * desc.d], [ps, ps * pr]])
    if desc.variant == "zerotrace":
        top = pr if desc.residue == "square" else pr * ctx.rho
        return PMatrix(ctx, [[0, ps * top], [ps, 0]])
    raise ValueError(f"unknown descriptor variant {desc.variant}")


def similar(A: PMatrix, B: PMatrix, strict: bool = True) -> bool:
    """Multiplicative similarity at the working precision, via descriptors."""
    return descriptors_equal(classify(A, strict), classify(B, strict), A.ctx.p)


# ---------------------------------------------------------------------------
# exhaustive small-modulus oracle
# ---------------------------------------------------------------------------


def _primitive_root(p: int, q: int) -> int:
    """A generator of the cyclic unit group of Z/q, q an odd prime power."""
    order = p - 1
    fac = []
    m = order
    f = 2
    while f * f <= m:
        if m % f == 0:
            fac.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        fac.append(m)
    g = None
    for cand in range(2, p):
        if all(pow(cand, order // f, p) != 1 for f in fac):
            g = cand
            break
    if pow(g, p - 1, p * p if q > p else p) == 1 and q > p:
        g += p
    return g % q


def _conj_moves(p: int, k: int):
    """Generators of unit-scaled conjugation mod p^k, for both enumeration routines."""
    if p == 2 or not is_prime(p):
        raise BadParameter(f"the orbit oracle needs an odd prime, got p = {p}")
    if p ** (4 * k) > BRUTE_FORCE_CAP:
        raise ScaleTooLarge(f"{p}^{4*k} matrices is beyond the enumeration cap")
    q = p**k
    g = _primitive_root(p, q)
    mats = [
        (1, 1, 0, 1),  # upper elementary
        (1, 0, 1, 1),  # lower elementary
        (g, 0, 0, 1),  # unit determinant twist
    ]

    def inv2(m):
        a, b, c, d = m
        det = (a * d - b * c) % q
        di = pow(det, -1, q)
        return (d * di % q, -b * di % q, -c * di % q, a * di % q)

    return [(m, inv2(m)) for m in mats], g, q


def _orbit_from(seed, moves, g, q):
    seen = {seed}
    stack = [seed]
    while stack:
        a, b, c, d = stack.pop()
        nbrs = [((g * a) % q, (g * b) % q, (g * c) % q, (g * d) % q)]
        for (ma, mb, mc, md), (ia, ib, ic, id_) in moves:
            # P^-1 X P
            xa = ia * a + ib * c
            xb = ia * b + ib * d
            xc = ic * a + id_ * c
            xd = ic * b + id_ * d
            nbrs.append(
                (
                    (xa * ma + xb * mc) % q,
                    (xa * mb + xb * md) % q,
                    (xc * ma + xd * mc) % q,
                    (xc * mb + xd * md) % q,
                )
            )
        for nb in nbrs:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


def full_orbit_partition(p: int, k: int) -> dict:
    """Map every matrix mod p^k to a canonical orbit representative."""
    moves, g, q = _conj_moves(p, k)
    rep: dict[tuple, tuple] = {}
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    m = (a, b, c, d)
                    if m in rep:
                        continue
                    orbit = _orbit_from(m, moves, g, q)
                    r = min(orbit)
                    for x in orbit:
                        rep[x] = r
    return rep
