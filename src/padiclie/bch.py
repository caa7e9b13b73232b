"""The Hausdorff series as evaluable left-normed bracket words.

Generation and verification are deliberately kept on separate routes: the
table coefficients come from Dynkin's explicit summation formula (nested
brackets, rewritten onto left-normed words by antisymmetry/Jacobi), while
the test oracle multiplies truncated exponential series in the free
associative algebra and takes the logarithm.  The two must agree
coefficient-by-coefficient.

On a lattice whose nilpotency class c at precision satisfies c < p, the
table defines the group law x*y; all coefficient denominators then have
prime factors <= c, so reduction mod p^N never meets a p in a denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import ClassTooLarge, CrossCheckMismatch
from .lattice import Lattice
from .linalg import PMatrix, mat_exp, mat_log, vec_add, vec_scale
from .padic import PadicScalar

# ---------------------------------------------------------------------------
# free associative algebra over Q, truncated by word length
# ---------------------------------------------------------------------------


def poly_mul(a: dict, b: dict, W: int) -> dict:
    out: dict[str, Fraction] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > W:
                continue
            w = wa + wb
            c = out.get(w, 0) + ca * cb
            if c:
                out[w] = c
            elif w in out:
                del out[w]
    return out


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        elif w in out:
            del out[w]
    return out


def poly_scale(c, a: dict) -> dict:
    if not c:
        return {}
    return {w: c * v for w, v in a.items()}


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


@lru_cache(maxsize=None)
def word_to_assoc(word: str) -> tuple:
    """Associative expansion of the left-normed bracket [w_1, ..., w_k]."""
    if len(word) == 1:
        return ((word, Fraction(1)),)
    head = dict(word_to_assoc(word[:-1]))
    last = {word[-1]: Fraction(1)}
    W = len(word)
    out = poly_add(poly_mul(head, last, W), poly_scale(-1, poly_mul(last, head, W)))
    return tuple(sorted(out.items()))


def _normalize_word(word: str):
    """Order the first two letters; words starting with a repeat vanish."""
    if len(word) >= 2:
        if word[0] == word[1]:
            return None
        if word[0] > word[1]:
            return (-1, word[1] + word[0] + word[2:])
    return (1, word)


@lru_cache(maxsize=None)
def _word_bracket(wa: str, wb: str) -> tuple:
    """[A, B] for left-normed words, as a combination of left-normed words.

    Uses [A, [P, b]] = [[A, P], b] - [[A, b], P] to peel B down to letters.
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
    for w, c in _word_bracket(wa, prefix):
        for w2, c2 in _word_bracket(w, last):
            s = out.get(w2, 0) + c * c2
            if s:
                out[w2] = s
            elif w2 in out:
                del out[w2]
    for w, c in _word_bracket(wa, last):
        for w2, c2 in _word_bracket(w, prefix):
            s = out.get(w2, 0) - c * c2
            if s:
                out[w2] = s
            elif w2 in out:
                del out[w2]
    return tuple(sorted(out.items()))


def _combo_bracket(a: dict, b: dict) -> dict:
    out: dict[str, Fraction] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for w, c in _word_bracket(wa, wb):
                s = out.get(w, 0) + ca * cb * c
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
    return out


def right_nested_to_words(letters: str) -> dict:
    """[a_1, [a_2, [... [a_{m-1}, a_m]]]] as left-normed words."""
    combo = {letters[-1]: Fraction(1)}
    for letter in reversed(letters[:-1]):
        combo = _combo_bracket({letter: Fraction(1)}, combo)
    return combo


class _DegreeSolver:
    """Echelonised associative expansions of the chosen basis words.

    Each echelon row remembers how it decomposes over the retained basis
    words, so solving expresses any Lie element of the degree in that basis.
    """

    def __init__(self, candidates: list[str]):
        self.words: list[str] = []
        self.rows: list[tuple[str, dict, dict]] = []  # (pivot, vector, basis coeffs)
        for w in candidates:
            vec = dict(word_to_assoc(w))
            coeffs: dict[str, Fraction] = {}
            for pivot, row, rc in self.rows:
                c = vec.get(pivot)
                if c:
                    vec = poly_add(vec, poly_scale(-c, row))
                    for bw, v in rc.items():
                        coeffs[bw] = coeffs.get(bw, Fraction(0)) - c * v
            if vec:
                self.words.append(w)
                coeffs[w] = coeffs.get(w, Fraction(0)) + 1
                pivot = min(vec)
                inv = Fraction(1) / vec[pivot]
                self.rows.append(
                    (pivot, poly_scale(inv, vec), {bw: v * inv for bw, v in coeffs.items()})
                )

    def solve(self, vec: dict) -> dict[str, Fraction]:
        """Coefficients over basis words of a Lie element given associatively."""
        out: dict[str, Fraction] = {}
        work = dict(vec)
        for pivot, row, rc in self.rows:
            c = work.get(pivot)
            if c:
                work = poly_add(work, poly_scale(-c, row))
                for bw, v in rc.items():
                    out[bw] = out.get(bw, Fraction(0)) + c * v
        if work:
            raise ArithmeticError("element is not in the span of the basis words")
        return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def _degree_solver(m: int) -> _DegreeSolver:
    if m == 1:
        return _DegreeSolver(["X", "Y"])
    candidates = []
    for bits in range(2 ** (m - 2)):
        tail = "".join("Y" if (bits >> k) & 1 else "X" for k in range(m - 2))
        candidates.append("XY" + tail)
    candidates.sort()
    return _DegreeSolver(candidates)


def lie_basis_words(m: int) -> list[str]:
    """Canonical left-normed basis words in degree m (greedy lexicographic)."""
    return list(_degree_solver(m).words)


def reduce_to_basis(combo: dict) -> dict[str, Fraction]:
    """Rewrite a combination of left-normed words onto the canonical basis."""
    by_degree: dict[int, dict] = {}
    for w, c in combo.items():
        by_degree.setdefault(len(w), {})
        vec = poly_scale(c, dict(word_to_assoc(w)))
        by_degree[len(w)] = poly_add(by_degree[len(w)], vec)
    out: dict[str, Fraction] = {}
    for m, vec in by_degree.items():
        if vec:
            out.update(_degree_solver(m).solve(vec))
    return out


# ---------------------------------------------------------------------------
# the Hausdorff series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BCHTable:
    """Coefficients of the Hausdorff series on left-normed basis words."""

    weight: int
    terms: tuple  # ((Fraction, word), ...) sorted by (len(word), word)

    def coefficient(self, word: str) -> Fraction:
        for c, w in self.terms:
            if w == word:
                return c
        return Fraction(0)

    def as_assoc(self) -> dict:
        out: dict[str, Fraction] = {}
        for c, w in self.terms:
            out = poly_add(out, poly_scale(c, dict(word_to_assoc(w))))
        return out

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "terms": [
                {"num": c.numerator, "den": c.denominator, "word": w} for c, w in self.terms
            ],
        }


def _pair_compositions(max_weight: int):
    """Sequences of pairs (r, s) != (0, 0) with total weight <= max_weight."""
    def rec(remaining, prefix):
        if prefix:
            yield prefix
        for t in range(1, remaining + 1):
            for r in range(t + 1):
                yield from rec(remaining - t, prefix + [(r, t - r)])

    yield from rec(max_weight, [])


@lru_cache(maxsize=None)
def hausdorff_table(W: int) -> BCHTable:
    """Hausdorff series up to weight W via Dynkin's summation formula."""
    if W < 1:
        raise ValueError("weight must be >= 1")
    acc: dict[str, Fraction] = {}
    for seq in _pair_compositions(W):
        n = len(seq)
        word = "".join("X" * r + "Y" * s for r, s in seq)
        w = len(word)
        denom = n * w
        for r, s in seq:
            denom *= factorial(r) * factorial(s)
        coeff = Fraction((-1) ** (n - 1), denom)
        for wrd, c in right_nested_to_words(word).items():
            s2 = acc.get(wrd, 0) + coeff * c
            if s2:
                acc[wrd] = s2
            elif wrd in acc:
                del acc[wrd]
    reduced = reduce_to_basis(acc)
    terms = tuple(sorted(((c, w) for w, c in reduced.items()), key=lambda t: (len(t[1]), t[1])))
    return BCHTable(W, terms)


def hausdorff_oracle(W: int) -> dict:
    """log(exp X exp Y) in the free associative algebra, truncated at weight W."""
    X = {"X": Fraction(1)}
    Y = {"Y": Fraction(1)}
    return log_series(poly_mul(exp_series(X, W), exp_series(Y, W), W), W)


def free_nilpotent_lattice(ctx, nil_class: int) -> Lattice:
    """The free nilpotent Lie lattice on X, Y of the given class.

    Basis: the canonical left-normed basis words up to the class; structure
    constants come from rewriting word brackets onto that basis, so the
    lattice doubles as an independent evaluation ground for the series.
    """
    if nil_class >= ctx.p:
        raise ValueError("the class must stay below p for integral constants")
    words = [w for m in range(1, nil_class + 1) for w in lie_basis_words(m)]
    index = {w: i for i, w in enumerate(words)}
    d = len(words)
    constants = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i == j or len(u) + len(v) > nil_class:
                continue
            reduced = reduce_to_basis(dict(_word_bracket(u, v)))
            for w, c in reduced.items():
                constants[i][j][index[w]] = ctx.reduce_fraction(c)
    return Lattice(ctx, constants, tuple(words))


# ---------------------------------------------------------------------------
# the group law on nilpotent lattices of class < p
# ---------------------------------------------------------------------------

def nilpotency_class_checked(L: Lattice) -> int:
    """Nilpotency class at precision, raising ClassTooLarge when >= p.

    The class is computed once per lattice and kept on it in `L.bch_class`.
    """
    c = L.bch_class
    if c is None:
        c = L.nilpotency_class()
        if c is None:
            c = L.ctx.precision * L.dim + 1  # sentinel: not nilpotent at precision
        L.bch_class = c
    if c >= L.ctx.p:
        raise ClassTooLarge(
            f"nilpotency class at precision is not below p = {L.ctx.p}; "
            "the series has p-divisible denominators here"
        )
    return max(c, 1)


def evaluate_words(table: BCHTable, u, v, bracket):
    """Yield (coefficient, value) for each table term that is nonzero at X = u, Y = v.

    A left-normed word is its prefix bracketed with its last letter, so the
    words share their prefixes: each distinct prefix is bracketed once per
    call, and a zero prefix makes every longer word zero without a bracket.
    """
    values = {"X": tuple(u), "Y": tuple(v)}

    def value(word):
        val = values.get(word)
        if val is None:
            head = value(word[:-1])
            val = bracket(head, values[word[-1]]) if any(head) else head
            values[word] = val
        return val

    for coeff, word in table.terms:
        val = value(word)
        if any(val):
            yield coeff, val


def bch_mul(L: Lattice, u, v):
    """Group product on the lattice through the Hausdorff series."""
    table = hausdorff_table(nilpotency_class_checked(L))
    mod = L.ctx.modulus
    out = (0,) * L.dim
    for coeff, val in evaluate_words(table, u, v, L.bracket):
        out = vec_add(out, vec_scale(L.ctx.reduce_fraction(coeff), val, mod), mod)
    return out


def bch_neg(L: Lattice, u):
    """Group inverse: -u."""
    mod = L.ctx.modulus
    return tuple(-a % mod for a in u)


def bch_pow(L: Lattice, u, lam):
    """lam-th power of u, i.e. lam * u."""
    n = lam.value if isinstance(lam, PadicScalar) else int(lam)
    return vec_scale(n, u, L.ctx.modulus)


def bch_commutator(L: Lattice, u, v):
    """Group commutator u^-1 v^-1 u v in the series coordinates."""
    return bch_mul(L, bch_neg(L, u), bch_mul(L, bch_neg(L, v), bch_mul(L, u, v)))


# ---------------------------------------------------------------------------
# recovering Lie operations from a unipotent-mod-p matrix group
# ---------------------------------------------------------------------------


def lie_from_matrix_group(g: PMatrix, h: PMatrix) -> tuple[PMatrix, PMatrix]:
    """Group elements representing the Lie sum and Lie bracket of g and h.

    Primary route: exp(log g + log h) and exp([log g, log h]).  Cross-check
    route: the inverse-limit formulas evaluated at finite exponent n = N,
    compared in powered form at lifted internal precision so that no digits
    are lost to root extraction.  Disagreement raises CrossCheckMismatch.
    """
    ctx = g.ctx
    N = ctx.precision
    p = ctx.p
    a = mat_log(g)
    b = mat_log(h)
    sum_el = mat_exp(a + b)
    br_el = mat_exp(a @ b - b @ a)

    q = p**N
    # sum: exp(log g + log h)^(p^N) must equal g^(p^N) h^(p^N) mod p^(2N)
    big2 = ctx.lift(N)
    lhs = sum_el.lift(big2).pow(q)
    rhs = g.lift(big2).pow(q) @ h.lift(big2).pow(q)
    if lhs != rhs:
        raise CrossCheckMismatch("sum route disagrees with the limit formula")
    # bracket: exp([log g, log h])^(p^(2N)) must equal [g^(p^N), h^(p^N)] mod p^(3N)
    big3 = ctx.lift(2 * N)
    x = g.lift(big3).pow(q)
    y = h.lift(big3).pow(q)
    comm = x.inverse() @ y.inverse() @ x @ y
    lhs_b = br_el.lift(big3).pow(q * q)
    if lhs_b != comm:
        raise CrossCheckMismatch("bracket route disagrees with the limit formula")
    return sum_el, br_el
