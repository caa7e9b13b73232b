"""The Hausdorff series as evaluable left-normed bracket words.

Generation and verification are deliberately kept on separate routes, and
both work in the free associative algebra, where a bracket is ab - ba: the
table coefficients come from Dynkin's explicit summation formula, its nested
brackets expanded and solved onto the canonical left-normed basis words,
while the test oracle multiplies truncated exponential series and takes the
logarithm.  The two must agree coefficient-by-coefficient.

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
from .linalg import PMatrix, mat_exp, mat_log, vec_scale

# ---------------------------------------------------------------------------
# free associative algebra over Q, truncated by word length
# ---------------------------------------------------------------------------


def _accumulate(out: dict, w: str, c) -> None:
    """out[w] += c, dropping the word when its coefficient cancels."""
    s = out.get(w, 0) + c
    if s:
        out[w] = s
    else:
        out.pop(w, None)


def poly_mul(a: dict, b: dict, W: int) -> dict:
    out: dict[str, Fraction] = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) > W:
                continue
            _accumulate(out, wa + wb, ca * cb)
    return out


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for w, c in b.items():
        _accumulate(out, w, c)
    return out


def poly_scale(c, a: dict) -> dict:
    if not c:
        return {}
    return {w: c * v for w, v in a.items()}


def poly_bracket(a: dict, b: dict, W: int) -> dict:
    """ab - ba, truncated at weight W."""
    return poly_add(poly_mul(a, b, W), poly_scale(-1, poly_mul(b, a, W)))


@lru_cache(maxsize=None)
def word_to_assoc(word: str) -> tuple:
    """Associative expansion of the left-normed bracket [w_1, ..., w_k]."""
    if len(word) == 1:
        return ((word, Fraction(1)),)
    out = poly_bracket(dict(word_to_assoc(word[:-1])), {word[-1]: Fraction(1)}, len(word))
    return tuple(sorted(out.items()))


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


def reduce_to_basis(vec: dict) -> dict[str, Fraction]:
    """Coefficients over the canonical basis words of a Lie element given associatively."""
    out: dict[str, Fraction] = {}
    for m in {len(w) for w in vec}:
        out.update(_degree_solver(m).solve({w: c for w, c in vec.items() if len(w) == m}))
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
    # Dynkin coefficient of each right-nested bracket [a_1, [a_2, ... a_w]],
    # summed over the compositions that spell the same letters a_1 ... a_w
    coeffs: dict[str, Fraction] = {}
    for seq in _pair_compositions(W):
        n = len(seq)
        letters = "".join("X" * r + "Y" * s for r, s in seq)
        denom = n * len(letters)
        for r, s in seq:
            denom *= factorial(r) * factorial(s)
        _accumulate(coeffs, letters, Fraction((-1) ** (n - 1), denom))
    acc: dict[str, Fraction] = {}
    for letters, coeff in coeffs.items():
        nested = {letters[-1]: coeff}
        for letter in reversed(letters[:-1]):
            nested = poly_bracket({letter: Fraction(1)}, nested, W)
        acc = poly_add(acc, nested)
    reduced = reduce_to_basis(acc)
    terms = tuple(sorted(((c, w) for w, c in reduced.items()), key=lambda t: (len(t[1]), t[1])))
    return BCHTable(W, terms)


def free_nilpotent_lattice(ctx, nil_class: int) -> Lattice:
    """The free nilpotent Lie lattice on X, Y of the given class.

    Basis: the canonical left-normed basis words up to the class; structure
    constants come from solving each word bracket, expanded as ab - ba, onto
    that basis, so the lattice doubles as an independent evaluation ground
    for the series.
    """
    if nil_class >= ctx.p:
        raise ValueError("the class must stay below p for integral constants")
    words = [w for m in range(1, nil_class + 1) for w in lie_basis_words(m)]
    index = {w: i for i, w in enumerate(words)}
    d = len(words)
    brackets = []
    for i, u in enumerate(words):
        for j in range(i + 1, d):
            if len(u) + len(words[j]) > nil_class:
                continue
            c = [0] * d
            uw = poly_bracket(dict(word_to_assoc(u)), dict(word_to_assoc(words[j])), nil_class)
            for w, coeff in reduce_to_basis(uw).items():
                c[index[w]] = ctx.reduce_fraction(coeff)
            brackets.append((i, j, c))
    return Lattice.from_brackets(ctx, d, brackets, tuple(words))


# ---------------------------------------------------------------------------
# the group law on nilpotent lattices of class < p
# ---------------------------------------------------------------------------

def nilpotency_class_checked(L: Lattice) -> int:
    """Nilpotency class at precision, raising ClassTooLarge when >= p or not nilpotent.

    The class is read off the lattice's stored lower central series; the terms
    of its Hausdorff table reduced mod p^N are kept on it in `L.bch_terms`.
    """
    c = L.nilpotency_class()
    if c is None or c >= L.ctx.p:
        raise ClassTooLarge(
            f"nilpotency class at precision is not below p = {L.ctx.p}; "
            "the series has p-divisible denominators here"
        )
    c = max(c, 1)
    if L.bch_terms is None:
        L.bch_terms = tuple((L.ctx.reduce_fraction(q), w) for q, w in hausdorff_table(c).terms)
    return c


def evaluate_words(terms, u, v, bracket):
    """Yield (coefficient, value) for each term (coefficient, word) nonzero at X = u, Y = v.

    `terms` is a table's terms, such as `BCHTable.terms`.  A left-normed word
    is its prefix bracketed with its last letter, so the words share their
    prefixes: each distinct prefix is bracketed once per call, and a zero
    prefix makes every longer word zero without a bracket.
    """
    values = {"X": tuple(u), "Y": tuple(v)}

    def value(word):
        val = values.get(word)
        if val is None:
            head = value(word[:-1])
            val = bracket(head, values[word[-1]]) if any(head) else head
            values[word] = val
        return val

    for coeff, word in terms:
        val = value(word)
        if any(val):
            yield coeff, val


def bch_mul(L: Lattice, u, v):
    """Group product on the lattice through the Hausdorff series."""
    terms = L.bch_terms
    if terms is None:  # the class is checked once, when the terms are first set
        nilpotency_class_checked(L)
        terms = L.bch_terms
    out = [0] * L.dim
    for coeff, val in evaluate_words(terms, u, v, L.bracket):
        out = [o + coeff * x for o, x in zip(out, val)]
    mod = L.ctx.modulus
    return tuple(o % mod for o in out)


def bch_neg(L: Lattice, u):
    """Group inverse: -u."""
    mod = L.ctx.modulus
    return tuple(-a % mod for a in u)


def bch_pow(L: Lattice, u, lam: int):
    """lam-th power of u, i.e. lam * u."""
    return vec_scale(lam, u, L.ctx.modulus)


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
