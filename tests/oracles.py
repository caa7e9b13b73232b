"""Reference routes that only the tests call.

Each one is a second way to compute something the library computes:
log(exp X exp Y) by series multiplication for the Hausdorff table, a
table's associative expansion, a single similarity orbit by closure
enumeration, a subgroup's index, and the direct sum of two lattices.
"""

from fractions import Fraction

from padiclie import Lattice, Span
from padiclie.bch import poly_add, poly_mul, poly_scale, word_to_assoc
from padiclie.classifier import _conj_moves, _orbit_from
from padiclie.errors import ContextMismatch


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


def brute_force_orbit(p: int, k: int, A) -> frozenset:
    """Orbit of A mod p^k under unit-scaled conjugation, by closure enumeration.

    A is the entry tuple (a, b, c, d) of the matrix [[a, b], [c, d]].
    """
    q = p**k
    seed = tuple(x % q for x in A)
    moves, g, q = _conj_moves(p, k)
    return frozenset(_orbit_from(seed, moves, g, q))


def index_exp_in_group(U) -> int:
    """log_p |G : U| at precision, for a `SubgroupData` U of G."""
    g = U.group
    fiber_index = Span.full(g.ctx, g.fiber_dim).index_exp(U.fiber)
    return U.h_valuation + fiber_index


def direct_sum(L: Lattice, other: Lattice) -> Lattice:
    if L.ctx != other.ctx:
        raise ContextMismatch("direct sum over different contexts")
    d1, d2 = L.dim, other.dim
    brackets = [(i, j, c + (0,) * d2) for i, j, c in L._brackets()]
    brackets += [(d1 + i, d1 + j, (0,) * d1 + c) for i, j, c in other._brackets()]
    labels = tuple(L.labels) + tuple(f"{x}'" for x in other.labels)
    return Lattice.from_brackets(L.ctx, d1 + d2, brackets, labels)
