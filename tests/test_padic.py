import random
from fractions import Fraction

import pytest

from padiclie import PadicContext, PMatrix, find_nonresidue
from padiclie.errors import ContextMismatch, DenominatorDivisibleByP, NotAUnit
from padiclie.padic import is_prime


def test_reduce_examples():
    ctx = PadicContext(5, 2)
    assert ctx.reduce_fraction(Fraction(1, 2)) == 13
    assert ctx.reduce_fraction(Fraction(0, 1)) == 0
    with pytest.raises(DenominatorDivisibleByP):
        ctx.reduce_fraction(Fraction(1, 5))


def test_valuation_examples():
    ctx = PadicContext(5, 4)
    assert ctx.val(25) == 2
    assert ctx.val(0) == 4
    assert ctx.val(3) == 0


def test_unit_inverse_examples():
    ctx = PadicContext(5, 2)
    assert ctx.inv(2) == 13
    assert ctx.inv(1) == 1
    with pytest.raises(NotAUnit):
        ctx.inv(5)


def test_find_nonresidue():
    assert find_nonresidue(5) == 2
    assert find_nonresidue(7) == 3
    assert find_nonresidue(3) == 2


def test_find_nonresidue_matches_squares_set():
    # oracle: the least r >= 2 outside the set of nonzero squares mod p
    for p in (q for q in range(3, 200) if is_prime(q)):
        squares = {(x * x) % p for x in range(1, p)}
        r = 2
        while r % p in squares:
            r += 1
        assert find_nonresidue(p) == r


def test_context_validation():
    with pytest.raises(ValueError):
        PadicContext(6, 2)
    with pytest.raises(ValueError):
        PadicContext(5, 0)
    with pytest.raises(ValueError):
        PadicContext(5, 3, rho=4)  # 4 is a square mod 5
    assert PadicContext(5, 3, rho=3).rho == 3
    assert PadicContext(2, 3).rho is None


def test_ring_axioms_random():
    # the residue API against the ring operations: val is ultrametric, inv multiplicative
    ctx = PadicContext(7, 3)
    mod = ctx.modulus
    rng = random.Random(0)
    xs = [rng.randrange(mod) for _ in range(12)]
    for a in xs:
        assert ctx.val(-a) == ctx.val(a)
        for b in xs:
            assert ctx.val(a + b) >= min(ctx.val(a), ctx.val(b))
            if a % ctx.p and b % ctx.p:
                assert ctx.inv(a * b) == ctx.inv(a) * ctx.inv(b) % mod


def test_valuation_of_products():
    ctx = PadicContext(5, 5)
    rng = random.Random(1)
    for _ in range(200):
        a = rng.randrange(ctx.modulus)
        b = rng.randrange(ctx.modulus)
        assert ctx.val(a * b) == min(ctx.val(a) + ctx.val(b), ctx.precision)


def test_unit_inverse_involution():
    ctx = PadicContext(5, 4)
    rng = random.Random(2)
    for _ in range(100):
        x = rng.randrange(ctx.modulus)
        if ctx.val(x):
            continue
        assert ctx.inv(ctx.inv(x)) == x
        assert x * ctx.inv(x) % ctx.modulus == 1


def test_reduce_is_homomorphism():
    ctx = PadicContext(5, 3)
    mod = ctx.modulus
    rng = random.Random(3)
    for _ in range(100):
        a = Fraction(rng.randrange(-40, 40), rng.choice([1, 2, 3, 4, 6, 7, 8, 9]))
        b = Fraction(rng.randrange(-40, 40), rng.choice([1, 2, 3, 4, 6, 7, 8, 9]))
        ra, rb = ctx.reduce_fraction(a), ctx.reduce_fraction(b)
        assert ctx.reduce_fraction(a + b) == (ra + rb) % mod
        assert ctx.reduce_fraction(a * b) == ra * rb % mod


def test_context_mismatch():
    # residues are plain ints; matrices check that their contexts agree
    a = PMatrix(PadicContext(5, 3), [[2]])
    b = PMatrix(PadicContext(5, 4), [[2]])
    for op in (a.__add__, a.__sub__, a.__matmul__):
        with pytest.raises(ContextMismatch):
            op(b)


def test_scalar_serialization():
    ctx = PadicContext(5, 3)
    # a residue is written as the plain int in [0, p^N)
    assert PMatrix(ctx, [[17, -1], [250, 0]]).to_json() == {"rows": 2, "entries": [17, 124, 0, 0]}
    assert PadicContext.from_json({"p": 5, "precision": 3}) == ctx


def test_zero_flags():
    # zero at precision has valuation N, and a unit valuation 0
    ctx = PadicContext(5, 3)
    assert ctx.val(0) == ctx.precision
    assert ctx.val(125) == ctx.precision
    assert ctx.val(25) < ctx.precision
    assert ctx.val(3) == 0
    assert ctx.val(10) > 0
