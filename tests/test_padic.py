import random
from fractions import Fraction

import pytest

from padiclie import PadicContext, find_nonresidue, reduce, unit_inverse, valuation
from padiclie.errors import ContextMismatch, DenominatorDivisibleByP, NotAUnit
from padiclie.padic import is_prime


def test_reduce_examples():
    ctx = PadicContext(5, 2)
    assert reduce(Fraction(1, 2), ctx).value == 13
    assert reduce(Fraction(0, 1), ctx).value == 0
    with pytest.raises(DenominatorDivisibleByP):
        reduce(Fraction(1, 5), ctx)


def test_valuation_examples():
    ctx = PadicContext(5, 4)
    assert valuation(ctx.scalar(25)) == 2
    assert valuation(ctx.scalar(0)) == 4
    assert valuation(ctx.scalar(3)) == 0


def test_unit_inverse_examples():
    ctx = PadicContext(5, 2)
    assert unit_inverse(ctx.scalar(2)).value == 13
    assert unit_inverse(ctx.scalar(1)).value == 1
    with pytest.raises(NotAUnit):
        unit_inverse(ctx.scalar(5))


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
    ctx = PadicContext(7, 3)
    rng = random.Random(0)
    xs = [ctx.scalar(rng.randrange(ctx.modulus)) for _ in range(12)]
    for a in xs[:6]:
        for b in xs[:6]:
            assert a + b == b + a
            assert a * b == b * a
            for c in xs[:4]:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_valuation_of_products():
    ctx = PadicContext(5, 5)
    rng = random.Random(1)
    for _ in range(200):
        a = ctx.scalar(rng.randrange(ctx.modulus))
        b = ctx.scalar(rng.randrange(ctx.modulus))
        assert valuation(a * b) == min(valuation(a) + valuation(b), ctx.precision)


def test_unit_inverse_involution():
    ctx = PadicContext(5, 4)
    rng = random.Random(2)
    for _ in range(100):
        x = ctx.scalar(rng.randrange(ctx.modulus))
        if not x.is_unit():
            continue
        assert unit_inverse(unit_inverse(x)) == x
        assert x * unit_inverse(x) == ctx.scalar(1)


def test_reduce_is_homomorphism():
    ctx = PadicContext(5, 3)
    rng = random.Random(3)
    for _ in range(100):
        a = Fraction(rng.randrange(-40, 40), rng.choice([1, 2, 3, 4, 6, 7, 8, 9]))
        b = Fraction(rng.randrange(-40, 40), rng.choice([1, 2, 3, 4, 6, 7, 8, 9]))
        assert reduce(a + b, ctx) == reduce(a, ctx) + reduce(b, ctx)
        assert reduce(a * b, ctx) == reduce(a, ctx) * reduce(b, ctx)


def test_context_mismatch():
    a = PadicContext(5, 3).scalar(2)
    b = PadicContext(5, 4).scalar(2)
    with pytest.raises(ContextMismatch):
        a + b


def test_scalar_serialization():
    ctx = PadicContext(5, 3)
    assert ctx.scalar(17).to_json() == "17"
    assert PadicContext.from_json({"p": 5, "precision": 3}) == ctx


def test_zero_flags():
    ctx = PadicContext(5, 3)
    assert ctx.scalar(0).is_zero()
    assert ctx.scalar(125).is_zero()
    assert not ctx.scalar(25).is_zero()
    assert ctx.scalar(3).is_unit()
    assert not ctx.scalar(10).is_unit()
