"""Exact arithmetic in Z/p^N with valuation semantics.

A context fixes an odd prime p (p = 2 is allowed only for the special
constructors in the catalog), a precision exponent N and a distinguished
unit non-residue rho.  Residues are plain ints in [0, p^N); the context's
methods give their valuations, unit inverses and the images of p-integral
rationals.

Zero at precision has valuation N by convention, so every comparison made
elsewhere in the package is a statement "at precision N".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DenominatorDivisibleByP, NotAUnit


def is_prime(n: int) -> bool:
    """Trial division; the toolkit only ever sees desk-scale primes."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def is_square_unit(w: int, p: int) -> bool:
    """Euler's criterion: whether w, a unit, is a square modulo the odd prime p."""
    return pow(w % p, (p - 1) // 2, p) == 1


def find_nonresidue(p: int) -> int:
    """Smallest positive integer that is not a square modulo the odd prime p."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    r = 2
    while is_square_unit(r, p):
        r += 1
    return r


class PadicContext:
    """The ring Z/p^N together with a fixed unit non-residue rho."""

    __slots__ = ("p", "precision", "modulus", "rho")

    def __init__(self, p: int, precision: int, rho: int | None = None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        if p == 2:
            # no quadratic non-residue business at p = 2; only the catalog
            # constructors for p = 2 use such a context
            self.rho = None
        elif rho is None:
            self.rho = find_nonresidue(p)
        else:
            if rho % p == 0 or is_square_unit(rho, p):
                raise ValueError(f"rho = {rho} is not a unit non-residue mod {p}")
            self.rho = rho % self.modulus

    def __eq__(self, other):
        return (
            isinstance(other, PadicContext)
            and self.p == other.p
            and self.precision == other.precision
            and self.rho == other.rho
        )

    def __hash__(self):
        return hash((self.p, self.precision, self.rho))

    def __repr__(self):
        return f"PadicContext(p={self.p}, precision={self.precision})"

    def require_odd(self):
        if self.p == 2:
            raise ValueError("operation requires an odd prime")

    # -- the residue API ---------------------------------------------------

    def val(self, x: int) -> int:
        """Valuation of the residue x, capped at the precision."""
        x %= self.modulus
        if x == 0:
            return self.precision
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def inv(self, x: int) -> int:
        """Inverse of a unit residue."""
        x %= self.modulus
        if x % self.p == 0:
            raise NotAUnit(f"{x} has positive valuation mod {self.p}^{self.precision}")
        return pow(x, -1, self.modulus)

    def unit_part(self, x: int) -> tuple[int, int]:
        """Write x = p^v * u with u a unit (u = 0 for x = 0) and return (v, u)."""
        x %= self.modulus
        if x == 0:
            return self.precision, 0
        v = self.val(x)
        return v, (x // self.p**v) % self.modulus

    def reduce_fraction(self, q: Fraction | int) -> int:
        """Image of a p-integral rational in Z/p^N."""
        q = Fraction(q)
        if q.denominator % self.p == 0:
            raise DenominatorDivisibleByP(
                f"denominator {q.denominator} is divisible by p = {self.p}"
            )
        return (q.numerator * pow(q.denominator, -1, self.modulus)) % self.modulus

    def lift(self, extra: int) -> "PadicContext":
        """Same prime and rho, precision raised by `extra` digits."""
        rho = None if self.p == 2 else self.rho
        return PadicContext(self.p, self.precision + extra, rho)

    def to_json(self) -> dict:
        return {"p": self.p, "precision": self.precision}

    @classmethod
    def from_json(cls, data: dict) -> "PadicContext":
        return cls(int(data["p"]), int(data["precision"]), data.get("rho"))

