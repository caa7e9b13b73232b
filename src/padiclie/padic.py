"""Exact arithmetic in Z/p^N with valuation semantics.

A context fixes an odd prime p (p = 2 is allowed only for the special
constructors in the catalog), a precision exponent N and a distinguished
unit non-residue rho.  Scalars are immutable residues in [0, p^N) that
remember their context; arithmetic between scalars of different contexts
is an error, never a silent coercion.

Zero at precision has valuation N by convention, so every comparison made
elsewhere in the package is a statement "at precision N".
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextMismatch, DenominatorDivisibleByP, NotAUnit


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

    # -- raw integer helpers (used by the linear algebra kernels) ----------

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

    def scalar(self, value: int | Fraction) -> "PadicScalar":
        if isinstance(value, Fraction):
            return PadicScalar(self, self.reduce_fraction(value))
        return PadicScalar(self, value)

    def to_json(self) -> dict:
        return {"p": self.p, "precision": self.precision}

    @classmethod
    def from_json(cls, data: dict) -> "PadicContext":
        return cls(int(data["p"]), int(data["precision"]), data.get("rho"))


class PadicScalar:
    """An immutable residue in [0, p^N) carrying its context."""

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: PadicContext, value: int):
        self.ctx = ctx
        self.value = value % ctx.modulus

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            if other.ctx != self.ctx:
                raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, int):
            return PadicScalar(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScalar(self.ctx, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScalar(self.ctx, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScalar(self.ctx, other.value - self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PadicScalar(self.ctx, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return PadicScalar(self.ctx, -self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.ctx.modulus
        return (
            isinstance(other, PadicScalar)
            and self.ctx == other.ctx
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ctx, self.value))

    def __repr__(self):
        return f"{self.value} (mod {self.ctx.p}^{self.ctx.precision})"

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        return self.value % self.ctx.p != 0

    def to_json(self) -> str:
        return str(self.value)


def valuation(x: PadicScalar) -> int:
    """Largest e <= N with p^e | x; N for the zero residue."""
    return x.ctx.val(x.value)


def unit_inverse(x: PadicScalar) -> PadicScalar:
    """Inverse of a unit scalar; NotAUnit otherwise."""
    return PadicScalar(x.ctx, x.ctx.inv(x.value))


def reduce(q: Fraction | int, ctx: PadicContext) -> PadicScalar:
    """Reduce a p-integral rational into Z/p^N."""
    return PadicScalar(ctx, ctx.reduce_fraction(q))
