"""Lie lattices over Z/p^N given by structure constants.

Series computations stop at stabilisation-at-precision, and every "zero"
below means zero mod p^N: the ring cannot distinguish 0 from p^N.  Reports
carry the precision through the context they reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AntisymmetryViolated,
    BadParameter,
    ContextMismatch,
    JacobiViolated,
    NotASublattice,
    PrecisionExhausted,
)
from .linalg import (
    BUDGET_SLACK,
    PMatrix,
    Span,
    fixpoint,
    isolated_kernel,
    structural_profile,
    vec_add,
)
from .padic import PadicContext


class Lattice:
    """A Z_p-Lie lattice of dimension d at precision p^N.

    Structure constants satisfy [b_i, b_j] = sum_k c[i][j][k] b_k; validation
    checks antisymmetry and the Jacobi identity on all basis triples.
    """

    __slots__ = ("ctx", "dim", "labels", "constants", "bch_class", "dim3_invariant")

    def __init__(self, ctx: PadicContext, constants, labels=None, validate=True):
        self.ctx = ctx
        self.bch_class: int | None = None  # set by bch.nilpotency_class_checked
        self.dim3_invariant: tuple | None = None  # set by catalog.dim3_invariant
        self.dim = len(constants)
        mod = ctx.modulus
        self.constants = tuple(
            tuple(tuple(int(e) % mod for e in vec) for vec in row) for row in constants
        )
        if labels is None:
            labels = tuple(f"b{i+1}" for i in range(self.dim))
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match dimension")
        if any(len(row) != self.dim for row in self.constants) or any(
            len(vec) != self.dim for row in self.constants for vec in row
        ):
            raise ValueError("structure constant array is not d x d x d")
        if validate:
            self._validate()

    def _validate(self):
        mod = self.ctx.modulus
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if (self.constants[i][j][k] + self.constants[j][i][k]) % mod:
                        raise AntisymmetryViolated(
                            f"c[{self.labels[i]},{self.labels[j]}] != -c[{self.labels[j]},{self.labels[i]}]"
                        )
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    v = vec_add(
                        self.bracket(self.constants[i][j], self._basis(k)),
                        vec_add(
                            self.bracket(self.constants[j][k], self._basis(i)),
                            self.bracket(self.constants[k][i], self._basis(j)),
                            mod,
                        ),
                        mod,
                    )
                    if any(v):
                        raise JacobiViolated(
                            f"Jacobi fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def _basis(self, i):
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def basis_vector(self, i):
        return self._basis(i)

    def bracket(self, u, v):
        """Bilinear extension of the structure constants to vectors."""
        mod = self.ctx.modulus
        out = [0] * self.dim
        for i, a in enumerate(u):
            if a % mod == 0:
                continue
            for j, b in enumerate(v):
                ab = (a * b) % mod
                if ab:
                    cij = self.constants[i][j]
                    for k in range(self.dim):
                        if cij[k]:
                            out[k] = (out[k] + ab * cij[k]) % mod
        return tuple(out)

    def bracket_span(self, S: Span, T: Span) -> Span:
        gens = [self.bracket(s, t) for s in S.rows for t in T.rows]
        return Span(self.ctx, self.dim, gens)

    def full_span(self) -> Span:
        return Span.full(self.ctx, self.dim)

    def zero_span(self) -> Span:
        return Span.zero(self.ctx, self.dim)

    def ad_matrix(self, v) -> PMatrix:
        """Matrix of u -> [u, v] acting on row vectors."""
        return PMatrix(self.ctx, [self.bracket(self._basis(i), v) for i in range(self.dim)])

    # -- series ------------------------------------------------------------

    def _fixpoint(self, step, start: Span) -> list[Span]:
        return fixpoint(step, start, 4 * self.ctx.precision * self.dim + BUDGET_SLACK)

    def _series(self, step) -> list[Span]:
        # every series here maps a zero term to zero: skip that last step
        return self._fixpoint(lambda S: S if S.is_zero() else step(S), self.full_span())

    def lower_central(self) -> list[Span]:
        """gamma_1 = L, gamma_{i+1} = [gamma_i, L], to stabilisation."""
        full = self.full_span()
        return self._series(lambda S: self.bracket_span(S, full))

    def lower_p_series(self) -> "Filtration":
        """L_1 = L, L_{i+1} = p L_i + [L_i, L], to stabilisation."""
        full = self.full_span()
        p = self.ctx.p
        terms = self._series(lambda S: S.scale(p).sum(self.bracket_span(S, full)))
        return Filtration(terms)

    def derived_series(self) -> list[Span]:
        """D_1 = L, D_{i+1} = [D_i, D_i], to stabilisation."""
        return self._series(lambda S: self.bracket_span(S, S))

    def is_soluble(self) -> bool:
        """Terminal vanishing of the isolated derived series.

        The plain series cannot tell an insoluble lattice from a soluble one
        once every step picks up p-powers (the terms drop below precision);
        saturating each step makes a perfect derived span stabilise nonzero
        instead.
        """
        terms = self._series(lambda S: self.bracket_span(S, S).saturate())
        return terms[-1].is_zero()

    def nilpotency_class(self) -> int | None:
        """Class at precision, or None when the lower central series is nonzero stable."""
        terms = self.lower_central()
        if not terms[-1].is_zero():
            return None
        return len(terms) - 1

    def iterated_bracket_span(self, S: Span, k: int) -> Span:
        """[S,_k L] with L appearing k times."""
        full = self.full_span()
        out = S
        for _ in range(k):
            out = self.bracket_span(out, full)
        return out

    # -- saturability ------------------------------------------------------

    def verify_potent_filtration(self, filtration: "Filtration") -> "PotencyReport":
        """Stepwise potency certificate for a given descending chain.

        Checks [N_i, L] <= N_{i+1} and [N_i,_{p-1} L] <= p N_{i+1} for each
        step, and that the last term is zero at precision.  Only certifies
        the given chain; it does not search for filtrations.
        """
        self.ctx.require_odd()
        p = self.ctx.p
        steps = []
        terms = filtration.terms
        for i in range(len(terms) - 1):
            step_ok = terms[i + 1].contains(self.bracket_span(terms[i], self.full_span()))
            deep = self.iterated_bracket_span(terms[i], p - 1)
            deep_ok = terms[i + 1].scale(p).contains(deep)
            steps.append(PotencyStep(i + 1, step_ok, deep_ok))
        terminal_ok = terms[-1].is_zero()
        return PotencyReport(steps, terminal_ok)

    def saturable_sufficient(self) -> bool:
        """[L,_{p-1} L] <= p(pL + [L,L]): a sufficient condition for saturability."""
        self.ctx.require_odd()
        p = self.ctx.p
        full = self.full_span()
        gamma_p = self.iterated_bracket_span(full, p - 1)
        phi = full.scale(p).sum(self.bracket_span(full, full))
        return phi.scale(p).contains(gamma_p)

    # -- centralisers, isolators, radical -----------------------------------

    def centralizer(self, S: Span) -> Span:
        """Isolated span of v with [v, s] = 0 at precision for all generators s."""
        if S.is_zero():
            return self.full_span()
        rows = []
        for i in range(self.dim):
            row = []
            for s in S.rows:
                row.extend(self.bracket(self._basis(i), s))
            rows.append(row)
        return isolated_kernel(rows, self.ctx, self.dim * len(S.rows))

    def two_dim_invariant(self):
        """Index exponent of [L,L] in its centraliser; 'abelian' when [L,L] = 0.

        The index is taken as the size difference of the two spans, which
        tolerates the precision wobble the centraliser kernel carries in a
        random basis.
        """
        if self.dim != 2:
            raise BadParameter("invariant is defined for 2-dimensional lattices")
        derived = self.bracket_span(self.full_span(), self.full_span())
        if derived.is_zero():
            return "abelian"
        s = self.ctx.precision - derived.size_exp()
        if 2 * s >= self.ctx.precision:
            raise PrecisionExhausted(
                "commutator valuation too close to the working precision"
            )
        c = self.centralizer(derived)
        return c.size_exp() - derived.size_exp()

    def sublattice_closure(self, S: Span) -> Span:
        return self._fixpoint(lambda T: T.sum(self.bracket_span(T, T)), S)[-1]

    def is_sublattice(self, S: Span) -> bool:
        return S.contains(self.bracket_span(S, S))

    def isolator(self, S: Span, strict: bool = False) -> Span:
        """Smallest saturated sublattice span containing S.

        For a sublattice input this is just its saturation; a non-sublattice
        input is closed under the bracket along the way (strict=True raises
        instead).
        """
        if strict and not self.is_sublattice(S):
            raise NotASublattice("span is not closed under the bracket")
        return self._fixpoint(lambda T: self.sublattice_closure(T).saturate(), S)[-1]

    def soluble_radical(self) -> Span:
        """Kernel of the Killing pairing against [L,L], saturated.

        Characteristic-zero criterion evaluated at precision: directions
        whose pairing row vanishes outright form the radical.
        """
        if self.ctx.p < 5:
            raise BadParameter("radical computation requires p >= 5")
        derived = self.bracket_span(self.full_span(), self.full_span()).saturate()
        if derived.is_zero():
            return self.full_span()
        ads = [self.ad_matrix(g) for g in derived.rows]
        rows = []
        for i in range(self.dim):
            ad_i = self.ad_matrix(self._basis(i))
            rows.append([(ad_i @ m).trace() for m in ads])
        divisors = [e for e, _ in structural_profile(rows, self.ctx, len(derived.rows))]
        if any(e >= self.ctx.precision - 1 for e in divisors):
            raise PrecisionExhausted("Killing pairing is degenerate too close to precision")
        return isolated_kernel(rows, self.ctx, len(derived.rows))

    # -- basis changes and sums ---------------------------------------------

    def change_basis(self, P: PMatrix) -> "Lattice":
        """Structure constants in the basis b'_i = sum_j P[i][j] b_j."""
        if P.ctx != self.ctx:
            raise ContextMismatch("basis change matrix context differs")
        Pinv = P.inverse()
        new_constants = [
            [Pinv.apply_row(self.bracket(u, v)) for v in P.entries] for u in P.entries
        ]
        return Lattice(self.ctx, new_constants, self.labels, validate=False)

    def direct_sum(self, other: "Lattice") -> "Lattice":
        if self.ctx != other.ctx:
            raise ContextMismatch("direct sum over different contexts")
        d1, d2 = self.dim, other.dim
        d = d1 + d2
        constants = [[[0] * d for _ in range(d)] for _ in range(d)]
        for i in range(d1):
            for j in range(d1):
                for k in range(d1):
                    constants[i][j][k] = self.constants[i][j][k]
        for i in range(d2):
            for j in range(d2):
                for k in range(d2):
                    constants[d1 + i][d1 + j][d1 + k] = other.constants[i][j][k]
        labels = tuple(self.labels) + tuple(f"{x}'" for x in other.labels)
        return Lattice(self.ctx, constants, labels, validate=False)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if any(self.constants[i][j]):
                    brackets.append({"i": i, "j": j, "c": list(self.constants[i][j])})
        return {
            "p": self.ctx.p,
            "precision": self.ctx.precision,
            "dim": self.dim,
            "labels": list(self.labels),
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, data: dict, ctx: PadicContext | None = None) -> "Lattice":
        if ctx is None:
            ctx = PadicContext(int(data["p"]), int(data["precision"]))
        d = int(data["dim"])
        constants = [[[0] * d for _ in range(d)] for _ in range(d)]
        for item in data.get("brackets", []):
            i, j, c = int(item["i"]), int(item["j"]), [int(e) for e in item["c"]]
            if not (0 <= i < d and 0 <= j < d and len(c) == d):
                raise ValueError(f"bracket [{i}, {j}] needs indices below {d} and {d} coefficients")
            if i == j:
                raise AntisymmetryViolated("bracket of a basis vector with itself")
            for k in range(d):
                constants[i][j][k] = c[k]
                constants[j][i][k] = -c[k] % ctx.modulus
        labels = data.get("labels")
        return cls(ctx, constants, labels)


@dataclass
class Filtration:
    """A descending chain of canonical spans inside a lattice."""

    terms: list[Span]

    def __post_init__(self):
        for a, b in zip(self.terms, self.terms[1:]):
            if not a.contains(b):
                raise ValueError("filtration is not descending")

    def __len__(self):
        return len(self.terms)

    def __getitem__(self, i):
        return self.terms[i]


@dataclass
class PotencyStep:
    index: int
    step_ok: bool
    deep_ok: bool

    @property
    def ok(self):
        return self.step_ok and self.deep_ok


@dataclass
class PotencyReport:
    """Stepwise potency certificate of a chain in a lattice or in a split group."""

    steps: list[PotencyStep]
    terminal_ok: bool

    @property
    def passed(self) -> bool:
        return self.terminal_ok and all(s.ok for s in self.steps)

    def first_failure(self):
        for s in self.steps:
            if not s.ok:
                return s.index
        return None if self.terminal_ok else len(self.steps) + 1
