"""Lie lattices over Z/p^N given by structure constants.

The dense `constants` share one tuple for every zero vector; the sparse view
keeps half of them, (i, j, c_ij) for i <= j and c_ij nonzero.  Antisymmetry
(so `validate=False` is for antisymmetric constants only) gives
[u, v] = sum_(i<j) (u_i v_j - u_j v_i) c_ij + sum_i u_i v_i c_ii, reduced once.
The diagonal is kept because at p = 2 a c_ii of entries 0 and 2^(N-1) is
antisymmetric and nonzero.

Series computations stop at stabilisation-at-precision, and every "zero"
below means zero mod p^N: the ring cannot distinguish 0 from p^N.  Reports
carry the precision through the context they reference.

The saturability verdicts are read off the lower central series gamma_1 = L,
gamma_(j+1) = [gamma_j, L], kept on the lattice.  Past the end of the stored
series gamma_j means its last term, which is zero or stable under [., L].
The bracket is bilinear, so for spans [S + T, L] = [S, L] + [T, L] and
[pS, L] = p[S, L]; inducting on i with these gives
- the lower p-series, N_1 = L, N_(i+1) = p N_i + [N_i, L]:
  N_i = sum_(j<=i) p^(i-j) gamma_j, so [N_i, L] = sum_(j<=i) p^(i-j) gamma_(j+1),
  whose terms with j < i are terms of p N_i = sum_(j<=i) p^(i+1-j) gamma_j;
  hence N_(i+1) = p N_i + gamma_(i+1);
- the potency chain D_i = [N_i,_(p-1) L]: D_1 = [L,_(p-1) L] = gamma_p, and
  D_i = [p N_(i-1) + gamma_i,_(p-1) L] = p D_(i-1) + gamma_(p+i-1);
- the sufficient condition [L,_(p-1) L] <= p(pL + [L, L]): its sides are
  gamma_p and p N_2 = p(pL + gamma_2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    AntisymmetryViolated,
    BadParameter,
    ContextMismatch,
    JacobiViolated,
    NotASublattice,
    PrecisionExhausted,
)
from .linalg import (
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

    __slots__ = ("ctx", "dim", "labels", "constants", "_sparse", "bch_terms", "dim3_invariant", "gammas")

    def __init__(self, ctx: PadicContext, constants, labels=None, validate=True):
        self.ctx = ctx
        self.bch_terms: tuple | None = None  # set by bch.nilpotency_class_checked: the series terms mod p^N
        self.dim3_invariant: tuple | None = None  # set by catalog.dim3_invariant
        self.gammas: tuple | None = None  # the lower central series on first use: at most N d + 1 spans
        self.dim = d = len(constants)
        mod = ctx.modulus
        zero = (0,) * d
        reduced = ((tuple(int(e) % mod for e in vec) for vec in row) for row in constants)
        # a zero vector of the wrong length keeps its own tuple, for the shape check below
        self.constants = tuple(tuple(c if any(c) or len(c) != d else zero for c in row) for row in reduced)
        if labels is None:
            labels = tuple(f"b{i+1}" for i in range(self.dim))
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise ValueError("label count does not match dimension")
        if any(len(row) != self.dim for row in self.constants) or any(
            len(vec) != self.dim for row in self.constants for vec in row
        ):
            raise ValueError("structure constant array is not d x d x d")
        self._sparse = tuple(
            (i, j, row[j]) for i, row in enumerate(self.constants) for j in range(i, d) if row[j] is not zero
        )
        if validate:
            self._validate()

    def _validate(self):
        mod = self.ctx.modulus
        for i in range(self.dim):
            for j in range(i, self.dim):
                if any((a + b) % mod for a, b in zip(self.constants[i][j], self.constants[j][i])):
                    raise AntisymmetryViolated(
                        f"c[{self.labels[i]},{self.labels[j]}] != -c[{self.labels[j]},{self.labels[i]}]"
                    )
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    v = vec_add(
                        self.bracket(self.constants[i][j], self.basis_vector(k)),
                        vec_add(
                            self.bracket(self.constants[j][k], self.basis_vector(i)),
                            self.bracket(self.constants[k][i], self.basis_vector(j)),
                            mod,
                        ),
                        mod,
                    )
                    if any(v):
                        raise JacobiViolated(
                            f"Jacobi fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def basis_vector(self, i):
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def bracket(self, u, v):
        """Bilinear extension of the structure constants to vectors (see the module docstring)."""
        out = [0] * self.dim
        for i, j, c in self._sparse:
            a = u[i] * v[j] - u[j] * v[i] if i != j else u[i] * v[i]
            if a:
                for k, x in enumerate(c):
                    if x:
                        out[k] += a * x
        mod = self.ctx.modulus
        return tuple(o % mod for o in out)

    def _is_full(self, S: Span) -> bool:
        return len(S.pivots) == self.dim and not any(e for _, e in S.pivots)

    def _brackets_with_basis(self, s):
        """[s, b_0], ..., [s, b_(d-1)] unreduced, in one sweep over the constants."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, j, c in self._sparse:
            a = s[i]  # [b_i, b_j] = c puts s_i c into [s, b_j]
            b = s[j] if i != j else 0  # and [b_j, b_i] = -c puts -s_j c into [s, b_i]
            if a or b:
                row_j, row_i = rows[j], rows[i]
                for k, x in enumerate(c):
                    if x:
                        row_j[k] += a * x
                        row_i[k] -= b * x
        return rows

    def bracket_span(self, S: Span, T: Span) -> Span:
        """[S, T], spanned by the brackets of their rows.  When one side is all of L, the
        rows [s, b_j] come from one sweep over the constants, and [L, L] is the span of
        the stored c_ij; a canonical span does not depend on its generators (see linalg)."""
        if self._is_full(S):
            S, T = T, S  # [S, T] = [T, S] as spans
        if not self._is_full(T):
            gens = [self.bracket(s, t) for s in S.rows for t in T.rows]
        elif self._is_full(S):
            gens = [c for _, _, c in self._sparse]
        else:
            gens = [row for s in S.rows for row in self._brackets_with_basis(s)]
        return Span(self.ctx, self.dim, gens)

    def full_span(self) -> Span:
        return Span.full(self.ctx, self.dim)

    def ad_matrix(self, v) -> PMatrix:
        """Matrix of u -> [u, v] acting on row vectors: row i is [b_i, v] = -[v, b_i]."""
        return PMatrix(self.ctx, [[-e for e in row] for row in self._brackets_with_basis(v)])

    # -- series ------------------------------------------------------------

    def _fixpoint(self, step, start: Span) -> list[Span]:
        return fixpoint(step, start, self.ctx.precision * self.dim + 1)  # see fixpoint

    def _series(self, step, start: Span | None = None) -> list[Span]:
        # every series here maps a zero term to zero: skip that last step
        start = self.full_span() if start is None else start
        return self._fixpoint(lambda S: S if S.is_zero() else step(S), start)

    def lower_central(self) -> list[Span]:
        """gamma_1 = L, gamma_{i+1} = [gamma_i, L], to stabilisation (a fresh list of the stored terms)."""
        return list(self._gammas())

    def _gammas(self) -> tuple:
        """The lower central series, computed once per lattice and kept in `gammas`."""
        if self.gammas is None:
            full = self.full_span()
            self.gammas = tuple(self._series(lambda S: self.bracket_span(S, full)))
        return self.gammas

    def _gamma(self, j: int) -> Span:
        """gamma_j, read as the last stored term past the end of the series."""
        gammas = self._gammas()
        return gammas[min(j, len(gammas)) - 1]

    def lower_p_series(self) -> "Filtration":
        """L_1 = L, L_{i+1} = p L_i + [L_i, L] = p L_i + gamma_{i+1}, to stabilisation.

        The filtration keeps the lattice and each (L_i, p L_i) it built, for
        `verify_potent_filtration`.
        """
        p = self.ctx.p
        scaled = []

        def step(S):
            scaled.append(S.scale(p))
            return scaled[-1].sum(self._gamma(len(scaled) + 1))

        terms = self._series(step)
        if len(scaled) < len(terms):  # a zero last term is never stepped, and p 0 = 0
            scaled.append(terms[-1])
        return Filtration(terms, self, tuple(zip(terms, scaled)))

    def derived_series(self) -> list[Span]:
        """D_1 = L, D_{i+1} = [D_i, D_i], to stabilisation."""
        return self._series(lambda S: self.bracket_span(S, S))

    def is_soluble(self) -> bool:
        """Terminal vanishing of the isolated derived series.

        The plain series cannot tell an insoluble lattice from a soluble one
        once every step picks up p-powers (the terms drop below precision);
        saturating each step makes a perfect derived span stabilise nonzero
        instead.  Saturating can leave the previous term, so this series is
        not always nested at precision, in dimension 3 too (CHANGES.md).  The
        dimension-3 invariant does not run it: it reads solubility off the
        structural rank of [L, L] (`catalog._require_dim3_soluble`, which also
        proves that in dimension 3 this series ends by its fourth term, nested
        or not), so the non-nested chain cannot arise on that path.  For
        d >= 4 the budget's proof (`fixpoint`) does not cover such a chain.
        """
        terms = self._series(lambda S: self.bracket_span(S, S).saturate())
        return terms[-1].is_zero()

    def nilpotency_class(self) -> int | None:
        """Class at precision, or None when the lower central series is nonzero stable."""
        gammas = self._gammas()
        return len(gammas) - 1 if gammas[-1].is_zero() else None

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

        Two routes give the same report.  When the chain is this lattice's
        own `lower_p_series` with its terms unchanged, the first inclusion
        holds by construction and the chain is D_i = p D_(i-1) + gamma_(p+i-1)
        (module docstring), checked against the p N_(i+1) the series built;
        no bracket is taken.  Any other chain, a user's own or an altered one,
        is bracketed: each distinct span with L once per call, so [N_i, L] and
        the chains [N_i,_k L] share the spans they have in common.
        """
        self.ctx.require_odd()
        built = filtration.scaled
        if filtration.lattice is self and built is not None and [n for n, _ in built] == filtration.terms:
            return self._lower_p_report(built)
        p = self.ctx.p
        steps = []
        terms = filtration.terms
        full = self.full_span()
        with_full = {}

        def bracket_full(S):
            if S not in with_full:
                with_full[S] = self.bracket_span(S, full)
            return with_full[S]

        for i in range(len(terms) - 1):
            bracket = bracket_full(terms[i])  # [N_i, L], the first of the p - 1
            step_ok = terms[i + 1].contains(bracket)
            deep = bracket
            for _ in range(p - 2):  # iterated_bracket_span, through this call's bracket memo
                deep = bracket_full(deep)
            deep_ok = terms[i + 1].scale(p).contains(deep)
            steps.append(PotencyStep(i + 1, step_ok, deep_ok))
        terminal_ok = terms[-1].is_zero()
        return PotencyReport(steps, terminal_ok)

    def _lower_p_report(self, built) -> "PotencyReport":
        """The certificate of the lower p-series from its (N_i, p N_i) and the gamma_j."""
        p = self.ctx.p
        steps = []
        deep = self._gamma(p)  # D_1 = [L,_{p-1} L]
        for i in range(1, len(built)):
            if i > 1 and not deep.is_zero():  # once zero, D stays zero: gamma_(p+i-1) <= D_(i-1)
                deep = deep.scale(p).sum(self._gamma(p + i - 1))
            steps.append(PotencyStep(i, True, built[i][1].contains(deep)))
        return PotencyReport(steps, built[-1][0].is_zero())

    def saturable_sufficient(self) -> bool:
        """[L,_{p-1} L] <= p(pL + [L,L]): a sufficient condition for saturability.

        The two sides are gamma_p and p(pL + gamma_2), from the stored series.
        """
        self.ctx.require_odd()
        p = self.ctx.p
        phi = self.full_span().scale(p).sum(self._gamma(2))
        return phi.scale(p).contains(self._gamma(p))

    # -- centralisers, isolators, radical -----------------------------------

    def centralizer(self, S: Span) -> Span:
        """Isolated span of v with [v, s] = 0 at precision for all generators s."""
        if S.is_zero():
            return self.full_span()
        ads = [self.ad_matrix(s).entries for s in S.rows]
        rows = [[e for ad in ads for e in ad[i]] for i in range(self.dim)]  # row i: [b_i, s] for each s
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
            ad_i = self.ad_matrix(self.basis_vector(i))
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

    # -- serialization -------------------------------------------------------

    def _brackets(self):
        """(i, j, c) for each i < j with [b_i, b_j] = c nonzero."""
        return [(i, j, c) for i, j, c in self._sparse if i != j]

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "precision": self.ctx.precision,
            "dim": self.dim,
            "labels": list(self.labels),
            "brackets": [{"i": i, "j": j, "c": list(c)} for i, j, c in self._brackets()],
        }

    @classmethod
    def from_brackets(cls, ctx: PadicContext, dim: int, brackets, labels=None) -> "Lattice":
        """The lattice with [b_i, b_j] = sum_k c[k] b_k for each triple (i, j, c).

        Each unordered pair is given once (a repeat raises ValueError); [b_j, b_i]
        = -c is filled in, pairs left out bracket to zero and the result is validated.
        """
        constants = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for i, j, c in brackets:
            if not (0 <= i < dim and 0 <= j < dim and len(c) == dim):
                raise ValueError(f"bracket [{i}, {j}] needs indices below {dim} and {dim} coefficients")
            if i == j:
                raise AntisymmetryViolated("bracket of a basis vector with itself")
            if (min(i, j), max(i, j)) in seen:
                raise ValueError(f"bracket [{i}, {j}] is given twice")
            seen.add((min(i, j), max(i, j)))
            constants[i][j] = list(c)
            constants[j][i] = [-e for e in c]
        return cls(ctx, constants, labels)

    @classmethod
    def from_json(cls, data: dict, ctx: PadicContext | None = None) -> "Lattice":
        if ctx is None:
            ctx = PadicContext(int(data["p"]), int(data["precision"]))
        brackets = (
            (int(item["i"]), int(item["j"]), [int(e) for e in item["c"]])
            for item in data.get("brackets", [])
        )
        return cls.from_brackets(ctx, int(data["dim"]), brackets, data.get("labels"))


@dataclass
class Filtration:
    """A descending chain of canonical spans inside a lattice.

    `Lattice.lower_p_series` also sets `lattice` to itself and `scaled` to each
    (N_i, p N_i) it built; neither takes part in equality or repr.
    """

    terms: list[Span]
    lattice: Lattice | None = field(default=None, compare=False, repr=False)
    scaled: tuple | None = field(default=None, compare=False, repr=False)

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
