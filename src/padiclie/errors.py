"""Exception hierarchy shared across the package."""


class PadicLieError(Exception):
    """Base class for all toolkit errors."""


class ContextMismatch(PadicLieError):
    """Operands belong to different arithmetic contexts."""


class NotAUnit(PadicLieError):
    """Inversion of a residue with positive valuation."""


class DenominatorDivisibleByP(PadicLieError):
    """A rational coefficient cannot be reduced because p divides its denominator."""


class NotContained(PadicLieError):
    """Index of a pair of spans that is not actually nested."""


class ConvergenceViolated(PadicLieError):
    """Matrix exp/log called outside its convergence domain."""


class NotProP(PadicLieError):
    """Matrix has no p-power order at the working precision."""


class AntisymmetryViolated(PadicLieError):
    """Structure constants fail antisymmetry."""


class JacobiViolated(PadicLieError):
    """Structure constants fail the Jacobi identity."""


class ClassTooLarge(PadicLieError):
    """Nilpotency class at precision is >= p, so the group law series is unavailable."""


class CrossCheckMismatch(PadicLieError):
    """Two independent evaluation routes disagree; signals a precision bug."""


class NotNormal(PadicLieError):
    """A chain member is not normal in the ambient group."""


class PrecisionExhausted(PadicLieError):
    """The requested invariant is not determined at the working precision."""


class ScaleTooLarge(PadicLieError):
    """Brute-force enumeration requested beyond the feasible scale."""


class NotASublattice(PadicLieError):
    """A span is not closed under the bracket."""


class NotSoluble(PadicLieError):
    """Operation requires a soluble lattice."""


class NotDim3(PadicLieError):
    """Operation requires a 3-dimensional lattice."""


class BadParameter(PadicLieError):
    """Constructor parameters outside the documented range."""


class ResidualNilpotenceViolated(PadicLieError):
    """Action matrix fails the residual-nilpotence condition (square nonzero mod p)."""


class UnknownFixture(PadicLieError):
    """Verification fixture name not in the registry."""


class ClosureBudgetExceeded(PadicLieError):
    """A series or closure failed to stabilise within its round budget (internal bug)."""
