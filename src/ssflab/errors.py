"""Exception types raised across the laboratory, in three classes.

An input refusal is a ValidationError, SchemaError included: CLI exit code 2. A numeric failure is an
ArithmeticError (or LAPACK's LinAlgError, or a MemoryError): a failing record, exit code 1. A write
failure is an IoError, exit code 1. Anything else is a program fault: an internal error, exit code 1.
"""


class ValidationError(ValueError):
    """An input an entry point does not admit: a matrix its operator class rejects, a pair
    on two spaces (`linalg.same_dimension`), exponents outside their window (InvalidExponent)."""


class NotHermitian(ValidationError):
    pass


class IndefiniteInput(ValidationError):
    """A matrix expected to be positive semidefinite had an eigenvalue below the clamp window."""


class InvalidExponent(ValidationError):
    """An exponent outside its admissible range (`linalg.check_exponents`)."""


class InvalidOrder(ValidationError):
    """Dilation order m below the minimum of 3."""


class EigenFailure(ArithmeticError):
    """The underlying eigensolver did not converge."""


class NearSingular(ArithmeticError):
    """A resolvent or shifted inverse was requested too close to the spectrum."""


class NonzeroWinding(ArithmeticError):
    """The perturbation determinant winds around 0 on the sampling circle: the
    two operators have different eigenvalue counts inside it."""


class KernelViolation(ArithmeticError):
    """An inverse (fractional) power was requested of an operator with spectrum at zero."""


class QuadratureDivergence(ArithmeticError):
    """Node doubling failed to stabilize the fractional-power quadrature."""


class BranchCut(ValidationError):
    """Green kernel evaluated on (or within tolerance of) the branch cut [0, infinity)."""


class NegativePotential(ValidationError):
    pass


class DissipativityViolation(ValidationError):
    """A potential with negative imaginary part would break dissipativity."""


class SchemaError(ValidationError):
    """A scenario file failed structural validation. CLI exit code 2."""


class IoError(RuntimeError):
    """A report, table, or plot could not be written."""
