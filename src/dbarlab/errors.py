"""Exception taxonomy shared across the package."""


class DbarLabError(Exception):
    """Base class for all package errors."""


class ValidationError(DbarLabError):
    """Malformed input data: bad grid parameters, non-unit kernels, bad configs."""


class FormError(DbarLabError):
    """Structural misuse of forms: grid/rank/bidegree mismatches."""


class MetricError(DbarLabError):
    """Metric evaluation failure: singular matrix at an unmasked point, lost hermiticity."""


class CurvatureSymmetryError(DbarLabError):
    """Curvature coefficients violate hermitian block symmetry beyond tolerance."""


class PreconditionError(DbarLabError):
    """A mathematical hypothesis of an operation is measurably violated.

    Carries the measured value so reports can show how badly it failed.
    """

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


class SupportError(PreconditionError):
    """Field mass in the seam margin exceeds the compact-support budget."""


class SolverError(DbarLabError):
    """Iterative solve failed: breakdown or iteration cap hit.

    ``near_null`` holds the offending direction when a breakdown exposed one.
    """

    def __init__(self, message, near_null=None, iterations=None, residual=None):
        super().__init__(message)
        self.near_null = near_null
        self.iterations = iterations
        self.residual = residual
