"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function."""


class PoleError(ValueError):
    """Evaluation requested at (or too close to) a pole."""


class SingularityError(ValueError):
    """Evaluation requested exactly at an integrable singularity."""


class NonConvergenceError(RuntimeError):
    """An iterative evaluation failed to converge within its budget."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


class UnsupportedRegionError(ValueError):
    """Argument falls outside the region a method supports: no closed form
    there, or more Monte Carlo work than the point budget allows."""
