"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: input-contract violations are usage
errors (exit 2), numerical failures are exit 3, and certification failures
are reported through :class:`~psdlandscape.landscape.RegionReport` rows
rather than raised.
"""


class LandscapeError(Exception):
    """Base class for all package-specific errors."""


class InputContractError(LandscapeError, ValueError):
    """An argument violates a documented precondition."""


class HypothesisViolationError(InputContractError):
    """Parameters violate a hypothesis required by a certified bound."""


class NotAFOSPError(InputContractError):
    """A point claimed to be first-order stationary has a large gradient."""

    def __init__(self, grad_norm: float, tol: float):
        self.grad_norm = grad_norm
        self.tol = tol
        super().__init__(
            f"gradient norm {grad_norm:.3e} exceeds stationarity tolerance {tol:.3e}"
        )


class NumericalFailure(LandscapeError, RuntimeError):
    """An iterative or factorization routine failed to converge."""


class RankCollapseError(NumericalFailure):
    """A factor left the full-column-rank set."""

    def __init__(self, message: str, t: float | None = None, iteration: int | None = None):
        self.t = t
        self.iteration = iteration
        super().__init__(message)


class NonUniqueAlignmentError(LandscapeError):
    """The optimal orthogonal alignment is not unique (singular cross-Gram)."""

    def __init__(self, smallest_singular_value: float):
        self.smallest_singular_value = smallest_singular_value
        super().__init__(
            "cross-Gram matrix is singular (smallest singular value "
            f"{smallest_singular_value:.3e}); logarithm map is not unique"
        )


class InitializationFailure(NumericalFailure):
    """Spectral initialization could not produce a full-rank factor."""


class StepSearchError(NumericalFailure):
    """Backtracking line search exhausted its budget."""


class ResourceLimitError(LandscapeError):
    """A dense computation exceeds its size cap."""
