"""Exception and warning types shared across the package."""


class CasidecError(Exception):
    """Base class for all package errors.

    exit_code is the CLI's exit status for the error: 2 for bad input,
    3 for a regime violation, 4 for a numerical failure, 1 otherwise.
    """
    exit_code = 1


class NonPhysicalInput(CasidecError):
    """An input violates a physical constraint (negative mass, T < 0, ...)."""
    exit_code = 2


class DomainError(CasidecError):
    """A requested quantity is undefined for the given inputs."""
    exit_code = 2


class RegimeViolation(CasidecError):
    """Inputs fall outside the validity regime of the requested formula."""
    exit_code = 3


class QuadratureFailure(CasidecError):
    """An integral has no finite value for the given inputs."""
    exit_code = 4


class StepSizeError(CasidecError):
    """Integrator step size too large for the requested evolution."""
    exit_code = 4


class OptimizationFailure(CasidecError):
    """Minimizer failed to converge."""
    exit_code = 4


class StabilityViolation(CasidecError):
    """A solver stability or conservation monitor tripped."""
    exit_code = 4


class GridTooSmall(CasidecError):
    """Phase-space grid cannot hold the requested state."""
    exit_code = 4


class FitFailure(CasidecError):
    """Least-squares fit rejected (poor residual or too little data)."""
    exit_code = 4


class ConfigError(CasidecError):
    """Scenario configuration is malformed or violates the schema."""
    exit_code = 2


class UnknownScenario(CasidecError):
    """Requested scenario name is not registered."""
    exit_code = 2


class IoError(CasidecError):
    """Filesystem operation failed."""


class RegimeWarning(UserWarning):
    """A formula is being used near the edge of its validity regime."""
