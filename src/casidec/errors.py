"""Exception and warning types shared across the package."""


class CasidecError(Exception):
    """Base class for all package errors."""


class NonPhysicalInput(CasidecError):
    """An input violates a physical constraint (negative mass, T < 0, ...)."""


class DomainError(CasidecError):
    """A requested quantity is undefined for the given inputs."""


class RegimeViolation(CasidecError):
    """Inputs fall outside the validity regime of the requested formula."""


class QuadratureFailure(CasidecError):
    """An integral has no finite value for the given inputs."""


class StepSizeError(CasidecError):
    """Integrator step size too large for the requested evolution."""


class OptimizationFailure(CasidecError):
    """Minimizer failed to converge."""


class StabilityViolation(CasidecError):
    """A solver stability or conservation monitor tripped."""


class GridTooSmall(CasidecError):
    """Phase-space grid cannot hold the requested state."""


class FitFailure(CasidecError):
    """Least-squares fit rejected (poor residual or too little data)."""


class ConfigError(CasidecError):
    """Scenario configuration is malformed or violates the schema."""


class UnknownScenario(CasidecError):
    """Requested scenario name is not registered."""


class IoError(CasidecError):
    """Filesystem operation failed."""


class RegimeWarning(UserWarning):
    """A formula is being used near the edge of its validity regime."""
