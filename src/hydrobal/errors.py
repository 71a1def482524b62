"""Exception types shared across the solver."""


class HydrobalError(Exception):
    """Base class for all solver errors."""


class ConfigurationError(HydrobalError, ValueError):
    """Invalid run configuration or parameter; also a ValueError."""


class EosFailure(HydrobalError):
    """An equation-of-state inversion failed to converge."""

    def __init__(self, message, rho=None, other=None):
        super().__init__(message)
        self.rho = rho
        self.other = other


class FluxEvaluationError(HydrobalError):
    """Numerical flux was called with non-physical input states."""


class StepFailure(HydrobalError):
    """Time step produced NaN or a non-positive density/internal energy."""

    def __init__(self, message, time=None, step=None):
        super().__init__(message)
        self.time = time
        self.step = step


class InitializationError(HydrobalError):
    """Scenario initialization failed (e.g. negative propagated pressure)."""
