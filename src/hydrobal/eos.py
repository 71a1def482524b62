"""Equations of state closing the Euler system.

Two models: the ideal gas law, and an ideal gas subject to radiation
pressure where the temperature is only implicitly defined and every
conversion goes through a Newton inversion.  All functions are pure,
vectorized over numpy arrays, and stateless.
"""

import numpy as np

from .errors import ConfigurationError, EosFailure

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100


class IdealGas:
    """p = (gamma - 1) * eps with constant ratio of specific heats."""

    name = "ideal"

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise ConfigurationError(f"gamma = {gamma} must exceed 1")
        self.gamma = float(gamma)

    def pressure(self, rho, eps):
        return (self.gamma - 1.0) * np.asarray(eps, dtype=float)

    def internal_energy(self, rho, p):
        return np.asarray(p, dtype=float) / (self.gamma - 1.0)

    def deps_dp(self, rho, p):
        rho = np.asarray(rho, dtype=float)
        return np.full(rho.shape, 1.0 / (self.gamma - 1.0))

    def deps_drho(self, rho, p):
        return np.zeros(np.broadcast_shapes(np.shape(rho), np.shape(p)))

    def sound_speed(self, rho, p):
        return np.sqrt(self.gamma * np.asarray(p) / np.asarray(rho))


class IdealGasRadiation:
    """Ideal gas plus radiation pressure: p = rho*T + T^4.

    The temperature is defined implicitly through
    eps = rho*T/(gamma-1) + 3*T^4, so conversions solve for T first.  Both
    residuals are increasing and convex in T, hence Newton started from an
    upper bound converges monotonically; a shrinking step guards against
    overshooting below zero anyway.
    """

    name = "ideal-radiation"

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise ConfigurationError(f"gamma = {gamma} must exceed 1")
        self.gamma = float(gamma)

    # -- temperature inversions ------------------------------------------

    def temperature_from_eps(self, rho, eps):
        rho, eps = np.broadcast_arrays(np.asarray(rho, float), np.asarray(eps, float))
        gm1 = self.gamma - 1.0
        t = np.minimum(gm1 * eps / rho, np.cbrt(np.sqrt(eps / 3.0)))
        return self._newton(t, rho, eps,
                            lambda T: rho * T / gm1 + 3.0 * T ** 4 - eps,
                            lambda T: rho / gm1 + 12.0 * T ** 3)

    def temperature_from_p(self, rho, p):
        rho, p = np.broadcast_arrays(np.asarray(rho, float), np.asarray(p, float))
        t = np.minimum(p / rho, np.sqrt(np.sqrt(p)))
        return self._newton(t, rho, p,
                            lambda T: rho * T + T ** 4 - p,
                            lambda T: rho + 4.0 * T ** 3)

    @staticmethod
    def _newton(t, rho, target, f, fprime):
        # t starts at an upper bound where f >= 0; f is convex and increasing.
        for _ in range(_NEWTON_MAX_ITER):
            step = f(t) / fprime(t)
            t_new = t - step
            bad = t_new <= 0.0
            if np.any(bad):
                t_new = np.where(bad, 0.5 * t, t_new)
            if np.all(np.abs(t_new - t) <= _NEWTON_TOL * np.abs(t_new)):
                return t_new
            t = t_new
        raise EosFailure("temperature inversion did not converge",
                         rho=rho, other=target)

    # -- public conversions ----------------------------------------------

    def pressure(self, rho, eps):
        t = self.temperature_from_eps(rho, eps)
        return np.asarray(rho) * t + t ** 4

    def internal_energy(self, rho, p):
        t = self.temperature_from_p(rho, p)
        return np.asarray(rho) * t / (self.gamma - 1.0) + 3.0 * t ** 4

    def deps_dp(self, rho, p):
        t = self.temperature_from_p(rho, p)
        rho = np.asarray(rho)
        gm1 = self.gamma - 1.0
        return (rho / gm1 + 12.0 * t ** 3) / (rho + 4.0 * t ** 3)

    def deps_drho(self, rho, p):
        t = self.temperature_from_p(rho, p)
        rho = np.asarray(rho)
        gm1 = self.gamma - 1.0
        dt_drho = -t / (rho + 4.0 * t ** 3)
        return t / gm1 + (rho / gm1 + 12.0 * t ** 3) * dt_drho

    def sound_speed(self, rho, p):
        t = self.temperature_from_p(rho, p)
        rho = np.asarray(rho)
        p = np.asarray(p)
        beta = rho * t / p
        gm1 = self.gamma - 1.0
        gamma1 = beta + (4.0 - 3.0 * beta) ** 2 * gm1 / (beta + 12.0 * gm1 * (1.0 - beta))
        return np.sqrt(gamma1 * p / rho)
