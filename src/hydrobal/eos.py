"""Equations of state closing the Euler system.

Two models: the ideal gas law, and an ideal gas subject to radiation
pressure where the temperature is only implicitly defined.  The radiation
model takes its temperature from the closed-form root of a quartic
(`_quartic_root`), polished by one Newton step that also guards against a
start that is not finite; no conversion iterates.  `thermo` returns
several quantities of one (rho, p) state from a single temperature, and
`thermo_eps` the pressure and those quantities of one (rho, eps) state.
All functions are pure, vectorized over numpy arrays, and stateless.
"""

import numpy as np

from .errors import ConfigurationError, EosFailure

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100


def _quartic_root(a, b):
    """The positive root x of x^4 + a*x - b = 0 for a, b > 0, in closed form.

    Ferrari: with z the positive root of the resolvent cubic
    z^3 + 4b*z - a^2 = 0 and r = sqrt(z^2 + 4b) = a / sqrt(z), the root is
    (sqrt(2r - z) - sqrt(z)) / 2.  Cardano's z = u - v and that difference
    are rewritten as quotients of positive terms,
    z = a^2 / (u^2 + 4b/3 + v^2) and x = 4b / ((r + z)(sqrt(z) + sqrt(2r - z))),
    so nothing cancels.  The quartic is first scaled, x = s*y with
    s = max(a^(1/3), b^(1/4)), so that a^4 and b^3 cannot overflow.  Only
    where b / s^4 underflows (b below about 1e-308 * a^(4/3), far outside
    [1e-100, 1e100]) is the root lost to zero.
    """
    s3 = np.maximum(a, b ** 0.75)
    s = np.cbrt(s3)
    a = a / s3
    b4 = 4.0 * b / (s3 * s)
    c = b4 / 3.0
    a2 = a * a
    h = 0.5 * a2
    u = np.cbrt(h + np.sqrt(h * h + c * c * c))
    v = c / u
    z = a2 / (u * u + c + v * v)
    r = np.sqrt(z * z + b4)
    return s * b4 / ((r + z) * (np.sqrt(z) + np.sqrt(2.0 * r - z)))


class IdealGas:
    """p = (gamma - 1) * eps with constant ratio of specific heats."""

    name = "ideal"

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise ConfigurationError(f"gamma = {gamma} must exceed 1")
        self.gamma = float(gamma)

    @property
    def deps_dp_constant(self):
        """b = d eps / dp = 1 / (gamma - 1): eps = b p at every density.  The
        equilibrium layer then works from cell means (`wellbalance`)."""
        return 1.0 / (self.gamma - 1.0)

    def thermo(self, rho, p, *names):
        """The quantities `names` at the states (rho, p); see
        `IdealGasRadiation.thermo`."""
        return tuple(getattr(self, name)(rho, p) for name in names)

    def thermo_eps(self, rho, eps, *names):
        """The pressure, then `names`, at (rho, eps); see `thermo`."""
        p = self.pressure(rho, eps)
        return (p, *(getattr(self, name)(rho, p) for name in names))

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
    eps = rho*T/(gamma-1) + 3*T^4.  Both T from p and T from eps are the
    positive root of one quartic x^4 + a*x - b = 0 (a = rho, b = p, resp.
    a = rho / (3(gamma-1)), b = eps/3), taken in closed form.  Both
    residuals are increasing and convex in T, so the Newton polish that
    follows converges monotonically from above after its first step.
    `_newton` is that polish: it returns after one step when the start is
    good to 1e-14, and it is the guard that raises `EosFailure` when the
    start is not finite (a negative or NaN input).  It stays a method of
    its own because the benchmark tracer (perfbench/spans.py) counts its
    residual evaluations: one per inversion.
    """

    name = "ideal-radiation"
    deps_dp_constant = None     # eps is not proportional to p

    def __init__(self, gamma=1.4):
        if gamma <= 1.0:
            raise ConfigurationError(f"gamma = {gamma} must exceed 1")
        self.gamma = float(gamma)

    # -- temperature inversions ------------------------------------------

    def temperature_from_eps(self, rho, eps):
        rho, eps = np.asarray(rho, float), np.asarray(eps, float)
        gm1 = self.gamma - 1.0
        t = _quartic_root(rho / (3.0 * gm1), eps / 3.0)
        return self._newton(t, rho, eps,
                            lambda T: rho * T / gm1 + 3.0 * T ** 4 - eps,
                            lambda T: rho / gm1 + 12.0 * T * T * T)

    def temperature_from_p(self, rho, p):
        rho, p = np.asarray(rho, float), np.asarray(p, float)
        t = _quartic_root(rho, p)
        return self._newton(t, rho, p,
                            lambda T: rho * T + T ** 4 - p,
                            lambda T: rho + 4.0 * T * T * T)

    @staticmethod
    def _newton(t, rho, target, f, fprime):
        # f is convex and increasing: from any positive start the first
        # step lands at or above the root, and the iteration then decreases
        # monotonically; a halving step guards against a step below zero.
        for _ in range(_NEWTON_MAX_ITER):
            step = f(t) / fprime(t)
            t_new = t - step
            bad = t_new <= 0.0
            if bad.any():
                t_new = np.where(bad, 0.5 * t, t_new)
            if (np.abs(t_new - t) <= _NEWTON_TOL * np.abs(t_new)).all():
                return t_new
            t = t_new
        raise EosFailure("temperature inversion did not converge",
                         rho=rho, other=target)

    # -- public conversions ----------------------------------------------

    def thermo(self, rho, p, *names):
        """The quantities `names` at the states (rho, p), from one temperature.

        Each name is one of the (rho, p) methods internal_energy, deps_dp,
        deps_drho and sound_speed; a caller that needs two of them at one
        state pays for one inversion, not two.
        """
        rho, p = np.asarray(rho, float), np.asarray(p, float)
        t = self.temperature_from_p(rho, p)
        return tuple(getattr(self, "_" + name)(rho, p, t) for name in names)

    def thermo_eps(self, rho, eps, *names):
        """The pressure, then the quantities `names` of `thermo`, at the
        states (rho, eps), from one temperature."""
        t = self.temperature_from_eps(rho, eps)
        p = np.asarray(rho) * t + t ** 4
        return (p, *(getattr(self, "_" + name)(rho, p, t) for name in names))

    def pressure(self, rho, eps):
        return self.thermo_eps(rho, eps)[0]

    def internal_energy(self, rho, p):
        return self.thermo(rho, p, "internal_energy")[0]

    def deps_dp(self, rho, p):
        return self.thermo(rho, p, "deps_dp")[0]

    def deps_drho(self, rho, p):
        return self.thermo(rho, p, "deps_drho")[0]

    def sound_speed(self, rho, p):
        return self.thermo(rho, p, "sound_speed")[0]

    # -- quantities at a known temperature ---------------------------------

    def _internal_energy(self, rho, p, t):
        return rho * t / (self.gamma - 1.0) + 3.0 * t ** 4

    def _deps_dp(self, rho, p, t):
        gm1 = self.gamma - 1.0
        t3 = t * t * t
        return (rho / gm1 + 12.0 * t3) / (rho + 4.0 * t3)

    def _deps_drho(self, rho, p, t):
        gm1 = self.gamma - 1.0
        dt_drho = -t / (rho + 4.0 * t ** 3)
        return t / gm1 + (rho / gm1 + 12.0 * t ** 3) * dt_drho

    def _sound_speed(self, rho, p, t):
        beta = rho * t / p
        gm1 = self.gamma - 1.0
        gamma1 = beta + (4.0 - 3.0 * beta) ** 2 * gm1 / (beta + 12.0 * gm1 * (1.0 - beta))
        return np.sqrt(gamma1 * p / rho)
