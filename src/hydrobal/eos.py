"""Equations of state closing the Euler system.

Two models: the ideal gas law, and an ideal gas subject to radiation
pressure where the temperature is only implicitly defined.  The radiation
model takes its temperature from the closed-form root of a quartic
(`_quartic_root`) of a positive density and pressure or energy.  Its
conversions guard their input and confirm the root with one Newton step
(`_newton`), which the fluxes' contact property needs; no conversion
iterates.  `closed_form` is the same EoS without guard and polish, for the
Newton anchor alone (`wellbalance.anchor_pressure_newton`).
`thermo` returns several quantities of one (rho, p) state from a single
temperature, and `thermo_eps` the pressure and those quantities of one
(rho, eps) state.  At the sizes of one right-hand side a radiation
inversion costs about as much per numpy call as per point, so its cost is
counted in calls.  All functions are pure, stateless, and vectorized over
numpy arrays of any broadcast mix of shapes.
"""

from functools import cached_property

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
    if np.ndim(a) == np.ndim(b) == 0:    # in-place temporaries need arrays
        return _quartic_root(np.reshape(a, 1), np.reshape(b, 1))[0]
    q = np.sqrt(b)
    s3 = np.maximum(a, q * np.sqrt(q))      # max(a, b^(3/4))
    s = np.cbrt(s3)
    a2 = a / s3
    a2 *= a2
    b4 = s3 * s
    np.divide(4.0 * b, b4, out=b4)
    c, h = b4 / 3.0, 0.5 * a2
    u = c * c * c
    u += h * h
    u = np.cbrt(np.sqrt(u, out=u) + h)
    v = c / u
    u *= u
    u += c
    u += v * v
    z = np.divide(a2, u, out=u)             # a^2 / (u^2 + c + v^2)
    r = z * z
    r += b4
    np.sqrt(r, out=r)
    w = np.sqrt(2.0 * r - z)
    w += np.sqrt(z)
    r += z
    w *= r
    b4 *= s
    b4 /= w
    return b4


def _guard(rho, other, name):
    """Raise `EosFailure` naming the first state whose density or `name`
    (pressure or energy) is not a finite positive number, which has no
    temperature.  A valid input costs one elementwise minimum and maximum
    and their reductions; one with no states passes."""
    if np.minimum.reduce(np.minimum(rho, other), axis=None,
                         initial=np.inf) > 0.0 \
            and np.maximum.reduce(np.maximum(rho, other), axis=None,
                                  initial=0.0) < np.inf:
        return
    rho_b, other_b = np.broadcast_arrays(rho, other)
    for label, values in (("density", rho_b), (name, other_b)):
        bad = ~((values > 0.0) & (values < np.inf))
        if bad.any():
            i = int(np.argmax(bad))
            kind = "finite" if values.flat[i] > 0.0 else "positive"
            raise EosFailure(
                f"no temperature at density {float(rho_b.flat[i])!r}, "
                f"{name} {float(other_b.flat[i])!r}: the {label} is not a "
                f"{kind} number", rho=rho, other=other)


def _broadcast(value, other):
    """`value` broadcast against `other`; itself where the shapes agree,
    so that an ideal-gas field keeps its bits."""
    same = np.shape(value) == np.shape(other)
    return value if same else value * np.ones(np.shape(other))


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

    @property
    def closed_form(self):
        """This EoS: its `thermo` and `thermo_eps` are exact; see
        `IdealGasRadiation.closed_form`."""
        return self

    def pressure(self, rho, eps):
        return _broadcast((self.gamma - 1.0) * np.asarray(eps, dtype=float),
                          rho)

    def internal_energy(self, rho, p):
        return _broadcast(np.asarray(p, dtype=float) / (self.gamma - 1.0), rho)

    def deps_dp(self, rho, p):
        return np.full(np.broadcast_shapes(np.shape(rho), np.shape(p)),
                       1.0 / (self.gamma - 1.0))

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
    In front of the root, `_guard` names a density, pressure or energy
    that is not a finite positive number (NaN, zero, negative or +inf).
    `_newton` is the polish: one residual evaluation and one step confirm
    a start good to 1e-14, and it raises `EosFailure` when the start is
    not finite or zero.  It stays a method of its own because the
    benchmark tracer (perfbench/spans.py) counts its residual evaluations:
    one per inversion.  The kernels are lean in numpy calls: the root works
    on in-place temporaries, and the residuals and quantities share T^3 and
    take no power.

    The polish is for the fluxes: without it the contact property misses
    its 1e-13 bound.  The fluxes, the CFL rate, the -S anchors' node
    energies and every public conversion are guarded and polished; the
    Newton anchor alone evaluates `closed_form`.
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
        _guard(rho, eps, "energy")
        k = rho / (self.gamma - 1.0)
        t = _quartic_root(k / 3.0, eps / 3.0)
        return self._newton(t, rho, eps,
                            lambda T: T * (k + 3.0 * (T * T * T)) - eps,
                            lambda T: k + 12.0 * (T * T * T))

    def temperature_from_p(self, rho, p):
        rho, p = np.asarray(rho, float), np.asarray(p, float)
        _guard(rho, p, "pressure")
        t = _quartic_root(rho, p)
        return self._newton(t, rho, p,
                            lambda T: T * (rho + T * T * T) - p,
                            lambda T: rho + 4.0 * (T * T * T))

    @staticmethod
    def _newton(t, rho, target, f, fprime):
        # f is convex and increasing: from any positive start the first
        # step lands at or above the root, and the iteration then decreases
        # monotonically; a halving step guards against a step below zero.
        for _ in range(_NEWTON_MAX_ITER):
            step = f(t) / fprime(t)
            t_new = t - step
            if not t_new.min(initial=np.inf) > 0.0:
                if not np.isfinite(t_new).all():
                    raise EosFailure("no temperature for an infinite or NaN "
                                     "input", rho=rho, other=target)
                t_new = np.where(t_new > 0.0, t_new, 0.5 * t)
                if not t_new.min(initial=np.inf) > 0.0:   # a zero start
                    raise EosFailure("no temperature for a zero pressure or "
                                     "energy", rho=rho, other=target)
            if (np.abs(step) / t_new).max(initial=0.0) <= _NEWTON_TOL:
                return t_new
            t = t_new
        raise EosFailure("temperature inversion did not converge",
                         rho=rho, other=target)

    @cached_property
    def closed_form(self):
        """This EoS with every temperature the closed-form root, with no
        input guard and no polish: within 1.2e-15 of the polished root over
        [1e-100, 1e100] (2e5 log-uniform samples per input pair).  For the
        Newton anchor alone, which makes its rows positive and whose next
        step confirms its result; a non-positive or infinite input gives NaN
        or a warning, not `EosFailure`."""
        return _ClosedFormRadiation(self.gamma)

    # -- public conversions ----------------------------------------------

    def thermo(self, rho, p, *names):
        """The quantities `names` at the states (rho, p), from one temperature.

        Each name is one of the (rho, p) methods internal_energy, deps_dp,
        deps_drho and sound_speed; a caller that needs two of them at one
        state pays for one inversion, not two.
        """
        rho, p = np.asarray(rho, float), np.asarray(p, float)
        t = self.temperature_from_p(rho, p)
        t3 = t * t * t
        return tuple(getattr(self, "_" + name)(rho, p, t, t3)
                     for name in names)

    def thermo_eps(self, rho, eps, *names):
        """The pressure, then the quantities `names` of `thermo`, at the
        states (rho, eps), from one temperature."""
        rho = np.asarray(rho, float)
        t = self.temperature_from_eps(rho, eps)
        t3 = t * t * t
        p = t * (rho + t3)
        return (p, *(getattr(self, "_" + name)(rho, p, t, t3)
                     for name in names))

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

    # -- quantities at a known temperature T, with t3 = T^3 -----------------

    def _internal_energy(self, rho, p, t, t3):
        return t * (rho / (self.gamma - 1.0) + 3.0 * t3)

    def _deps_dp(self, rho, p, t, t3):
        return (rho / (self.gamma - 1.0) + 12.0 * t3) / (rho + 4.0 * t3)

    def _deps_drho(self, rho, p, t, t3):
        # at fixed p, dT/d rho = -T / (rho + 4T^3): d eps/dT dT/d rho is
        # -T d eps/dp
        return t / (self.gamma - 1.0) - t * self._deps_dp(rho, p, t, t3)

    def _sound_speed(self, rho, p, t, t3):
        beta = rho * t / p
        gm1 = self.gamma - 1.0
        gamma1 = beta + (4.0 - 3.0 * beta) ** 2 * gm1 / (beta + 12.0 * gm1 * (1.0 - beta))
        return np.sqrt(gamma1 * p / rho)


class _ClosedFormRadiation(IdealGasRadiation):
    """`IdealGasRadiation.closed_form`: its temperatures are the quartic's
    closed-form root alone."""

    def temperature_from_eps(self, rho, eps):
        k = rho / (self.gamma - 1.0)
        return _quartic_root(k / 3.0, np.asarray(eps, float) / 3.0)

    def temperature_from_p(self, rho, p):
        return _quartic_root(rho, p)
