"""Test oracles with no caller in the package: the exact integral and cell
mean of a polynomial in cell-local coordinates, and the scenario
self-checks (hydrostatic balance and g = -grad(phi) of the analytic
backgrounds, sampled by finite differences in 1-D and 2-D alike)."""

import numpy as np

from hydrobal.errors import ConfigurationError
from hydrobal.poly import poly_antiderivative, poly_eval


def poly_integrate(coeffs, a, b):
    """Exact definite integral between offsets a and b from the anchor.

    Extrapolation (offsets outside the cell) is legal.
    """
    anti = poly_antiderivative(coeffs)
    return poly_eval(anti, b) - poly_eval(anti, a)


def poly_cell_average(coeffs, width, offset=0.0):
    """Exact mean over an interval of the given width centered at `offset`."""
    lo = offset - 0.5 * width
    hi = offset + 0.5 * width
    return poly_integrate(coeffs, lo, hi) / width


def _sample_points(scenario, n_samples, seed, h):
    """Uniform random points 2h inside the domain, drawn axis by axis."""
    rng = np.random.default_rng(seed)
    lo, hi = scenario.domain[::2], scenario.domain[1::2]
    return [rng.uniform(a + 2 * h, b - 2 * h, n_samples)
            for a, b in zip(lo, hi)]


def _central_gradient(f, points, h):
    """Fourth-order central differences of f at `points`, one row per axis."""
    def at(axis, s):
        return f(*(x + s if a == axis else x for a, x in enumerate(points)))
    return np.array([(-at(a, 2 * h) + 8 * at(a, h) - 8 * at(a, -h)
                      + at(a, -2 * h)) / (12 * h) for a in range(len(points))])


def _norm(vectors):
    """Euclidean norm over the leading (axis) dimension; |x| in 1-D."""
    return np.hypot.reduce(vectors, axis=0, initial=0.0)


def hydrostatic_residual(scenario, n_samples=64, seed=0, h=5e-5):
    """Max |grad p - rho g| / max(1, |rho g|) at random sample points.

    The pressure gradient comes from fourth-order central differences; the
    normalization keeps the gate meaningful for backgrounds spanning many
    orders of magnitude without changing it for order-one profiles.
    """
    if scenario.background is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has no background to check")
    rho_bg, p_bg = scenario.background
    points = _sample_points(scenario, n_samples, seed, h)
    # gravity gives one array in 1-D and one per axis in 2-D
    force = rho_bg(*points) * np.atleast_2d(scenario.gravity(*points))
    residual = _norm(_central_gradient(p_bg, points, h) - force)
    return float(np.max(residual / np.maximum(1.0, _norm(force))))


def potential_gradient_residual(scenario, n_samples=64, seed=1, h=2e-4):
    """Check g = -grad(phi) by fourth-order finite differences."""
    points = _sample_points(scenario, n_samples, seed, h)
    gravity = np.atleast_2d(scenario.gravity(*points))
    dphi = _central_gradient(scenario.potential, points, h)
    return float(np.max(_norm(gravity + dphi)))
