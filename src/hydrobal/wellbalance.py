"""Local hydrostatic equilibrium profiles and equilibrium-preserving
reconstruction (1-D), and the anchor solvers and pressure glue shared with
the 1-D ghost fill, the discrete equilibrium initializer and the 2-D
operator.

Step 1 builds, for every cell, a local equilibrium: the density is the
standard reconstruction polynomial; the pressure is the anchor value p0 plus
the exact antiderivative of a source representation s_i.  For the piecewise
variant (DWB) s_i restricted to a stencil cell k is that cell's own
rho_k^rec * g_k^int and the pressure is glued continuously at interfaces; for
the local-approximation variant (LA) cell i's single source polynomial is
extrapolated across the stencil.

Step 2 reconstructs only the ENERGY hydrostatically: the cell averages of the
profile's internal energy are subtracted (same quadrature everywhere), the
deviations are run through CWENO, and the profile is added back.  Density and
momentum keep the standard reconstruction: the equilibrium momentum vanishes
and the density deviations vanish identically because the quadrature is exact
for the reconstruction polynomials.

The anchor solvers take node values: the pressure offset p - p0 (the
integrated source) and the density at a cell's quadrature nodes, plus the
weights that turn node values into the cell mean (Gauss weights divided by
the cell size).  A caller with an exact mean of the offset may pass it as a
single node of weight one.
"""

import numpy as np

from .physics import physical_state
from .poly import poly_antiderivative, poly_eval, poly_mul
from .quadrature import gauss_nodes_weights_centered

ANCHOR_TOL = 1e-13
ANCHOR_MAX_ITER = 50


def build_source_coeffs(rho_coeffs, g_coeffs):
    """Per-cell source polynomial rho^rec * g^int (degree <= 2(m-1))."""
    return poly_mul(rho_coeffs, g_coeffs)


def glued_constants(anti_left, anti_right, ref, p_ref):
    """Constants C_k of the continuous piecewise pressure C_k + A_k(x - x_k).

    Pieces run along the last axis; `anti_left`/`anti_right` are the
    antiderivative values A_k(-h/2) and A_k(h/2).  C_ref = p_ref and
    C_{k+1} = C_k + A_k(h/2) - A_{k+1}(-h/2), summed outward from `ref`.
    """
    step = anti_right[..., :-1] - anti_left[..., 1:]
    p_ref = np.asarray(p_ref, dtype=float)[..., None]
    out = np.empty(anti_left.shape)
    out[..., ref:ref + 1] = p_ref
    out[..., ref + 1:] = p_ref + np.cumsum(step[..., ref:], axis=-1)
    out[..., :ref] = p_ref - np.cumsum(step[..., :ref][..., ::-1],
                                       axis=-1)[..., ::-1]
    return out


class EquilibriumProfile1D:
    """Batched per-cell hydrostatic profiles over a ghosted 1-D grid.

    Arrays are indexed by the PROFILE cell i; evaluation in a neighbor cell
    i+d is requested through the relative offset d.
    """

    def __init__(self, grid, eos, rho_coeffs, source_coeffs, piecewise):
        self.eos = eos
        self.piecewise = piecewise
        self.rho_coeffs = np.asarray(rho_coeffs)
        self.source_coeffs = np.asarray(source_coeffs)
        self.anti = poly_antiderivative(self.source_coeffs)
        h = grid.dx
        self.h = h
        self.anti_left = poly_eval(self.anti, -0.5 * h)
        self.anti_right = poly_eval(self.anti, 0.5 * h)
        self.cell_integral = self.anti_right - self.anti_left
        if piecewise:
            self._glued = glued_constants(self.anti_left, self.anti_right, 0,
                                          0.0)
        self.p0 = np.zeros(self.rho_coeffs.shape[0])

    def _roll(self, arr, d):
        return np.roll(arr, -d, axis=0) if d else arr

    def offset_constant(self, d):
        """C with p_i^eq(x) = C + A_{i+d}(x - x_{i+d}) on cell i+d (piecewise)."""
        if d == 0:
            return self.p0
        return self.p0 + (self._roll(self._glued, d) - self._glued)

    def pressure_at(self, d, xi):
        """p_i^eq in cell i+d at offsets xi from that cell's center.

        Result axis 0 runs over the profile cell i; `xi` may be scalar or a
        trailing node axis.
        """
        xi = np.asarray(xi, dtype=float)
        if self.piecewise:
            anti = self._roll(self.anti, d)
            base = self.offset_constant(d)
        else:
            anti = self.anti
            base = self.p0
            xi = xi + d * self.h
        if xi.ndim > 0:
            return base[:, None] + poly_eval(anti[:, None, :], xi)
        return base + poly_eval(anti, xi)

    def density_at(self, d, xi):
        """Equilibrium density in cell i+d at offsets xi from its center."""
        xi = np.asarray(xi, dtype=float)
        if self.piecewise:
            coeffs = self._roll(self.rho_coeffs, d)
        else:
            coeffs = self.rho_coeffs
            xi = xi + d * self.h
        if xi.ndim > 0:
            return poly_eval(coeffs[:, None, :], xi)
        return poly_eval(coeffs, xi)


def eps_hat_estimate(e_hat, rec_nodes, weights):
    """Cell-averaged internal energy from conserved averages.

    Subtracts the mean of the reconstructed kinetic energy
    ((rho u)^rec)^2 / rho^rec over the node values `rec_nodes`; the integrand
    is rational, so the same Gauss rule as the energy matching is used rather
    than exact integration.
    """
    kinetic = 0.5 * rec_nodes[1] ** 2 / rec_nodes[0]
    return e_hat - kinetic @ weights


def anchor_pressure_ideal(offset_nodes, eps_hat, gamma, weights):
    """Closed-form anchor for the ideal gas law: (gamma - 1) eps_hat minus
    the mean pressure offset."""
    return (gamma - 1.0) * eps_hat - offset_nodes @ weights


def anchor_pressure_newton(offset_nodes, rho_nodes, rho_hat, eps_hat, eos,
                           weights):
    """General-EoS anchor via Newton iteration on the matching equation
    mean(eps(rho, p0 + offset)) = eps_hat.

    Returns (p0, ok).  The initial guess is the pressure of the
    cell-averaged conserved state (rho_hat, eps_hat); the step
    |f/f'| < 1e-13 stops the iteration and a halving step guards against
    negative trial pressures.  ok is False where the iteration did not
    converge, the averaged state is non-physical, or p0 <= 0.
    """
    safe = (rho_hat > 0.0) & (eps_hat > 0.0)
    target = np.where(safe, eps_hat, 1.0)
    p = eos.pressure(np.where(safe, rho_hat, 1.0), target)
    rho_nodes = np.maximum(rho_nodes, 1e-300)
    converged = np.zeros(p.shape, dtype=bool)
    for _ in range(ANCHOR_MAX_ITER):
        p_nodes = p[..., None] + offset_nodes
        ok_nodes = np.all(p_nodes > 0.0, axis=-1) & (p > 0.0)
        p_nodes = np.where(p_nodes > 0.0, p_nodes, 1.0)
        f = target - eos.internal_energy(rho_nodes, p_nodes) @ weights
        fp = -(eos.deps_dp(rho_nodes, p_nodes) @ weights)
        step = f / fp
        converged |= ok_nodes & (np.abs(step) < ANCHOR_TOL + 1e-15 * np.abs(p))
        p_next = np.where(converged, p, p - step)
        p = np.where(p_next <= 0.0, 0.5 * p, p_next)
        if np.all(converged):
            break
    return p, converged & safe & (p > 0.0)


def anchor_pressure_simplified(rec_center, eos):
    """Anchor by direct EoS evaluation of the reconstructed cell-center state
    (rho, momenta..., E); -1 where that state is non-physical."""
    eps0, good = physical_state(rec_center)
    p0 = eos.pressure(np.where(good, rec_center[0], 1.0),
                      np.where(good, eps0, 1.0))
    return np.where(good, p0, -1.0)


def solve_anchor(scheme, eos, offset_nodes, rho_nodes, rho_hat, eps_hat,
                 weights, center=None):
    """Anchor pressure p0 of each cell's equilibrium profile.

    The '-S' schemes evaluate the EoS at the reconstructed cell-center state
    `center`; the others match the cell-averaged internal energy `eps_hat`,
    in closed form for the ideal gas and by Newton iteration otherwise.
    Returns (p0, ok); ok is False where the solve did not converge, its
    inputs were non-physical, or p0 <= 0.
    """
    if scheme.simplified_anchor:
        p0 = anchor_pressure_simplified(center, eos)
    elif eos.name == "ideal":
        p0 = anchor_pressure_ideal(offset_nodes, eps_hat, eos.gamma, weights)
    else:
        return anchor_pressure_newton(offset_nodes, rho_nodes, rho_hat,
                                      eps_hat, eos, weights)
    return p0, p0 > 0.0


def energy_deviations(profile, e_hat, radius, nodes, weights):
    """Cell averages of the equilibrium perturbation in energy.

    delta[i, d + radius] = E_hat[i+d] - mean over cell i+d of the profile's
    internal energy (same quadrature as the anchor matching).  Also returns a
    validity mask (positive profile pressure and density at every node).
    """
    n = e_hat.shape[0]
    delta = np.zeros((n, 2 * radius + 1))
    valid = np.ones(n, dtype=bool)
    eos = profile.eos
    for d in range(-radius, radius + 1):
        p = profile.pressure_at(d, nodes)
        rho = profile.density_at(d, nodes)
        ok = np.all((p > 0.0) & (rho > 0.0), axis=-1)
        valid &= ok
        eps = eos.internal_energy(np.where(rho > 0.0, rho, 1.0),
                                  np.where(p > 0.0, p, 1.0))
        avg = np.einsum("a,...a->...", weights, eps) / profile.h
        delta[:, d + radius] = np.roll(e_hat, -d) - avg
    return delta, valid


def hydrostatic_energy_faces(profile, delta_coeffs):
    """Left/right face values of the hydrostatically reconstructed energy.

    E^rec(x) = eps(rho^rec(x), p^eq(x)) + delta-polynomial(x), evaluated at
    the two cell faces.  Returns (E_left, E_right, face_ok).
    """
    h = profile.h
    faces = np.array([-0.5 * h, 0.5 * h])
    p_f = profile.pressure_at(0, faces)
    rho_f = profile.density_at(0, faces)
    ok = np.all((p_f > 0.0) & (rho_f > 0.0), axis=-1)
    eps_f = profile.eos.internal_energy(np.where(rho_f > 0.0, rho_f, 1.0),
                                        np.where(p_f > 0.0, p_f, 1.0))
    delta_f = poly_eval(delta_coeffs[:, None, :], faces)
    total = eps_f + delta_f
    return total[:, 0], total[:, 1], ok


def build_profiles(grid, scheme, eos, rec_coeffs, g_coeffs, rho_hat, e_hat):
    """Assemble profiles and anchors for every cell that has a reconstruction.

    Returns (profile, anchor_valid, nodes, weights): anchor_valid flags cells
    whose anchor solve converged to a positive pressure; callers fall back to
    the standard reconstruction elsewhere.
    """
    source = build_source_coeffs(rec_coeffs[0], g_coeffs)
    profile = EquilibriumProfile1D(grid, eos, rec_coeffs[0], source,
                                   scheme.piecewise_source)
    nodes, weights = gauss_nodes_weights_centered(scheme.n_quad, grid.dx)
    mean = weights / grid.dx
    rec_nodes = poly_eval(rec_coeffs[:, :, None, :], nodes)
    rho_nodes_pos = rec_nodes[0] > 0.0
    eps_hat = eps_hat_estimate(e_hat, np.where(rho_nodes_pos, rec_nodes, 1.0),
                               mean)
    offsets = poly_eval(profile.anti[:, None, :], nodes)
    p0, ok = solve_anchor(scheme, eos, offsets, rec_nodes[0], rho_hat,
                          eps_hat, mean, center=rec_coeffs[:, :, 0])
    ok &= np.all(rho_nodes_pos, axis=-1)
    profile.p0 = np.where(ok, p0, 1.0)
    return profile, ok, nodes, weights


def monotonicity_probe(profile, i, eos=None, n_samples=32):
    """Check that the anchor residual is strictly monotone around p0[i].

    Samples the derivative sign of the matching function over a bracket
    [p0/2, 2 p0]; a sign change signals a phase-transition-like EoS and
    non-unique anchors.
    """
    eos = eos or profile.eos
    nodes, weights = gauss_nodes_weights_centered(2, profile.h)
    anti = poly_eval(profile.anti[i][None, :], nodes)
    rho = poly_eval(profile.rho_coeffs[i][None, :], nodes)
    p0 = profile.p0[i]
    for p in np.linspace(0.5 * p0, 2.0 * p0, n_samples):
        p_nodes = p + anti
        if np.any(p_nodes <= 0.0):
            continue
        deriv = -np.sum(weights * eos.deps_dp(rho, p_nodes)) / profile.h
        if deriv >= 0.0:
            return False
    return True
