"""Local hydrostatic equilibria and the equilibrium-preserving energy
reconstruction shared by the 1-D and 2-D operators, plus the anchor solvers
and pressure glue shared with the 1-D ghost fill and the discrete
equilibrium initializer.

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

Each cell's equilibrium is evaluated once, at one fixed node set
(`equilibrium_points`), through the product-basis tables
(`reconstruct.product_tables`) that both operators share.  Both hand their
node arrays of p and rho to `energy_deviations` (one EoS call over every
node) and to `hydrostatic_energy_faces`; in 1-D, `build_profiles` anchors
and glues them first.

The anchor solvers take node values: the pressure offset p - p0 (the
integrated source) and the density at a cell's quadrature nodes, plus the
weights that turn node values into the cell mean (Gauss weights divided by
the cell size).  A caller with an exact mean of the offset may pass it as a
single node of weight one.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from .physics import physical_state
# the benchmark tracer (perfbench/spans.py) counts polynomial calls through
# these names; the solver evaluates through `reconstruct.product_tables`
from .poly import poly_antiderivative, poly_eval, poly_mul  # noqa: F401
from .quadrature import gauss_nodes_weights_centered

ANCHOR_TOL = 1e-13
ANCHOR_MAX_ITER = 50


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


def eps_hat_estimate(e_hat, rec_nodes, weights):
    """Cell-averaged internal energy from conserved averages.

    Subtracts the mean of the reconstructed kinetic energy
    |(rho u)^rec|^2 / (2 rho^rec) over the node values `rec_nodes` (density,
    then any number of momenta); the integrand is rational, so the same
    Gauss rule as the energy matching is used rather than exact integration.
    """
    kinetic = 0.5 * np.sum(rec_nodes[1:] ** 2, axis=0) / rec_nodes[0]
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
    negative trial pressures.  Each iteration takes eps and d eps/dp at the
    nodes from one `eos.thermo` call.  ok is False where the iteration did
    not converge, the averaged state is non-physical, or p0 <= 0.
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
        eps_nodes, deps_nodes = eos.thermo(rho_nodes, p_nodes,
                                           "internal_energy", "deps_dp")
        f = target - eps_nodes @ weights
        fp = -(deps_nodes @ weights)
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


def solve_anchor(eos, offset_nodes, rho_nodes, rho_hat, eps_hat, weights):
    """Anchor pressure p0 matching the cell-averaged internal energy
    `eps_hat`: closed form for the ideal gas, Newton iteration otherwise.

    Returns (p0, ok); ok is False where the solve did not converge, its
    inputs were non-physical, or p0 <= 0.
    """
    if eos.name == "ideal":
        p0 = anchor_pressure_ideal(offset_nodes, eps_hat, eos.gamma, weights)
        return p0, p0 > 0.0
    return anchor_pressure_newton(offset_nodes, rho_nodes, rho_hat, eps_hat,
                                  eos, weights)


@lru_cache(maxsize=None)
def equilibrium_points(n_quad, reach, dim=1):
    """Node set of a cell, in cell widths from its center: the Gauss nodes
    (`n_quad` per axis) of stencil cells -reach..reach per axis, cell after
    cell, then of the faces (1-D: left, right; 2-D: xl, xr, yl, yr); the
    last axis runs fastest."""
    unit = [float(x) for x in gauss_nodes_weights_centered(n_quad, 1.0)[0]]
    points = [tuple(c + x for c, x in zip(cell, node))
              for cell in product(range(-reach, reach + 1), repeat=dim)
              for node in product(unit, repeat=dim)]
    for axis in range(dim):
        for side in (-0.5, 0.5):
            points += [node[:axis] + (side,) + node[axis:]
                       for node in product(unit, repeat=dim - 1)]
    return tuple(points)


def build_profiles(scheme, eos, offsets, rec_nodes, rec_center, rho_hat,
                   e_hat, weights, wrap):
    """Pressure and density of every cell's local equilibrium at its node set.

    `offsets` (n, nodes) is each cell's antiderivative of rho^rec * g^int
    and `rec_nodes` (2, n, nodes) its density and momentum, at its
    `equilibrium_points` (reach 0 for DWB, r for LA); `rec_center` is the
    reconstructed center state, `weights` the cell-mean weights of the Gauss
    nodes and `wrap[i, d + r] = (i + d) % n` the stencil cells.  DWB gathers
    the neighbours' pieces through `wrap`, offset by the glued constants; LA
    extrapolates cell i's own piece.  The anchor sees the node-set columns
    of the cell itself.  Returns (p, rho, ok) over the stencil node set: ok
    flags cells whose anchor solve converged to a positive pressure and
    whose density is positive at their own nodes; callers fall back to the
    standard reconstruction elsewhere.
    """
    n = wrap.shape[0]
    nq = weights.size
    reach = (offsets.shape[-1] - 2) // nq // 2
    own = slice(reach * nq, (reach + 1) * nq)
    rho_pos = rec_nodes[0, :, own] > 0.0
    if scheme.simplified_anchor:
        p0 = anchor_pressure_simplified(rec_center, eos)
        ok = p0 > 0.0
    else:
        eps_hat = eps_hat_estimate(
            e_hat, np.where(rho_pos, rec_nodes[:, :, own], 1.0), weights)
        p0, ok = solve_anchor(eos, offsets[:, own], rec_nodes[0, :, own],
                              rho_hat, eps_hat, weights)
    ok &= np.all(rho_pos, axis=-1)
    p0 = np.where(ok, p0, 1.0)
    if not scheme.piecewise_source:
        return p0[:, None] + offsets, rec_nodes[0], ok
    # stencil cell d: piece i+d at its own nodes, shifted by the glue; the
    # faces are cell i's own
    glued = glued_constants(offsets[:, -2], offsets[:, -1], 0, 0.0)
    base = p0[:, None] + (glued[wrap] - glued[:, None])
    p = np.concatenate([(base[..., None] + offsets[wrap, :nq]).reshape(n, -1),
                        p0[:, None] + offsets[:, nq:]], axis=1)
    rho = np.concatenate([rec_nodes[0][wrap, :nq].reshape(n, -1),
                          rec_nodes[0, :, nq:]], axis=1)
    return p, rho, ok


def energy_deviations(eos, p, rho, e_window, weights):
    """Energy deviations from the equilibrium, and its face internal energy.

    `p` and `rho` hold the equilibrium at a node set (`weights.size` nodes
    per stencil cell, cell after cell, then the faces); `e_window` the
    energy averages of the stencil cells.  delta = E_hat - cell mean of
    eps(rho, p), with one EoS call over every node.  Returns (delta,
    eps_faces, ok); ok flags cells with positive p and rho at every node.
    """
    ok = np.all((p > 0.0) & (rho > 0.0), axis=-1)
    eps = eos.internal_energy(np.where(rho > 0.0, rho, 1.0),
                              np.where(p > 0.0, p, 1.0))
    n_stencil, nq = e_window.shape[-1], weights.size
    cells = eps[..., :n_stencil * nq].reshape(eps.shape[:-1] + (n_stencil, nq))
    return e_window - cells @ weights, eps[..., n_stencil * nq:], ok


def hydrostatic_energy_faces(eps_faces, delta_coeffs, face_table):
    """Face energies eps(rho^rec, p^eq) + delta-polynomial; `face_table`
    holds the monomials of `delta_coeffs` at the faces."""
    return eps_faces + delta_coeffs @ face_table


def monotonicity_probe(offset_nodes, rho_nodes, p0, eos, weights,
                       n_samples=32):
    """Check that one cell's anchor residual is strictly monotone around p0.

    Takes the cell's pressure offsets and densities at its nodes, like the
    anchor solvers, and samples the derivative sign of the matching function
    over a bracket [p0/2, 2 p0]; a sign change signals a
    phase-transition-like EoS and non-unique anchors.
    """
    for p in np.linspace(0.5 * p0, 2.0 * p0, n_samples):
        p_nodes = p + offset_nodes
        if np.any(p_nodes <= 0.0):
            continue
        if eos.deps_dp(rho_nodes, p_nodes) @ weights <= 0.0:
            return False
    return True
