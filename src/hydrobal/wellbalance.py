"""Local hydrostatic equilibria and the equilibrium-preserving energy
reconstruction shared by the 1-D and 2-D operators, plus the anchor solvers
shared with the 1-D ghost fill and the discrete equilibrium initializer, and
the initializer's pressure glue.

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
for the reconstruction polynomials.  The anchors of DWB and LA read no
reconstructed energy, so their state pass leaves it out; the standard energy
reconstruction is computed only for the cells of the flux band whose
equilibrium the gate rejects (`rejected_energy_faces`).

Layout: cells run along the last axis of every array here, behind the
node, stencil or face axis (node values (nodes, cells), stencil windows
(2r + 1, cells)), so that reductions over a stencil or a cell's nodes are
contiguous passes over rows.  Each cell's equilibrium is evaluated at one
fixed node set (`equilibrium_points`) through the product-basis tables
(`reconstruct.product_tables`) that both operators share, transposed once
at construction.

The DWB glue is stencil-local: the constant of stencil cell i + d relative
to cell i, Delta_{i,d} = C_{i+d} - C_i, is a sum of at most r interface
steps A_k(h/2) - A_{k+1}(-h/2) (`local_glue`), never a difference of two
sums over the whole grid, so its rounding error scales with the pressures
of the stencil, not with the largest pressure of the grid.

Two paths compute the energy deviations:
- node values (1-D LA, and any EoS without a constant d eps/dp): the
  pressure p0 + offset and the density at every node of the stencil and
  the faces, one EoS call over all of them (`energy_deviations`);
- cell means, for an EoS with eps = b p (`deps_dp_constant`, the ideal
  gas) in 1-D DWB and 2-D LA: the window entries are E[i+d] - b times the
  mean equilibrium pressure over stencil cell d, and the face energies
  b times the face pressure plus the deviation polynomial.  The anchor p0
  shifts every window entry and face by b p0, which CWENO carries through
  unchanged, so it cancels and the energy takes no EoS call.  1-D DWB
  leaves it out: its means are Delta_{i,d} + O[i+d], with O a cell's
  Gauss mean of its own pressure offset, formed in `build_profiles`.  2-D
  LA keeps it, p0 plus one of the operator's gravity-contracted rows.
  p0 still gates positivity, exactly as the node values would: in 1-D
  through per-cell minima, p0 + min_d (Delta_{i,d} + min of offset_{i+d})
  > 0; in 2-D through a bound |offset| <= B at every node, which
  certifies cells with p0 > B (1 + 1e-12), the node values being
  evaluated only for the cells it leaves open.

The anchor solvers take node values: the pressure offset p - p0 (the
integrated source) and the density at a cell's quadrature nodes, nodes
first, plus the weights that turn node values into the cell mean (Gauss
weights divided by the cell size).  A caller with an exact mean of the
offset may pass it as a single node of weight one.
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
    """Constants C_k of the continuous piecewise pressure C_k + A_k(x - x_k),
    over the whole grid of the discrete equilibrium initializer.

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


def local_glue(anti_left, anti_right, reach):
    """Constants Delta_{i,d} = C_{i+d} - C_i of the glued pressure, rows
    d = -reach..reach, cells (periodically wrapped) last.

    `anti_left`/`anti_right` are each cell's antiderivative A_k(-h/2) and
    A_k(h/2); the interface step C_{k+1} - C_k = A_k(h/2) - A_{k+1}(-h/2)
    is summed over the at most `reach` interfaces between i and i + d.
    """
    step = np.empty(anti_left.shape)
    np.subtract(anti_right[:-1], anti_left[1:], out=step[:-1])
    step[-1] = anti_right[-1] - anti_left[0]
    steps = periodic_windows(step, reach)        # row s: step[i + s - reach]
    out = np.zeros((2 * reach + 1, step.size))
    for d in range(1, reach + 1):
        np.add(out[reach + d - 1], steps[reach + d - 1], out=out[reach + d])
        np.subtract(out[reach - d + 1], steps[reach - d], out=out[reach - d])
    return out


def periodic_windows(values, reach):
    """Windows (..., 2 reach + 1, n) of `values` (..., n): row d + reach
    holds values[..., (i + d) % n] in column i.  The rows overlap in one
    padded copy of `values`, so the result is for reading only."""
    if reach == 0:
        return values[..., None, :]
    padded = np.concatenate(
        (values[..., -reach:], values, values[..., :reach]), axis=-1)
    *lead, n = values.shape
    return np.ndarray((*lead, 2 * reach + 1, n), padded.dtype, padded,
                      strides=padded.strides[:-1] + 2 * padded.strides[-1:])


def eps_hat_estimate(e_hat, rec_nodes, weights):
    """Cell-averaged internal energy from conserved averages.

    Subtracts the mean of the reconstructed kinetic energy
    |(rho u)^rec|^2 / (2 rho^rec) over the node values `rec_nodes`
    (density, then any number of momenta; each (nodes, cells)); the
    integrand is rational, so the same Gauss rule as the energy matching is
    used rather than exact integration.
    """
    kinetic = 0.5 * (rec_nodes[1:] ** 2).sum(axis=0) / rec_nodes[0]
    return e_hat - weights @ kinetic


def anchor_pressure_ideal(offset_nodes, eps_hat, deps_dp, weights):
    """Closed-form anchor of an EoS with eps = b p, b = `deps_dp`:
    eps_hat / b minus the mean pressure offset."""
    return eps_hat / deps_dp - weights @ offset_nodes


def anchor_pressure_newton(offset_nodes, rho_nodes, rho_hat, eps_hat, eos,
                           weights):
    """General-EoS anchor via Newton iteration on the matching equation
    mean(eps(rho, p0 + offset)) = eps_hat.

    Returns (p0, ok).  The initial guess is the pressure of the
    cell-averaged conserved state (rho_hat, eps_hat); the relative step
    |f/f'| < 1e-13 |p0| stops the iteration, so an anchor far below one is
    as accurate as any other, and a halving step guards against negative
    trial pressures.  Each iteration takes eps and d eps/dp at the nodes
    from one `eos.thermo` call.  ok is False where the iteration did not
    converge, the averaged state is non-physical, or p0 <= 0.
    """
    safe = (rho_hat > 0.0) & (eps_hat > 0.0)
    target = np.where(safe, eps_hat, 1.0)
    p = eos.pressure(np.where(safe, rho_hat, 1.0), target)
    rho_nodes = np.maximum(rho_nodes, 1e-300)
    converged = np.zeros(p.shape, dtype=bool)
    for _ in range(ANCHOR_MAX_ITER):
        p_nodes = p + offset_nodes
        ok_nodes = np.all(p_nodes > 0.0, axis=0) & (p > 0.0)
        p_nodes = np.where(p_nodes > 0.0, p_nodes, 1.0)
        eps_nodes, deps_nodes = eos.thermo(rho_nodes, p_nodes,
                                           "internal_energy", "deps_dp")
        f = target - weights @ eps_nodes
        fp = -(weights @ deps_nodes)
        step = f / fp
        converged |= ok_nodes & (np.abs(step) < ANCHOR_TOL * np.abs(p))
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
    `eps_hat`: closed form for an EoS with a constant d eps/dp, Newton
    iteration otherwise.

    Returns (p0, ok); ok is False where the solve did not converge, its
    inputs were non-physical, or p0 <= 0.
    """
    if eos.deps_dp_constant is not None:
        p0 = anchor_pressure_ideal(offset_nodes, eps_hat, eos.deps_dp_constant,
                                   weights)
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
                   e_hat, weights):
    """Pressure and density of every cell's local equilibrium.

    `offsets` (nodes, n) is each cell's antiderivative of rho^rec * g^int
    and `rec_nodes` (2, nodes, n) its density and momentum, at its
    `equilibrium_points` (reach 0 for DWB, r for LA); `rec_center` (C, n)
    is the reconstructed center state, whole for the simplified anchor that
    alone reads it, and `weights` the cell-mean weights
    of the Gauss nodes.  Returns (p, rho, ok) for `energy_deviations`: p
    and rho are node values over the stencil node set, and ok flags cells
    whose anchor is positive (and converged) and whose density is positive
    at their own nodes; callers fall back to the standard reconstruction
    elsewhere.

    LA extrapolates cell i's own piece.  DWB takes the neighbours' pieces,
    offset by the local glue, read through `periodic_windows`.  DWB with a
    constant d eps/dp = b needs no node values: it returns the energy
    deviations of `energy_deviations` directly, (delta, eps_faces, ok),
    from the means of p - p0 over the stencil cells and p - p0 at the
    faces (see the module docstring); ok then also holds the node gate,
    pressure and density positive at every node of the stencil and the
    faces.
    """
    nq, r = weights.size, scheme.radius
    reach = 0 if scheme.piecewise_source else r
    own = slice(reach * nq, (reach + 1) * nq)
    rho_own = rec_nodes[0, own]
    rho_pos = rho_own > 0.0
    if scheme.simplified_anchor:
        p0 = anchor_pressure_simplified(rec_center, eos)
        ok = p0 > 0.0
    else:
        eps_hat = eps_hat_estimate(
            e_hat, np.where(rho_pos, rec_nodes[:, own], 1.0), weights)
        p0, ok = solve_anchor(eos, offsets[own], rho_own, rho_hat, eps_hat,
                              weights)
    ok &= rho_pos.all(axis=0)
    p0 = np.where(ok, p0, 1.0)
    if not scheme.piecewise_source:
        return p0 + offsets, rec_nodes[0], ok
    glue = local_glue(offsets[-2], offsets[-1], r)
    if eos.deps_dp_constant is not None:
        b = eos.deps_dp_constant
        faces = offsets[nq:]
        # E[i+d] - b (Delta_{i,d} + O[i+d]): p0 cancels
        delta = glue + periodic_windows(weights @ offsets[:nq], r)
        delta *= b
        np.subtract(periodic_windows(e_hat, r), delta, out=delta)
        # the node gate through per-cell minima over the stencil and faces
        low_p = np.minimum(
            (glue + periodic_windows(offsets[:nq].min(axis=0), r)).min(axis=0),
            faces.min(axis=0))
        low_rho = np.minimum(
            periodic_windows(rho_own.min(axis=0), r).min(axis=0),
            rec_nodes[0, nq:].min(axis=0))
        ok &= (p0 + low_p > 0.0) & (low_rho > 0.0)
        return delta, b * faces, ok
    # stencil cell d: piece i + d at its own nodes, shifted by the glue;
    # the faces are cell i's own
    n = offsets.shape[-1]
    p, rho = np.empty((2, (2 * r + 1) * nq + 2, n))
    np.add(periodic_windows(offsets[:nq], r).transpose(1, 0, 2),
           (p0 + glue)[:, None], out=p[:-2].reshape(2 * r + 1, nq, n))
    np.add(offsets[nq:], p0, out=p[-2:])
    rho[:-2].reshape(2 * r + 1, nq, n)[...] = periodic_windows(
        rec_nodes[0, :nq], r).transpose(1, 0, 2)
    rho[-2:] = rec_nodes[0, nq:]
    return p, rho, ok


def energy_deviations(eos, p, rho, e_window, weights):
    """Energy deviations from the equilibrium, and its face internal energy.

    `p` and `rho` (nodes, cells) hold the equilibrium at a node set
    (`weights.size` nodes per stencil cell, cell after cell, then the
    faces) and `e_window` (n_stencil, cells) the energy averages of the
    stencil cells.  delta = E_hat - cell mean of eps(rho, p), with one EoS
    call over every node.  Returns (delta, eps_faces, ok), cells last; ok
    flags cells with positive p and rho at every node.
    """
    n_stencil = e_window.shape[0]
    ok = np.all((p > 0.0) & (rho > 0.0), axis=0)
    eps = eos.internal_energy(np.where(rho > 0.0, rho, 1.0),
                              np.where(p > 0.0, p, 1.0))
    nq = weights.size
    means = weights @ eps[:n_stencil * nq].reshape(n_stencil, nq, -1)
    return e_window - means, eps[n_stencil * nq:], ok


def hydrostatic_energy_faces(eps_faces, delta_coeffs, face_rows):
    """Face energies eps(rho^rec, p^eq) + delta-polynomial, cells last;
    `face_rows` (faces, m) holds the monomials of `delta_coeffs` (m, cells)
    at the faces."""
    return eps_faces + face_rows @ delta_coeffs


def rejected_energy_faces(cweno, energy, good, n_ghost, face_rows, e_faces):
    """Standard face energies, in place in `e_faces` (faces, cells), of the
    cells of the flux band (the interior and one ghost layer per side) that
    `good` (*grid) rejects: the values the full-field CWENO of `energy`
    (*grid) gives there, from their stencils alone."""
    band = tuple(slice(n_ghost - 1, n + 1 - n_ghost) for n in good.shape)
    at = tuple(i + n_ghost - 1 for i in np.nonzero(~good[band]))
    if at[0].size:
        offsets = np.indices((2 * cweno.radius + 1,) * good.ndim) - cweno.radius
        window = energy[tuple(i + o[..., None] for i, o in zip(at, offsets))]
        e_faces[:, np.ravel_multi_index(at, good.shape)] = face_rows @ \
            cweno.reconstruct_stencils(window, axis=tuple(range(good.ndim)))


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
