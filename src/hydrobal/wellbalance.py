"""Local hydrostatic equilibria and the equilibrium-preserving energy
reconstruction of the spatial operator in 1-D and 2-D, plus the anchor
solvers shared with the 1-D ghost fill and the discrete equilibrium
initializer, and the initializer's pressure glue.

Step 1 builds, for every cell, a local equilibrium: the density is the
standard reconstruction polynomial; the pressure is the anchor value p0 plus
the exact integral of a source representation s_i.  For the piecewise
variant (DWB, 1-D, `build_profiles`) s_i restricted to a stencil cell k is
that cell's own rho_k^rec * g_k^int and the pressure is glued continuously
at interfaces; only the band's inner cells, the flux band, have every
piece of their stencil, which strided windows over the band
(`reconstruct.stencil_windows`) read without a copy.  For the
local-approximation variant (LA, 1-D and 2-D, `LocalEquilibrium`) cell
i's single source polynomial is extrapolated across the stencil.

Step 2 reconstructs only the ENERGY hydrostatically: the cell averages of the
profile's internal energy are subtracted (same quadrature everywhere), the
deviations are run through CWENO, and the profile is added back.  Density and
momentum keep the standard reconstruction: the equilibrium momentum vanishes
and the density deviations vanish identically because the quadrature is exact
for the reconstruction polynomials.  The anchors of DWB and LA read no
reconstructed energy, so their state pass leaves it out; the standard energy
of the flux band's cells that the gate rejects is `rejected_energy_faces`.

Layout: cells run along the last axis of every array here, behind the
node, stencil or face axis, so that reductions over a stencil or a cell's
nodes are contiguous passes over rows.  Each cell's equilibrium is
evaluated at one node set (`equilibrium_points`) through the product-basis
tables (`reconstruct.product_tables`), transposed once at construction.

The DWB glue is stencil-local: the constant of stencil cell i + d relative
to cell i, Delta_{i,d} = C_{i+d} - C_i, is a sum of at most r interface
steps A_k(h/2) - A_{k+1}(-h/2) (`local_glue`), never a difference of two
sums over the whole grid, so its rounding error scales with the pressures
of the stencil, not with the largest pressure of the grid.

Two paths compute the energy deviations:
- node values, for an EoS without a constant d eps/dp: the internal energy
  at the pressure p0 + offset and the density at every node of the stencil
  and the faces (`energy_deviations`).  The Newton anchor's last iteration
  inverts the whole node set at the converged p0, so it yields them; after
  the simplified anchor they take one EoS call (`node_energies`);
- cell means, for eps = b p (`deps_dp_constant`, the ideal gas): the window
  entries are E[i+d] - b times the mean equilibrium pressure over stencil
  cell d, and the face energies b times the face pressure plus the
  deviation polynomial.  p0 shifts every window entry and face by b p0,
  which CWENO carries through unchanged, so the energy takes no EoS call
  (DWB leaves p0 out).  p0 still gates positivity, exactly as the node
  values would: DWB through per-cell minima, p0 + min_d (Delta_{i,d} + min
  of offset_{i+d}) > 0; LA through a bound |offset| <= B at every node,
  which certifies cells with p0 > B (1 + 1e-12), the node values being
  evaluated only for the cells it leaves open.

The anchor solvers take node values, nodes first: the pressure offset
p - p0 (the integrated source) at a cell's quadrature nodes, plus the
weights that turn node values into the cell mean (Gauss weights divided by
the cell size).  A caller with an exact mean of the offset may pass it as
a single node of weight one.  The Newton anchor takes the caller's whole
node set with its densities, and a slice of the rows of the matched mean.
"""

from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .physics import physical_state
# the benchmark tracer (perfbench/spans.py) counts polynomial calls through
# these names, which only have to exist: the solver evaluates through
# `reconstruct.product_tables`; the Horner helpers are the tests' reference
from .poly import poly_antiderivative, poly_eval, poly_mul  # noqa: F401
from .quadrature import gauss_nodes_weights_centered
from .reconstruct import _frozen, stencil_windows

ANCHOR_TOL = 1e-13
ANCHOR_MAX_ITER = 50
# the weight of an exact cell mean passed to `anchor_pressure_ideal` as a
# single node
UNIT_WEIGHT, = _frozen(np.ones(1))


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
    d = -reach..reach, for the cells i whose pieces i - reach..i + reach
    all exist (all but the outer `reach` cells per side), cells last.

    `anti_left`/`anti_right` are each cell's antiderivative A_k(-h/2) and
    A_k(h/2); the interface step C_{k+1} - C_k = A_k(h/2) - A_{k+1}(-h/2)
    is summed over the at most `reach` interfaces between i and i + d.
    """
    steps = anti_right[:-1] - anti_left[1:]
    m = steps.size - 2 * reach + 1
    out = np.zeros((2 * reach + 1, m))
    for d in range(1, reach + 1):      # steps[s:s + m]: step[i + s - reach]
        up, down = reach + d - 1, reach - d
        np.add(out[up], steps[up:up + m], out=out[up + 1])
        np.subtract(out[down + 1], steps[down:down + m], out=out[down])
    return out


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


def anchor_pressure_newton(c_rows, rho_rows, own, rho_hat, eps_hat, eos,
                           weights):
    """General-EoS anchor via Newton iteration on the matching equation
    mean(eps(rho, p0 + c)) = eps_hat over the rows `own` of a node set.

    `c_rows` (rows, cells) is p - p0 at every node, which does not depend
    on p0, and `rho_rows` the density there.  Returns (p0, ok, eps), eps at
    every row at p0: the first iteration inverts the own rows, every later
    one all rows at the candidate p0, so the iteration that confirms
    convergence also yields eps at every node.  The initial guess is the
    pressure of the averaged state (rho_hat, eps_hat); the relative step
    |f/f'| < 1e-13 p0 stops the iteration, so an anchor far below one is as
    accurate as any other, and a halving step guards against negative trial
    pressures.  Every EoS evaluation, the start's `thermo_eps` and one
    `thermo` per iteration, is at `eos.closed_form`, without guard and
    polish: 1 stands in for a non-positive p or rho and for a non-finite
    averaged state, and the next iteration confirms the last one's
    temperatures.  ok is False where the iteration did not converge, the
    averaged state is not finite and positive, or p or rho is not positive
    at some row.
    """
    eos = eos.closed_form
    safe = (np.minimum(rho_hat, eps_hat) > 0.0) \
        & (np.maximum(rho_hat, eps_hat) < np.inf)
    target = np.where(safe, eps_hat, 1.0)
    p, = eos.thermo_eps(np.where(safe, rho_hat, 1.0), target)
    ok = rho_rows.min(axis=0) > 0.0
    if not ok.all():
        rho_rows = np.where(rho_rows > 0.0, rho_rows, 1.0)
    converged = np.zeros(p.shape, dtype=bool)
    rows, mean = own, slice(None)
    for it in range(ANCHOR_MAX_ITER):
        p_rows = p + c_rows[rows]
        low = p_rows.min(axis=0)
        if not low.min(initial=np.inf) > 0.0:
            p_rows = np.where(p_rows > 0.0, p_rows, 1.0)
        eps, deps = eos.thermo(rho_rows[rows], p_rows, "internal_energy",
                               "deps_dp")
        step = (target - weights @ eps[mean]) / (weights @ deps[mean])
        converged |= np.abs(step) < ANCHOR_TOL * p
        if it and converged.all():
            break
        p_next = p + step
        if not p_next.min(initial=np.inf) > 0.0:
            p_next = np.where(p_next > 0.0, p_next, 0.5 * p)
        p = np.where(converged, p, p_next)
        rows, mean = slice(None), own
    return p, ok & safe & converged & (low > 0.0), eps


def anchor_pressure_simplified(rec_center, eos):
    """Anchor by direct EoS evaluation of the reconstructed cell-center state
    (rho, momenta..., E); -1 where that state is non-physical."""
    eps0, good = physical_state(rec_center)
    p0 = eos.pressure(np.where(good, rec_center[0], 1.0),
                      np.where(good, eps0, 1.0))
    return np.where(good, p0, -1.0)


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
                   e_hat, e_window, weights):
    """Pressure, density and internal energy of every band cell's DWB
    equilibrium (LA's is `LocalEquilibrium`).

    `offsets` (nodes, n) is each cell's antiderivative of rho^rec * g^int
    and `rec_nodes` (2, nodes, n) its density and momentum, at its own
    Gauss nodes and faces; `rec_center` (C, n) is the reconstructed center
    state, whole for the simplified anchor that alone reads it, `e_window`
    (stencil cells, n) the energy averages of each cell's stencil and
    `weights` the Gauss nodes' cell-mean weights.  Stencil cell d takes
    piece i + d, offset by the local glue: only the inner cells, all but
    the outer r per side, have every piece.  Returns (p, rho, eps, ok) for
    `energy_deviations`, node values over the stencil node set, ok flagging
    cells whose anchor is positive (and converged) and whose p and rho are
    positive at every node, for every band cell (the anchor's node sums
    are matrix products, whose rounding may depend on a cell's column), an
    outer one repeating its own nodes for every stencil cell; with a constant
    d eps/dp = b, the energy deviations of the inner cells directly,
    (delta, eps_faces, ok).
    """
    nq, r, b = weights.size, scheme.radius, eos.deps_dp_constant
    inner, width = slice(r, -r), 2 * r + 1
    rho_own = rec_nodes[0, :nq]
    glue = local_glue(offsets[-2], offsets[-1], r)
    n = offsets.shape[-1]
    if b is None:
        # the node set relative to p0 and its densities: stencil cell d is
        # piece i + d at its own nodes, the glue added to the offset, and
        # its faces are cell i's own; both windowed in one view
        own = np.empty((2, nq, n))
        own[0], own[1] = offsets[:nq], rho_own
        c, rho = nodes = np.empty((2, width * nq + 2, n))
        stencil = nodes[:, :-2].reshape(2, width, nq, n)
        stencil[...] = own[:, None]
        stencil[..., inner] = stencil_windows(own, (width,)).swapaxes(0, 1)
        stencil[0, ..., inner] += glue[:, None]
        c[-2:] = offsets[nq:]
        rho[-2:] = rec_nodes[0, nq:]
    else:
        # each cell's mean offset and its minima of the offset and the
        # density over its nodes, windowed in one view below
        own = np.empty((3, n))
        mean = np.matmul(weights, offsets[:nq], out=own[0])
        offsets[:nq].min(axis=0, out=own[1])
        rho_own.min(axis=0, out=own[2])
    if scheme.simplified_anchor:
        p0 = anchor_pressure_simplified(rec_center, eos)
    else:
        eps_hat = eps_hat_estimate(
            e_hat, np.where(rho_own > 0.0, rec_nodes[:, :nq], 1.0), weights)
        if b is None:
            p0, ok, eps = anchor_pressure_newton(
                c, rho, slice(r * nq, (r + 1) * nq), rho_hat, eps_hat, eos,
                weights)
            return p0 + c, rho, eps, ok
        # the mean offset, one node of weight one
        p0 = anchor_pressure_ideal(mean[None], eps_hat, b, UNIT_WEIGHT)
    if b is None:
        p = p0 + c
        eps, positive = node_energies(eos, p, rho)
        return p, rho, eps, (p0 > 0.0) & positive
    p0, faces = p0[inner], offsets[nq:, inner]
    # the three per-cell values over each stencil, (width, inner cells)
    means, offset_lows, rho_lows = stencil_windows(
        own, (width,)).swapaxes(0, 1)
    # E[i+d] - b (Delta_{i,d} + O[i+d]): p0 cancels
    delta = glue + means
    delta *= b
    np.subtract(e_window[:, inner], delta, out=delta)
    # the node gate through per-cell minima over the stencil and faces
    low_p = np.minimum((glue + offset_lows).min(axis=0), faces.min(axis=0))
    low_rho = np.minimum(rho_lows.min(axis=0),
                         rec_nodes[0, nq:, inner].min(axis=0))
    ok = (p0 > 0.0) & (p0 + low_p > 0.0) & (low_rho > 0.0)
    return delta, b * faces, ok


def node_energies(eos, p, rho):
    """eps(rho, p) at node values (nodes, cells), with 1 in place of a
    non-positive p or rho, in one EoS call; and the cells whose p and rho
    are positive at every node."""
    ok = np.all((p > 0.0) & (rho > 0.0), axis=0)
    return eos.internal_energy(np.where(rho > 0.0, rho, 1.0),
                               np.where(p > 0.0, p, 1.0)), ok


def energy_deviations(eps, e_window, weights):
    """Energy deviations from the equilibrium, and its face internal energy.

    `eps` (nodes, cells) holds the equilibrium's internal energy at a node
    set (`weights.size` nodes per stencil cell, cell after cell, then the
    faces) and `e_window` (n_stencil, cells) the energy averages of the
    stencil cells.  delta = E_hat - cell mean of eps.  Returns (delta,
    eps_faces), cells last.
    """
    n_stencil, nq = e_window.shape[0], weights.size
    means = weights @ eps[:n_stencil * nq].reshape(n_stencil, nq, -1)
    return e_window - means, eps[n_stencil * nq:]


def hydrostatic_energy_faces(eps_faces, delta_coeffs, face_rows):
    """Face energies eps(rho^rec, p^eq) + delta-polynomial, cells last;
    `face_rows` (faces, m) holds the monomials of `delta_coeffs` (m, cells)
    at the faces."""
    return eps_faces + face_rows @ delta_coeffs


class LocalEquilibrium:
    """The LA and LA-S equilibrium of every cell, in 1-D or 2-D: the anchor
    p0 plus the straight-line integral from the cell center of its own
    source polynomial rho^rec g^int, extrapolated over its stencil.

    Built from the operator's product-basis `tables` at
    `equilibrium_points(n_quad, r, dim)`, their transpose `value_rows`
    (nodes, m) and the static gravity rows `g_rows` (dim, m_g, cells),
    cells last, contracted once: a cell's row k of `_lines` (m, rows,
    cells) is sum_i rho_i rows[i, k], the line integral's exact own-cell
    mean, Gauss means over the stencil cells and face values; `_bound` and
    `_rho_bound` bound the offset and rho - rho_0 at every node;
    `_line_rows` (nodes, terms) give the offsets there.
    """

    def __init__(self, scheme, eos, cweno, tables, value_rows, g_rows):
        self.eos, self.cweno = eos, cweno
        self._simplified = scheme.simplified_anchor
        nq, dim, m_g = scheme.n_quad, len(g_rows), g_rows.shape[1]
        m, cell_nodes = len(value_rows[0]), nq ** dim
        self._stencil = (2 * scheme.radius + 1) ** dim
        at = self._stencil * cell_nodes      # the first face node
        self._wq = reduce(np.multiply.outer, [
            gauss_nodes_weights_centered(nq, 1.0)[1]] * dim).ravel()
        mid = self._stencil // 2 * cell_nodes
        self._own = slice(mid, mid + cell_nodes)     # the center cell
        self._value_rows, self._face_rows = value_rows, value_rows[at:]
        self._g_rows = g_rows
        self._rho_bound = np.abs(value_rows[:, 1:]).max(axis=0)
        line = tables.line.reshape(dim, m, m_g, -1)
        lines = np.concatenate(
            [tables.line_means.reshape(dim, m, m_g, 1),
             line[..., :at].reshape(dim, m, m_g, self._stencil, cell_nodes)
             @ self._wq, line[..., at:]], axis=-1)
        # rows (i, k) over the columns (axis d, gravity monomial j)
        self._lines = (lines.transpose(1, 3, 0, 2).reshape(-1, dim * m_g)
                       @ g_rows.reshape(dim * m_g, -1)).reshape(
                           m, lines.shape[-1], -1)
        self._bound = np.abs(line).max(axis=-1).transpose(1, 0, 2) \
            .reshape(m, -1) @ np.abs(g_rows).reshape(dim * m_g, -1)
        self._line_rows = np.ascontiguousarray(
            tables.line.reshape(dim * m * m_g, -1).T)

    def __call__(self, rec, rho_hat, e_hat, e_window):
        """Equilibrium face energies (faces, cells) and the gate (cells,),
        from the coefficients `rec` (C, m, cells), LA's without the energy,
        the cells' density and energy averages `rho_hat` and `e_hat`, and
        their stencils' energy averages `e_window` (stencil cells, cells).

        The gate flags the cells whose anchor converged and whose pressure
        and density are positive at every node.  With eps = b p certified
        bounds gate rho and p0, and the energy takes no EoS call; any other
        EoS evaluates both at every node, and its anchor or energy call
        gates them.
        """
        eos, b, rho = self.eos, self.eos.deps_dp_constant, rec[0]
        if b is None:
            offsets = self._line_rows @ self._terms(rho, ...)
            rho_nodes = self._value_rows @ rho
        else:
            # own-cell mean, stencil-cell means and face values of the
            # line integral, (rows, cells), in one pass
            lines = np.einsum("ic,ikc->kc", rho, self._lines)
            good = self._density_positive(rho)

        if self._simplified:
            p0 = anchor_pressure_simplified(rec[:, 0], eos)
            if b is None:
                eps, good = node_energies(eos, p0 + offsets, rho_nodes)
        else:
            rec_own = self._value_rows[self._own] \
                @ rec[:len(self._g_rows) + 1]    # rho and momenta
            rec_own = np.where(rec_own[0] > 0.0, rec_own, 1.0)
            eps_hat = eps_hat_estimate(e_hat, rec_own, self._wq)
            if b is not None:
                # the line integral's exact mean, one node of weight one
                p0 = anchor_pressure_ideal(lines[:1], eps_hat, b,
                                           UNIT_WEIGHT)
            else:
                p0, good, eps = anchor_pressure_newton(
                    offsets, rho_nodes, self._own, rho_hat, eps_hat, eos,
                    self._wq)
        good &= p0 > 0.0

        if b is None:
            delta, eps_faces = energy_deviations(eps, e_window, self._wq)
        else:
            good = self._pressure_positive(p0, rho, good)
            delta = e_window - b * (p0 + lines[1:self._stencil + 1])
            eps_faces = b * (p0 + lines[self._stencil + 1:])
        return hydrostatic_energy_faces(
            eps_faces, self.cweno.reconstruct_stencils(delta),
            self._face_rows), good

    def _terms(self, rho, cells):
        """Product terms (terms, k), the columns of `_line_rows`, of the
        cells `cells` (an index) from their density coefficients (m, k)."""
        terms = rho[:, None] * self._g_rows[:, None, :, cells]
        return terms.reshape(-1, terms.shape[-1])

    @staticmethod
    def _certified(good, value, bound, rows, columns):
        """`good` and, in place, value + rows @ column > 0 at every node,
        for each cell's column of `columns(cells)` (terms, k).

        value > bound (1 + 1e-12) certifies a cell, the margin covering the
        node sums' rounding; the other good cells are evaluated, one
        vector-matrix product per cell: the blocking of one matrix product
        over them all would make a cell's node values, and so its
        decision, depend on how many other cells are open."""
        cells = np.flatnonzero(good & ~(value > bound * (1.0 + 1e-12)))
        if cells.size:
            nodes = np.matmul(columns(cells).T[:, None], rows.T)[:, 0]
            good[cells] = np.all(value[cells, None] + nodes > 0.0, axis=1)
        return good

    def _density_positive(self, rho):
        """Cells whose density rho (m, cells) is positive at every node."""
        return self._certified(
            np.ones(rho.shape[1], dtype=bool), rho[0],
            self._rho_bound @ np.abs(rho[1:]), self._value_rows[:, 1:],
            lambda cells: rho[1:, cells])

    def _pressure_positive(self, p0, rho, good):
        """`good` and p0 + offset > 0 at every node."""
        return self._certified(
            good, p0, np.sum(np.abs(rho) * self._bound, axis=0),
            self._line_rows, lambda cells: self._terms(rho[:, cells], cells))


def rejected_energy_faces(cweno, energy, good, offset, face_rows, e_faces):
    """Standard face energies, in place in `e_faces` (faces, *band), of the
    flux band's cells (the interior and one ghost layer per side; cell i is
    cell i + `offset` of `energy` (*grid)) that `good` (*band) rejects: the
    full-field CWENO values of `energy` there, from their stencils alone."""
    rejected = np.nonzero(~good)
    if rejected[0].size:
        at = tuple(i + offset for i in rejected)
        offsets = np.indices((2 * cweno.radius + 1,) * good.ndim) - cweno.radius
        window = energy[tuple(i + o[..., None] for i, o in zip(at, offsets))]
        e_faces[(slice(None),) + rejected] = face_rows @ \
            cweno.reconstruct_stencils(window, axis=tuple(range(good.ndim)))
