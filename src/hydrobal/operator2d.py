"""Semi-discrete right-hand side for the 2-D Euler equations with gravity.

Implements the standard third-order scheme and the local-approximation
well-balanced variants (LA, LA-S): per cell, the hydrostatic pressure is the
anchor value plus the exact straight-line integral of the cell's own source
polynomials, extrapolated across the 3x3 stencil; only the energy is
reconstructed as equilibrium plus CWENO of the deviations.  The frame around
it is shared with the 1-D operator: the side fill `boundary.fill_sides`, and
the positivity fallback, flux divergence and CFL rate of `physics`.

The equilibrium algebra is organized around the product basis
rec-monomial x gravity-monomial, with the table builder the 1-D operator
shares (`reconstruct.product_tables`).  Gravity is static, so construction
contracts the tables with each cell's gravity coefficients once: per
density monomial, the line integral's exact own-cell mean, its Gauss means
over the stencil cells, its face values, and the sources' cell means, each
then a short sum over the density coefficients per stage.  With the ideal
gas these alone give the energy (`wellbalance`); node pressures are
evaluated where a precomputed bound cannot certify them positive, and for
every cell with any other EoS.  Arrays run with cells last; the positivity
fallback takes the face buffer (4, faces, cells) whole, the flux divergence
(4, X, Y, nq) views of it.
"""

import numpy as np

from .boundary import fill_sides
from .errors import ConfigurationError
from .physics import flux_divergence, get_flux, positivity_fallback
# patched by perfbench/spans.py, so it must exist; walls run in `FLUXES` calls
from .physics import wall_boundary_flux  # noqa: F401
from .quadrature import cell_averages, gauss_nodes_weights_centered
from .reconstruct import Cweno2D, GravityInterp2D, product_tables
from .wellbalance import (
    anchor_pressure_ideal,
    anchor_pressure_newton,
    anchor_pressure_simplified,
    energy_deviations,
    eps_hat_estimate,
    equilibrium_points,
    hydrostatic_energy_faces,
    rejected_energy_faces,
)


class SpatialOperator2D:
    def __init__(self, grid, scheme, eos, gravity, boundary, eps_w=None,
                 background=None):
        scheme.validate_dimension(2)
        grid.require_ghosts(scheme.n_ghost)
        g = grid.n_ghost
        if min(grid.cells) < g:
            nx, ny = grid.cells
            raise ConfigurationError(
                f"n = {nx} x {ny} cells is too small for the ghost "
                f"fill: {scheme.label} with {g} ghost cells needs n >= {g} "
                "on both axes")
        self.grid = grid
        self.scheme = scheme
        self.eos = eos
        self.boundary = boundary
        self.flux_fn = get_flux(scheme.flux)
        self.cweno = Cweno2D(*grid.spacing, eps_w)
        # LA reads no reconstructed energy: its state pass skips it
        self._lean = scheme.well_balanced and not scheme.simplified_anchor
        self.fallback_cells = 0
        self._frozen = None
        # cell averages of the analytic background (rho, p) at rest, which
        # background-deviation sides extrapolate from
        self._bg_avgs = None
        if any("background-deviation-extrapolation" in pair
               for pair in boundary.axes):
            if background is None:
                raise ConfigurationError("background-deviation extrapolation "
                                         "needs background closures")
            rho_fn, p_fn = background
            self._bg_avgs = np.zeros((4,) + grid.shape_tot)
            self._bg_avgs[[0, 3]] = cell_averages(lambda x, y: np.stack([
                rho_fn(x, y), eos.internal_energy(rho_fn(x, y), p_fn(x, y))]),
                grid, 5)

        xx, yy = grid.center_mesh()
        gx, gy = gravity(xx, yy)
        interp = GravityInterp2D(*grid.spacing)
        self._exps_g = interp.exps
        # gravity coefficients with cells last, (2, n_g, cells)
        self._g_rows = np.stack([
            interp.coefficients(g * np.ones_like(xx)).reshape(xx.size, -1).T
            for g in (gx, gy)])
        self._build_tables()

    def _build_tables(self):
        """Product-basis tables at the node set `equilibrium_points`: the
        Gauss nodes of the 3x3 stencil cells by (x offset, y offset), then
        those of the faces xl, xr, yl, yr.

        The gravity-contracted rows, each one matrix product with the
        gravity rows: a cell's value of row k is sum_i rho_i rows[i, k] over
        its density coefficients rho_i.  `_lines` (m, 18, cells), LA only:
        the line integral's exact own-cell mean, its Gauss means over the 9
        stencil cells and its face nodes; `_source_rows` (2, m, cells): the
        source means s_x and s_y."""
        nq = self.scheme.n_quad
        m, m_g = len(self.cweno.exps), len(self._exps_g)
        self._face_w = gauss_nodes_weights_centered(nq, 1.0)[1]
        self._wq = np.outer(self._face_w, self._face_w).ravel()
        tables = product_tables(
            self.cweno.exps, self._exps_g, equilibrium_points(nq, 1, dim=2),
            self.grid.spacing)
        self._own = slice(4 * nq * nq, 5 * nq * nq)   # the center cell
        self._value_rows = np.ascontiguousarray(tables.values.T)
        self._face_rows = self._value_rows[9 * nq * nq:]
        # s_d = sum_i rho_i sum_j mean_ij g_dj
        self._source_rows = tables.means.reshape(m, m_g) @ self._g_rows
        if not self.scheme.well_balanced:
            return
        line = tables.line.reshape(2, m, m_g, -1)
        lines = np.concatenate(
            [tables.line_means.reshape(2, m, m_g, 1),
             line[..., :9 * nq * nq].reshape(2, m, m_g, 9, nq * nq) @ self._wq,
             line[..., 9 * nq * nq:]], axis=-1)
        # rows (i, k) over the columns (axis d, gravity monomial j)
        self._lines = (lines.transpose(1, 3, 0, 2).reshape(-1, 2 * m_g)
                       @ self._g_rows.reshape(2 * m_g, -1)).reshape(
                           m, lines.shape[-1], -1)
        # |line integral| <= sum_i |rho_i| bound_i at every node
        self._bound = np.abs(line).max(axis=-1).transpose(1, 0, 2) \
            .reshape(m, -1) @ np.abs(self._g_rows).reshape(2 * m_g, -1)
        # node values of the line integrals from product terms, for the
        # cells whose pressure positivity the bound leaves open
        self._line_rows = np.ascontiguousarray(
            tables.line.reshape(2 * m * m_g, -1).T)

    # -- boundaries ---------------------------------------------------------

    def set_initial_state(self, data):
        self._frozen = data.copy()

    def fill_ghosts(self, data):
        fill_sides(data, self.boundary.axes, self.grid.n_ghost, self._frozen,
                   self._bg_avgs)

    # -- equilibrium machinery ----------------------------------------------

    def _profiles_and_faces(self, rec, data, face_values):
        """LA equilibrium: anchors, energy deviations, face-energy overwrite.

        `rec` holds the reconstruction coefficients with cells last,
        (C, 6, cells), LA's without the energy, and `face_values` (4, faces,
        cells) the face states, whose energies are written in place: the
        equilibrium's, the standard ones where the gate fails in the band
        (`rejected_energy_faces`).  Returns the validity mask
        of cells whose faces use the equilibrium decomposition (anchor
        converged, positive pressure and density at all evaluation nodes).

        With eps = b p (`deps_dp_constant`) the energy comes from the
        contracted rows, cell means and faces, with no EoS call; p0 then
        only gates positivity, exactly, through `_pressure_positive`.  Any
        other EoS evaluates the pressure offsets at every node.
        """
        scheme, eos = self.scheme, self.eos
        b = eos.deps_dp_constant
        shape = data.shape[1:]
        rho = rec[0]

        if b is None:
            offsets = self._node_offsets(rho, ...)
        else:
            # own-cell mean, 9 stencil-cell means and the face nodes of the
            # line integral of the source field, (18, cells), in one pass
            # over the contracted rows
            lines = np.einsum("ic,ikc->kc", rho, self._lines)
        rho_nodes = self._value_rows @ rho
        good = np.all(rho_nodes > 0.0, axis=0)

        if scheme.simplified_anchor:
            p0 = anchor_pressure_simplified(rec[:, 0], eos)
            good &= p0 > 0.0
        else:
            own = self._own
            rec_own = self._value_rows[own] @ rec[:3]
            rec_own = np.where(rec_own[0] > 0.0, rec_own, 1.0)
            eps_hat = eps_hat_estimate(data[3].reshape(-1), rec_own, self._wq)
            if b is not None:
                # exact cell mean of the line integral, as one node of
                # weight one
                p0 = anchor_pressure_ideal(lines[:1], eps_hat, b, np.ones(1))
                good &= p0 > 0.0
            else:
                p0, ok = self._newton_anchor(eps_hat, rec_own[0], offsets[own],
                                             data[0].reshape(-1))
                good &= ok

        # energy deviations over the wrapped 3x3 stencil (ordered like the
        # CWENO window), then the face energies
        e_window = np.lib.stride_tricks.sliding_window_view(
            np.pad(data[3], 1, mode="wrap"), shape).reshape(9, -1)
        if b is None:
            delta, eps_faces, ok = energy_deviations(
                eos, p0 + offsets, rho_nodes, e_window, self._wq)
            good &= ok
        else:
            good &= self._pressure_positive(p0, rho)
            delta = e_window - b * (p0 + lines[1:10])
            eps_faces = b * (p0 + lines[10:])
        e_wb = hydrostatic_energy_faces(
            eps_faces, self.cweno.reconstruct_stencils(delta, axis=0),
            self._face_rows)
        face_values[3] = e_wb
        good = good.reshape(shape)
        rejected_energy_faces(self.cweno, data[3], good, self.grid.n_ghost,
                              self._face_rows, face_values[3])
        return good

    def _node_offsets(self, rho, cells):
        """Line integrals of the source field at every node, (nodes, k), of
        the `cells` (an index) from their density coefficients rho (6, k)."""
        terms = rho[:, None] * self._g_rows[:, None, :, cells]
        return self._line_rows @ terms.reshape(-1, terms.shape[-1])

    def _pressure_positive(self, p0, rho):
        """Cells with p0 + offset > 0 at every node, as the node values
        decide it.  p0 > bound (1 + 1e-12) certifies a cell, the margin
        covering the rounding of the node sums; only the other cells
        evaluate their node offsets."""
        bound = np.sum(np.abs(rho) * self._bound, axis=0)
        unsure = np.flatnonzero(~(p0 > bound * (1.0 + 1e-12)))
        ok = np.ones(p0.shape, dtype=bool)
        if unsure.size:
            ok[unsure] = np.all(
                p0[unsure] + self._node_offsets(rho[:, unsure], unsure) > 0.0,
                axis=0)
        return ok

    def _newton_anchor(self, eps_hat, rho_nodes, line_nodes, rho_hat):
        return anchor_pressure_newton(line_nodes, rho_nodes, rho_hat, eps_hat,
                                      self.eos, self._wq)

    # -- sources --------------------------------------------------------------

    def _sources(self, rec):
        """Exact cell means of (0, s_x, s_y, v.s) over the grid: the
        rec coefficients (4, 6, cells) against the gravity-contracted mean
        rows (2, 6, cells), cells last."""
        sx, sy = self._source_rows
        out = np.zeros((4, rec.shape[-1]))
        np.einsum("ic,ic->c", rec[0], sx, out=out[1])
        np.einsum("ic,ic->c", rec[0], sy, out=out[2])
        np.einsum("dic,dic->c", rec[1:3], self._source_rows, out=out[3])
        return out.reshape((4,) + self.grid.shape_tot)

    # -- right-hand side ------------------------------------------------------

    def rhs(self, state):
        grid, scheme = self.grid, self.scheme
        g = grid.n_ghost
        data = state.copy()
        self.fill_ghosts(data)

        # coefficients (C, 6, cells) and the one face buffer (4, faces,
        # cells), cells last
        shape = data.shape[1:]
        rec = self.cweno.coefficients(data[:3] if self._lean else data) \
            .reshape(-1, len(self.cweno.exps), data[0].size)
        face_values = np.empty((4, len(self._face_rows), rec.shape[2]))
        np.matmul(self._face_rows, rec, out=face_values[:len(rec)])
        good = (self._profiles_and_faces(rec, data, face_values)
                if scheme.well_balanced else None)
        faces = face_values.reshape(face_values.shape[:2] + shape)
        self.fallback_cells += positivity_fallback(faces, data, g, good)
        # (component, face, node, X, Y) -> (face, component, X, Y, node)
        xl, xr, yl, yr = face_values.reshape((4, 4, -1) + shape).transpose(
            1, 0, 3, 4, 2)
        out = np.zeros_like(data)
        interior = (slice(None),) + grid.interior
        out[interior] = flux_divergence(
            ((xl, xr), (yl, yr)), self.flux_fn, self.eos, self.boundary.axes,
            grid.spacing, g, self._face_w) + self._sources(rec)[interior]
        return out
