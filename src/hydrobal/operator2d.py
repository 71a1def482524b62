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
gas these alone give the energy (`wellbalance`); node densities and
pressures are evaluated where bounds cannot certify them positive, and for
every cell with any other EoS.  Arrays hold the flux band (the interior and
one ghost layer per side), cells last; the frame sees it as a state with one
ghost layer, the face buffer (4, faces, cells) and (4, X, Y, nq) views of it.
"""

import numpy as np

from .boundary import fill_sides
from .errors import ConfigurationError
from .physics import flux_divergence, get_flux, positivity_fallback
# patched by perfbench/spans.py, so it must exist; the solver never calls
# it (walls run in `FLUXES` calls), the tests' reference does
from .physics import wall_boundary_flux  # noqa: F401
from .quadrature import cell_averages, gauss_nodes_weights_centered
from .reconstruct import (Cweno2D, GravityInterp2D, product_tables,
                          stencil_windows)
from .wellbalance import (
    anchor_pressure_ideal,
    anchor_pressure_newton,
    anchor_pressure_simplified,
    energy_deviations,
    eps_hat_estimate,
    equilibrium_points,
    hydrostatic_energy_faces,
    node_energies,
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
            self._bg_avgs[[0, 3]] = cell_averages(lambda x, y: [
                rho_fn(x, y), eos.internal_energy(rho_fn(x, y), p_fn(x, y))],
                grid, 5)

        # the band's shape, and the cells its 3x3 stencils read
        nx, ny = grid.shape_tot
        self._shape = (nx + 2 - 2 * g, ny + 2 - 2 * g)
        self._reach = np.index_exp[:, g - 2:nx + 2 - g, g - 2:ny + 2 - g]
        xx, yy = (c[self._reach[1:]] for c in grid.center_mesh())
        gx, gy = gravity(xx, yy)
        interp = GravityInterp2D(*grid.spacing)
        self._exps_g = interp.exps
        # gravity coefficients of the band cells, (2, n_g, cells)
        self._g_rows = np.stack([
            interp.fit(stencil_windows(g * np.ones_like(xx), (3, 3))).reshape(
                len(self._exps_g), -1) for g in (gx, gy)])
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
        # |rho - rho_0| <= sum_i |rho_i| max |monomial_i| at every node
        self._rho_bound = np.abs(self._value_rows[:, 1:]).max(axis=0)
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

        `rec` holds the band's coefficients (C, 6, cells), LA's without the
        energy, `data` the state of the band plus one layer (`_reach`), and
        `face_values` (4, faces, cells) the face states, whose energies are
        written in place: the equilibrium's, the standard ones where the
        gate fails (LA-S keeps its state pass's, LA takes them from
        `rejected_energy_faces`).  Returns the validity mask of band cells
        whose faces use the equilibrium decomposition (anchor converged,
        positive pressure and density at all evaluation nodes).

        With eps = b p (`deps_dp_constant`) the energy comes from the
        contracted rows, cell means and faces, with no EoS call; rho and p0
        then only gate positivity, exactly, through certified bounds.  Any
        other EoS evaluates both at every node, and its anchor or energy
        call gates them.
        """
        eos, b, rho = self.eos, self.eos.deps_dp_constant, rec[0]

        if b is None:
            offsets = self._node_offsets(rho, ...)
            rho_nodes = self._value_rows @ rho
        else:
            # own-cell mean, 9 stencil-cell means and the face nodes of the
            # line integral of the source field, (18, cells), in one pass
            # over the contracted rows
            lines = np.einsum("ic,ikc->kc", rho, self._lines)
            good = self._density_positive(rho)

        if self.scheme.simplified_anchor:
            p0 = anchor_pressure_simplified(rec[:, 0], eos)
            if b is None:
                eps, good = node_energies(eos, p0 + offsets, rho_nodes)
        else:
            rec_own = self._value_rows[self._own] @ rec[:3]
            rec_own = np.where(rec_own[0] > 0.0, rec_own, 1.0)
            rho_hat, e_hat = data[[0, 3], 1:-1, 1:-1].reshape(2, -1)
            eps_hat = eps_hat_estimate(e_hat, rec_own, self._wq)
            if b is not None:
                # the line integral's exact mean, one node of weight one
                p0 = anchor_pressure_ideal(lines[:1], eps_hat, b, np.ones(1))
            else:
                p0, good, eps = self._newton_anchor(eps_hat, rho_nodes,
                                                    offsets, rho_hat)
        good &= p0 > 0.0

        # energy deviations over the band cells' 3x3 stencils (ordered like
        # the CWENO window), then the face energies
        e_window = stencil_windows(data[3], (3, 3)).reshape(9, -1)
        if b is None:
            delta, eps_faces = energy_deviations(eps, e_window, self._wq)
        else:
            good = self._pressure_positive(p0, rho, good)
            delta = e_window - b * (p0 + lines[1:10])
            eps_faces = b * (p0 + lines[10:])
        e_wb = hydrostatic_energy_faces(
            eps_faces, self.cweno.reconstruct_stencils(delta, axis=0),
            self._face_rows)
        if self._lean:
            face_values[3] = e_wb
            rejected_energy_faces(self.cweno, data[3], good.reshape(
                self._shape), 1, self._face_rows, face_values[3])
        else:   # the state pass holds the standard energy faces
            np.copyto(face_values[3], e_wb, where=good)
        return good.reshape(self._shape)

    def _node_offsets(self, rho, cells):
        """Line integrals of the source field at every node, (nodes, k), of
        the band `cells` (an index) from their density coefficients (6, k)."""
        terms = rho[:, None] * self._g_rows[:, None, :, cells]
        return self._line_rows @ terms.reshape(-1, terms.shape[-1])

    @staticmethod
    def _certified(good, value, bound, nodes):
        """`good` and, in place, every node value `nodes(cells)` (nodes, k)
        positive.  value > bound (1 + 1e-12) certifies a cell, the margin
        covering the node sums' rounding; other good cells are evaluated."""
        cells = np.flatnonzero(good & ~(value > bound * (1.0 + 1e-12)))
        if cells.size:
            # two columns at least: BLAS rounds a single one differently
            cells = np.resize(cells, max(cells.size, 2))
            good[cells] = np.all(nodes(cells) > 0.0, axis=0)
        return good

    def _density_positive(self, rho):
        """Cells whose density rho (6, cells) is positive at every node."""
        return self._certified(np.ones(rho.shape[1], dtype=bool), rho[0],
                               self._rho_bound @ np.abs(rho[1:]),
                               lambda cells: self._value_rows @ rho[:, cells])

    def _pressure_positive(self, p0, rho, good):
        """`good` and p0 + offset > 0 at every node."""
        return self._certified(
            good, p0, np.sum(np.abs(rho) * self._bound, axis=0),
            lambda cells: p0[cells] + self._node_offsets(rho[:, cells], cells))

    def _newton_anchor(self, eps_hat, rho_nodes, line_nodes, rho_hat):
        return anchor_pressure_newton(line_nodes, rho_nodes, self._own,
                                      rho_hat, eps_hat, self.eos, self._wq)

    # -- sources --------------------------------------------------------------

    def _sources(self, rec):
        """Exact cell means of (0, s_x, s_y, v.s) over the band, (4, X, Y):
        the rec coefficients (4, 6, cells) against the gravity-contracted
        mean rows (2, 6, cells), cells last."""
        out = np.zeros((4, rec.shape[-1]))
        np.einsum("ic,dic->dc", rec[0], self._source_rows, out=out[1:3])
        np.einsum("dic,dic->c", rec[1:3], self._source_rows, out=out[3])
        return out.reshape((4,) + self._shape)

    # -- right-hand side ------------------------------------------------------

    def rhs(self, state):
        grid = self.grid
        data = state.copy()
        self.fill_ghosts(data)

        # the band's coefficients (C, 6, cells) and faces (4, faces, cells)
        reach = data[self._reach]
        rec = self.cweno.coefficients(reach[:3] if self._lean else reach) \
            .reshape(-1, len(self.cweno.exps), np.prod(self._shape))
        face_values = np.empty((4, len(self._face_rows), rec.shape[2]))
        np.matmul(self._face_rows, rec, out=face_values[:len(rec)])
        good = (self._profiles_and_faces(rec, reach, face_values)
                if self.scheme.well_balanced else None)
        faces = face_values.reshape(face_values.shape[:2] + self._shape)
        self.fallback_cells += positivity_fallback(
            faces, reach[:, 1:-1, 1:-1], 1, good)
        # (component, face, node, X, Y) -> (face, component, X, Y, node)
        xl, xr, yl, yr = face_values.reshape(
            (4, 4, -1) + self._shape).transpose(1, 0, 3, 4, 2)
        out = np.zeros_like(data)
        out[(slice(None),) + grid.interior] = flux_divergence(
            ((xl, xr), (yl, yr)), self.flux_fn, self.eos, self.boundary.axes,
            grid.spacing, 1, self._face_w) + self._sources(rec)[:, 1:-1, 1:-1]
        return out
