"""Semi-discrete right-hand side for the 2-D Euler equations with gravity:
the standard third-order scheme, and LA and LA-S through the equilibrium
stage `wellbalance.LocalEquilibrium` that the 1-D operator shares.

Every per-cell layer runs on the flux band, the interior and one ghost
layer per side, cells last: the coefficients (C, 6, cells), the static
tables, the energy windows (a strided view of the ghosted energy) and the
face buffer (4, faces, cells).  The shared frame (`boundary.fill_sides` and
`physics`' positivity fallback, flux divergence and CFL rate) sees the band
as a state with one ghost layer, through (4, X, Y, nq) views of the faces.
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
from .wellbalance import (LocalEquilibrium, equilibrium_points,
                          rejected_energy_faces)


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
        # product-basis tables at the Gauss nodes of the 3x3 stencil cells
        # by (x offset, y offset), then of the faces xl, xr, yl, yr
        nq, m_g = scheme.n_quad, len(self._exps_g)
        self._face_w = gauss_nodes_weights_centered(nq, 1.0)[1]
        tables = product_tables(self.cweno.exps, self._exps_g,
                                equilibrium_points(nq, 1, dim=2), grid.spacing)
        value_rows = np.ascontiguousarray(tables.values.T)
        self._face_rows = value_rows[9 * nq * nq:]
        # source means (2, m, cells): s_d = sum_i rho_i sum_j mean_ij g_dj
        self._source_rows = tables.means.reshape(-1, m_g) @ self._g_rows
        if scheme.well_balanced:
            self._equilibrium = LocalEquilibrium(
                scheme, eos, self.cweno, tables, value_rows, self._g_rows)

    # -- boundaries ---------------------------------------------------------

    def set_initial_state(self, data):
        self._frozen = data.copy()

    def fill_ghosts(self, data):
        fill_sides(data, self.boundary.axes, self.grid.n_ghost, self._frozen,
                   self._bg_avgs)

    # -- equilibrium machinery ----------------------------------------------

    def _profiles_and_faces(self, rec, data, face_values):
        """LA equilibrium of the band, the stage on its 3x3 energy windows.

        `rec` holds the band's coefficients (C, 6, cells), LA's without the
        energy, `data` the state of the band plus one layer (`_reach`), and
        `face_values` (4, faces, cells) the face states, whose energies are
        written in place: the equilibrium's, the standard ones where the
        gate fails (LA-S keeps its state pass's, LA takes them from
        `rejected_energy_faces`).  Returns the gate (X, Y).
        """
        e_wb, good = self._equilibrium(
            rec, *data[[0, 3], 1:-1, 1:-1].reshape(2, -1),
            stencil_windows(data[3], (3, 3)).reshape(9, -1))
        if self._lean:
            face_values[3] = e_wb
            rejected_energy_faces(self.cweno, data[3], good.reshape(
                self._shape), 1, self._face_rows, face_values[3])
        else:   # the state pass holds the standard energy faces
            np.copyto(face_values[3], e_wb, where=good)
        return good.reshape(self._shape)

    def _newton_anchor(self):
        """Never called: perfbench/spans.py patches it (ROADMAP item 1)."""

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
