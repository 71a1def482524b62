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
shares (`reconstruct.product_tables`): every line integral, node evaluation,
and exact cell mean of the source field becomes one matrix product against
precomputed tables, a few BLAS calls over the whole grid per stage.
"""

import numpy as np

from .boundary import fill_sides
from .errors import ConfigurationError
from .physics import flux_divergence, get_flux, positivity_fallback
# the benchmark tracer (perfbench/spans.py) times wall fluxes through this name
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
        if scheme.well_balanced:
            # product terms of s_x and s_y, reused: no allocator churn
            self._outers = np.empty((2, len(self.cweno.exps),
                                     len(self._exps_g), xx.size))

    def _build_tables(self):
        """Product-basis tables at the node set `equilibrium_points`: the
        Gauss nodes of the 3x3 stencil cells by (x offset, y offset), then
        those of the faces xl, xr, yl, yr, one contiguous table per face."""
        nq = self.scheme.n_quad
        self._face_w = gauss_nodes_weights_centered(nq, 1.0)[1]
        self._wq = np.outer(self._face_w, self._face_w).ravel()
        self._tables = product_tables(
            self.cweno.exps, self._exps_g, equilibrium_points(nq, 1, dim=2),
            self.grid.spacing)
        self._own = slice(4 * nq * nq, 5 * nq * nq)   # the center cell
        # the equilibrium layer runs with cells last, on transposed tables:
        # both line tables side by side, for the s_x then s_y terms
        self._value_rows = np.ascontiguousarray(self._tables.values.T)
        self._face_rows = self._value_rows[9 * nq * nq:]
        # the frame's face values, cells first: views of the face rows
        self._face_values = [self._face_rows[k * nq:(k + 1) * nq].T
                             for k in range(4)]
        self._line_rows = np.ascontiguousarray(
            np.concatenate(self._tables.line, axis=0).T)
        self._line_mean_row = np.concatenate(self._tables.line_means)
        self._mean_rows = np.ascontiguousarray(
            self._tables.means.reshape(len(self.cweno.exps), -1).T)

    # -- boundaries ---------------------------------------------------------

    def set_initial_state(self, data):
        self._frozen = data.copy()

    def fill_ghosts(self, data):
        fill_sides(data, self.boundary.axes, self.grid.n_ghost, self._frozen,
                   self._bg_avgs)

    # -- equilibrium machinery ----------------------------------------------

    def _profiles_and_faces(self, rec, data, faces):
        """LA equilibrium: anchors, energy deviations, face-energy overwrite.

        `rec` holds the reconstruction coefficients with cells last,
        (4, 6, cells).  Returns the validity mask of cells whose faces use
        the equilibrium decomposition (anchor converged, positive pressure
        and density at all evaluation nodes).
        """
        scheme, eos = self.scheme, self.eos
        shape = data.shape[1:]

        # product-basis coefficients of s_x then s_y, rec-major like
        # `product_terms`: (2 * terms, cells)
        terms = np.multiply(rec[0][:, None], self._g_rows[:, None],
                            out=self._outers).reshape(-1, rec.shape[-1])

        # line integrals of the source field at every node set at once
        line_all = self._line_rows @ terms
        rho_nodes_all = self._value_rows @ rec[0]

        own = self._own
        rec_own = self._value_rows[own] @ rec[:3]
        rho_pos_own = rec_own[0] > 0.0
        rec_own = np.where(rho_pos_own, rec_own, 1.0)
        eps_hat = eps_hat_estimate(data[3].reshape(-1), rec_own, self._wq)

        if scheme.simplified_anchor:
            p0 = anchor_pressure_simplified(rec[:, 0], eos)
            good_anchor = p0 > 0.0
        elif eos.deps_dp_constant is not None:
            # exact cell mean of the line-integral polynomial, as one node
            # of weight one
            p0 = anchor_pressure_ideal((self._line_mean_row @ terms)[None],
                                       eps_hat, eos.deps_dp_constant,
                                       np.ones(1))
            good_anchor = p0 > 0.0
        else:
            p0, good_anchor = self._newton_anchor(
                eps_hat, rec_own[0], line_all[own], data[0].reshape(-1))
        good = good_anchor & np.all(rho_pos_own, axis=0)

        # energy deviations over the wrapped 3x3 stencil (ordered like the
        # CWENO window), then the face energies
        e_window = np.lib.stride_tricks.sliding_window_view(
            np.pad(data[3], 1, mode="wrap"), shape).reshape(9, -1)
        delta, eps_faces, ok = energy_deviations(
            eos, p0 + line_all, rho_nodes_all, e_window, self._wq)
        good = (good & ok).reshape(shape)
        e_wb = hydrostatic_energy_faces(
            eps_faces, self.cweno.reconstruct_stencils(delta, axis=0),
            self._face_rows)
        for k, face in enumerate(face for pair in faces for face in pair):
            face[3] = np.where(good[..., None],
                               e_wb[2 * k:2 * k + 2].T.reshape(shape + (2,)),
                               face[3])
        return good

    def _newton_anchor(self, eps_hat, rho_nodes, line_nodes, rho_hat):
        return anchor_pressure_newton(line_nodes, rho_nodes, rho_hat, eps_hat,
                                      self.eos, self._wq)

    # -- sources --------------------------------------------------------------

    def _sources(self, rec):
        """Exact cell means of (0, s_x, s_y, v.s) over the grid: the
        product-basis means as a bilinear form in the rec coefficients
        (4, 6, cells) and the gravity coefficients, cells last."""
        rho, mx, my = self._mean_rows @ rec[:3]
        gx, gy = self._g_rows
        out = np.zeros((4,) + self.grid.shape_tot)
        out[1] = np.sum(rho * gx, axis=0).reshape(self.grid.shape_tot)
        out[2] = np.sum(rho * gy, axis=0).reshape(self.grid.shape_tot)
        out[3] = np.sum(mx * gx + my * gy, axis=0).reshape(self.grid.shape_tot)
        return out

    # -- right-hand side ------------------------------------------------------

    def rhs(self, state):
        grid, scheme = self.grid, self.scheme
        g = grid.n_ghost
        data = state.copy()
        self.fill_ghosts(data)

        rec = self.cweno.coefficients(data)  # (4, X, Y, 6)
        shape = data.shape[1:]
        flat = rec.reshape(4, -1, rec.shape[-1])
        xl, xr, yl, yr = ((flat @ table).reshape((4,) + shape + (2,))
                          for table in self._face_values)
        faces = ((xl, xr), (yl, yr))
        # the equilibrium layer and the sources run with cells last
        rec = np.ascontiguousarray(flat.transpose(0, 2, 1))

        good = (self._profiles_and_faces(rec, data, faces)
                if scheme.well_balanced else None)
        self.fallback_cells += positivity_fallback(faces, data, g, good)
        out = np.zeros_like(data)
        interior = (slice(None),) + grid.interior
        out[interior] = flux_divergence(
            faces, self.flux_fn, self.eos, self.boundary.axes, grid.spacing,
            g, self._face_w) + self._sources(rec)[interior]
        return out
