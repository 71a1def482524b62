"""Semi-discrete right-hand side for the 2-D Euler equations with gravity.

Implements the standard third-order scheme and the local-approximation
well-balanced variants (LA, LA-S): per cell, the hydrostatic pressure is the
anchor value plus the exact straight-line integral of the cell's own source
polynomials, extrapolated across the 3x3 stencil; only the energy is
reconstructed as equilibrium plus CWENO of the deviations.

The equilibrium algebra is organized around the product basis
rec-monomial x gravity-monomial, with the table builder the 1-D operator
shares (`reconstruct.product_tables`): every line integral, node evaluation,
and exact cell mean of the source field becomes one matrix product against
precomputed tables, a few BLAS calls over the whole grid per stage.
"""

import numpy as np

from .boundary import fill_periodic_axis
from .errors import ConfigurationError
from .physics import get_flux, physical_state, wall_boundary_flux
from .quadrature import gauss_nodes_weights_centered
from .reconstruct import Cweno2D, GravityInterp2D, product_tables, product_terms
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
        if min(grid.n_x, grid.n_y) < g:
            raise ConfigurationError(
                f"n = {grid.n_x} x {grid.n_y} cells is too small for the ghost "
                f"fill: {scheme.label} with {g} ghost cells needs n >= {g} "
                "on both axes")
        self.grid = grid
        self.scheme = scheme
        self.eos = eos
        self.boundary = boundary
        self.flux_fn = get_flux(scheme.flux)
        self.cweno = Cweno2D(grid.dx, grid.dy, eps_w)
        self.fallback_cells = 0
        self._dirichlet_frame = None
        self._background = background
        self._bg_avgs_cache = None

        xx, yy = grid.center_mesh()
        gx, gy = gravity(xx, yy)
        interp = GravityInterp2D(grid.dx, grid.dy)
        self._exps_g = interp.exps
        self.gx_coeffs = interp.coefficients(gx * np.ones_like(xx))
        self.gy_coeffs = interp.coefficients(gy * np.ones_like(xx))
        self._build_tables()
        if scheme.well_balanced:
            # product terms of s_x and s_y, reused: no allocator churn
            self._outers = np.empty((2, xx.size, len(self.cweno.exps),
                                     len(self._exps_g)))

    def _build_tables(self):
        """Product-basis tables at the node set `equilibrium_points`: the
        Gauss nodes of the 3x3 stencil cells by (x offset, y offset), then
        those of the faces xl, xr, yl, yr, one contiguous table per face."""
        nq = self.scheme.n_quad
        self._face_w = gauss_nodes_weights_centered(nq, 1.0)[1]
        self._wq = np.outer(self._face_w, self._face_w).ravel()
        self._tables = product_tables(
            self.cweno.exps, self._exps_g, equilibrium_points(nq, 1, dim=2),
            (self.grid.dx, self.grid.dy))
        self._own = slice(4 * nq * nq, 5 * nq * nq)   # the center cell
        self._face_table = self._tables.values[:, 9 * nq * nq:]
        self._face_values = {
            key: np.ascontiguousarray(self._face_table[:, k * nq:(k + 1) * nq])
            for k, key in enumerate(("xl", "xr", "yl", "yr"))}

    # -- boundaries ---------------------------------------------------------

    def set_initial_state(self, data):
        self._dirichlet_frame = data.copy()

    def fill_ghosts(self, data):
        grid, bc = self.grid, self.boundary
        g = grid.n_ghost
        if bc.x_lo == "periodic":
            fill_periodic_axis(data, g, grid.n_x, axis=1)
        if bc.y_lo == "periodic":
            fill_periodic_axis(data, g, grid.n_y, axis=2)
        for side, kind in (("x_lo", bc.x_lo), ("x_hi", bc.x_hi),
                           ("y_lo", bc.y_lo), ("y_hi", bc.y_hi)):
            if kind == "periodic":
                continue
            if kind == "dirichlet":
                self._fill_dirichlet(data, side)
            elif kind == "solid-wall":
                self._fill_mirror(data, side)
            elif kind == "background-deviation-extrapolation":
                self._fill_background_deviation(data, side)
            else:
                raise ConfigurationError(
                    f"unsupported 2-D boundary {kind!r} on {side}")

    def _side_index(self, side, k):
        """Index of the k-th ghost layer (k=0 outermost) along the side axis."""
        g = self.grid.n_ghost
        if side.endswith("lo"):
            return k
        n = self.grid.n_x if side.startswith("x") else self.grid.n_y
        return g + n + (g - 1 - k)

    def _fill_dirichlet(self, data, side):
        if self._dirichlet_frame is None:
            raise ConfigurationError("Dirichlet boundaries need set_initial_state()")
        axis = 1 if side.startswith("x") else 2
        g = self.grid.n_ghost
        for k in range(g):
            idx = self._side_index(side, k)
            sl = (slice(None),) * axis + (idx,)
            data[sl] = self._dirichlet_frame[sl]

    def _fill_mirror(self, data, side):
        axis = 1 if side.startswith("x") else 2
        normal_comp = 1 if side.startswith("x") else 2
        g = self.grid.n_ghost
        n = self.grid.n_x if side.startswith("x") else self.grid.n_y
        for k in range(g):
            ghost = self._side_index(side, k)
            mirror = (2 * g - 1 - k) if side.endswith("lo") else (n + k)
            src = (slice(None),) * axis + (mirror,)
            dst = (slice(None),) * axis + (ghost,)
            data[dst] = data[src]
            flip = (normal_comp,) + (slice(None),) * (axis - 1) + (ghost,)
            data[flip] = -data[flip]

    def _fill_background_deviation(self, data, side):
        """Constant extrapolation of the deviation from the analytic outer
        background, re-adding the background's ghost-cell averages."""
        if self._background is None:
            raise ConfigurationError(
                "background-deviation extrapolation needs background closures")
        axis = 1 if side.startswith("x") else 2
        g = self.grid.n_ghost
        n = self.grid.n_x if side.startswith("x") else self.grid.n_y
        edge = g if side.endswith("lo") else g + n - 1
        bg = self._bg_avgs
        take = (slice(None),) * axis
        dev = data[take + (edge,)] - bg[take + (edge,)]
        for k in range(g):
            ghost = self._side_index(side, k)
            data[take + (ghost,)] = bg[take + (ghost,)] + dev

    @property
    def _bg_avgs(self):
        if self._bg_avgs_cache is None:
            rho_fn, p_fn = self._background
            grid = self.grid
            nx5, wx5 = gauss_nodes_weights_centered(5, grid.dx)
            ny5, wy5 = gauss_nodes_weights_centered(5, grid.dy)
            cx = grid.centers_x()[:, None, None, None] + nx5[None, None, :, None]
            cy = grid.centers_y()[None, :, None, None] + ny5[None, None, None, :]
            ones = np.ones(np.broadcast_shapes(cx.shape, cy.shape))
            rho = np.einsum("a,b,xyab->xy", wx5, wy5, rho_fn(cx, cy) * ones)
            eps = np.einsum("a,b,xyab->xy", wx5, wy5,
                            self.eos.internal_energy(rho_fn(cx, cy),
                                                     p_fn(cx, cy)) * ones)
            denom = grid.dx * grid.dy
            cache = np.zeros((4,) + grid.shape_tot)
            cache[0] = rho / denom
            cache[3] = eps / denom
            self._bg_avgs_cache = cache
        return self._bg_avgs_cache

    # -- equilibrium machinery ----------------------------------------------

    def _flat(self, arr):
        return arr.reshape(-1, arr.shape[-1])

    def _profiles_and_faces(self, rec, data, faces):
        """LA equilibrium: anchors, energy deviations, face-energy overwrite.

        Returns the validity mask of cells whose faces use the equilibrium
        decomposition (anchor converged, positive pressure and density at all
        evaluation nodes).
        """
        scheme, eos = self.scheme, self.eos
        shape = data.shape[1:]

        tables = self._tables
        # product-basis coefficients of s_x and s_y: (cells, terms)
        rec0 = self._flat(rec[0])
        outer_x = product_terms(rec0, self._flat(self.gx_coeffs), self._outers[0])
        outer_y = product_terms(rec0, self._flat(self.gy_coeffs), self._outers[1])

        # line integrals of the source field at every node set at once
        line_all = outer_x @ tables.line[0] + outer_y @ tables.line[1]
        rho_nodes_all = rec0 @ tables.values

        own = self._own
        rec_own = rec[:3].reshape(3, -1, rec.shape[-1]) @ tables.values[:, own]
        rho_pos_own = rec_own[0] > 0.0
        rec_own = np.where(rho_pos_own, rec_own, 1.0)
        eps_hat = eps_hat_estimate(data[3].reshape(-1), rec_own, self._wq)

        if scheme.simplified_anchor:
            p0 = anchor_pressure_simplified(rec[..., 0].reshape(4, -1), eos)
            good_anchor = p0 > 0.0
        elif eos.name == "ideal":
            # exact cell mean of the line-integral polynomial, as one node
            # of weight one
            mean_line = outer_x @ tables.line_means[0] \
                + outer_y @ tables.line_means[1]
            p0 = anchor_pressure_ideal(mean_line[:, None], eps_hat, eos.gamma,
                                       np.ones(1))
            good_anchor = p0 > 0.0
        else:
            p0, good_anchor = self._newton_anchor(
                eps_hat, rec_own[0], line_all[:, own], data[0].reshape(-1))
        good = good_anchor & np.all(rho_pos_own, axis=-1)

        # energy deviations over the wrapped 3x3 stencil (ordered like the
        # CWENO window), then the face energies
        e_window = np.lib.stride_tricks.sliding_window_view(
            np.pad(data[3], 1, mode="wrap"), (3, 3)).reshape(-1, 9)
        delta, eps_faces, ok = energy_deviations(
            eos, p0[:, None] + line_all, rho_nodes_all, e_window, self._wq)
        good = (good & ok).reshape(shape)
        e_wb = hydrostatic_energy_faces(
            eps_faces, self.cweno.reconstruct_stencils(delta),
            self._face_table)
        for k, key in enumerate(("xl", "xr", "yl", "yr")):
            faces[key][3] = np.where(good[..., None],
                                     e_wb[:, 2 * k:2 * k + 2].reshape(shape + (2,)),
                                     faces[key][3])
        return good

    def _newton_anchor(self, eps_hat, rho_nodes, line_nodes, rho_hat):
        return anchor_pressure_newton(line_nodes, rho_nodes, rho_hat, eps_hat,
                                      self.eos, self._wq)

    # -- sources --------------------------------------------------------------

    def _sources(self, rec):
        """Exact cell means of (0, s_x, s_y, v.s): the product-basis means
        as a bilinear form in the rec and gravity coefficients."""
        shape = rec.shape[1:-1]
        means = self._tables.means.reshape(rec.shape[-1], -1)
        rho, mx, my = rec[:3].reshape(3, -1, rec.shape[-1]) @ means
        gx, gy = self._flat(self.gx_coeffs), self._flat(self.gy_coeffs)
        out = np.zeros((4,) + shape)
        out[1] = np.sum(rho * gx, axis=-1).reshape(shape)
        out[2] = np.sum(rho * gy, axis=-1).reshape(shape)
        out[3] = np.sum(mx * gx + my * gy, axis=-1).reshape(shape)
        return out

    # -- right-hand side ------------------------------------------------------

    def rhs(self, state):
        grid, scheme, eos = self.grid, self.scheme, self.eos
        g, nx, ny = grid.n_ghost, grid.n_x, grid.n_y
        hx, hy = grid.dx, grid.dy
        data = state.copy()
        self.fill_ghosts(data)

        rec = self.cweno.coefficients(data)  # (4, X, Y, 6)
        shape = data.shape[1:]
        flat = rec.reshape(4, -1, rec.shape[-1])
        faces = {key: (flat @ table).reshape((4,) + shape + (2,))
                 for key, table in self._face_values.items()}

        if scheme.well_balanced:
            good = self._profiles_and_faces(rec, data, faces)
            used = (slice(g - 1, g + nx + 1), slice(g - 1, g + ny + 1))
            self.fallback_cells += int(np.sum(~good[used]))

        # positivity fallback: cells whose reconstructed face states are
        # non-physical drop to their cell average (first order, never abort)
        physical = np.ones(data.shape[1:], dtype=bool)
        for key in ("xl", "xr", "yl", "yr"):
            physical &= np.all(physical_state(faces[key])[1], axis=-1)
        if not np.all(physical):
            bad = ~physical
            for key in ("xl", "xr", "yl", "yr"):
                for c in range(4):
                    faces[key][c][bad] = data[c][bad][:, None]
            used = (slice(g - 1, g + nx + 1), slice(g - 1, g + ny + 1))
            self.fallback_cells += int(np.sum(bad[used]))

        source = self._sources(rec)

        # x-direction fluxes on interfaces (i+1/2, j), i = g-1..g+nx-1
        ql = faces["xr"][:, g - 1:g + nx, g:g + ny]
        qr = faces["xl"][:, g:g + nx + 1, g:g + ny]
        fx = self.flux_fn(ql, qr, eos)
        fx = fx @ self._face_w

        # y-direction: the flux treats component 2 as the normal momentum
        ql = faces["yr"][:, g:g + nx, g - 1:g + ny]
        qr = faces["yl"][:, g:g + nx, g:g + ny + 1]
        fy = self.flux_fn(ql, qr, eos, normal=2)
        fy = fy @ self._face_w

        bc = self.boundary
        if bc.x_lo == "solid-wall":
            q_wall = faces["xl"][:, g, g:g + ny]
            fx[:, 0] = wall_boundary_flux(q_wall, eos, self.flux_fn,
                                          "left") @ self._face_w
        if bc.x_hi == "solid-wall":
            q_wall = faces["xr"][:, g + nx - 1, g:g + ny]
            fx[:, -1] = wall_boundary_flux(q_wall, eos, self.flux_fn,
                                           "right") @ self._face_w
        if bc.y_lo == "solid-wall":
            q_wall = faces["yl"][:, g:g + nx, g]
            fy[:, :, 0] = wall_boundary_flux(q_wall, eos, self.flux_fn,
                                             "left", normal=2) @ self._face_w
        if bc.y_hi == "solid-wall":
            q_wall = faces["yr"][:, g:g + nx, g + ny - 1]
            fy[:, :, -1] = wall_boundary_flux(q_wall, eos, self.flux_fn,
                                              "right", normal=2) @ self._face_w

        out = np.zeros_like(data)
        interior = (slice(g, g + nx), slice(g, g + ny))
        out[(slice(None),) + interior] = (
            -(fx[:, 1:, :] - fx[:, :-1, :]) / hx
            - (fy[:, :, 1:] - fy[:, :, :-1]) / hy
            + source[(slice(None),) + interior]
        )
        return out

    def max_signal_speed(self, data):
        sx, sy = self.grid.interior
        rho = data[0, sx, sy]
        u = data[1, sx, sy] / rho
        v = data[2, sx, sy] / rho
        eps = data[3, sx, sy] - 0.5 * rho * (u ** 2 + v ** 2)
        p = self.eos.pressure(rho, eps)
        c = self.eos.sound_speed(rho, p)
        return np.max((np.abs(u) + c) / self.grid.dx
                      + (np.abs(v) + c) / self.grid.dy)
