"""Semi-discrete right-hand side for the 1-D Euler equations with gravity."""

import numpy as np

from .boundary import extrapolated_strips, fill_periodic_axis, set_edge_ghosts
from .errors import ConfigurationError
from .physics import get_flux, physical_state, wall_boundary_flux
from .poly import poly_antiderivative, poly_eval, poly_mul
from .quadrature import gauss_nodes_weights_centered
from .reconstruct import Cweno1D, GravityInterp1D
from .wellbalance import (
    build_profiles,
    energy_deviations,
    eps_hat_estimate,
    glued_constants,
    hydrostatic_energy_faces,
    node_offsets,
    solve_anchor,
)
# the benchmark tracer (perfbench/spans.py) patches the anchor solves
# through these names
from .wellbalance import (  # noqa: F401
    anchor_pressure_ideal,
    anchor_pressure_newton,
    anchor_pressure_simplified,
)


class SpatialOperator1D:
    """Evaluates L(Q) = -(F_{i+1/2} - F_{i-1/2})/dx + S_i on a ghosted grid.

    Holds everything static for a run: scheme, EoS, gravity samples and
    their interpolants, CWENO tables, quadrature, and boundary handling.
    """

    def __init__(self, grid, scheme, eos, gravity, boundary, eps_w=None):
        grid.require_ghosts(scheme.n_ghost)
        self.grid = grid
        self.scheme = scheme
        self.eos = eos
        self.boundary = boundary
        ng = grid.n_ghost
        self._hydro_sides = boundary.hydrostatic_sides
        min_cells = max(ng, scheme.order if self._hydro_sides else 0)
        if grid.n_cells < min_cells:
            raise ConfigurationError(
                f"n = {grid.n_cells} cells is too small for the ghost fill: "
                f"{scheme.label} with {ng} ghost cells and boundaries "
                f"({boundary.left}, {boundary.right}) needs n >= {min_cells}")
        self.flux_fn = get_flux(scheme.flux)
        self.cweno = Cweno1D(scheme.order, grid.dx, eps_w)
        self.g_centers = np.asarray(gravity(grid.centers()), dtype=float) \
            * np.ones(grid.n_tot)
        ginterp = GravityInterp1D(scheme.order, grid.dx)
        self.g_coeffs = ginterp.coefficients(self.g_centers)
        self.quad_nodes, self.quad_weights = gauss_nodes_weights_centered(
            scheme.n_quad, grid.dx)
        self._mean = self.quad_weights / grid.dx
        # the equilibrium node set and the stencil cells (i + d) % n_tot
        r = scheme.radius
        self._node_offsets = node_offsets(r, self.quad_nodes, grid.dx)
        self._stencil = (np.arange(grid.n_tot)[:, None]
                         + np.arange(-r, r + 1)) % grid.n_tot
        self._face_table = (np.array([-0.5, 0.5]) * grid.dx) \
            ** np.arange(scheme.order)[:, None]
        self._dirichlet_ghosts = None
        self.fallback_cells = 0
        if self._hydro_sides:
            self._init_hydrostatic_fill(ginterp)

    def _init_hydrostatic_fill(self, ginterp):
        """Static tables of the hydrostatic fill, in the edge-strip frame.

        The fill uses the pieces of cells first..n_ghost (DWB: first = r, the
        innermost cell with a full stencil; LA: first = n_ghost, the boundary
        cell only).  Ghost j uses piece max(j, r) (DWB) or n_ghost (LA),
        evaluated at the Gauss nodes of its own cell.
        """
        ng, r, h = self.grid.n_ghost, self.scheme.radius, self.grid.dx
        first = r if self.scheme.piecewise_source else ng
        tables = {"left": self.g_coeffs,
                  "right": ginterp.coefficients(-self.g_centers[::-1])}
        self._g_pieces = np.stack([tables[side][first:ng + 1]
                                   for side in self._hydro_sides])
        m = self.scheme.order
        self._piece_windows = np.arange(first - r, ng - r + 1)[:, None] \
            + np.arange(m)
        j = np.arange(ng)
        piece = np.maximum(j, r) if self.scheme.piecewise_source \
            else np.full(ng, ng)
        self._ghost_piece = piece - first
        self._ghost_nodes = ((j - piece) * h)[:, None] + self.quad_nodes

    # -- boundaries --------------------------------------------------------

    def set_initial_state(self, data):
        """Capture frozen ghost values for Dirichlet boundaries."""
        ng = self.grid.n_ghost
        self._dirichlet_ghosts = (data[:, :ng].copy(), data[:, -ng:].copy())

    def fill_ghosts(self, data):
        grid = self.grid
        ng, n = grid.n_ghost, grid.n_cells
        if self.boundary.periodic:
            fill_periodic_axis(data, ng, n, axis=1)
            return
        for side in ("left", "right"):
            if getattr(self.boundary, side) != "dirichlet":
                continue
            if self._dirichlet_ghosts is None:
                raise ConfigurationError(
                    "Dirichlet boundaries need set_initial_state() first")
            if side == "left":
                data[:, :ng] = self._dirichlet_ghosts[0]
            else:
                data[:, -ng:] = self._dirichlet_ghosts[1]
        if self._hydro_sides:
            self._hydrostatic_fill(data)

    def _hydrostatic_fill(self, data):
        """Fill the ghosts of every hydrostatic side in one batched pass.

        Each side is handled as an edge strip seen from its boundary (the
        right one mirrored, momentum negated).  Density and momentum ghosts
        are the extrapolated averages of the innermost fully interior
        reconstruction.  Ghost energies continue the boundary cell's discrete
        equilibrium: the anchor p0 of boundary cell b = n_ghost matches its
        averaged internal energy (closed form or Newton, for every scheme:
        the '-S' anchor would continue a profile off by its O(h^m) error,
        not the discrete equilibrium), and the pressure of piece k is
        C_k + A_k(x), with A_k the antiderivative of rho_k^rec * g_k^int.
        DWB glues pieces continuously at interfaces (`glued_constants`,
        summed outward from the boundary cell's C_b = p0); piece k serves
        ghost k for k >= r, and the outer r ghosts, which have no full
        stencil, evaluate piece r at offsets shifted by whole cells.  LA
        extends the boundary cell's piece over every ghost.  A ghost energy
        is the Gauss average of eps(rho^rec, p) + (rho u)^2 / (2 rho^rec),
        one EoS call for all of them.

        Only density and momentum are reconstructed on the ghost pieces:
        ghost energies come from the equilibrium pressure, never from an
        energy reconstruction, so no piece waits for a corrected neighbour.
        A side whose anchor fails or whose ghost pressure or density is not
        positive keeps the extrapolated energies and counts its ghosts in
        `fallback_cells`.
        """
        scheme, eos = self.scheme, self.eos
        ng, h = self.grid.n_ghost, self.grid.dx
        m = scheme.order
        nodes, weights = self.quad_nodes, self.quad_weights
        sides = self._hydro_sides
        strips = extrapolated_strips(self.cweno, data, sides, ng)

        # one CWENO call: density and momentum of every piece
        pieces = strips[:2, :, self._piece_windows]
        rec = self.cweno.reconstruct_stencils(pieces.reshape(-1, m)) \
            .reshape(pieces.shape)
        anti = poly_antiderivative(poly_mul(rec[0], self._g_pieces))

        rec_nodes = poly_eval(rec[:, :, -1, None, :], nodes)
        eps_hat = eps_hat_estimate(strips[2, :, ng], rec_nodes, self._mean)
        p0, ok = solve_anchor(eos, poly_eval(anti[:, -1, None, :], nodes),
                              rec_nodes[0], strips[0, :, ng], eps_hat,
                              self._mean)
        const = p0[:, None]
        if scheme.piecewise_source:
            ends = poly_eval(anti[..., None, :], np.array([-0.5 * h, 0.5 * h]))
            const = glued_constants(ends[..., 0], ends[..., 1],
                                    anti.shape[1] - 1, p0)

        piece, xi = self._ghost_piece, self._ghost_nodes
        rho, mom = poly_eval(rec[:, :, piece, None, :], xi)
        p = const[:, piece, None] + poly_eval(anti[:, piece, None, :], xi)
        positive = (rho > 0.0) & (p > 0.0)
        ok &= np.all(positive, axis=(1, 2))
        rho = np.where(positive, rho, 1.0)
        eps = eos.internal_energy(rho, np.where(positive, p, 1.0))
        energy = np.sum(weights * (eps + 0.5 * mom ** 2 / rho), axis=-1) / h
        strips[2, :, :ng] = np.where(ok[:, None], energy, strips[2, :, :ng])
        self.fallback_cells += ng * int(np.sum(~ok))
        set_edge_ghosts(data, sides, strips, ng)

    # -- right-hand side ---------------------------------------------------

    def rhs(self, state):
        grid, scheme = self.grid, self.scheme
        ng, n, h = grid.n_ghost, grid.n_cells, grid.dx
        data = state.copy()
        self.fill_ghosts(data)

        rec = self.cweno.coefficients(data)        # (3, n_tot, m)
        face_l = poly_eval(rec, -0.5 * h)          # values at x_{i-1/2}+
        face_r = poly_eval(rec, 0.5 * h)           # values at x_{i+1/2}-
        # antiderivatives of rho g and (rho u) g, and their cell means
        anti = poly_antiderivative(poly_mul(rec[:2], self.g_coeffs))
        ends = poly_eval(anti[..., None, :], np.array([-0.5 * h, 0.5 * h]))
        source = (ends[..., 1] - ends[..., 0]) / h

        if scheme.well_balanced:
            p, rho, ok = build_profiles(scheme, self.eos, rec, anti[0],
                                        data[0], data[2], self._node_offsets,
                                        self._mean, self._stencil)
            delta, eps_faces, ok_eq = energy_deviations(
                self.eos, p, rho, data[2][self._stencil], self._mean)
            e_faces = hydrostatic_energy_faces(
                eps_faces, self.cweno.reconstruct_stencils(delta),
                self._face_table)
            good = ok & ok_eq
            face_l[2] = np.where(good, e_faces[:, 0], face_l[2])
            face_r[2] = np.where(good, e_faces[:, 1], face_r[2])
            used = slice(ng - 1, ng + n + 1)
            self.fallback_cells += int(np.sum(~good[used]))

        # positivity fallback: cells whose reconstructed face states are
        # non-physical drop to their cell average (first order, never abort)
        physical = physical_state(face_l)[1] & physical_state(face_r)[1]
        if not np.all(physical):
            bad = ~physical
            face_l[:, bad] = data[:, bad]
            face_r[:, bad] = data[:, bad]
            self.fallback_cells += int(np.sum(bad[ng - 1:ng + n + 1]))

        q_left = face_r[:, ng - 1:ng + n]          # interfaces ng-1/2 .. ng+n-1/2
        q_right = face_l[:, ng:ng + n + 1]
        fluxes = self.flux_fn(q_left, q_right, self.eos)

        if not self.boundary.periodic:
            if self.boundary.left == "solid-wall":
                fluxes[:, 0] = wall_boundary_flux(face_l[:, ng], self.eos,
                                                  self.flux_fn, "left")
            if self.boundary.right == "solid-wall":
                fluxes[:, -1] = wall_boundary_flux(face_r[:, ng + n - 1],
                                                   self.eos, self.flux_fn,
                                                   "right")

        out = np.zeros_like(data)
        interior = slice(ng, ng + n)
        out[:, interior] = -(fluxes[:, 1:] - fluxes[:, :-1]) / h
        out[1:, interior] += source[:, interior]
        return out

    def max_signal_speed(self, data):
        interior = self.grid.interior
        rho = data[0, interior]
        u = data[1, interior] / rho
        eps = data[2, interior] - 0.5 * rho * u ** 2
        p = self.eos.pressure(rho, eps)
        return np.max(np.abs(u) + self.eos.sound_speed(rho, p))
