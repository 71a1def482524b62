"""Semi-discrete right-hand side for the 1-D Euler equations with gravity."""

import numpy as np

from .boundary import (
    HYDROSTATIC_1D,
    extrapolated_strips,
    fill_sides,
    ghost_edge_line,
    set_edge_ghosts,
)
from .errors import ConfigurationError
from .physics import flux_divergence, get_flux, positivity_fallback
# names the benchmark tracer (perfbench/spans.py) patches: the solver calls
# the wall flux through `flux_divergence` and no Horner helper at all
from .physics import wall_boundary_flux  # noqa: F401
from .poly import poly_antiderivative, poly_eval, poly_mul  # noqa: F401
from .quadrature import gauss_nodes_weights_centered
from .reconstruct import Cweno1D, GravityInterp1D, product_tables, product_terms
from .wellbalance import (
    build_profiles,
    energy_deviations,
    eps_hat_estimate,
    equilibrium_points,
    glued_constants,
    hydrostatic_energy_faces,
    periodic_windows,
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
    their interpolants, CWENO and product-basis tables, quadrature, and
    boundary handling.
    """

    def __init__(self, grid, scheme, eos, gravity, boundary, eps_w=None):
        grid.require_ghosts(scheme.n_ghost)
        self.grid = grid
        self.scheme = scheme
        self.eos = eos
        self.boundary = boundary
        ng = grid.n_ghost
        (h,), (n,), (n_tot,) = grid.spacing, grid.cells, grid.shape_tot
        self._hydro_sides = boundary.hydrostatic_sides
        min_cells = max(ng, scheme.order if self._hydro_sides else 0)
        if n < min_cells:
            raise ConfigurationError(
                f"n = {n} cells is too small for the ghost fill: "
                f"{scheme.label} with {ng} ghost cells and boundaries "
                f"({boundary.left}, {boundary.right}) needs n >= {min_cells}")
        self.flux_fn = get_flux(scheme.flux)
        self.cweno = Cweno1D(scheme.order, h, eps_w)
        self.g_centers = np.asarray(gravity(grid.centers()), dtype=float) \
            * np.ones(n_tot)
        ginterp = GravityInterp1D(scheme.order, h)
        # the right-hand side runs with cells last: coefficients (m_g, n_tot)
        self.g_coeffs = ginterp.coefficients(self.g_centers).T.copy()
        self.quad_nodes, self.quad_weights = gauss_nodes_weights_centered(
            scheme.n_quad, h)
        self._mean = self.quad_weights / h
        # the equilibrium node set, its tables transposed for cells last:
        # rows are nodes (faces last) or, for the source means, gravity
        # monomials
        r = scheme.radius
        self._exps = (self.cweno.exps, ginterp.exps)
        self._tables = product_tables(
            *self._exps, equilibrium_points(scheme.n_quad,
                                            0 if scheme.piecewise_source else r),
            grid.spacing)
        self._line_rows = np.ascontiguousarray(self._tables.line[0].T)
        self._value_rows = np.ascontiguousarray(self._tables.values.T)
        self._face_rows = self._value_rows[-2:]
        self._source_rows = np.ascontiguousarray(
            self._tables.means.reshape(scheme.order, -1).T)
        # DWB with a constant d eps/dp takes its energy deviations from
        # `build_profiles`, with no EoS call
        self._cell_means = scheme.piecewise_source \
            and eos.deps_dp_constant is not None
        # the shared side fill skips the hydrostatic sides, filled here
        self._fill_axes = tuple(
            tuple(None if kind in HYDROSTATIC_1D else kind for kind in pair)
            for pair in boundary.axes)
        self._frozen = None
        self.fallback_cells = 0
        if self._hydro_sides:
            self._init_hydrostatic_fill(ginterp)

    def _init_hydrostatic_fill(self, ginterp):
        """Static tables of the hydrostatic fill, in the edge-strip frame.

        The fill uses the pieces of cells first..n_ghost (DWB: first = r, the
        innermost cell with a full stencil; LA: first = n_ghost, the boundary
        cell only).  Ghost j uses piece max(j, first) at the Gauss nodes of
        its own cell, columns `_ghost_nodes` of the tables over -ng..ng.
        """
        ng, r, nq = self.grid.n_ghost, self.scheme.radius, self.scheme.n_quad
        first = r if self.scheme.piecewise_source else ng
        tables = {"left": self.g_coeffs.T,
                  "right": ginterp.coefficients(-self.g_centers[::-1])}
        self._g_pieces = np.stack([tables[side][first:ng + 1]
                                   for side in self._hydro_sides])
        self._piece_windows = np.arange(first - r, ng - r + 1)[:, None] \
            + np.arange(self.scheme.order)
        j = np.arange(ng)
        piece = np.maximum(j, first)
        self._ghost_piece = piece[:, None] - first
        self._ghost_nodes = (j - piece + ng)[:, None] * nq + np.arange(nq)
        self._fill_tables = product_tables(
            *self._exps, equilibrium_points(nq, ng), self.grid.spacing)
        self._edge_line = ghost_edge_line(self.cweno, ng)

    # -- boundaries --------------------------------------------------------

    def set_initial_state(self, data):
        """Freeze a copy of the initial state for Dirichlet boundaries."""
        self._frozen = data.copy()

    def fill_ghosts(self, data):
        fill_sides(data, self._fill_axes, self.grid.n_ghost, self._frozen)
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
        extends the boundary cell's piece over every ghost (a one-piece
        glue).  A ghost energy
        is the Gauss average of eps(rho^rec, p) + (rho u)^2 / (2 rho^rec),
        one EoS call for all of them.

        Only density and momentum are reconstructed on the ghost pieces:
        ghost energies come from the equilibrium pressure, never from an
        energy reconstruction, so no piece waits for a corrected neighbour.
        A side whose anchor fails or whose ghost pressure or density is not
        positive keeps the extrapolated energies and counts its ghosts in
        `fallback_cells`.
        """
        eos = self.eos
        ng, (h,) = self.grid.n_ghost, self.grid.spacing
        m, nq = self.scheme.order, self.scheme.n_quad
        sides = self._hydro_sides
        strips = extrapolated_strips(self.cweno, data, sides, ng,
                                     self._edge_line)

        # one CWENO call: density and momentum of every piece, then every
        # piece at every node
        pieces = strips[:2, :, self._piece_windows]
        rec = self.cweno.reconstruct_stencils(pieces.reshape(-1, m)) \
            .reshape(pieces.shape)
        rec_nodes = rec @ self._fill_tables.values
        offsets = product_terms(rec[0], self._g_pieces) \
            @ self._fill_tables.line[0]

        # the boundary cell's own nodes, nodes first for the anchor
        own = slice(ng * nq, (ng + 1) * nq)
        rec_own = rec_nodes[:, :, -1, own].transpose(0, 2, 1)
        eps_hat = eps_hat_estimate(strips[2, :, ng], rec_own, self._mean)
        p0, ok = solve_anchor(eos, offsets[:, -1, own].T, rec_own[0],
                              strips[0, :, ng], eps_hat, self._mean)
        # LA glues a single piece: its constant is the anchor
        const = glued_constants(offsets[..., -2], offsets[..., -1],
                                offsets.shape[1] - 1, p0)

        piece, nodes = self._ghost_piece, self._ghost_nodes
        rho, mom = rec_nodes[:, :, piece, nodes]
        p = const[:, piece] + offsets[:, piece, nodes]
        positive = (rho > 0.0) & (p > 0.0)
        ok &= np.all(positive, axis=(1, 2))
        rho = np.where(positive, rho, 1.0)
        eps = eos.internal_energy(rho, np.where(positive, p, 1.0))
        energy = np.sum(self.quad_weights * (eps + 0.5 * mom ** 2 / rho),
                        axis=-1) / h
        strips[2, :, :ng] = np.where(ok[:, None], energy, strips[2, :, :ng])
        self.fallback_cells += ng * int(np.sum(~ok))
        set_edge_ghosts(data, sides, strips, ng)

    # -- right-hand side ---------------------------------------------------

    def rhs(self, state):
        grid, scheme = self.grid, self.scheme
        ng = grid.n_ghost
        data = state.copy()
        self.fill_ghosts(data)

        rec = self.cweno.coefficients(data)   # (3, m, n_tot)
        # values at x_{i-1/2}+ and x_{i+1/2}-
        face_l, face_r = (self._face_rows @ rec).transpose(1, 0, 2)
        # exact cell means of rho g and (rho u) g: the product-basis means
        # as a bilinear form in the rec and gravity coefficients
        source = np.sum((self._source_rows @ rec[:2]) * self.g_coeffs, axis=1)

        good = None
        if scheme.well_balanced:
            # product terms (m * m_g, n_tot), rec-major like `product_terms`
            terms = (rec[0][:, None] * self.g_coeffs).reshape(-1, data.shape[1])
            profiles = build_profiles(
                scheme, self.eos, self._line_rows @ terms,
                self._value_rows @ rec[:2], rec[:, 0], data[0], data[2],
                self._mean)
            if self._cell_means:
                delta, eps_faces, good = profiles
            else:
                p, rho, good = profiles
                delta, eps_faces, ok = energy_deviations(
                    self.eos, p, rho, periodic_windows(data[2], scheme.radius),
                    self._mean)
                good &= ok
            e_faces = hydrostatic_energy_faces(
                eps_faces, self.cweno.reconstruct_stencils(delta, axis=0),
                self._face_rows)
            face_l[2] = np.where(good, e_faces[0], face_l[2])
            face_r[2] = np.where(good, e_faces[1], face_r[2])

        faces = ((face_l, face_r),)
        self.fallback_cells += positivity_fallback(faces, data, ng, good)
        out = np.zeros_like(data)
        interior = grid.interior
        out[:, interior] = flux_divergence(faces, self.flux_fn, self.eos,
                                           self.boundary.axes, grid.spacing, ng)
        out[1:, interior] += source[:, interior]
        return out
