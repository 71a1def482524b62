"""Semi-discrete right-hand side for the 1-D Euler equations with gravity."""

from functools import lru_cache

import numpy as np

from .boundary import (
    HYDROSTATIC_1D,
    extrapolated_strips,
    fill_sides,
    ghost_mean_table,
    set_edge_ghosts,
)
from .errors import ConfigurationError
from .physics import flux_divergence, get_flux, positivity_fallback
# names perfbench/spans.py patches, which only have to exist: the solver makes
# no Horner call and no `wall_boundary_flux` call (walls run in the axis's
# one `FLUXES` call); they are the tests' reference implementations
from .physics import wall_boundary_flux  # noqa: F401
from .poly import poly_antiderivative, poly_eval, poly_mul  # noqa: F401
from .quadrature import gauss_nodes_weights_centered
from .reconstruct import Cweno1D, GravityInterp1D, _frozen, product_tables
from .wellbalance import (
    anchor_pressure_ideal,
    anchor_pressure_newton,
    build_profiles,
    energy_deviations,
    eps_hat_estimate,
    equilibrium_points,
    hydrostatic_energy_faces,
    periodic_windows,
    rejected_energy_faces,
)
# the benchmark tracer (perfbench/spans.py) patches the anchor solves
# through these names
from .wellbalance import anchor_pressure_simplified  # noqa: F401


@lru_cache(maxsize=None)
def _fill_layout(n_ghost, first, n_quad):
    """Read-only index tables of the hydrostatic fill's slots: each slot's
    piece, its columns in `equilibrium_points(n_quad, n_ghost)` (its Gauss
    nodes, its piece's faces), the (pieces, slots) mask of its piece, and
    the glue C_j - p0 = -sum_{piece_j <= i < n_ghost} A_i(h/2) - A_{i+1}(-h/2)
    of every slot (the boundary cell's zero) from the slots' left and right
    face values."""
    slots = np.arange(n_ghost + 1)
    piece = np.maximum(slots, first)
    cols = np.append((slots - piece + n_ghost)[:, None] * n_quad
                     + np.arange(n_quad), [[-2, -1]] * (n_ghost + 1), axis=1)
    i, k = slots[:, None], piece
    glue = np.stack([i > k, (k <= i) & (i < n_ghost)], axis=1) \
        * [[1.0], [-1.0]]
    return _frozen(piece, cols, piece == slots[first:, None],
                   glue.reshape(-1, n_ghost + 1))


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
        # DWB and LA read no reconstructed energy: their state pass skips it
        self._lean = scheme.well_balanced and not scheme.simplified_anchor
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
        cell only).  Slot j = 0..n_ghost (the ghosts, then the boundary cell)
        evaluates piece max(j, first) at the Gauss nodes of cell j and at the
        piece's faces: `_slot_tables` maps the pieces' coefficients to the
        reconstruction and to the antiderivative of rho^rec * g^int (static
        gravity contracted in) there, zero off each slot's own piece.
        """
        ng, r, nq = self.grid.n_ghost, self.scheme.radius, self.scheme.n_quad
        m = self.scheme.order
        first = r if self.scheme.piecewise_source else ng
        piece, cols, own, self._glue = _fill_layout(ng, first, nq)
        # stencil-first windows (m, pieces) of the pieces in a strip
        self._piece_windows = np.arange(m)[:, None] \
            + np.arange(first - r, ng - r + 1)
        # each side's gravity; the right one fitted over cells 0..ng + r of
        # its strip, which hold the stencils of every piece
        right = -self.g_centers[:-(ng + r) - 2:-1]
        g = np.stack([self.g_coeffs[:, piece].T if side == "left"
                      else ginterp.coefficients(right)[piece]
                      for side in self._hydro_sides])   # (sides, slots, m_g)
        tables = product_tables(*self._exps, equilibrium_points(nq, ng),
                                self.grid.spacing)
        both = np.empty((len(g), m, ng + 1, 2, nq + 2))
        both[:, :, :, 0] = tables.values[:, cols]
        np.einsum("sjb,abjq->sajq", g, tables.line[0][:, cols].reshape(
            m, m, ng + 1, nq + 2), out=both[:, :, :, 1])
        self._slot_tables = (own[:, None, :, None, None] * both[:, None]) \
            .reshape(len(g), len(own) * m, -1)
        self._edge_means = ghost_mean_table(self.cweno, ng)

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
        DWB glues pieces continuously at interfaces, outward from the
        boundary cell's C_b = p0 (one product with the static +-1 `_glue`);
        piece k serves ghost k for k >= r, and the outer r ghosts, which
        have no full stencil, evaluate piece r at offsets shifted by whole
        cells.  LA extends the boundary cell's piece over every ghost (a
        one-piece glue).  A ghost energy is the Gauss average of
        eps(rho^rec, p) + (rho u)^2 / (2 rho^rec): the Newton anchor's last
        iteration inverts the ghosts' nodes with the boundary cell's, and
        the closed-form anchor is followed by one EoS call for all.

        Only density and momentum are reconstructed on the ghost pieces:
        ghost energies come from the equilibrium pressure, never from an
        energy reconstruction, so no piece waits for a corrected neighbour.
        A side whose anchor fails or whose ghost pressure or density is not
        positive keeps the extrapolated energies and counts its ghosts in
        `fallback_cells`.
        """
        eos = self.eos
        ng, nq = self.grid.n_ghost, self.scheme.n_quad
        sides = self._hydro_sides
        strips = extrapolated_strips(self.cweno, data, sides, ng,
                                     self._edge_means)

        # one CWENO call: density and momentum of every piece; one product
        # evaluates each slot's piece at the slot's nodes and faces
        rec = self.cweno.reconstruct_stencils(
            strips[:2, :, self._piece_windows].transpose(2, 0, 1, 3), axis=0)
        at = (rec.transpose(1, 2, 3, 0).reshape(2, len(sides), 1, -1)
              @ self._slot_tables) \
            .reshape(2, len(sides), ng + 1, 2, nq + 2)
        offsets = at[0, :, :, 1]                  # (sides, slots, nq + 2)

        # the boundary cell's own nodes, nodes first
        rec_own = at[:, :, ng, 0, :nq].transpose(0, 2, 1)
        eps_hat = eps_hat_estimate(strips[2, :, ng], rec_own, self._mean)
        # each slot's glued constant less p0, the boundary cell's zero (LA
        # glues a single piece: `_glue` is zero)
        glue = offsets[..., nq:].reshape(len(sides), -1) @ self._glue
        rho, mom = at[:, :, :ng, 0, :nq]
        if eos.deps_dp_constant is None:
            # the ghosts' nodes, then the boundary cell's, nodes first: the
            # anchor's last iteration inverts them all
            rows = (glue[..., None] + offsets[..., :nq]).reshape(len(sides), -1)
            p0, ok, eps = anchor_pressure_newton(
                rows.T, at[0, :, :, 0, :nq].reshape(len(sides), -1).T,
                slice(ng * nq, None), strips[0, :, ng], eps_hat, eos,
                self._mean)
            eps = eps.T.reshape(len(sides), ng + 1, nq)[:, :ng]
        else:
            p0 = anchor_pressure_ideal(offsets[:, ng, :nq].T, eps_hat,
                                       eos.deps_dp_constant, self._mean)
            p = (p0[:, None] + glue)[:, :ng, None] + offsets[:, :ng, :nq]
            positive = (rho > 0.0) & (p > 0.0)
            ok = (p0 > 0.0) & positive.all(axis=(1, 2))
            eps = eos.internal_energy(np.where(positive, rho, 1.0),
                                      np.where(positive, p, 1.0))
        rho = np.where(rho > 0.0, rho, 1.0)
        energy = (eps + 0.5 * mom ** 2 / rho) @ self._mean
        strips[2, :, :ng] = np.where(ok[:, None], energy, strips[2, :, :ng])
        self.fallback_cells += ng * int(np.count_nonzero(~ok))
        set_edge_ghosts(data, sides, strips, ng)

    # -- right-hand side ---------------------------------------------------

    def rhs(self, state):
        grid, scheme = self.grid, self.scheme
        ng = grid.n_ghost
        data = state.copy()
        self.fill_ghosts(data)

        rec = self.cweno.coefficients(data[:2] if self._lean else data)
        # the one face buffer (3, 2, n_tot): values at x_{i-1/2}+, x_{i+1/2}-
        faces = np.empty((3, 2, data.shape[1]))
        np.matmul(self._face_rows, rec, out=faces[:len(rec)])
        # exact cell means of rho g and (rho u) g: the product-basis means
        # as a bilinear form in the rec and gravity coefficients
        source = np.sum((self._source_rows @ rec[:2]) * self.g_coeffs, axis=1)

        good = None
        if scheme.well_balanced:
            # product terms (m * m_g, n_tot), rec-major (`product_tables`)
            terms = (rec[0][:, None] * self.g_coeffs).reshape(-1, data.shape[1])
            profiles = build_profiles(
                scheme, self.eos, self._line_rows @ terms,
                self._value_rows @ rec[:2], rec[:, 0], data[0], data[2],
                self._mean)
            if self._cell_means:
                delta, eps_faces, good = profiles
            else:
                *_, eps, good = profiles
                delta, eps_faces = energy_deviations(
                    eps, periodic_windows(data[2], scheme.radius), self._mean)
            e_faces = hydrostatic_energy_faces(
                eps_faces, self.cweno.reconstruct_stencils(delta, axis=0),
                self._face_rows)
            if self._lean:
                faces[2] = e_faces
                band = slice(ng - 1, data.shape[1] + 1 - ng)
                rejected_energy_faces(self.cweno, data[2], good[band], ng - 1,
                                      self._face_rows, faces[2][:, band])
            else:   # the state pass holds the standard energy faces
                np.copyto(faces[2], e_faces, where=good)

        self.fallback_cells += positivity_fallback(faces, data, ng, good)
        out = np.zeros_like(data)
        interior = grid.interior
        out[:, interior] = flux_divergence(
            ((faces[:, 0], faces[:, 1]),), self.flux_fn, self.eos,
            self.boundary.axes, grid.spacing, ng)
        out[1:, interior] += source[:, interior]
        return out
