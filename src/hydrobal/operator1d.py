"""Semi-discrete right-hand side of the Euler equations with gravity, in
1-D and 2-D: one spatial operator for every scheme.

The grid has exactly the `scheme.n_ghost` ghost layers the scheme reads.
Every per-cell layer runs on the band, the cells whose stencil fits inside
them, cells last: the coefficients (C, m, cells), the gravity rows, the
product tables, the gravity-contracted source rows and the energy windows
(a strided view of the ghosted energy).  The face buffer (C, face rows,
cells) and the shared frame (`physics`' positivity fallback and flux
divergence) cover the flux band, the interior cells and one ghost layer
per side: the whole band in 2-D and for Std, LA and LA-S, the band of DWB
and DWB-S less its r outer cells per side.  The scheme selects the
equilibrium stage, one call on the band that yields the flux band's energy
faces and gate (DWB and DWB-S: `PiecewiseEquilibrium`; LA and LA-S:
`wellbalance.LocalEquilibrium`), the boundary kinds the 1-D hydrostatic
fill and the 2-D background averages.

With 1-D hydrostatic sides the RHS runs in this order: the extrapolated
ghost averages; the band's density and momentum coefficients; the ghost
energies from the pieces among them; then the rest of the state pass,
which reads the filled energies.  DWB and LA reconstruct no energy, so the
density and momentum pass is their state pass and the equilibrium stage
follows; Std and the -S variants reconstruct the energy alone after the
fill.
"""

from functools import lru_cache
from math import prod

import numpy as np

from .boundary import (
    extrapolated_strips,
    fill_sides,
    ghost_mean_table,
    set_edge_ghosts,
)
from .errors import ConfigurationError, FluxEvaluationError
from .grid import interior_index
from .physics import flux_divergence, get_flux, positivity_fallback
# names perfbench/spans.py patches, which only have to exist: the solver makes
# no Horner call and no `wall_boundary_flux` call (walls run in the axis's
# one `FLUXES` call); they are the tests' reference implementations
from .physics import wall_boundary_flux  # noqa: F401
from .poly import poly_antiderivative, poly_eval, poly_mul  # noqa: F401
from .quadrature import cell_averages, gauss_nodes_weights_centered
from .reconstruct import (Cweno1D, Cweno2D, GravityInterp1D, GravityInterp2D,
                          _frozen, product_tables, stencil_windows)
from .wellbalance import (
    LocalEquilibrium,
    anchor_pressure_ideal,
    anchor_pressure_newton,
    build_profiles,
    energy_deviations,
    eps_hat_estimate,
    equilibrium_points,
    hydrostatic_energy_faces,
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


@lru_cache(maxsize=None)
def _strip_cells(n_tot, n_slots, right):
    """Read-only grid cells (sides, n_slots) of the first slots of each
    edge strip, in strip order: cell j from the left edge, n_tot - 1 - j
    from the right one (`right` flags the right sides)."""
    slots = np.arange(n_slots)
    return _frozen(np.array([n_tot - 1 - slots if mirrored else slots
                             for mirrored in right]))[0]


def check_grid(grid, scheme, boundary):
    """Reject a grid that `scheme` cannot run on with `boundary`: a ghost
    width other than the scheme's, or too few cells for the ghost fill (the
    side fills read n_ghost interior cells per axis, a hydrostatic edge
    strip `order`)."""
    scheme.validate_dimension(len(grid.cells))
    grid.require_ghosts(scheme.n_ghost)
    ng, n = grid.n_ghost, min(grid.cells)
    if n >= max(ng, scheme.order):     # enough for every side kind
        return
    min_cells = max(ng, scheme.order if boundary.hydrostatic_sides else 0)
    if n < min_cells:
        raise ConfigurationError(
            f"n = {' x '.join(map(str, grid.cells))} cells is too small for "
            f"the ghost fill: {scheme.label} with {ng} ghost cells and "
            f"boundaries {boundary.axes} needs n >= {min_cells} on every "
            "axis")


class PiecewiseEquilibrium:
    """The DWB and DWB-S equilibrium stage, called like `LocalEquilibrium`
    and built from the same tables, at `equilibrium_points(n_quad, 0)`, and
    the Gauss nodes' cell-mean `weights`: each cell's pressure is glued
    over the pieces of its stencil cells.  Only the band's inner cells, the
    flux band, have all of them, and the stage returns theirs alone.  Its
    body is `build_profiles`, the benchmark tracer's `wb.profile`.
    """

    def __init__(self, scheme, eos, cweno, tables, value_rows, g_rows,
                 weights):
        self.scheme, self.eos, self.cweno = scheme, eos, cweno
        self._line_rows = np.ascontiguousarray(tables.line[0].T)
        self._value_rows, self._face_rows = value_rows, value_rows[-2:]
        self._g_rows, self._mean = g_rows[0], weights
        self._inner = slice(scheme.radius, -scheme.radius)

    def __call__(self, rec, rho_hat, e_hat, e_window):
        """Face energies (faces, flux band) and gate (flux band,) from the
        band's inputs of `LocalEquilibrium.__call__`."""
        # product terms (m * m_g, cells), rec-major (`product_tables`)
        terms = (rec[0][:, None] * self._g_rows).reshape(-1, rho_hat.size)
        profiles = build_profiles(
            self.scheme, self.eos, self._line_rows @ terms,
            self._value_rows @ rec[:2], rec[:, 0], rho_hat, e_hat, e_window,
            self._mean)
        if self.eos.deps_dp_constant is not None:   # no EoS call
            delta, eps_faces, good = profiles
        else:
            *_, eps, good = profiles
            delta, eps_faces = energy_deviations(eps, e_window, self._mean)
            delta, eps_faces, good = (
                delta[:, self._inner], eps_faces[:, self._inner],
                good[self._inner])
        return hydrostatic_energy_faces(
            eps_faces, self.cweno.reconstruct_stencils(delta),
            self._face_rows), good


class SpatialOperator:
    """Evaluates L(Q) = -sum_a (F_a(i + 1/2) - F_a(i - 1/2)) / h_a + S_i on a
    ghosted 1-D or 2-D grid.

    Holds everything static for a run: scheme, EoS, the band's gravity
    rows, CWENO and product-basis tables, quadrature, and boundary
    handling.
    """

    def __init__(self, grid, scheme, eos, gravity, boundary, eps_w=None,
                 background=None):
        check_grid(grid, scheme, boundary)
        dim, ng = len(grid.cells), grid.n_ghost
        r, nq = scheme.radius, scheme.n_quad
        self._hydro_sides = boundary.hydrostatic_sides
        self.grid = grid
        self.scheme = scheme
        self.eos = eos
        self.boundary = boundary
        self.flux_fn = get_flux(scheme.flux)
        self.cweno = Cweno1D(scheme.order, *grid.spacing, eps_w) if dim == 1 \
            else Cweno2D(*grid.spacing, eps_w)
        # DWB and LA read no reconstructed energy: their state pass skips it
        self._lean = scheme.well_balanced and not scheme.simplified_anchor
        self.fallback_cells = 0
        self._frozen = None
        # the shared side fill skips the hydrostatic sides, filled here
        self._fill_axes = tuple(
            tuple(None if side in self._hydro_sides else kind
                  for side, kind in zip(("left", "right"), pair))
            for pair in boundary.axes)
        # cell averages of the analytic background (rho, p) at rest, which
        # background-deviation sides extrapolate from
        self._bg_avgs = None
        if any("background-deviation-extrapolation" in pair
               for pair in boundary.axes):
            if background is None:
                raise ConfigurationError("background-deviation extrapolation "
                                         "needs background closures")
            rho_fn, p_fn = background
            self._bg_avgs = np.zeros((dim + 2,) + grid.shape_tot)
            self._bg_avgs[[0, -1]] = cell_averages(lambda *x: [
                rho_fn(*x), eos.internal_energy(rho_fn(*x), p_fn(*x))],
                grid, 5)

        # the band, with bg ghost layers, and the interior cells of the
        # grid and of the band
        self._band = (slice(None),) + (slice(r, -r),) * dim
        bg = ng - r
        self._shape = tuple(n + 2 * bg for n in grid.cells)
        self._interior = interior_index(grid)
        self._inner = (slice(None),) + (slice(bg, -bg),) * dim
        # the flux band, the interior cells and one ghost layer per side:
        # its grid cells, its shape and its cells of the flat band (every
        # 2-D band is one: 2-D runs Std and LA at O3)
        self._flux_band = (slice(None),) + (slice(ng - 1, 1 - ng),) * dim
        self._flux_shape = tuple(n + 2 for n in grid.cells)
        self._flux_cells = slice(bg - 1, 1 - bg or None)
        # gravity at every cell center, one array per axis (2-D: from the
        # centers' open mesh)
        accel = (gravity(grid.centers()),) if dim == 1 else \
            gravity(*np.ix_(grid.centers(0), grid.centers(1)))
        accel = [a * np.ones(grid.shape_tot) for a in accel]
        interp = GravityInterp1D(scheme.order, *grid.spacing) if dim == 1 \
            else GravityInterp2D(*grid.spacing)
        self._exps = (self.cweno.exps, interp.exps)
        m_g = len(interp.exps)
        # gravity coefficients of the band cells, (dim, m_g, cells)
        self._g_rows = np.empty((dim, m_g, prod(self._shape)))
        for rows, a in zip(self._g_rows, accel):
            rows[...] = interp.fit(stencil_windows(
                a, (2 * r + 1,) * dim)).reshape(m_g, -1)
        self.quad_nodes, self.quad_weights = gauss_nodes_weights_centered(
            nq, grid.spacing[0])
        self._mean = self.quad_weights / grid.spacing[0]
        # the flux's face pairs: the face buffer (C, axis, side, *node,
        # *cells) as (axis, side, C, *node, *cells), a face's Gauss nodes
        # (with their weights; a 1-D face is one point) ahead of the cells
        # as the face product writes them, so every side's view is
        # C-ordered with no copy
        node = (nq,) * (dim - 1)
        self._face_w = gauss_nodes_weights_centered(nq, 1.0)[1] if node \
            else None
        self._pairs = ((dim, 2) + node + self._flux_shape,
                       (1, 2, 0, *range(3, 2 + 2 * dim)))
        # product-basis tables at the equilibrium node set: LA's stencil
        # cells (reach r), the cell's own nodes otherwise, then the faces;
        # transposed for cells last, rows are nodes
        la = scheme.well_balanced and not scheme.piecewise_source
        tables = product_tables(
            *self._exps, equilibrium_points(nq, r if la else 0, dim),
            grid.spacing)
        self._value_rows = np.ascontiguousarray(tables.values.T)
        self._face_rows = self._value_rows[-2 * dim * prod(node):]
        # source means (dim, m, cells): s_d = sum_i rho_i sum_j mean_ij g_dj
        self._source_rows = tables.means.reshape(-1, m_g) @ self._g_rows
        if la:
            self._equilibrium = LocalEquilibrium(
                scheme, eos, self.cweno, tables, self._value_rows,
                self._g_rows)
        elif scheme.piecewise_source:
            self._equilibrium = PiecewiseEquilibrium(
                scheme, eos, self.cweno, tables, self._value_rows,
                self._g_rows, self._mean)
        if self._hydro_sides:
            self._init_hydrostatic_fill(interp, *accel)

    def _init_hydrostatic_fill(self, ginterp, accel):
        """Static tables of the 1-D hydrostatic fill, in the edge-strip frame.

        The fill uses the pieces of cells first..n_ghost (DWB: first = r, the
        innermost cell with a full stencil; LA: first = n_ghost, the boundary
        cell only) of each edge: their coefficients in the band's density
        and momentum pass (`_piece_cells`, band indices).  Slot j = 0..n_ghost
        (the ghosts, then the boundary cell) evaluates piece max(j, first)
        at the Gauss nodes of cell j and at the piece's faces:
        `_slot_tables` maps the pieces' coefficients to the reconstruction
        and to the antiderivative of rho^rec * g^int (static gravity
        contracted in) there, zero off each slot's own piece.  A right
        side's table flips the odd powers of its grid-frame pieces,
        mirroring the density (the momentum enters squared only).
        """
        ng, r, nq = self.grid.n_ghost, self.scheme.radius, self.scheme.n_quad
        m, n_tot = self.scheme.order, self.grid.shape_tot[0]
        first = r if self.scheme.piecewise_source else ng
        piece, cols, own, self._glue = _fill_layout(ng, first, nq)
        right = tuple(side == "right" for side in self._hydro_sides)
        strip = _strip_cells(n_tot, ng + 1, right)
        self._ghost_cells, self._edge_cells = strip[:, :ng], strip[:, ng]
        self._piece_cells = strip[:, first:] - r      # (sides, pieces)
        # each side's gravity (`accel` at every cell), fitted over cells
        # 0..ng + r of its strip (the right one mirrored), which hold the
        # stencils of every piece
        strips = np.stack([-accel[:-(ng + r) - 2:-1] if mirrored
                           else accel[:ng + r + 1] for mirrored in right])
        g = np.ascontiguousarray(ginterp.fit(stencil_windows(
            strips, (m,)))[:, :, piece - r].transpose(1, 2, 0))
        tables = product_tables(*self._exps, equilibrium_points(nq, ng),
                                self.grid.spacing)
        both = np.empty((len(g), m, ng + 1, 2, nq + 2))
        both[:, :, :, 0] = tables.values[:, cols]
        np.einsum("sjb,abjq->sajq", g, tables.line[0][:, cols].reshape(
            m, m, ng + 1, nq + 2), out=both[:, :, :, 1])
        parity = (-1.0) ** np.arange(m)[:, None, None, None]
        for table, mirrored in zip(both, right):
            if mirrored:
                table *= parity
        self._slot_tables = (own[:, None, :, None, None] * both[:, None]) \
            .reshape(len(g), len(own) * m, -1)
        self._edge_means = ghost_mean_table(self.cweno, ng)

    # -- boundaries --------------------------------------------------------

    def set_initial_state(self, data):
        """Freeze a copy of the initial state for Dirichlet boundaries."""
        self._frozen = data.copy()

    def fill_ghosts(self, data):
        """Fill every ghost of `data` in place; on hydrostatic sides the
        extrapolated averages, then the ghost energies from the density
        and momentum pieces of the cells next to the boundary.  The pieces
        come from the band's density and momentum coefficients (2, m,
        cells), which it returns: DWB's and LA's state pass, to which Std
        and the -S variants add the energy, which reads the ghosts written
        here.  None where it made no band pass."""
        fill_sides(data, self._fill_axes, self.grid.n_ghost, self._frozen,
                   self._bg_avgs)
        if not self._hydro_sides:
            return None
        sides, ng = self._hydro_sides, self.grid.n_ghost
        set_edge_ghosts(data, sides, extrapolated_strips(
            self.cweno, data, sides, ng, self._edge_means), ng)
        rec = self.cweno.coefficients(data[:2])
        self._hydrostatic_fill(data,
                               rec.transpose(0, 2, 1)[:, self._piece_cells])
        return rec

    def _check_ghost_densities(self, data):
        """After a failed flux: name the side, the ghost and its density
        where a rough state extrapolated a ghost density that is not a
        finite positive number, the nearest to a boundary first."""
        cells = self._ghost_cells[:, ::-1].T     # (ghosts out, sides)
        rho = data[0, cells]
        for k, s in np.argwhere(~((rho > 0.0) & (rho < np.inf)))[:1]:
            side = self._hydro_sides[s]
            raise FluxEvaluationError(
                f"the {getattr(self.boundary, side)} {side} side "
                f"extrapolates ghost {k + 1} of {len(cells)} out from the "
                f"boundary (grid cell {int(cells[k, s])}) to the density "
                f"{float(rho[k, s])!r}")

    def _hydrostatic_fill(self, data, pieces):
        """Replace the extrapolated ghost energies of every hydrostatic side
        in one batched pass, from the density and momentum coefficients
        `pieces` (2, sides, pieces, m) of each side's cells first..n_ghost
        (in strip order, grid frame).

        Each side is handled as an edge strip seen from its boundary (the
        right one mirrored).  Density and momentum ghosts are already the
        extrapolated averages of the innermost fully interior
        reconstruction.  Ghost energies continue the boundary cell's
        discrete equilibrium: the anchor p0 of boundary cell b = n_ghost
        matches its averaged internal energy (closed form or Newton, for
        every scheme: the '-S' anchor would continue a profile off by its
        O(h^m) error, not the discrete equilibrium), and the pressure of
        piece k is C_k + A_k(x), with A_k the antiderivative of
        rho_k^rec * g_k^int.  DWB glues pieces continuously at interfaces,
        outward from the boundary cell's C_b = p0 (one product with the
        static +-1 `_glue`); piece k serves ghost k for k >= r, and the
        outer r ghosts, which have no full stencil, evaluate piece r at
        offsets shifted by whole cells.  LA extends the boundary cell's
        piece over every ghost (a one-piece glue).  A ghost energy is the
        Gauss average of eps(rho^rec, p) + (rho u)^2 / (2 rho^rec): the
        Newton anchor's last iteration inverts the ghosts' nodes with the
        boundary cell's, and the closed-form anchor is followed by one EoS
        call for all.

        Ghost energies come from the equilibrium pressure, never from an
        energy reconstruction, so no piece waits for a corrected neighbour,
        and the energy windows are read only after this fill.  A side whose
        anchor fails or whose ghost pressure or density is not positive
        keeps the extrapolated energies and counts its ghosts in
        `fallback_cells`.
        """
        eos = self.eos
        ng, nq = self.grid.n_ghost, self.scheme.n_quad
        n_sides = len(self._hydro_sides)

        # one product evaluates each slot's piece at the slot's nodes and
        # faces
        at = (pieces.reshape(2, n_sides, 1, -1) @ self._slot_tables) \
            .reshape(2, n_sides, ng + 1, 2, nq + 2)
        offsets = at[0, :, :, 1]                  # (sides, slots, nq + 2)

        # the boundary cell's own nodes, nodes first
        rec_own = at[:, :, ng, 0, :nq].transpose(0, 2, 1)
        rho_hat, e_hat = data[::2, self._edge_cells]
        eps_hat = eps_hat_estimate(e_hat, rec_own, self._mean)
        # each slot's glued constant less p0, the boundary cell's zero (LA
        # glues a single piece: `_glue` is zero)
        glue = offsets[..., nq:].reshape(n_sides, -1) @ self._glue
        rho, mom = at[:, :, :ng, 0, :nq]
        if eos.deps_dp_constant is None:
            # the ghosts' nodes, then the boundary cell's, nodes first: the
            # anchor's last iteration inverts them all
            rows = (glue[..., None] + offsets[..., :nq]).reshape(n_sides, -1)
            p0, ok, eps = anchor_pressure_newton(
                rows.T, at[0, :, :, 0, :nq].reshape(n_sides, -1).T,
                slice(ng * nq, None), rho_hat, eps_hat, eos, self._mean)
            eps = eps.T.reshape(n_sides, ng + 1, nq)[:, :ng]
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
        ghosts = self._ghost_cells
        data[2, ghosts] = np.where(ok[:, None], energy, data[2, ghosts])
        self.fallback_cells += ng * int(np.count_nonzero(~ok))

    # -- equilibrium -------------------------------------------------------

    def _profiles_and_faces(self, rec, data, faces):
        """The equilibrium of the band, its energy faces written in place.

        `rec` holds the band's coefficients (C, m, cells), DWB's and LA's
        without the energy, `data` the ghosted state, and `faces` (C, face
        rows, cells) the flux band's face states, whose energies take the
        stage's faces as they come: the equilibrium's, the standard ones
        where the gate fails (the -S variants keep their state pass's, DWB
        and LA take them from `rejected_energy_faces`).  Returns the gate
        (*flux band).
        """
        r = self.scheme.radius
        # the band's density and energy averages
        rho_hat, e_hat = data[::len(data) - 1][self._band].reshape(2, -1)
        # the energy averages of each cell's stencil, (stencil, cells)
        e_window = stencil_windows(data[-1], (2 * r + 1,) * len(self._shape)) \
            .reshape(-1, rho_hat.size)
        e_wb, good = self._equilibrium(rec, rho_hat, e_hat, e_window)
        if not self._lean:     # the state pass holds the standard faces
            np.copyto(faces[-1], e_wb, where=good)
            return good.reshape(self._flux_shape)
        faces[-1] = e_wb
        good = good.reshape(self._flux_shape)
        rejected_energy_faces(
            self.cweno, data[-1], good, self.grid.n_ghost - 1,
            self._face_rows, faces[-1].reshape((-1,) + self._flux_shape))
        return good

    def _newton_anchor(self):
        """Never called: perfbench/spans.py patches it (ROADMAP item 1)."""

    # -- sources -----------------------------------------------------------

    def _sources(self, rec):
        """Exact cell means of (0, s, v.s) over the band, (C, *cells): the
        coefficients (C, m, cells) against the gravity-contracted mean rows
        (dim, m, cells), cells last."""
        dim = len(self._source_rows)
        out = np.zeros((dim + 2, rec.shape[-1]))
        np.einsum("ic,dic->dc", rec[0], self._source_rows, out=out[1:-1])
        np.einsum("dic,dic->c", rec[1:dim + 1], self._source_rows,
                  out=out[-1])
        return out.reshape((dim + 2,) + self._shape)

    # -- right-hand side ---------------------------------------------------

    def rhs(self, state):
        data = state.copy()
        # the fill's density and momentum pass is the lean state pass; the
        # other schemes add the energy, which reads the filled ghosts
        rec = self.fill_ghosts(data)
        if rec is None:
            rec = self.cweno.coefficients(data[:-1] if self._lean else data)
        elif not self._lean:
            rec = np.concatenate((rec, self.cweno.coefficients(data[-1:])))

        # the band's coefficients (C, m, cells), the flux band's faces
        # (C, faces, cells)
        rec = rec.reshape(-1, len(self.cweno.exps), self._g_rows.shape[-1])
        flux_rec = rec[..., self._flux_cells]
        faces = np.empty((len(data), len(self._face_rows), flux_rec.shape[2]))
        np.matmul(self._face_rows, flux_rec, out=faces[:len(rec)])
        good = (self._profiles_and_faces(rec, data, faces)
                if self.scheme.well_balanced else None)
        self.fallback_cells += positivity_fallback(
            faces.reshape(faces.shape[:2] + self._flux_shape),
            data[self._flux_band], good)
        shape, axes = self._pairs
        out = np.zeros_like(data)
        try:
            out[self._interior] = flux_divergence(
                faces.reshape((len(data),) + shape).transpose(axes),
                self.flux_fn, self.eos, self.boundary.axes, self.grid.spacing,
                self._face_w) + self._sources(rec)[self._inner]
            return out
        except FluxEvaluationError:
            if self._hydro_sides:
                self._check_ghost_densities(data)
            raise


# the names the benchmark tracer (perfbench/spans.py) patches the 1-D
# operator's methods through
SpatialOperator1D = SpatialOperator
