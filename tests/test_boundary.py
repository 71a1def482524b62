import re

import numpy as np
import pytest

from hydrobal.boundary import BoundarySpec1D, BoundarySpec2D
from hydrobal.cases import (
    discrete_equilibrium_init,
    grid_for,
    init_cell_averages,
    isothermal_1d,
    make_scenario,
)
from hydrobal.errors import ConfigurationError, FluxEvaluationError
from hydrobal.grid import Grid
from hydrobal.poly import poly_antiderivative, poly_eval, poly_mul
from hydrobal.reconstruct import GravityInterp1D
from hydrobal.runner import make_operator, run
from hydrobal.scheme import Scheme
from hydrobal.wellbalance import anchor_pressure_ideal, anchor_pressure_newton

from oracles import poly_cell_average

EXTRAP, WALL, DIRICHLET = "hydrostatic-extrapolation", "solid-wall", "dirichlet"


class TestSpecs:
    def test_periodic_must_pair(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec1D("periodic", "dirichlet")
        with pytest.raises(ConfigurationError):
            BoundarySpec2D("periodic", "dirichlet", "periodic", "periodic")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundarySpec1D("reflecting", "reflecting")

    @pytest.mark.parametrize("kind", [EXTRAP, "reflecting"])
    def test_2d_kind_outside_the_2d_fill_rejected(self, kind):
        # the 2-D fill handles periodic, Dirichlet, solid-wall (mirror) and
        # background-deviation sides; anything else fails at construction
        with pytest.raises(ConfigurationError, match=re.escape(repr(kind))):
            BoundarySpec2D(kind, DIRICHLET, DIRICHLET, DIRICHLET)

    @pytest.mark.parametrize("kind, order, bc, minimum", [
        ("dwb", 5, ("periodic", "periodic"), 5),
        ("la", 3, ("periodic", "periodic"), 2),
        ("la", 3, (DIRICHLET, DIRICHLET), 2),
        ("la", 3, (EXTRAP, DIRICHLET), 3),
        ("la", 5, (DIRICHLET, WALL), 5),
    ])
    def test_grid_smaller_than_ghost_fill_rejected(self, kind, order, bc,
                                                   minimum):
        # the ghost fills read n_ghost interior cells (periodic copy) and
        # order interior cells (hydrostatic edge strip)
        scen = isothermal_1d("10x")
        scen.boundary = BoundarySpec1D(*bc)
        scheme = Scheme(kind, order)
        with pytest.raises(ConfigurationError, match=f"n = {minimum - 1} .*"
                           f"needs n >= {minimum}"):
            make_operator(scen, Grid((0.0, 1.0), (minimum - 1,),
                                     scheme.n_ghost), scheme)
        make_operator(scen, Grid((0.0, 1.0), (minimum,), scheme.n_ghost),
                      scheme)

    def test_ghost_sufficiency_checked_at_configuration(self):
        scen = isothermal_1d("10x")
        grid = Grid((0.0, 1.0), (32,), 2)  # DWB order 3 needs 3 ghosts
        with pytest.raises(ConfigurationError):
            make_operator(scen, grid, Scheme("dwb", 3))
        make_operator(scen, grid, Scheme("la", 3))  # radius+1 = 2 fits


class TestPeriodicFill:
    def test_constant_field(self):
        scen = isothermal_1d("sin")
        grid = grid_for(scen, 16, 2)
        n_tot, = grid.shape_tot
        data = np.arange(3 * n_tot, dtype=float).reshape(3, n_tot)
        make_operator(scen, grid, Scheme("standard", 3)).fill_ghosts(data)
        np.testing.assert_allclose(data[:, :2], data[:, 16:18])
        np.testing.assert_allclose(data[:, -2:], data[:, 2:4])


class TestDirichlet:
    def test_ghosts_frozen(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        # the steep profile needs enough cells for the propagated pressure to
        # stay positive through the ghost layer (the paper's setting is 128)
        grid = grid_for(scen, 128, scheme.n_ghost)
        op = make_operator(scen, grid, scheme)
        field = discrete_equilibrium_init(scen, op)
        op.set_initial_state(field.data)
        work = field.data.copy()
        work[:, :3] = -1.0  # clobber ghosts; fill must restore them
        op.fill_ghosts(work)
        np.testing.assert_allclose(work, field.data)

    def test_discrete_equilibrium_residual(self):
        scen = isothermal_1d("10x")
        scheme = Scheme("dwb", 3)
        grid = grid_for(scen, 64, scheme.n_ghost)
        op = make_operator(scen, grid, scheme)
        field = discrete_equilibrium_init(scen, op)
        op.set_initial_state(field.data)
        assert np.max(np.abs(op.rhs(field.data))) < 1e-13


# DWB cases are named by their order alone, DWB-S cases by kind and order
DWB_KINDS = [pytest.param("dwb", 3, id="3"), pytest.param("dwb", 5, id="5"),
             pytest.param("dwb-s", 3, id="dwb-s-3"),
             pytest.param("dwb-s", 5, id="dwb-s-5")]


@pytest.mark.parametrize("kind", ["hydrostatic-extrapolation", "solid-wall"])
@pytest.mark.parametrize("scheme_kind, order", DWB_KINDS)
def test_wellbalanced_boundaries_preserve_equilibrium(kind, scheme_kind, order):
    # the '-S' schemes' ghost fill anchors by cell-average matching too, so
    # it continues the discrete equilibrium
    scen = isothermal_1d("10x")
    scen.boundary = BoundarySpec1D(kind, kind)
    result = run(scen, Scheme(scheme_kind, order), 128, init="discrete",
                 t_end=0.3)
    errors = result.errors_vs_initial()
    assert np.all(errors < 1e-13), errors


@pytest.mark.parametrize("kind, order", DWB_KINDS)
@pytest.mark.parametrize("bc", [(EXTRAP, WALL), (WALL, EXTRAP),
                                (EXTRAP, DIRICHLET), (DIRICHLET, WALL)])
@pytest.mark.parametrize("scenario, n", [("isothermal-10x", 128),
                                         ("polytropic-radiation", 64)])
def test_mixed_boundaries_preserve_equilibrium(scenario, n, bc, kind, order):
    # every extrapolation or wall side of the discrete init continues the
    # equilibrium, whatever the other side is; the radiation EoS takes the
    # Newton anchor in the ghost fill
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    result = run(scen, Scheme(kind, order), n, init="discrete", t_end=0.02)
    errors = result.errors_vs_initial()
    assert np.all(errors < 1e-13), errors


def _reference_left_fill(op, data, g_centers):
    """The hydrostatic fill of the left side, one ghost cell at a time."""
    scheme, eos, cweno = op.scheme, op.eos, op.cweno
    ng, r, h = op.grid.n_ghost, scheme.radius, op.grid.spacing[0]
    nodes, weights = op.quad_nodes, op.quad_weights
    ginterp = GravityInterp1D(scheme.order, h)
    c = ng + r
    coeffs_c = cweno.reconstruct_stencils(data[:, c - r:c + r + 1].T).T
    for j in range(ng):
        data[:, j] = poly_cell_average(coeffs_c, h, offset=(j - c) * h)

    def piece(k):
        rec = cweno.reconstruct_stencils(data[:, k - r:k + r + 1].T).T
        g_k = ginterp.fit(g_centers[k - r:k + r + 1, None])[:, 0]
        return rec, poly_antiderivative(poly_mul(rec[0], g_k))

    def energy(rec, anti, const, offs):
        rho, mom = poly_eval(rec[:2, None, :], offs)
        p = const + poly_eval(anti, offs)
        eps = eos.internal_energy(rho, p)
        return np.sum(weights * (eps + 0.5 * mom ** 2 / rho)) / h

    rec, anti = piece(ng)
    rho_n, mom_n = poly_eval(rec[:2, None, :], nodes)
    eps_hat = data[2, ng] - np.sum(weights * 0.5 * mom_n ** 2 / rho_n) / h
    offsets = poly_eval(anti, nodes)
    if eos.deps_dp_constant is not None:
        p0 = anchor_pressure_ideal(offsets, eps_hat, eos.deps_dp_constant,
                                   weights / h)
    else:
        p0 = anchor_pressure_newton(offsets, rho_n, slice(None), data[0, ng],
                                    eps_hat, eos, weights / h)[0]
    if not scheme.piecewise_source:
        for j in range(ng):
            data[2, j] = energy(rec, anti, p0, (j - ng) * h + nodes)
        return
    const = p0
    for j in range(ng - 1, r - 1, -1):
        rec_j, anti_j = piece(j)
        const += poly_eval(anti, -0.5 * h) - poly_eval(anti_j, 0.5 * h)
        rec, anti = rec_j, anti_j
        data[2, j] = energy(rec, anti, const, nodes)
    for j in range(r):
        data[2, j] = energy(rec, anti, const, (j - r) * h + nodes)


@pytest.mark.parametrize("scenario, kind, order, bc", [
    pytest.param(name, kind, order, bc, id="-".join(
        (name, kind, str(order)) + suffix))
    for name in ("isothermal-10x", "polytropic-radiation")
    for kind in ("dwb", "dwb-s", "la", "la-s") for order in (3, 5)
    for bc, suffix in (((EXTRAP, WALL), ()), ((WALL, EXTRAP), ("wall-extrap",)),
                       ((WALL, WALL), ("wall-wall",)))])
def test_batched_fill_matches_per_cell_fill(scenario, kind, order, bc):
    # the batched fill of both sides equals a walk over the ghost cells of
    # each side, the right side seen in its mirrored frame
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, 48, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    rng = np.random.default_rng(order)
    for comp in (0, 2):
        data[comp, grid.interior] *= 1.0 + 1e-3 * rng.standard_normal(48)
    data[1, grid.interior] = 1e-3 * data[0, grid.interior] \
        * rng.standard_normal(48)
    op = make_operator(scen, grid, scheme)
    work = data.copy()
    op.fill_ghosts(work)

    g_centers = scen.gravity(grid.centers())
    left = data.copy()
    _reference_left_fill(op, left, g_centers)
    right = data[:, ::-1] * np.array([[1.0], [-1.0], [1.0]])
    _reference_left_fill(op, right, -g_centers[::-1])
    expected = np.concatenate([left[:, :grid.interior.stop],
                               right[:, grid.n_ghost - 1::-1]
                               * np.array([[1.0], [-1.0], [1.0]])], axis=1)
    scale = np.max(np.abs(expected), axis=1, keepdims=True)
    assert np.max(np.abs(work - expected) / scale) < 1e-13
    assert op.fallback_cells == 0


@pytest.mark.parametrize("scenario", ["isothermal-10x", "polytropic-radiation"])
def test_failed_ghost_anchor_keeps_extrapolated_energies(scenario):
    # a boundary cell without internal energy has no positive anchor: that
    # side keeps the extrapolated energies and counts its ghosts; the other
    # side is filled as usual
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(EXTRAP, WALL)
    scheme = Scheme("dwb", 3)
    grid = grid_for(scen, 32, scheme.n_ghost)
    ng, (h,) = grid.n_ghost, grid.spacing
    data = init_cell_averages(scen, grid).data
    op = make_operator(scen, grid, scheme)
    reference = data.copy()
    op.fill_ghosts(reference)
    assert op.fallback_cells == 0

    data[2, ng] = 0.0
    work = data.copy()
    op.fill_ghosts(work)
    assert op.fallback_cells == ng
    assert np.all(np.isfinite(work))
    c, r = ng + scheme.radius, scheme.radius
    coeffs = op.cweno.reconstruct_stencils(work[2, c - r:c + r + 1])
    for j in range(ng):
        assert work[2, j] == pytest.approx(
            poly_cell_average(coeffs, h, offset=(j - c) * h),
            rel=1e-13)
    np.testing.assert_array_equal(work[:, -ng:], reference[:, -ng:])


# LA is left out: its fill continues the boundary cell's own piece over
# the ghosts, not the glued equilibrium the init continues (up to 4.5e-5
# of the state scale apart)
@pytest.mark.parametrize("bc", [(EXTRAP, WALL), (WALL, EXTRAP)],
                         ids=["extrap-wall", "wall-extrap"])
@pytest.mark.parametrize("kind", ["dwb", "dwb-s"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("scenario, n", [("isothermal-10x", 128),
                                         ("polytropic-radiation", 64)])
def test_discrete_init_ghosts_are_the_fills_ghosts(scenario, n, order, kind,
                                                   bc):
    # the init's ghosts on hydrostatic sides are the ones the operator's
    # fill writes: the same extrapolated densities and the same equilibrium
    # energies, continued from the boundary cell's anchor by the fill and
    # from the whole-grid glue by the init
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    op = make_operator(scen, grid_for(scen, n, scheme.n_ghost), scheme)
    data = discrete_equilibrium_init(scen, op).data
    work = data.copy()
    op.fill_ghosts(work)
    assert op.fallback_cells == 0
    assert np.max(np.abs(work - data)) <= 1e-15 * np.max(np.abs(data))


@pytest.mark.parametrize("bc", [(DIRICHLET, DIRICHLET), (EXTRAP, WALL)],
                         ids=["dirichlet", "extrap-wall"])
def test_discrete_run_builds_one_reconstruction(bc, monkeypatch):
    # the discrete init reads the run's operator: one CWENO reconstruction
    # and one gravity interpolant per run
    import hydrobal.reconstruct as reconstruct

    built = []

    def spy(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    spy(reconstruct.Cweno1D)
    spy(reconstruct.GravityInterp1D)
    scen = isothermal_1d("10x")
    scen.boundary = BoundarySpec1D(*bc)
    run(scen, Scheme("dwb", 5), 128, t_end=0.0, init="discrete")
    assert sorted(built) == ["Cweno1D", "GravityInterp1D"]


@pytest.mark.parametrize("bc", [(EXTRAP, WALL), (WALL, EXTRAP),
                                (EXTRAP, EXTRAP)],
                         ids=["extrap-wall", "wall-extrap", "extrap-extrap"])
@pytest.mark.parametrize("scenario", ["isothermal-10x", "polytropic-radiation"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("kind", ["standard", "dwb", "dwb-s", "la", "la-s"])
def test_rhs_fill_is_fill_ghosts(kind, order, scenario, bc):
    # the ghosts the RHS fills inside its stage, read from the array its
    # state pass reconstructs, are `fill_ghosts`': the left ones bit for
    # bit, the right ones, whose pieces are mirrored, to roundoff
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, 40, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    rng = np.random.default_rng(order)
    data[:, grid.interior] *= 1.0 + 1e-3 * rng.standard_normal(40)
    data[1, grid.interior] = 1e-2 * data[0, grid.interior] \
        * rng.standard_normal(40)
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    seen, coefficients = [], op.cweno.coefficients

    def spy(values):
        seen.append(values if values.base is None else values.base)
        return coefficients(values)

    op.cweno.coefficients = spy
    op.rhs(data)
    in_stage = seen[-1]
    assert in_stage.shape == data.shape
    expected = data.copy()
    op.fill_ghosts(expected)
    ng = grid.n_ghost
    np.testing.assert_array_equal(in_stage[:, :ng], expected[:, :ng])
    scale = np.max(np.abs(data), axis=1, keepdims=True)
    assert np.all(np.abs(in_stage[:, -ng:] - expected[:, -ng:])
                  <= 1e-15 * scale)
    np.testing.assert_array_equal(in_stage[:, grid.interior],
                                  data[:, grid.interior])


@pytest.mark.parametrize("bc", [(EXTRAP, WALL), (WALL, EXTRAP),
                                (EXTRAP, EXTRAP)],
                         ids=["extrap-wall", "wall-extrap", "extrap-extrap"])
@pytest.mark.parametrize("scenario", ["isothermal-10x", "polytropic-radiation"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("kind", ["standard", "dwb", "dwb-s", "la", "la-s"])
def test_fill_from_the_state_pass_is_the_pieces_fill(kind, order, scenario,
                                                     bc, monkeypatch):
    # the fill reads its pieces from the band's density and momentum pass;
    # fed the pieces of a CWENO call of their stencils alone (the oracle),
    # `_hydrostatic_fill` writes the same ghosts: the left ones bit for
    # bit, the right ones, whose pieces are mirrored, to roundoff; a side
    # falls back in both or in neither
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*bc)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, 40, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    rng = np.random.default_rng(order)
    data[:, grid.interior] *= 1.0 + 1e-3 * rng.standard_normal(40)
    data[1, grid.interior] = 1e-2 * data[0, grid.interior] \
        * rng.standard_normal(40)
    filled, fallbacks = [], []
    for oracle in (False, True):
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(data)
        work = data.copy()
        if not oracle:
            rec = op.fill_ghosts(work)
            assert rec.shape[:2] == (2, scheme.order)
        else:
            # the extrapolated averages alone, then the pieces of cells
            # first..n_ghost of each edge (DWB: first = r, else n_ghost),
            # from their stencils, in strip order
            fill = op._hydrostatic_fill
            with monkeypatch.context() as patch:
                patch.setattr(op, "_hydrostatic_fill", lambda *args: None)
                op.fill_ghosts(work)
            ng, r, n_tot = grid.n_ghost, scheme.radius, grid.shape_tot[0]
            slots = np.arange(r if scheme.piecewise_source else ng, ng + 1)
            cells = np.array([n_tot - 1 - slots if side == "right" else slots
                              for side in scen.boundary.hydrostatic_sides])
            windows = np.arange(-r, r + 1)[:, None, None] + cells
            fill(work, op.cweno.reconstruct_stencils(
                work[:2, windows].swapaxes(0, 1)).transpose(1, 2, 3, 0))
        filled.append(work)
        fallbacks.append(op.fallback_cells)
    assert fallbacks[0] == fallbacks[1]
    band, pieces = filled
    ng = grid.n_ghost
    np.testing.assert_array_equal(band[:, :ng], pieces[:, :ng])
    scale = np.max(np.abs(pieces), axis=1, keepdims=True)
    assert np.all(np.abs(band[:, -ng:] - pieces[:, -ng:]) <= 1e-15 * scale)


def test_hydrostatic_extrapolation_dynamic_consistency():
    # on a non-equilibrium state the fill keeps density/momentum equal to the
    # extrapolated near-boundary reconstruction averages
    scen = isothermal_1d("10x")
    scen.boundary = BoundarySpec1D("hydrostatic-extrapolation",
                                   "hydrostatic-extrapolation")
    scheme = Scheme("la", 3)
    grid = grid_for(scen, 32, scheme.n_ghost)
    from hydrobal.cases import init_cell_averages
    field = init_cell_averages(scen, grid)
    rng = np.random.default_rng(0)
    field.data[1, grid.interior] += 0.01 * rng.standard_normal(32)
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(field.data)
    work = field.data.copy()
    op.fill_ghosts(work)
    # interior untouched
    np.testing.assert_allclose(work[:, grid.interior],
                               field.data[:, grid.interior])
    # ghost densities equal the exact averages of the extrapolated polynomial
    r, (h,) = scheme.radius, grid.spacing
    c = grid.n_ghost + r
    coeffs = op.cweno.reconstruct_stencils(work[:, c - r:c + r + 1].T).T
    for j in range(grid.n_ghost):
        expected = poly_cell_average(coeffs[0], h, offset=(j - c) * h)
        assert work[0, j] == pytest.approx(expected, rel=1e-13)
    # ghost energies positive and finite after the correction
    assert np.all(np.isfinite(work[2, :grid.n_ghost]))
    assert np.all(work[2, :grid.n_ghost] > 0.0)


@pytest.mark.parametrize("kind, seed, side, ghost, cell", [
    ("standard", 3, "right", "1 of 3", 43),
    ("standard", 5, "right", "1 of 3", 43),
    ("dwb", 3, "left", "1 of 5", 4), ("dwb", 5, "right", "1 of 5", 45),
    ("la", 3, "right", "1 of 3", 43), ("la", 5, "right", "1 of 3", 43)])
def test_non_positive_extrapolated_ghost_is_named(kind, seed, side, ghost,
                                                  cell):
    # a rough but physical state: every cell scaled by 1 + 0.3 N(0, 1) and
    # given 3% momentum noise; the extrapolation gives a ghost a negative
    # density, and the failed flux names the side, the ghost and its density
    scen = make_scenario("isothermal-perturbed", eta=1e-3)
    scen.boundary = BoundarySpec1D(EXTRAP, EXTRAP)
    scheme = Scheme(kind, 5)
    grid = grid_for(scen, 40, scheme.n_ghost)
    data = init_cell_averages(scen, grid).data
    rng = np.random.default_rng(seed)
    data *= 1.0 + 0.3 * rng.standard_normal(data.shape[1])
    data[1] += 0.03 * rng.standard_normal(data.shape[1]) * data[0]
    assert np.all(data[0] > 0.0) and np.all(data[2] > 0.0)
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(data)
    filled = data.copy()
    op.fill_ghosts(filled)
    with pytest.raises(FluxEvaluationError) as error:
        op.rhs(data)
    assert str(error.value) == (
        f"the hydrostatic-extrapolation {side} side extrapolates ghost "
        f"{ghost} out from the boundary (grid cell {cell}) to the density "
        f"{float(filled[0, cell])!r}")
    assert filled[0, cell] < 0.0


class TestBackgroundDeviationFill2D:
    def test_reproduces_background_plus_constant_deviation(self):
        from hydrobal.cases import radial_rayleigh_taylor_2d, init_cell_averages
        scen = radial_rayleigh_taylor_2d()
        scheme = Scheme("la", 3)
        grid = grid_for(scen, 16, scheme.n_ghost)
        field = init_cell_averages(scen, grid)
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(field.data)
        work = field.data.copy()
        op.fill_ghosts(work)
        g = grid.n_ghost
        bg = op._bg_avgs
        edge = g + grid.cells[0] - 1
        inner_y = slice(g, g + grid.cells[1])
        dev_edge = work[:, edge, inner_y] - bg[:, edge, inner_y]
        for k in range(g):
            ghost = edge + 1 + k
            dev_ghost = work[:, ghost, inner_y] - bg[:, ghost, inner_y]
            np.testing.assert_allclose(dev_ghost, dev_edge, atol=1e-9 * np.max(np.abs(work[3])))

    def test_mirror_wall_fill(self):
        from hydrobal.cases import radial_rayleigh_taylor_2d, init_cell_averages
        scen = radial_rayleigh_taylor_2d()
        scheme = Scheme("la", 3)
        grid = grid_for(scen, 16, scheme.n_ghost)
        field = init_cell_averages(scen, grid)
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(field.data)
        work = field.data.copy()
        op.fill_ghosts(work)
        g = grid.n_ghost
        # x_lo mirror: ghost column g-1-k mirrors interior column g+k with
        # negated x-momentum
        for k in range(g):
            np.testing.assert_allclose(work[0, g - 1 - k, g:],
                                       work[0, g + k, g:], rtol=1e-14)
            np.testing.assert_allclose(work[1, g - 1 - k, g:],
                                       -work[1, g + k, g:], rtol=1e-14)


def test_wall_has_zero_mass_flux_2d():
    from hydrobal.cases import radial_rayleigh_taylor_2d
    scen = radial_rayleigh_taylor_2d()
    result = run(scen, Scheme("la", 3), 16, t_end=0.02)
    # total mass changes only through the outer boundaries; compare against a
    # run with everything reflected: here simply check mass is finite and the
    # wall rows did not develop inflow artifacts
    rho = result.final.interior()[0]
    assert np.all(rho > 0)
    assert np.all(np.isfinite(rho))
