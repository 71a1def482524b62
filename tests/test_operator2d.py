import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobal.boundary import BoundarySpec1D, BoundarySpec2D
from hydrobal.cases import (
    Scenario,
    grid_for,
    init_cell_averages,
    isothermal_1d,
    make_scenario,
    polytrope_2d,
)
from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.grid import Grid
from hydrobal.integrate import StepController, advance, tableau_for_order
from hydrobal.metrics import l1_error
from hydrobal import operator1d, wellbalance
from hydrobal.operator1d import SpatialOperator
from hydrobal.reconstruct import Cweno1D, Cweno2D
from hydrobal.runner import make_operator, run
from hydrobal.scheme import Scheme
from hydrobal.wellbalance import LocalEquilibrium


def degenerate_column_scenario():
    """The 1-D isothermal phi=10x state embedded along x, uniform in y."""
    return Scenario(
        name="iso-column", domain=(0, 1, 0, 1),
        eos=IdealGas(1.4),
        boundary=BoundarySpec2D("dirichlet", "dirichlet", "periodic", "periodic"),
        t_end=1.0,
        gravity=lambda x, y: (-10.0 * np.ones_like(x + y), np.zeros_like(x + y)),
        potential=lambda x, y: 10.0 * x,
        initial=lambda x, y: (np.exp(-10 * x) * np.ones_like(y),
                              np.zeros_like(x + y), np.zeros_like(x + y),
                              np.exp(-10 * x) * np.ones_like(y)),
        background=None)


@pytest.mark.parametrize("kind", ["standard", "la", "la-s"])
def test_uniform_gravity_free_state_zero_rhs(kind):
    scen = Scenario(
        name="uniform2d", domain=(0, 1, 0, 1), eos=IdealGas(1.4),
        boundary=BoundarySpec2D(*["periodic"] * 4), t_end=1.0,
        gravity=lambda x, y: (np.zeros_like(x + y), np.zeros_like(x + y)),
        potential=lambda x, y: np.zeros_like(x + y),
        initial=lambda x, y: (np.ones_like(x + y), np.zeros_like(x + y),
                              np.zeros_like(x + y), np.ones_like(x + y)),
        background=None)
    grid = grid_for(scen, 8, 2)
    field = init_cell_averages(scen, grid)
    op = make_operator(scen, grid, Scheme(kind, 3))
    op.set_initial_state(field.data)
    assert np.max(np.abs(op.rhs(field.data))) < 1e-14


@pytest.mark.parametrize("kind, eos, tol", [
    pytest.param("standard", IdealGas(1.4), None, id="standard"),
    pytest.param("la", IdealGas(1.4), None, id="la"),
    pytest.param("la", IdealGasRadiation(1.4), 1e-9, id="la-radiation"),
    pytest.param("la-s", IdealGasRadiation(1.4), 1e-9, id="la-s-radiation"),
])
def test_matches_1d_operator_on_degenerate_column(kind, eos, tol):
    """Square cells, y-uniform data: every x-row of the 2-D RHS must equal
    the 1-D RHS of the same scheme.  The radiation EoS takes the Newton
    anchor (LA) and the EoS-evaluated anchor (LA-S) in both operators; the
    rows then agree to `tol` of each component's scale."""
    scen1 = isothermal_1d("10x")
    scen1.eos = eos
    scheme = Scheme(kind, 3)
    n = 48
    grid1 = grid_for(scen1, n, scheme.n_ghost)
    f1 = init_cell_averages(scen1, grid1)
    op1 = make_operator(scen1, grid1, scheme)
    op1.set_initial_state(f1.data)
    rhs1 = op1.rhs(f1.data)

    scen2 = degenerate_column_scenario()
    scen2.eos = eos
    grid2 = Grid((0, 1, 0, 1), (n, n), scheme.n_ghost)
    f2 = init_cell_averages(scen2, grid2)
    op2 = SpatialOperator(grid2, scheme, scen2.eos, scen2.gravity,
                          scen2.boundary)
    op2.set_initial_state(f2.data)
    rhs2 = op2.rhs(f2.data)
    g1, g2 = grid1.n_ghost, grid2.n_ghost
    col = g2 + n // 2
    scale = np.max(np.abs(rhs1), axis=1)
    for c1, c2 in ((0, 0), (1, 1), (2, 3)):
        if tol is None:
            np.testing.assert_allclose(
                rhs2[c2, g2:g2 + n, col], rhs1[c1, g1:g1 + n],
                atol=1e-7 * max(scale[c1], 1e-30), rtol=1e-6)
        else:
            dev = np.max(np.abs(rhs2[c2, g2:g2 + n, col] - rhs1[c1, g1:g1 + n]))
            assert dev <= tol * scale[c1], (c1, dev / scale[c1])
    # y-momentum identically zero and y-uniformity preserved
    assert np.max(np.abs(rhs2[2, g2:g2 + n, g2:g2 + n])) < 1e-15


@pytest.mark.parametrize("kind", ["standard", "la", "la-s"])
def test_transpose_and_mirror_symmetry(kind):
    scen = polytrope_2d()
    scheme = Scheme(kind, 3)
    grid = grid_for(scen, 16, scheme.n_ghost)
    field = init_cell_averages(scen, grid)
    op = make_operator(scen, grid, scheme)
    op.set_initial_state(field.data)
    rhs = op.rhs(field.data)
    g = grid.n_ghost
    r = rhs[:, g:g + 16, g:g + 16]
    np.testing.assert_allclose(r[0], r[0].T, atol=1e-13)
    np.testing.assert_allclose(r[1], r[2].T, atol=1e-13)
    np.testing.assert_allclose(r[3], r[3].T, atol=1e-13)
    np.testing.assert_allclose(r[1], -r[1][::-1], atol=1e-13)


def test_embedded_stratification_transverse_fluxes_balance():
    """1-D hydrostatic column in 2-D: y-direction flux differences vanish and
    the y-momentum faces carry equal pressure on both sides."""
    scen = degenerate_column_scenario()
    scheme = Scheme("la", 3)
    n = 32
    grid = Grid((0, 1, 0, 1), (n, n), scheme.n_ghost)
    field = init_cell_averages(scen, grid)
    op = SpatialOperator(grid, scheme, scen.eos, scen.gravity, scen.boundary)
    op.set_initial_state(field.data)
    rhs = op.rhs(field.data)
    g = grid.n_ghost
    assert np.max(np.abs(rhs[2, g:g + n, g:g + n])) < 1e-13


def test_la_2d_paper_scale_short_horizon():
    # polytrope at N=16 to t=0.25: LA beats the standard scheme by >= 30x
    scen = polytrope_2d()
    errs = {}
    for kind in ("standard", "la"):
        res = run(scen, Scheme(kind, 3), 16, t_end=0.25)
        errs[kind] = res.errors_vs_initial()[3]
    assert errs["la"] * 30 < errs["standard"]


def test_la_s_anchor_close_to_la_2d():
    scen = polytrope_2d()
    a = run(scen, Scheme("la", 3), 16, t_end=0.25).errors_vs_initial()[3]
    b = run(scen, Scheme("la-s", 3), 16, t_end=0.25).errors_vs_initial()[3]
    assert b == pytest.approx(a, rel=0.5)


def test_scheme_dimension_validation():
    from hydrobal.errors import ConfigurationError

    scen = polytrope_2d()
    with pytest.raises(ConfigurationError):
        run(scen, Scheme("dwb", 3), 8, t_end=0.01)
    with pytest.raises(ConfigurationError):
        run(scen, Scheme("la", 5), 8, t_end=0.01)


@pytest.mark.parametrize("n_x, n_y", [(1, 1), (1, 8), (8, 1)])
def test_grid_smaller_than_ghost_width_rejected(n_x, n_y):
    # the periodic and mirror fills read n_ghost interior cells per axis;
    # fewer would leave stale ghosts
    from hydrobal.errors import ConfigurationError

    scen = polytrope_2d()
    scheme = Scheme("la", 3)
    with pytest.raises(ConfigurationError,
                       match=rf"n = {n_x} x {n_y} cells .*LA-O3 with 2 ghost"):
        SpatialOperator(Grid((0, 1, 0, 1), (n_x, n_y), scheme.n_ghost),
                        scheme, scen.eos, scen.gravity, scen.boundary)
    with pytest.raises(ConfigurationError, match="n = 1 x 1 cells"):
        run(scen, scheme, 1, t_end=0.01)
    SpatialOperator(Grid((0, 1, 0, 1), (2, 2), scheme.n_ghost), scheme,
                    scen.eos, scen.gravity, scen.boundary)


# -- the flux band -----------------------------------------------------------


@pytest.mark.parametrize("name, kind, order, sides", [
    pytest.param("isothermal-sin", "dwb", 5, ("periodic", "periodic"),
                 id="1d-periodic"),
    pytest.param("isothermal-10x", "la", 3,
                 ("hydrostatic-extrapolation", "solid-wall"),
                 id="1d-hydrostatic"),
    pytest.param("polytrope-2d", "la", 3, None, id="2d")])
@pytest.mark.parametrize("delta", [-1, 1], ids=["narrower", "wider"])
def test_grid_of_another_ghost_width_rejected(name, kind, order, sides,
                                              delta):
    # the operator reads exactly the scheme's ghost layers: a hydrostatic
    # fill or a stencil on a grid of any other width would read the wrong
    # cells, so such a grid is rejected, naming both widths
    from hydrobal.errors import ConfigurationError

    scen = make_scenario(name)
    if sides is not None:
        scen.boundary = BoundarySpec1D(*sides)
    scheme = Scheme(kind, order)
    width = scheme.n_ghost + delta
    grid = grid_for(scen, 24, width)
    with pytest.raises(ConfigurationError,
                       match=f"needs {scheme.n_ghost} ghost cells but the "
                             f"grid has {width}"):
        make_operator(scen, grid, scheme)


@pytest.mark.parametrize("kind, expected", [
    ("la", {16: 195, 24: 174, 32: 0}), ("la-s", {16: 195, 24: 174, 32: 0})])
def test_radial_rayleigh_taylor_fallback_counts(kind, expected):
    # solid-wall and background-deviation sides; the cells the gate rejects
    # (non-positive equilibrium densities at nodes on the steep grids) take
    # their standard energy faces from `rejected_energy_faces` on the band
    for n, count in expected.items():
        scen = make_scenario("radial-rayleigh-taylor")
        scheme = Scheme(kind, 3)
        grid = grid_for(scen, n, scheme.n_ghost)
        data = init_cell_averages(scen, grid).data
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(data)
        assert np.all(np.isfinite(op.rhs(data)))
        assert op.fallback_cells == count, n


class TestTracedEntryPoints:
    """The benchmark tracer times the layers by patching these entry points
    (the RHS's anchors on `wellbalance`, where the LA stage and
    `build_profiles` call them; the 1-D fill's on `operator1d`, which the
    tracer times as `wb.anchor` too); the RHS must call them, or their
    layers would read zero.  One operator serves both dimensions, so
    every well-balanced RHS passes through `_profiles_and_faces` and every
    RHS through `_sources`."""

    TARGETS = {"_profiles_and_faces": (SpatialOperator,
                                       "_profiles_and_faces"),
               "_sources": (SpatialOperator, "_sources"),
               "reconstruct_stencils": (Cweno2D, "reconstruct_stencils"),
               "reconstruct_stencils_1d": (Cweno1D, "reconstruct_stencils"),
               "stage": (LocalEquilibrium, "__call__"),
               "build_profiles": (operator1d, "build_profiles"),
               "hydrostatic_energy_faces": (operator1d,
                                            "hydrostatic_energy_faces"),
               "anchor_pressure_ideal": (wellbalance, "anchor_pressure_ideal"),
               "anchor_pressure_newton": (wellbalance,
                                          "anchor_pressure_newton"),
               "fill_anchor_ideal": (operator1d, "anchor_pressure_ideal"),
               "fill_anchor_newton": (operator1d, "anchor_pressure_newton")}

    def _calls(self, kind, monkeypatch, scen=None, order=3):
        counts = {}
        for label, (owner, name) in self.TARGETS.items():
            def spy(*args, _fn=getattr(owner, name), _label=label, **kwargs):
                counts[_label] = counts.get(_label, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, spy)
        scen = scen or make_scenario("polytrope-2d", perturbation=1e-3)
        scheme = Scheme(kind, order)
        grid = grid_for(scen, 16, scheme.n_ghost)
        data = init_cell_averages(scen, grid).data
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(data)
        op.rhs(data)
        assert op.fallback_cells == 0
        return counts

    def test_la_rhs(self, monkeypatch):
        assert self._calls("la", monkeypatch) == {
            "_profiles_and_faces": 1, "stage": 1, "anchor_pressure_ideal": 1,
            "_sources": 1, "reconstruct_stencils": 2}

    def test_radiation_la_rhs(self, monkeypatch):
        scen = make_scenario("polytrope-2d", perturbation=1e-3)
        scen.eos = IdealGasRadiation(2.0)
        assert self._calls("la", monkeypatch, scen) == {
            "_profiles_and_faces": 1, "stage": 1, "anchor_pressure_newton": 1,
            "_sources": 1, "reconstruct_stencils": 2}

    def test_standard_rhs(self, monkeypatch):
        assert self._calls("standard", monkeypatch) == {
            "_sources": 1, "reconstruct_stencils": 1}

    @pytest.mark.parametrize("kind, layers", [
        pytest.param("la", {"stage": 1}, id="la-stage"),
        pytest.param("dwb", {"build_profiles": 1,
                             "hydrostatic_energy_faces": 1},
                     id="dwb-build_profiles")])
    def test_1d_rhs(self, kind, layers, monkeypatch):
        # 1-D LA runs the 2-D operator's stage, DWB `build_profiles`
        scen = make_scenario("isothermal-perturbed", eta=1e-3)
        assert self._calls(kind, monkeypatch, scen) == {
            **layers, "_profiles_and_faces": 1, "anchor_pressure_ideal": 1,
            "_sources": 1, "reconstruct_stencils_1d": 2}

    @pytest.mark.parametrize("eos, anchor", [
        (IdealGas(1.4), "ideal"), (IdealGasRadiation(1.4), "newton")])
    def test_1d_wall_rhs(self, eos, anchor, monkeypatch):
        # the hydrostatic fill of both sides makes one anchor call through
        # `operator1d`'s name and two CWENO calls (the extrapolation and
        # the pieces)
        scen = make_scenario("isothermal-perturbed", eta=1e-3)
        scen.boundary = BoundarySpec1D("hydrostatic-extrapolation",
                                       "solid-wall")
        scen.eos = eos
        assert self._calls("dwb", monkeypatch, scen, order=5) == {
            "_profiles_and_faces": 1, "build_profiles": 1,
            "hydrostatic_energy_faces": 1, f"anchor_pressure_{anchor}": 1,
            f"fill_anchor_{anchor}": 1, "_sources": 1,
            "reconstruct_stencils_1d": 4}


def _density_cells(value_rows, cells):
    """Density coefficients (6, k) from (m_0..m_5, exponent, shift) per cell:
    rho_0 = 5 m_0 10^e, and term i > 0 reaches at most |m_i| 10^e over the
    nodes, so that the bound certifies some cells and not others; a shift
    puts the smallest node value that many ulps of rho_0 from zero."""
    reach = np.abs(value_rows).max(axis=0) * [0.2, 1, 1, 1, 1, 1]
    rho = np.empty((6, len(cells)))
    for k, (m, e, shift) in enumerate(cells):
        rho[:, k] = np.array(m) * 10.0 ** e / reach
        if shift is not None:
            rho[0, k] = -np.min(value_rows[:, 1:] @ rho[1:, k])
            rho[0, k] += shift * np.spacing(rho[0, k])
    return rho


def _node_densities(rho):
    """Each cell's density at every node, (nodes, k), from its own
    coefficients alone: the gate's evaluation of a single open cell."""
    return np.stack([rho[0, k] + np.matmul(
        rho[None, 1:, k], DENSITY._value_rows[:, 1:].T)[0]
        for k in range(rho.shape[1])], axis=1)


UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(cells=st.lists(st.tuples(
    st.lists(UNIT, min_size=6, max_size=6), st.floats(-30.0, 30.0),
    st.one_of(st.none(), st.integers(-4, 4))), min_size=1, max_size=6))
def test_certified_density_gate_is_exact(cells):
    # cells the bound certifies have positive node values; the others are
    # evaluated, so the gate decides as the node values do, one open cell
    # alone included
    rho = _density_cells(DENSITY._value_rows, cells)
    expected = np.all(_node_densities(rho) > 0.0, axis=0)
    np.testing.assert_array_equal(DENSITY._density_positive(rho), expected)


def test_density_bound_holds_at_every_node():
    rng = np.random.default_rng(7)
    rho = rng.standard_normal((6, 500)) * 10.0 ** rng.uniform(-3, 3, 500)
    spread = np.abs(DENSITY._value_rows[:, 1:] @ rho[1:])
    # attained where one term dominates; the margin takes the rounding
    bound = DENSITY._rho_bound @ np.abs(rho[1:])
    assert np.all(spread <= bound * (1.0 + 1e-12))
    # shifted to within a few ulps of zero, a cell is never certified
    near = _density_cells(DENSITY._value_rows,
                          [(list(r), 0.0, 1) for r in rho[:, :50].T])
    bound = DENSITY._rho_bound @ np.abs(near[1:])
    assert not np.any(near[0] > bound * (1.0 + 1e-12))


def test_density_gate_single_open_cell():
    # beside a certified cell, a cell within ulps of zero is the one cell
    # evaluated, and decides as its own node values do
    rng = np.random.default_rng(8)
    near = _density_cells(DENSITY._value_rows, [
        (list(rng.uniform(-1, 1, 6)), rng.uniform(-3, 3), rng.integers(-3, 4))
        for _ in range(300)])
    certain = np.zeros(6)
    certain[0] = 1.0
    expected = np.all(_node_densities(near) > 0.0, axis=0)
    assert 0 < np.count_nonzero(expected) < expected.size
    for k in range(near.shape[1]):
        pair = np.stack([certain, near[:, k]], axis=1)
        assert DENSITY._density_positive(pair)[1] == expected[k], k


def _density_stage():
    scen = make_scenario("polytrope-2d")
    scheme = Scheme("la", 3)
    return make_operator(scen, grid_for(scen, 16, scheme.n_ghost),
                         scheme)._equilibrium


DENSITY = _density_stage()
