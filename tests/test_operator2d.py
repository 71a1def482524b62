import numpy as np
import pytest

from hydrobal.boundary import BoundarySpec2D
from hydrobal.cases import (
    Scenario,
    grid_for,
    init_cell_averages,
    isothermal_1d,
    polytrope_2d,
)
from hydrobal.eos import IdealGas, IdealGasRadiation
from hydrobal.grid import Grid
from hydrobal.integrate import StepController, advance, tableau_for_order
from hydrobal.metrics import l1_error
from hydrobal.operator2d import SpatialOperator2D
from hydrobal.runner import make_operator, run
from hydrobal.scheme import Scheme


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
    op2 = SpatialOperator2D(grid2, scheme, scen2.eos, scen2.gravity,
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
    op = SpatialOperator2D(grid, scheme, scen.eos, scen.gravity, scen.boundary)
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
        SpatialOperator2D(Grid((0, 1, 0, 1), (n_x, n_y), scheme.n_ghost),
                          scheme, scen.eos, scen.gravity, scen.boundary)
    with pytest.raises(ConfigurationError, match="n = 1 x 1 cells"):
        run(scen, scheme, 1, t_end=0.01)
    SpatialOperator2D(Grid((0, 1, 0, 1), (2, 2), scheme.n_ghost), scheme,
                      scen.eos, scen.gravity, scen.boundary)
