import importlib
import pkgutil

import numpy as np
import pytest

from hydrobal.boundary import BoundarySpec2D
from hydrobal.eos import IdealGas
from hydrobal.grid import Grid
from hydrobal.operator1d import SpatialOperator
from hydrobal.poly import poly_antiderivative, poly_eval, poly_mul
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import (
    MONOMIALS_DEG2,
    _unit_product_tables,
    monomials_1d,
    product_tables,
)
from hydrobal.scheme import Scheme
from hydrobal.wellbalance import equilibrium_points

from oracles import poly_cell_average, poly_integrate


def test_constant_integral():
    assert poly_integrate(np.array([1.0]), 0.0, 0.1) == pytest.approx(0.1)


def test_odd_symmetry():
    # p(x) = (x - x_i) integrated symmetrically around the anchor
    h = 0.31
    assert poly_integrate(np.array([0.0, 1.0]), -h, h) == pytest.approx(
        0.0, abs=1e-16)


def test_monomial_antiderivative():
    # (x - x_i)^2 from the anchor to x_i + h
    h = 0.25
    assert poly_integrate(np.array([0.0, 0.0, 1.0]), 0.0, h) == pytest.approx(
        h ** 3 / 3.0)


def test_extrapolated_integration_is_legal():
    coeffs = np.array([1.0, -2.0, 0.5])
    far = poly_integrate(coeffs, 3.0, 5.0)
    brute = np.trapezoid(poly_eval(coeffs, np.linspace(3, 5, 20001)),
                         np.linspace(3, 5, 20001))
    assert far == pytest.approx(brute, rel=1e-8)


def test_poly_mul_matches_numpy():
    rng = np.random.default_rng(7)
    c1 = rng.standard_normal((4, 3))
    c2 = rng.standard_normal((4, 5))
    prod = poly_mul(c1, c2)
    for i in range(4):
        np.testing.assert_allclose(prod[i], np.polynomial.polynomial.polymul(c1[i], c2[i]))


def test_cell_average_examples():
    assert poly_cell_average(np.array([3.0]), 0.2) == pytest.approx(3.0)
    assert poly_cell_average(np.array([0.0, 1.0]), 0.2) == pytest.approx(0.0, abs=1e-16)


# 2-D polynomials live in the 2-D operator's tables: monomials x^a y^b of
# total degree <= 2 (MONOMIALS_DEG2) for the reconstructions, biquadratic
# ones for the gravity interpolants


UNIT = np.eye(6)[0]   # rho = 1


def operator_2d(gravity, hx=0.1, hy=0.1):
    # cell (3, 3) of the ghosted arrays, band cell (2, 2) of the operator's
    # tables, is centered at (1.5 hx, 1.5 hy)
    grid = Grid((0.0, 6 * hx, 0.0, 6 * hy), (6, 6), 2)
    return SpatialOperator(grid, Scheme("la", 3), IdealGas(1.4),
                           lambda x, y: gravity(x + 0 * y, y + 0 * x),
                           BoundarySpec2D(*["periodic"] * 4))


def center_cell(op):
    """Column of cell (3, 3) in the operator's cells-last band arrays."""
    return np.ravel_multi_index((2, 2), op._shape)


def g_center(op):
    """Coefficients of (g_x, g_y) in cell (3, 3)."""
    return op._g_rows[:, :, center_cell(op)]


def line_integrals(op, rho):
    """Line integrals of (rho g_x, rho g_y) from the cell center to every
    evaluation node of the operator's LA stage, with the node offsets
    (xi, eta); `rho` holds the density's coefficients over MONOMIALS_DEG2."""
    stage = op._equilibrium
    line = stage._line_rows @ stage._terms(rho[:, None], [center_cell(op)])
    xi, eta = (stage._value_rows[:, MONOMIALS_DEG2.index(e)]
               for e in ((1, 0), (0, 1)))
    return line[:, 0], xi, eta


def test_cell_average_2d_square():
    # mean of (x - x_i)^2 over an h-square: tensor antiderivative gives h^2/12
    h = 0.37
    op = operator_2d(lambda x, y: (1.0 + 0 * x, 0 * y), h, h)
    rec = np.zeros((4, 6, np.prod(op._shape)))   # band cells last
    rec[0, MONOMIALS_DEG2.index((2, 0))] = 1.0
    assert op._sources(rec)[1, 2, 2] == pytest.approx(h ** 2 / 12.0)


def test_cell_average_2d_neighbor_offset():
    # brute-force tensor quadrature oracle on the neighbor cells, whose
    # means the operator takes from its node tables
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(6)
    hx, hy = 0.1, 0.2
    op = operator_2d(lambda x, y: (0 * x, 0 * y), hx, hy)
    for ox, oy in ((1, 0), (-1, 1), (0, -1)):
        cell = 3 * (ox + 1) + (oy + 1)
        sl = slice(4 * cell, 4 * cell + 4)   # 2 x 2 Gauss nodes per cell
        table = (op._equilibrium._value_rows[sl] @ coeffs) \
            @ op._equilibrium._wq
        xs = np.linspace(ox * hx - hx / 2, ox * hx + hx / 2, 801)
        ys = np.linspace(oy * hy - hy / 2, oy * hy + hy / 2, 801)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        vals = sum(c * xx ** a * yy ** b
                   for c, (a, b) in zip(coeffs, MONOMIALS_DEG2))
        brute = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs) / (hx * hy)
        assert table == pytest.approx(brute, rel=1e-6)


class TestLineIntegral2D:
    def test_constant_along_path(self):
        op = operator_2d(lambda x, y: (-1.0 + 0 * x, 0 * y))
        line, xi, eta = line_integrals(op, UNIT)
        np.testing.assert_allclose(line, -xi, atol=1e-15)

    def test_orthogonal_path(self):
        # a field along y integrates to zero along x: only eta contributes
        op = operator_2d(lambda x, y: (0 * x, -1.0 + 0 * y))
        line, xi, eta = line_integrals(op, UNIT)
        np.testing.assert_allclose(line, -eta, atol=1e-15)

    def test_linear_field_hand_oracle(self):
        # s = (-xi, -eta) from the center (0.15, 0.15) of cell (3, 3) to
        # (xi, eta): -(xi^2 + eta^2) / 2
        op = operator_2d(lambda x, y: (-(x - 0.15), -(y - 0.15)))
        line, xi, eta = line_integrals(op, UNIT)
        np.testing.assert_allclose(line, -(xi ** 2 + eta ** 2) / 2, atol=1e-15)

    def test_path_split_exactness(self):
        # the table value equals the path integral split at t into two legs,
        # each integrated by a Gauss rule exact for the polynomial integrand
        rng = np.random.default_rng(5)
        op = operator_2d(lambda x, y: (np.sin(3 * x - y), np.cos(2 * x * y)))
        rho = rng.standard_normal(6)
        line, xi, eta = line_integrals(op, rho)

        def field(x, y):
            def value(coeffs, exps):
                return sum(c * x ** a * y ** b
                           for c, (a, b) in zip(coeffs, exps))
            r = value(rho, MONOMIALS_DEG2)
            return tuple(r * value(g, op._exps[1]) for g in g_center(op))

        nodes, weights = np.polynomial.legendre.leggauss(8)
        for t in (0.25, 0.5, 0.9):
            split = 0.0
            for lo, hi in ((0.0, t), (t, 1.0)):
                u = lo + (hi - lo) * (nodes[:, None] + 1.0) / 2
                sx, sy = field(u * xi, u * eta)
                split = split + (hi - lo) / 2 * (weights
                                                 @ (sx * xi + sy * eta))
            np.testing.assert_allclose(line, split, rtol=1e-12, atol=1e-15)

    def test_gravity_contracted_rows(self):
        # the rows the ideal gas's equilibrium reads: the exact own-cell
        # mean of the line integral (against a 3 x 3 Gauss rule, exact for
        # its degree), the Gauss means over the 9 stencil cells and the
        # face nodes, all from the node values of the same integral
        rng = np.random.default_rng(6)
        op = operator_2d(lambda x, y: (np.sin(3 * x - y), np.cos(2 * x * y)),
                         0.1, 0.2)
        rho = rng.standard_normal(6)
        line, _, _ = line_integrals(op, rho)
        rows = rho @ op._equilibrium._lines[:, :, center_cell(op)]
        scale = np.max(np.abs(line))
        nodes, weights = gauss_nodes_weights_centered(3, 1.0)
        fine = product_tables(
            MONOMIALS_DEG2, op._exps[1],
            tuple((x, y) for x in nodes for y in nodes), op.grid.spacing)
        own = sum(np.outer(rho, g).ravel() @ table
                  for g, table in zip(g_center(op), fine.line))
        np.testing.assert_allclose(
            rows[0], own @ np.outer(weights, weights).ravel(), rtol=0,
            atol=1e-14 * scale)
        np.testing.assert_allclose(rows[1:10],
                                   line[:36].reshape(9, 4)
                                   @ op._equilibrium._wq,
                                   rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(rows[10:], line[36:], rtol=0,
                                   atol=1e-14 * scale)


# one product-basis table builder for both operators; the Horner helpers
# above are its reference only

def _horner_guard(monkeypatch):
    """Make every Horner helper raise, in `hydrobal.poly` and in each
    hydrobal module that imports one."""
    import hydrobal

    def make(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} called on the solver path")
        return refuse

    names = ("poly_eval", "poly_mul", "poly_antiderivative")
    for info in pkgutil.iter_modules(hydrobal.__path__):
        module = importlib.import_module(f"hydrobal.{info.name}")
        for name in names:
            if getattr(module, name, None) is getattr(hydrobal.poly, name):
                monkeypatch.setattr(module, name, make(name))
    for name in names:
        monkeypatch.setattr(hydrobal.poly, name, make(name))


def test_solver_has_one_polynomial_path(monkeypatch):
    from hydrobal.boundary import BoundarySpec1D
    from hydrobal.cases import (discrete_equilibrium_init, grid_for,
                                init_cell_averages, make_scenario)
    from hydrobal.runner import make_operator

    _horner_guard(monkeypatch)
    with pytest.raises(AssertionError, match="solver path"):
        importlib.import_module("hydrobal.operator1d").poly_eval(np.ones(2), 0.5)
    sides = (("isothermal-sin", ("periodic", "periodic")),
             ("isothermal-10x", ("dirichlet", "dirichlet")),
             ("isothermal-10x", ("hydrostatic-extrapolation", "solid-wall")))
    for name, bc in sides:
        for kind in ("standard", "dwb", "dwb-s", "la", "la-s"):
            for order in (3, 5):
                scen = make_scenario(name)
                scen.boundary = BoundarySpec1D(*bc)
                scheme = Scheme(kind, order)
                grid = grid_for(scen, 32, scheme.n_ghost)
                data = init_cell_averages(scen, grid).data
                op = make_operator(scen, grid, scheme)
                op.set_initial_state(data)
                assert np.all(np.isfinite(op.rhs(data)))
    scen = make_scenario("polytropic-radiation")
    scen.boundary = BoundarySpec1D("hydrostatic-extrapolation", "solid-wall")
    for order in (3, 5):
        scheme = Scheme("dwb", order)
        op = make_operator(scen, grid_for(scen, 64, scheme.n_ghost), scheme)
        field = discrete_equilibrium_init(scen, op)
        assert np.all(np.isfinite(field.data))
    scen = make_scenario("polytrope-2d", perturbation=1e-3)
    for kind in ("standard", "la"):
        scheme = Scheme(kind, 3)
        grid = grid_for(scen, 8, scheme.n_ghost)
        data = init_cell_averages(scen, grid).data
        op = make_operator(scen, grid, scheme)
        op.set_initial_state(data)
        assert np.all(np.isfinite(op.rhs(data)))


def _within(got, expected, tol=1e-14):
    scale = max(np.max(np.abs(expected)), 1e-300)
    assert np.max(np.abs(got - expected)) <= tol * scale


@pytest.mark.parametrize("order", [1, 3, 5])
def test_product_tables_match_horner_reference(order):
    # random polynomials at node sets inside and outside the cell, and at a
    # batched (cells, nodes) set gathered from the table columns
    rng = np.random.default_rng(order)
    h, exps = 0.37, monomials_1d(order)
    rec = rng.standard_normal((7, order))
    g = rng.standard_normal((7, order))
    inside = tuple((x,) for x in rng.uniform(-0.5, 0.5, 5))
    outside = tuple((x,) for x in rng.uniform(-3.5, 3.5, 5)) + ((-0.5,), (0.5,))
    reference = poly_antiderivative(poly_mul(rec, g))
    # coefficients of rec * g over the product basis, rec-major
    terms = (rec[:, :, None] * g[:, None]).reshape(len(rec), -1)
    for points in (inside, outside, equilibrium_points(3, 2)):
        tables = product_tables(exps, exps, points, (h,))
        x = h * np.ravel(points)
        _within(rec @ tables.values, poly_eval(rec[:, None, :], x))
        _within(terms @ tables.line[0],
                poly_eval(reference[:, None, :], x))
        _within(terms @ tables.means,
                poly_cell_average(poly_mul(rec, g), h))
    # cell i at its own shift d_i in -2..2: columns of `equilibrium_points`
    shift = rng.integers(-2, 3, rec.shape[0])
    cols = (shift + 2)[:, None] * 3 + np.arange(3)
    x = h * np.ravel(equilibrium_points(3, 2))[cols]
    rows = np.arange(rec.shape[0])[:, None]
    _within((rec @ tables.values)[rows, cols], poly_eval(rec[:, None, :], x))
    _within((terms @ tables.line[0])[rows, cols],
            poly_eval(reference[:, None, :], x))


def test_unit_tables_are_cached_read_only_and_shared():
    points = equilibrium_points(3, 2)
    exps = monomials_1d(5)
    unit = _unit_product_tables(exps, exps, points)
    assert _unit_product_tables(exps, exps, points) is unit
    for table in unit[0]:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
    # a second operator of the same order reuses every cached table
    from hydrobal.grid import Grid
    from hydrobal.operator1d import SpatialOperator
    from hydrobal.boundary import BoundarySpec1D

    def build(dx_cells):
        scheme = Scheme("la", 5)
        return SpatialOperator(
            Grid((0.0, 1.0), (dx_cells,), scheme.n_ghost), scheme,
            IdealGas(1.4),
            lambda x: -np.ones_like(x),
            BoundarySpec1D("hydrostatic-extrapolation", "solid-wall"))

    build(32)
    before = _unit_product_tables.cache_info()
    build(48)
    after = _unit_product_tables.cache_info()
    assert after.currsize == before.currsize and after.hits > before.hits


def test_physical_tables_scale_as_spacing_powers():
    # h -> 2h multiplies every entry by 2^k, k its power of the spacing
    exps = monomials_1d(5)
    points = equilibrium_points(3, 2)
    a = product_tables(exps, exps, points, (0.125,))
    b = product_tables(exps, exps, points, (0.25,))
    k = np.arange(5)
    terms = (k[:, None] + k).ravel()
    np.testing.assert_array_equal(b.values, a.values * 2.0 ** k[:, None])
    np.testing.assert_array_equal(b.line[0],
                                  a.line[0] * 2.0 ** (terms + 1)[:, None])
    np.testing.assert_array_equal(b.means, a.means * 2.0 ** terms)
    a2 = product_tables(MONOMIALS_DEG2, MONOMIALS_DEG2, ((0.3, -0.2),),
                        (0.125, 0.5))
    b2 = product_tables(MONOMIALS_DEG2, MONOMIALS_DEG2, ((0.3, -0.2),),
                        (0.25, 0.5))
    ax = np.array([a for a, _ in MONOMIALS_DEG2])
    tx = (ax[:, None] + ax).ravel()
    np.testing.assert_array_equal(b2.line[0],
                                  a2.line[0] * 2.0 ** (tx + 1)[:, None])
    np.testing.assert_array_equal(b2.line[1], a2.line[1] * 2.0 ** tx[:, None])
    np.testing.assert_array_equal(b2.line_means[1], a2.line_means[1] * 2.0 ** tx)
