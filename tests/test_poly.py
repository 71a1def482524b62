import numpy as np
import pytest

from hydrobal.boundary import BoundarySpec2D
from hydrobal.eos import IdealGas
from hydrobal.grid import Grid2D
from hydrobal.operator2d import SpatialOperator2D
from hydrobal.poly import (
    poly_cell_average,
    poly_eval,
    poly_integrate,
    poly_mul,
)
from hydrobal.reconstruct import MONOMIALS_DEG2
from hydrobal.scheme import Scheme


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
    # cell (3, 3) of the ghosted arrays is centered at (1.5 hx, 1.5 hy)
    grid = Grid2D(0.0, 6 * hx, 0.0, 6 * hy, 6, 6, 2)
    return SpatialOperator2D(grid, Scheme("la", 3), IdealGas(1.4),
                             lambda x, y: gravity(x + 0 * y, y + 0 * x),
                             BoundarySpec2D(*["periodic"] * 4))


def line_integrals(op, rho):
    """Line integrals of (rho g_x, rho g_y) from the cell center to every
    evaluation node of the operator, with the node offsets (xi, eta);
    `rho` holds the density's coefficients over MONOMIALS_DEG2."""
    rec = np.zeros((4,) + op.grid.shape_tot + (6,))
    rec[0] = rho
    outer_x, outer_y = op._source_outers(rec)
    cell = np.ravel_multi_index((3, 3), op.grid.shape_tot)
    line = outer_x[cell] @ op._t_line_x + outer_y[cell] @ op._t_line_y
    xi, eta = (op._v2_all[MONOMIALS_DEG2.index(e)] for e in ((1, 0), (0, 1)))
    return line, xi, eta


def test_cell_average_2d_square():
    # mean of (x - x_i)^2 over an h-square: tensor antiderivative gives h^2/12
    h = 0.37
    op = operator_2d(lambda x, y: (1.0 + 0 * x, 0 * y), h, h)
    rec = np.zeros((4,) + op.grid.shape_tot + (6,))
    rec[0, ..., MONOMIALS_DEG2.index((2, 0))] = 1.0
    assert op._sources(rec)[1, 3, 3] == pytest.approx(h ** 2 / 12.0)


def test_cell_average_2d_neighbor_offset():
    # brute-force tensor quadrature oracle on the neighbor cells, whose
    # means the operator takes from its node tables
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(6)
    hx, hy = 0.1, 0.2
    op = operator_2d(lambda x, y: (0 * x, 0 * y), hx, hy)
    for ox, oy in ((1, 0), (-1, 1), (0, -1)):
        sl = op._sets[("nb", ox, oy)]
        table = (coeffs @ op._v2_all[:, sl]) @ op._wq
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
            return (r * value(op.gx_coeffs[3, 3], op._exps_g),
                    r * value(op.gy_coeffs[3, 3], op._exps_g))

        nodes, weights = np.polynomial.legendre.leggauss(8)
        for t in (0.25, 0.5, 0.9):
            split = 0.0
            for lo, hi in ((0.0, t), (t, 1.0)):
                u = lo + (hi - lo) * (nodes[:, None] + 1.0) / 2
                sx, sy = field(u * xi, u * eta)
                split = split + (hi - lo) / 2 * (weights
                                                 @ (sx * xi + sy * eta))
            np.testing.assert_allclose(line, split, rtol=1e-12, atol=1e-15)
