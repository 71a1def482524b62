import numpy as np
import pytest

from hydrobal.errors import ConfigurationError
from hydrobal.poly import poly_cell_average, poly_eval
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import (
    MONOMIALS_DEG2,
    Cweno1D,
    Cweno2D,
    GravityInterp1D,
    GravityInterp2D,
)


def sine_averages(n, x0=0.0, x1=1.0):
    """Exact cell averages of sin(2 pi x) on n cells (antiderivative oracle)."""
    edges = np.linspace(x0, x1, n + 1)
    anti = -np.cos(2 * np.pi * edges) / (2 * np.pi)
    return np.diff(anti) / np.diff(edges), np.diff(edges)[0]


class TestCweno1D:
    @pytest.mark.parametrize("order", [3, 5])
    def test_constant_data(self, order):
        scheme = Cweno1D(order, 0.1)
        coeffs = scheme.reconstruct_stencils(np.full(order, 4.2))
        assert coeffs[0] == pytest.approx(4.2)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-13)

    @pytest.mark.parametrize("order", [3, 5])
    def test_linear_data_reproduced(self, order):
        # exact averages of f(x) = x around a cell at x_i: average over offset j*h is j*h
        h = 0.05
        offs = np.arange(order) - (order - 1) // 2
        scheme = Cweno1D(order, h)
        coeffs = scheme.reconstruct_stencils(offs * h)
        expected = np.zeros(order)
        expected[1] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("order", [3, 5])
    def test_mean_conservation(self, order):
        rng = np.random.default_rng(10 + order)
        h = 0.02
        scheme = Cweno1D(order, h)
        data = rng.standard_normal((6, 40))
        coeffs = scheme.coefficients(data)
        r = scheme.radius
        means = poly_cell_average(coeffs[:, r:-r, :], h)
        np.testing.assert_allclose(means, data[:, r:-r], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("order", [3, 5])
    def test_convergence_order_on_sine(self, order):
        errors = []
        for n in (32, 64, 128, 256):
            avgs, h = sine_averages(n)
            scheme = Cweno1D(order, h)
            coeffs = scheme.coefficients(avgs)
            r = scheme.radius
            xi = np.linspace(-h / 2, h / 2, 9)
            centers = (np.arange(n) + 0.5) * h
            vals = poly_eval(coeffs[r:n - r, None, :], xi[None, :])
            exact = np.sin(2 * np.pi * (centers[r:n - r, None] + xi[None, :]))
            errors.append(np.max(np.abs(vals - exact)))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > order - 0.3

    def test_step_data_overshoot_bounded(self):
        # CWENO is not strictly TVD; allow a 10% overshoot margin
        h = 0.1
        for order in (3, 5):
            scheme = Cweno1D(order, h)
            data = np.where(np.arange(20) < 10, 0.0, 1.0).astype(float)
            coeffs = scheme.coefficients(data)
            r = scheme.radius
            faces = np.stack([poly_eval(coeffs[r:-r], -h / 2),
                              poly_eval(coeffs[r:-r], h / 2)])
            assert faces.min() > -0.1
            assert faces.max() < 1.1

    def test_order_one_is_piecewise_constant(self):
        scheme = Cweno1D(1, 0.3)
        data = np.array([1.0, 2.0, 3.0])
        coeffs = scheme.coefficients(data)
        np.testing.assert_allclose(coeffs[:, 0], data)

    def test_bad_order_rejected(self):
        with pytest.raises(ConfigurationError):
            Cweno1D(4, 0.1)


class TestGravityInterp1D:
    def test_constant(self):
        interp = GravityInterp1D(3, 0.1)
        coeffs = interp.coefficients(np.full(7, -1.0))
        np.testing.assert_allclose(coeffs[1:-1, 0], -1.0)
        np.testing.assert_allclose(coeffs[1:-1, 1:], 0.0, atol=1e-14)

    def test_linear_exact(self):
        h = 0.2
        centers = np.arange(5) * h
        coeffs = GravityInterp1D(3, h).coefficients(centers)
        xi = np.linspace(-h, h, 11)
        for i in (1, 2, 3):
            np.testing.assert_allclose(poly_eval(coeffs[i], xi),
                                       centers[i] + xi, atol=1e-14)

    def test_nodal_values_matched(self):
        rng = np.random.default_rng(2)
        h = 0.05
        for order in (3, 5):
            vals = rng.standard_normal(order)
            r = (order - 1) // 2
            coeffs = GravityInterp1D(order, h).coefficients(vals)[r]
            offs = (np.arange(order) - r) * h
            np.testing.assert_allclose(poly_eval(coeffs, offs), vals,
                                       atol=1e-12)

    def test_refinement_order_on_cosine(self):
        # g(x) = -2*pi*cos(2*pi*x) sampled at 5 centers: interpolant error O(h^5)
        g = lambda x: -2 * np.pi * np.cos(2 * np.pi * x)
        errors = []
        for n in (16, 32, 64):
            h = 1.0 / n
            centers = (np.arange(n) + 0.5) * h
            interp = GravityInterp1D(5, h)
            coeffs = interp.coefficients(g(centers))
            xi = np.linspace(-h / 2, h / 2, 7)
            vals = poly_eval(coeffs[2:-2, None, :], xi[None, :])
            exact = g(centers[2:-2, None] + xi[None, :])
            errors.append(np.max(np.abs(vals - exact)))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 4.6


class TestCweno2D:
    def test_constant_field(self):
        scheme = Cweno2D(0.1, 0.1)
        coeffs = scheme.reconstruct_stencils(np.full(9, 2.5))
        assert coeffs[0] == pytest.approx(2.5)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-13)

    def test_plane_reproduced(self):
        # averages of f(x, y) = x + 2y over cells equal center values
        hx = hy = 0.25
        vals = np.array([jx * hx + 2 * jy * hy
                         for jx in (-1, 0, 1) for jy in (-1, 0, 1)])
        scheme = Cweno2D(hx, hy)
        coeffs = scheme.reconstruct_stencils(vals)
        expected = np.zeros(6)
        expected[MONOMIALS_DEG2.index((1, 0))] = 1.0
        expected[MONOMIALS_DEG2.index((0, 1))] = 2.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)

    def test_mean_conservation(self):
        rng = np.random.default_rng(8)
        scheme = Cweno2D(0.1, 0.1)
        data = rng.standard_normal((4, 12, 9))
        coeffs = scheme.coefficients(data)
        # tensor Gauss rule, exact for the degree-2 reconstruction
        nodes, weights = gauss_nodes_weights_centered(2, 0.1)
        xi, eta = np.meshgrid(nodes, nodes, indexing="ij")
        mono = np.array([xi ** a * eta ** b for a, b in MONOMIALS_DEG2])
        means = np.einsum("...m,mij,i,j->...", coeffs[:, 1:-1, 1:-1, :], mono,
                          weights, weights) / 0.1 ** 2
        np.testing.assert_allclose(means, data[:, 1:-1, 1:-1], rtol=1e-13, atol=1e-13)

    def test_convergence_order_on_product_wave(self):
        # f(x, y) = sin(2 pi x) cos(2 pi y); exact averages via tensor antiderivatives
        errors = []
        for n in (16, 32, 64):
            h = 1.0 / n
            edges = np.linspace(0, 1, n + 1)
            ax = np.diff(-np.cos(2 * np.pi * edges) / (2 * np.pi)) / h
            ay = np.diff(np.sin(2 * np.pi * edges) / (2 * np.pi)) / h
            data = ax[:, None] * ay[None, :]
            scheme = Cweno2D(h, h)
            coeffs = scheme.coefficients(data)
            centers = (np.arange(n) + 0.5) * h
            xi = np.array([-h / 3, 0.0, h / 3])
            worst = 0.0
            for oi in xi:
                for oj in xi:
                    vals = np.zeros((n - 2, n - 2))
                    for m, (a, b) in enumerate(MONOMIALS_DEG2):
                        vals += coeffs[1:-1, 1:-1, m] * oi ** a * oj ** b
                    exact = (np.sin(2 * np.pi * (centers[1:-1, None] + oi))
                             * np.cos(2 * np.pi * (centers[None, 1:-1] + oj)))
                    worst = max(worst, np.max(np.abs(vals - exact)))
            errors.append(worst)
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.7


class TestGravityInterp2D:
    def test_constant_and_linear_exact(self):
        interp = GravityInterp2D(0.2, 0.2)
        flat = interp.coefficients(np.full((5, 5), 3.0))
        np.testing.assert_allclose(flat[1:-1, 1:-1, 0], 3.0)
        xs = np.arange(5) * 0.2
        field = xs[:, None] + 0.5 * xs[None, :]
        coeffs = interp.coefficients(field)
        got = coeffs[2, 2]
        expected = np.zeros(len(interp.exps))
        expected[interp.exps.index((0, 0))] = field[2, 2]
        expected[interp.exps.index((1, 0))] = 1.0
        expected[interp.exps.index((0, 1))] = 0.5
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_quadratic_reproduced(self):
        h = 0.1
        interp = GravityInterp2D(h, h)
        xs = np.arange(7) * h
        field = xs[:, None] ** 2 + xs[:, None] * xs[None, :] - 2 * xs[None, :] ** 2
        coeffs = interp.coefficients(field)
        xi, eta = 0.03, -0.04
        val = 0.0
        for m, (a, b) in enumerate(interp.exps):
            val += coeffs[3, 3, m] * xi ** a * eta ** b
        x, y = xs[3] + xi, xs[3] + eta
        assert val == pytest.approx(x ** 2 + x * y - 2 * y ** 2, abs=1e-13)

    def test_all_nodal_values_matched(self):
        rng = np.random.default_rng(9)
        h = 0.1
        interp = GravityInterp2D(h, h)
        field = rng.standard_normal((5, 5))
        coeffs = interp.coefficients(field)
        for jx in (-1, 0, 1):
            for jy in (-1, 0, 1):
                val = sum(coeffs[2, 2, m] * (jx * h) ** a * (jy * h) ** b
                          for m, (a, b) in enumerate(interp.exps))
                assert val == pytest.approx(field[2 + jx, 2 + jy], abs=1e-12)

    def test_smooth_field_third_order(self):
        g = lambda x, y: np.sin(2 * np.pi * x) * np.exp(y)
        errors = []
        for n in (16, 32, 64):
            h = 1.0 / n
            c = (np.arange(n) + 0.5) * h
            interp = GravityInterp2D(h, h)
            coeffs = interp.coefficients(g(c[:, None], c[None, :]))
            xi = h / 3.0
            vals = np.zeros((n - 2, n - 2))
            for m, (a, b) in enumerate(interp.exps):
                vals += coeffs[1:-1, 1:-1, m] * xi ** a * xi ** b
            exact = g(c[1:-1, None] + xi, c[None, 1:-1] + xi)
            errors.append(np.max(np.abs(vals - exact)))
        rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert rates[-1] > 2.7
