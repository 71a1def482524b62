import numpy as np
import pytest

from hydrobal.errors import ConfigurationError
from hydrobal.quadrature import gauss_legendre

from oracles import poly_integrate


def test_midpoint_rule():
    nodes, weights = gauss_legendre(1, (-1.0, 1.0))
    assert nodes == pytest.approx([0.0])
    assert weights == pytest.approx([2.0])


def test_two_point_rule():
    nodes, weights = gauss_legendre(2, (-1.0, 1.0))
    assert sorted(nodes) == pytest.approx([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
    assert weights == pytest.approx([1.0, 1.0])


def test_quartic_exact_with_three_nodes():
    # analytic antiderivative: integral of x^4 over [0,1] is 1/5
    nodes, weights = gauss_legendre(3, (0.0, 1.0))
    assert np.sum(weights * nodes ** 4) == pytest.approx(0.2, abs=1e-15)


def test_weights_sum_to_interval_length():
    for order in range(1, 6):
        _, weights = gauss_legendre(order, (-0.3, 1.7))
        assert np.sum(weights) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_exact_for_polynomials_up_to_design_degree(order):
    rng = np.random.default_rng(1234 + order)
    a, b = -0.4, 0.9
    nodes, weights = gauss_legendre(order, (a, b))
    for _ in range(20):
        deg = rng.integers(0, 2 * order)
        coeffs = rng.standard_normal(deg + 1)
        exact = poly_integrate(coeffs, a, b)  # coefficients around anchor 0
        quad = np.sum(weights * np.polynomial.polynomial.polyval(nodes, coeffs))
        assert quad == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_unsupported_order_rejected():
    with pytest.raises(ConfigurationError):
        gauss_legendre(6)
    with pytest.raises(ConfigurationError):
        gauss_legendre(0)
    with pytest.raises(ConfigurationError):
        gauss_legendre(3, (1.0, 1.0))
