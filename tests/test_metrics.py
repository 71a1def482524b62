import numpy as np
import pytest

from hydrobal.errors import ConfigurationError
from hydrobal.metrics import (
    convergence_rate,
    l1_error,
    restrict,
)


class TestL1:
    def test_zero_for_identical_fields(self):
        q = np.random.default_rng(0).random((3, 16))
        np.testing.assert_allclose(l1_error(q, q, 0.1), 0.0)

    def test_single_cell_deviation(self):
        q = np.zeros((3, 10))
        ref = q.copy()
        q[2, 4] = 0.7
        err = l1_error(q, ref, 0.1)
        np.testing.assert_allclose(err, [0.0, 0.0, 0.07])

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            l1_error(np.zeros((3, 8)), np.zeros((3, 16)), 0.1)


class TestRates:
    def test_known_ratios(self):
        assert convergence_rate(8.0, 1.0) == pytest.approx(3.0)
        assert convergence_rate(32.0, 1.0) == pytest.approx(5.0)

    def test_vector_components(self):
        rates = convergence_rate(np.array([8.0, 4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(rates, [3.0, 2.0])


class TestRestriction:
    def test_block_average_conservative(self):
        rng = np.random.default_rng(3)
        fine = rng.random((3, 64))
        coarse = restrict(fine, 4, 1)
        assert coarse.shape == (3, 16)
        np.testing.assert_allclose(coarse.sum(axis=-1) * 4, fine.sum(axis=-1))

    def test_exact_for_polynomial_averages(self):
        # cell averages of a cubic restrict exactly (antiderivative oracle)
        n = 64
        edges = np.linspace(0.0, 1.0, n + 1)
        anti = edges ** 4 / 4  # antiderivative of x^3
        fine = np.diff(anti) / np.diff(edges)
        coarse = restrict(fine, 4, 1)
        edges_c = np.linspace(0.0, 1.0, n // 4 + 1)
        expected = np.diff(edges_c ** 4 / 4) / np.diff(edges_c)
        np.testing.assert_allclose(coarse, expected, rtol=1e-14)

    def test_2d_shape_and_mean(self):
        rng = np.random.default_rng(4)
        fine = rng.random((4, 32, 32))
        coarse = restrict(fine, 8, 2)
        assert coarse.shape == (4, 4, 4)
        np.testing.assert_allclose(coarse.mean(), fine.mean(), rtol=1e-13)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            restrict(np.zeros((3, 10)), 4, 1)
