from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrobal.errors import ConfigurationError
from hydrobal.poly import poly_cell_average, poly_eval
from hydrobal.quadrature import gauss_nodes_weights_centered
from hydrobal.reconstruct import (
    MONOMIALS_DEG2,
    Cweno1D,
    Cweno2D,
    GravityInterp1D,
    GravityInterp2D,
    _average_fit_matrix,
    _cweno_1d_table,
    _embed,
    _optimal_matrix_2d,
    _plane_matrix_2d,
    _smoothness_form_1d,
    _smoothness_form_2d,
)

# the fixed profile of the property tests: deterministic, bounded
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)


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
        coeffs = np.swapaxes(scheme.coefficients(data), -1, -2)
        r = scheme.radius
        means = poly_cell_average(coeffs[:, r:-r, :], h)
        np.testing.assert_allclose(means, data[:, r:-r], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("order", [3, 5])
    def test_convergence_order_on_sine(self, order):
        errors = []
        for n in (32, 64, 128, 256):
            avgs, h = sine_averages(n)
            scheme = Cweno1D(order, h)
            coeffs = np.swapaxes(scheme.coefficients(avgs), -1, -2)
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
            coeffs = np.swapaxes(scheme.coefficients(data), -1, -2)
            r = scheme.radius
            faces = np.stack([poly_eval(coeffs[r:-r], -h / 2),
                              poly_eval(coeffs[r:-r], h / 2)])
            assert faces.min() > -0.1
            assert faces.max() < 1.1

    def test_order_one_is_piecewise_constant(self):
        scheme = Cweno1D(1, 0.3)
        data = np.array([1.0, 2.0, 3.0])
        coeffs = np.swapaxes(scheme.coefficients(data), -1, -2)
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
        means = np.einsum("cm...,mij,i,j->c...", coeffs[..., 1:-1, 1:-1],
                          mono, weights, weights) / 0.1 ** 2
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
                        vals += coeffs[m, 1:-1, 1:-1] * oi ** a * oj ** b
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


# ---------------------------------------------------------------------------
# compact blend table, layouts and cached tables
# ---------------------------------------------------------------------------

def _candidate_matrices(scheme):
    """Scaled candidate matrices (q, n_coeff, n_window) and linear weights
    (q,) from the exact fits, without the scheme's table: the one-sided
    candidates, then the central one, (opt - sum_k d_k cand_k) / d_0."""
    if isinstance(scheme, Cweno2D):
        opt = _optimal_matrix_2d()
        cands = [_plane_matrix_2d(sx, sy)
                 for sx, sy in ((-1, -1), (1, -1), (-1, 1), (1, 1))]
    else:
        order, half = scheme.order, scheme.order // 2
        stencil = list(range(-half, half + 1))
        opt = _embed(_average_fit_matrix(stencil, order - 1), stencil,
                     stencil, order)
        cands = [_embed(_average_fit_matrix(sub, half), stencil, sub, order)
                 for sub in (stencil[i:i + half + 1]
                             for i in range(half + 1))]
    # 1-D: 1/4 twice or 1/6 three times; 2-D: 1/8 four times; central 1/2
    dlin = [Fraction(1, 2 * len(cands))] * len(cands)
    cands = np.array(cands, dtype=object)
    central = (np.array(opt, dtype=object)
               - np.tensordot(np.array(dlin, dtype=object), cands, 1)) \
        / (1 - sum(dlin))
    return (np.concatenate([cands, central[None]]).astype(float),
            np.array(dlin + [1 - sum(dlin)], dtype=float))


def _physical_scale(scheme):
    """Scaled -> physical coefficient divisors dx^a (dy^b) per monomial."""
    spacing = (scheme.dx, scheme.dy) if isinstance(scheme, Cweno2D) \
        else (scheme.dx,)
    return np.prod(np.array(spacing) ** np.array(scheme.exps), axis=-1)


def _reference_blend(scheme, form, window):
    """The blend with beta = u^T A u on each candidate's scaled coefficients
    u, cells first, from the exact candidate matrices and the form A."""
    matrices, dlin = _candidate_matrices(scheme)
    m = window.shape[-1]
    flat = window.reshape(-1, m)
    center = flat[:, m // 2]
    coeffs = np.einsum("qkw,cw->cqk", matrices, flat - center[:, None])
    beta = np.einsum("cqk,kl,cql->cq", coeffs, form, coeffs)
    alpha = dlin / (scheme.eps_w + beta) ** 2
    weights = alpha / alpha.sum(axis=1, keepdims=True)
    scaled = np.einsum("cq,cqk->ck", weights, coeffs)
    scaled[:, 0] += center
    return (scaled / _physical_scale(scheme)).reshape(
        window.shape[:-1] + (matrices.shape[1],))


def _table_indicators(scheme, deviation):
    """beta (q, cells) of deviations (n_window, cells) from the compact
    table: the indicator weights times the squares of the trailing rows."""
    rows = scheme._table @ deviation
    return scheme._indicator @ rows[rows.shape[0]
                                    - scheme._indicator.shape[1]:] ** 2


# (scheme, its exact indicator form): 1-D orders 3 and 5, 2-D dy/dx 1, 0.5, 3
BLEND_CASES = [(Cweno1D(order, 0.02), _smoothness_form_1d(order))
               for order in (3, 5)] \
    + [(Cweno2D(0.02, 0.02 * ratio), _smoothness_form_2d(ratio))
       for ratio in (1.0, 0.5, 3.0)]
BLEND_IDS = ["1d-o3", "1d-o5", "2d-1", "2d-0.5", "2d-3"]


def _test_windows(m, rng):
    smooth = np.cumsum(rng.standard_normal((40, m)), axis=-1) * 0.1 + 2.0
    step = np.where(np.arange(m) < rng.integers(1, m, (40, 1)), 1.0, 10.0)
    near_constant = 1.0 + 1e-10 * rng.standard_normal((40, m))
    return {"smooth": smooth, "step": step, "near-constant": near_constant}


def _assert_matches_oracle(scheme, form, window, label):
    got = scheme.reconstruct_stencils(window)
    ref = _reference_blend(scheme, form, window)
    # compare scaled coefficients against the window scale
    scale = np.abs(window).max()
    dev = np.abs((got - ref) * _physical_scale(scheme)).max() / scale
    assert dev <= 1e-14, (label, dev)


class TestFactoredBlend:
    @pytest.mark.parametrize("case", range(5), ids=BLEND_IDS)
    def test_matches_quadratic_form_oracle(self, case):
        scheme, form = BLEND_CASES[case]
        m = scheme._table.shape[1]
        rng = np.random.default_rng(60 + case)
        for label, window in _test_windows(m, rng).items():
            _assert_matches_oracle(scheme, form, window, label)

    @pytest.mark.parametrize("case", range(5), ids=BLEND_IDS)
    def test_factor_reproduces_form(self, case):
        # on deviations (the center column dropped) the rows each candidate
        # owns give back its coefficients through the placement, and its
        # weighted squared indicator rows give back the form C^T A C
        scheme, form = BLEND_CASES[case]
        matrices, _ = _candidate_matrices(scheme)
        m = matrices.shape[-1]
        live = np.arange(m) != m // 2
        table = scheme._table[:, live]
        n_coeff_rows = scheme._owner.size
        place = scheme._collect * _physical_scale(scheme)[:, None]
        indicated = table[table.shape[0] - scheme._indicator.shape[1]:]
        for k, matrix in enumerate(matrices[:, :, live]):
            mine = scheme._owner == k
            np.testing.assert_array_equal(
                place[:, mine] @ table[:n_coeff_rows][mine], matrix)
            implied = indicated.T @ (scheme._indicator[k][:, None]
                                     * indicated)
            exact = matrix.T @ form @ matrix
            assert np.abs(implied - exact).max() \
                <= 1e-15 * np.abs(exact).max()

    @pytest.mark.parametrize("case", range(5), ids=BLEND_IDS)
    def test_indicators_nonnegative_and_exact(self, case):
        scheme, form = BLEND_CASES[case]
        matrices, _ = _candidate_matrices(scheme)
        m = scheme._table.shape[1]
        rng = np.random.default_rng(70 + case)
        for label, window in _test_windows(m, rng).items():
            deviation = (window - window[:, m // 2, None]).T.copy()
            beta = _table_indicators(scheme, deviation)
            assert np.all(beta >= 0.0), label
            coeffs = matrices @ deviation
            exact = np.einsum("qkc,kl,qlc->qc", coeffs, form, coeffs)
            np.testing.assert_allclose(beta, exact, rtol=1e-12,
                                       atol=1e-15 * np.abs(exact).max())
        # rough windows hold every indicator away from zero: relative only
        window = rng.standard_normal((m, 200))
        deviation = window - window[m // 2]
        beta = _table_indicators(scheme, deviation)
        coeffs = matrices @ deviation
        exact = np.einsum("qkc,kl,qlc->qc", coeffs, form, coeffs)
        assert np.all(beta >= 0.0)
        np.testing.assert_allclose(beta, exact, rtol=1e-12, atol=0.0)

    def test_rows_are_each_candidates_support(self):
        # deviations leave 2 rows per plane and 6 central rows in 2-D, and
        # only the 1-D order-5 central polynomial adds 4 factor rows
        assert [scheme._table.shape[0] for scheme, _ in BLEND_CASES] \
            == [5, 18, 14, 14, 14]
        assert Cweno1D(1, 0.1)._table.shape == (0, 1)


def _property_windows(kind, m, magnitude, rng):
    """Eight windows (8, m) of one kind at one magnitude."""
    if kind == "smooth":
        unit = 2.0 + 0.1 * np.cumsum(rng.standard_normal((8, m)), axis=-1)
    elif kind == "step":
        unit = np.where(np.arange(m) < rng.integers(1, m, (8, 1)), 1.0, 10.0)
    elif kind == "flat":
        unit = 1.0 + 1e-10 * rng.standard_normal((8, m))
    else:
        unit = rng.standard_normal((8, m))
    return magnitude * unit


class TestBlendProperty:
    @PROPERTY
    @given(case=st.integers(0, 4),
           kind=st.sampled_from(["smooth", "step", "flat", "rough"]),
           exponent=st.floats(-8.0, 8.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_blend_matches_oracle_with_unit_weights(self, case, kind,
                                                    exponent, seed):
        scheme, form = BLEND_CASES[case]
        m = scheme._table.shape[1]
        window = _property_windows(kind, m, 10.0 ** exponent,
                                   np.random.default_rng(seed))
        _assert_matches_oracle(scheme, form, window, kind)
        beta = _table_indicators(scheme, (window - window[:, m // 2, None]).T)
        assert np.all(beta >= 0.0)
        alpha = scheme._dlin[:, None] / (scheme.eps_w + beta) ** 2
        weights = alpha / alpha.sum(axis=0)
        assert np.all(np.isfinite(weights))
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, rtol=0.0,
                                   atol=1e-15)


class TestRegularization:
    @pytest.mark.parametrize("eps_w", [1e-300, 1e200, np.inf, np.nan])
    def test_overflowing_eps_w_rejected_by_both_schemes(self, eps_w):
        for make in (lambda: Cweno1D(3, 0.1, eps_w),
                     lambda: Cweno1D(5, 0.1, eps_w),
                     lambda: Cweno2D(0.1, 0.2, eps_w)):
            with pytest.raises(ConfigurationError, match="eps_w"):
                make()

    @pytest.mark.parametrize("eps_w", [1e-150, 1e150])
    def test_eps_w_with_a_normal_square_accepted(self, eps_w):
        assert Cweno1D(3, 0.1, eps_w).eps_w == eps_w
        assert Cweno2D(0.1, 0.2, eps_w).eps_w == eps_w


class TestBlendLayouts:
    @pytest.mark.parametrize("order", [3, 5])
    def test_1d_layouts_identical(self, order):
        rng = np.random.default_rng(80 + order)
        scheme = Cweno1D(order, 0.03)
        values = np.cumsum(rng.standard_normal((3, 40)), axis=-1)
        strided = np.lib.stride_tricks.sliding_window_view(values, order,
                                                           axis=-1)
        self._assert_layouts(scheme, strided)

    def test_2d_layouts_identical(self):
        rng = np.random.default_rng(90)
        scheme = Cweno2D(0.03, 0.05)
        values = np.cumsum(rng.standard_normal((3, 9, 9)), axis=-1)
        windows = np.lib.stride_tricks.sliding_window_view(
            values, (3, 3), axis=(-2, -1)).reshape(3, 49, 9)
        # a strided view: every other row of a batch with each window twice
        self._assert_layouts(scheme, np.repeat(windows, 2, axis=1)[:, ::2])
        # the stencil over two leading axes, as the field's strided view
        leading = np.moveaxis(windows.reshape(3, 49, 3, 3), (2, 3), (0, 1))
        np.testing.assert_array_equal(
            scheme.reconstruct_stencils(leading, axis=(0, 1)),
            np.moveaxis(scheme.reconstruct_stencils(windows), -1, 0))

    def test_2d_cells_last_is_the_cells_first_fit_moved(self):
        # the cells-last coefficients are the cells-first fit of every
        # flattened window with its coefficient axis moved, bit for bit;
        # the edge cells keep their average
        rng = np.random.default_rng(91)
        scheme = Cweno2D(0.03, 0.05)
        values = np.cumsum(rng.standard_normal((4, 11, 9)), axis=-1)
        windows = np.lib.stride_tricks.sliding_window_view(
            values, (3, 3), axis=(-2, -1)).reshape(4, 9, 7, 9)
        cells_first = np.zeros(values.shape + (6,))
        cells_first[..., 0] = values
        cells_first[:, 1:-1, 1:-1] = scheme.reconstruct_stencils(windows)
        np.testing.assert_array_equal(scheme.coefficients(values),
                                      np.moveaxis(cells_first, -1, -3))

    @staticmethod
    def _assert_layouts(scheme, strided):
        """Leading shape (3, n, m): strided view, contiguous, Fortran-ordered,
        flattened and window-by-window calls give identical coefficients."""
        assert strided.ndim == 3 and not strided.flags.c_contiguous
        m = strided.shape[-1]
        ref = scheme.reconstruct_stencils(np.ascontiguousarray(strided))
        assert ref.shape == strided.shape[:-1] + (len(scheme.exps),)
        for variant in (strided, np.asfortranarray(strided)):
            np.testing.assert_array_equal(
                scheme.reconstruct_stencils(variant), ref)
        np.testing.assert_array_equal(
            scheme.reconstruct_stencils(strided.reshape(-1, m)),
            ref.reshape(-1, ref.shape[-1]))
        for i in range(strided.shape[0]):
            for j in range(strided.shape[1]):
                single = scheme.reconstruct_stencils(strided[i, j])
                assert single.shape == ref.shape[-1:]
                np.testing.assert_array_equal(single, ref[i, j])

    def test_order_one_is_the_cell_average(self):
        scheme = Cweno1D(1, 0.3)
        values = np.random.default_rng(5).standard_normal((3, 17))
        coeffs = scheme.reconstruct_stencils(values[..., None])
        assert coeffs.shape == (3, 17, 1)
        np.testing.assert_array_equal(coeffs[..., 0], values)
        np.testing.assert_array_equal(scheme.coefficients(values)[..., 0, :],
                                      values)


class TestCachedTables:
    def test_cweno_1d_tables_shared_and_read_only(self):
        a, b = Cweno1D(5, 0.1), Cweno1D(5, 0.037)
        for name in ("_table", "_indicator", "_owner", "_dlin"):
            assert getattr(a, name) is getattr(b, name)
            with pytest.raises(ValueError):
                getattr(a, name)[0] = 1.0
        assert Cweno1D(3, 0.1)._table is not a._table
        # the placement is per spacing, 1/scale folded into the cached one
        for scheme in (a, b):
            np.testing.assert_array_equal(
                scheme._collect,
                _cweno_1d_table(5).place / _physical_scale(scheme)[:, None])
            with pytest.raises(ValueError):
                scheme._collect[0, 0] = 1.0

    def test_cweno_2d_tables_shared_by_aspect_ratio(self):
        a, b = Cweno2D(0.1, 0.05), Cweno2D(0.2, 0.1)
        assert a._table is b._table and a._indicator is b._indicator
        assert Cweno2D(0.1, 0.1)._table is not a._table
        with pytest.raises(ValueError):
            a._table[0, 0] = 1.0

    def test_gravity_tables_shared(self):
        a, b = GravityInterp1D(5, 0.1), GravityInterp1D(5, 0.3)
        assert a._matrix is b._matrix
        assert GravityInterp1D(3, 0.1)._matrix is not a._matrix
        c, d = GravityInterp2D(0.1, 0.2), GravityInterp2D(0.3, 0.3)
        assert c._matrix is d._matrix
        for table in (a._matrix, c._matrix):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_coefficient_k_scales_as_dx_power(self):
        rng = np.random.default_rng(12)
        window = np.cumsum(rng.standard_normal((30, 5)), axis=-1)
        h = 0.013
        coarse = Cweno1D(5, h, eps_w=1e-3).reconstruct_stencils(window)
        for factor in (2.0, 0.1, 7.0):
            fine = Cweno1D(5, factor * h, eps_w=1e-3).reconstruct_stencils(
                window)
            np.testing.assert_allclose(fine * factor ** np.arange(5), coarse,
                                       rtol=1e-14, atol=0.0)
