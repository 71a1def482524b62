"""CWENO reconstruction of cell averages and gravity interpolation.

1-D orders 3 and 5 (plus the degenerate piecewise-constant order 1 used by
the first-order reference scheme) and the 3x3-stencil third-order 2-D
variant.  Candidate-polynomial matrices and smoothness-indicator quadratic
forms are assembled once per scheme with exact rational arithmetic, so the
per-cell work reduces to a few batched matrix products.

Coefficients come out in cell-local coordinates: scaled internally
(powers of (x - x_i)/dx), physical (powers of (x - x_i)) at the API.
"""

from fractions import Fraction
from math import factorial

import numpy as np

from .errors import ConfigurationError

HALF = Fraction(1, 2)


def _fraction_solve(a, b):
    """Exact Gaussian elimination; a is n x n, b is n x m (lists of Fractions)."""
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _cell_average_moment(j, k):
    """Mean of xi^k over the cell with center offset j (unit cell width)."""
    return ((j + HALF) ** (k + 1) - (j - HALF) ** (k + 1)) / (k + 1)


def _average_fit_matrix(offsets, degree):
    """Exact map from cell averages on `offsets` to polynomial coefficients."""
    a = [[_cell_average_moment(j, k) for k in range(degree + 1)] for j in offsets]
    identity = [[Fraction(int(i == j)) for j in range(len(offsets))]
                for i in range(len(offsets))]
    return _fraction_solve(a, identity)


def _even_moment(m):
    # integral of xi^m over [-1/2, 1/2]
    return Fraction(1, 2 ** m * (m + 1)) if m % 2 == 0 else Fraction(0)


def _smoothness_form_1d(n_coeff):
    """Quadratic form A with beta = u^T A u on scaled coefficients."""
    a = np.zeros((n_coeff, n_coeff))
    for k in range(n_coeff):
        for l in range(n_coeff):
            total = Fraction(0)
            for d in range(1, min(k, l) + 1):
                ck = Fraction(factorial(k), factorial(k - d))
                cl = Fraction(factorial(l), factorial(l - d))
                total += ck * cl * _even_moment(k + l - 2 * d)
            a[k, l] = float(total)
    return a


def _embed(matrix, stencil_offsets, sub_offsets, n_coeff):
    """Lift a candidate matrix to full stencil columns and n_coeff rows."""
    out = [[Fraction(0)] * len(stencil_offsets) for _ in range(n_coeff)]
    col = {j: idx for idx, j in enumerate(stencil_offsets)}
    for r, row in enumerate(matrix):
        for c, j in enumerate(sub_offsets):
            out[r][col[j]] = row[c]
    return out


class Cweno1D:
    """CWENO reconstruction for one grid spacing.

    Candidates per spec defaults: order 3 uses two one-sided linears plus a
    central parabola with linear weights (1/4, 1/4, 1/2); order 5 uses three
    quadratics plus a degree-4 central polynomial with weights (1/6 x3, 1/2).
    The regularization is eps_w = dx**2.
    """

    def __init__(self, order, dx, eps_w=None):
        if order not in (1, 3, 5):
            raise ConfigurationError(f"unsupported reconstruction order {order}")
        self.order = order
        self.dx = float(dx)
        self.radius = (order - 1) // 2
        self.eps_w = float(eps_w) if eps_w is not None else self.dx ** 2
        self.stencil = list(range(-self.radius, self.radius + 1))
        self._build()
        # powers for scaled -> physical conversion
        self._dx_pow = self.dx ** np.arange(order, dtype=float)

    def _build(self):
        m = self.order
        if m == 1:
            self._matrices = np.ones((1, 1, 1))
            self._dlin = np.array([1.0])
            self._beta_form = np.zeros((1, 1))
            return
        opt = _embed(_average_fit_matrix(self.stencil, m - 1),
                     self.stencil, self.stencil, m)
        if m == 3:
            subs = [[-1, 0], [0, 1]]
            dlin = [Fraction(1, 4), Fraction(1, 4)]
        else:
            subs = [[-2, -1, 0], [-1, 0, 1], [0, 1, 2]]
            dlin = [Fraction(1, 6)] * 3
        d0 = 1 - sum(dlin)
        cands = [_embed(_average_fit_matrix(s, len(s) - 1), self.stencil, s, m)
                 for s in subs]
        central = [[(opt[r][c] - sum(d * cand[r][c] for d, cand in zip(dlin, cands))) / d0
                    for c in range(m)] for r in range(m)]
        self._matrices = np.array([[[float(x) for x in row] for row in mat]
                                   for mat in cands + [central]])
        self._n_cand = self._matrices.shape[0]
        # (m, q*m) layout so all candidates come out of one matrix product
        self._matrices_flat = np.ascontiguousarray(
            self._matrices.transpose(2, 0, 1).reshape(m, -1))
        self._dlin = np.array([float(d) for d in dlin] + [float(d0)])
        self._beta_form = _smoothness_form_1d(m)

    def reconstruct_stencils(self, window):
        """Stencil values (..., m) -> physical coefficients (..., m)."""
        window = np.asarray(window, dtype=float)
        if self.order == 1:
            return window[..., :1].copy()
        # work on deviations from the central average: every candidate
        # reproduces constants exactly, so this removes cancellation noise
        lead = window.shape[:-1]
        m = self.order
        flat = window.reshape(-1, m)
        center = flat[:, self.radius]
        deviation = flat - center[:, None]
        # all candidates in one product: (cells, m) @ (m, q*m)
        coeffs = (deviation @ self._matrices_flat).reshape(-1, self._n_cand, m)
        tmp = (coeffs.reshape(-1, m) @ self._beta_form).reshape(coeffs.shape)
        beta = (tmp * coeffs).sum(axis=-1)
        alpha = self._dlin / (self.eps_w + beta) ** 2
        weights = alpha / alpha.sum(axis=1, keepdims=True)
        scaled = weights[:, 0, None] * coeffs[:, 0]
        for q in range(1, self._n_cand):
            scaled += weights[:, q, None] * coeffs[:, q]
        scaled[:, 0] += center
        return (scaled / self._dx_pow).reshape(lead + (m,))

    def coefficients(self, values):
        """Per-cell polynomials for a whole field (..., n_tot).

        Cells whose stencil does not fit keep a constant polynomial.
        """
        values = np.asarray(values, dtype=float)
        n = values.shape[-1]
        out = np.zeros(values.shape + (self.order,))
        out[..., 0] = values
        if self.radius > 0 and n >= self.order:
            win = np.lib.stride_tricks.sliding_window_view(values, self.order, axis=-1)
            out[..., self.radius:n - self.radius, :] = self.reconstruct_stencils(win)
        return out


class GravityInterp1D:
    """Degree m-1 interpolation of cell-centered gravity point values."""

    def __init__(self, order, dx):
        if order not in (1, 3, 5):
            raise ConfigurationError(f"unsupported interpolation order {order}")
        self.order = order
        self.dx = float(dx)
        self.radius = (order - 1) // 2
        offsets = range(-self.radius, self.radius + 1)
        vand = [[Fraction(j) ** k for k in range(order)] for j in offsets]
        ident = [[Fraction(int(i == j)) for j in range(order)] for i in range(order)]
        self._matrix = np.array(_fraction_solve(vand, ident), dtype=float)
        self._dx_pow = self.dx ** np.arange(order, dtype=float)

    def coefficients(self, values):
        """Point values (n_tot,) -> physical coefficients (n_tot, m)."""
        values = np.asarray(values, dtype=float)
        n = values.shape[-1]
        out = np.zeros(values.shape + (self.order,))
        out[..., 0] = values
        if self.radius > 0 and n >= self.order:
            win = np.lib.stride_tricks.sliding_window_view(values, self.order, axis=-1)
            center = win[..., self.radius]
            scaled = np.einsum("kj,...j->...k", self._matrix, win - center[..., None])
            scaled[..., 0] += center
            out[..., self.radius:n - self.radius, :] = scaled / self._dx_pow
        return out


# ---------------------------------------------------------------------------
# 2-D third-order CWENO on the 3x3 stencil
# ---------------------------------------------------------------------------

# exponents (a, b) of x^a y^b with a + b <= 2, ordered by total degree
MONOMIALS_DEG2 = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _optimal_matrix_2d():
    """Central paraboloid from difference quotients of the 3x3 averages.

    Slopes and curvatures from axis differences of the cell means, the cross
    term from the corner difference; the constant keeps the central mean
    exact.  This reproduces the means of all four axis neighbors exactly,
    which the equilibrium extrapolation benefits from.
    """
    n = len(MONOMIALS_DEG2)
    out = [[Fraction(0)] * 9 for _ in range(n)]

    def col(jx, jy):
        return 3 * (jx + 1) + (jy + 1)

    idx = {ab: m for m, ab in enumerate(MONOMIALS_DEG2)}
    out[idx[(1, 0)]][col(1, 0)] = Fraction(1, 2)
    out[idx[(1, 0)]][col(-1, 0)] = Fraction(-1, 2)
    out[idx[(0, 1)]][col(0, 1)] = Fraction(1, 2)
    out[idx[(0, 1)]][col(0, -1)] = Fraction(-1, 2)
    out[idx[(2, 0)]][col(1, 0)] = Fraction(1, 2)
    out[idx[(2, 0)]][col(-1, 0)] = Fraction(1, 2)
    out[idx[(2, 0)]][col(0, 0)] = Fraction(-1)
    out[idx[(0, 2)]][col(0, 1)] = Fraction(1, 2)
    out[idx[(0, 2)]][col(0, -1)] = Fraction(1, 2)
    out[idx[(0, 2)]][col(0, 0)] = Fraction(-1)
    out[idx[(1, 1)]][col(1, 1)] = Fraction(1, 4)
    out[idx[(1, 1)]][col(-1, -1)] = Fraction(1, 4)
    out[idx[(1, 1)]][col(1, -1)] = Fraction(-1, 4)
    out[idx[(1, 1)]][col(-1, 1)] = Fraction(-1, 4)
    for j in range(9):
        out[idx[(0, 0)]][j] = Fraction(int(j == col(0, 0))) \
            - Fraction(1, 12) * (out[idx[(2, 0)]][j] + out[idx[(0, 2)]][j])
    return out


def _plane_matrix_2d(sx, sy):
    """Plane through averages at (0,0), (sx,0), (0,sy); rows over MONOMIALS_DEG2."""
    out = [[Fraction(0)] * 9 for _ in range(len(MONOMIALS_DEG2))]

    def col(jx, jy):
        return 3 * (jx + 1) + (jy + 1)

    out[0][col(0, 0)] = Fraction(1)
    out[1][col(sx, 0)] = Fraction(sx)
    out[1][col(0, 0)] = Fraction(-sx)
    out[2][col(0, sy)] = Fraction(sy)
    out[2][col(0, 0)] = Fraction(-sy)
    return out


def _smoothness_form_2d(ratio):
    """Quadratic form for the 2-D indicator on scaled deg-2 coefficients.

    beta = sum over derivative multi-indices alpha with |alpha| in {1, 2} of
    |cell|^(|alpha|-1) * integral of (D^alpha P)^2; `ratio` = dy/dx enters for
    anisotropic cells.
    """
    n = len(MONOMIALS_DEG2)
    form = np.zeros((n, n))
    for p, q in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        aniso = ratio ** (p - q)
        for i, (a1, b1) in enumerate(MONOMIALS_DEG2):
            if a1 < p or b1 < q:
                continue
            for j, (a2, b2) in enumerate(MONOMIALS_DEG2):
                if a2 < p or b2 < q:
                    continue
                c1 = factorial(a1) // factorial(a1 - p) * (factorial(b1) // factorial(b1 - q))
                c2 = factorial(a2) // factorial(a2 - p) * (factorial(b2) // factorial(b2 - q))
                mom = _even_moment(a1 + a2 - 2 * p) * _even_moment(b1 + b2 - 2 * q)
                form[i, j] += aniso * c1 * c2 * float(mom)
    return form


class Cweno2D:
    """Third-order CWENO on a 3x3 stencil, total degree 2.

    One central quadratic (linear weight 1/2) plus four one-sided planes
    (1/8 each); eps_w = dx*dy.
    """

    def __init__(self, dx, dy, eps_w=None):
        self.order = 3
        self.radius = 1
        self.dx = float(dx)
        self.dy = float(dy)
        self.eps_w = float(eps_w) if eps_w is not None else self.dx * self.dy
        planes = [_plane_matrix_2d(sx, sy)
                  for sx, sy in ((-1, -1), (1, -1), (-1, 1), (1, 1))]
        dlin = [Fraction(1, 8)] * 4
        d0 = 1 - sum(dlin)
        opt = _optimal_matrix_2d()
        n = len(MONOMIALS_DEG2)
        central = [[(opt[r][c] - sum(d * p[r][c] for d, p in zip(dlin, planes))) / d0
                    for c in range(9)] for r in range(n)]
        self._matrices = np.array([[[float(x) for x in row] for row in mat]
                                   for mat in planes + [central]])
        self._n_cand = self._matrices.shape[0]
        self._matrices_flat = np.ascontiguousarray(
            self._matrices.transpose(2, 0, 1).reshape(9, -1))
        self._dlin = np.array([float(d) for d in dlin] + [float(d0)])
        self._beta_form = _smoothness_form_2d(self.dy / self.dx)
        self._scale = np.array([self.dx ** a * self.dy ** b
                                for (a, b) in MONOMIALS_DEG2])

    def reconstruct_stencils(self, window):
        """Stencil values (..., 9) ordered by (x offset, y offset) -> coeffs (..., 6)."""
        window = np.asarray(window, dtype=float)
        lead = window.shape[:-1]
        n = len(MONOMIALS_DEG2)
        flat = window.reshape(-1, 9)
        center = flat[:, 4]
        deviation = flat - center[:, None]
        coeffs = (deviation @ self._matrices_flat).reshape(-1, self._n_cand, n)
        tmp = (coeffs.reshape(-1, n) @ self._beta_form).reshape(coeffs.shape)
        beta = (tmp * coeffs).sum(axis=-1)
        alpha = self._dlin / (self.eps_w + beta) ** 2
        weights = alpha / alpha.sum(axis=1, keepdims=True)
        scaled = weights[:, 0, None] * coeffs[:, 0]
        for q in range(1, self._n_cand):
            scaled += weights[:, q, None] * coeffs[:, q]
        scaled[:, 0] += center
        return (scaled / self._scale).reshape(lead + (n,))

    def coefficients(self, values):
        """Field (..., nx, ny) -> per-cell coefficients (..., nx, ny, 6)."""
        values = np.asarray(values, dtype=float)
        nx, ny = values.shape[-2:]
        out = np.zeros(values.shape + (len(MONOMIALS_DEG2),))
        out[..., 0] = values
        if nx >= 3 and ny >= 3:
            win = np.lib.stride_tricks.sliding_window_view(values, (3, 3), axis=(-2, -1))
            win = win.reshape(win.shape[:-2] + (9,))
            out[..., 1:nx - 1, 1:ny - 1, :] = self.reconstruct_stencils(win)
        return out


MONOMIALS_BIQUAD = [(a, b) for a in range(3) for b in range(3)]


class GravityInterp2D:
    """Tensor biquadratic interpolation of 3x3 cell-centered point values.

    Matches all nine nodal values exactly (so in particular reproduces any
    total-degree-2 field on the stencil).
    """

    def __init__(self, dx, dy):
        self.radius = 1
        self.dx = float(dx)
        self.dy = float(dy)
        self.exps = MONOMIALS_BIQUAD
        offsets = [(jx, jy) for jx in (-1, 0, 1) for jy in (-1, 0, 1)]
        vand = [[Fraction(jx) ** a * Fraction(jy) ** b for (a, b) in self.exps]
                for (jx, jy) in offsets]
        ident = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]
        self._matrix = np.array([[float(x) for x in row]
                                 for row in _fraction_solve(vand, ident)])
        self._scale = np.array([self.dx ** a * self.dy ** b
                                for (a, b) in self.exps])

    def coefficients(self, values):
        """Point values (..., nx, ny) -> coefficients (..., nx, ny, 9)."""
        values = np.asarray(values, dtype=float)
        nx, ny = values.shape[-2:]
        out = np.zeros(values.shape + (len(self.exps),))
        out[..., 0] = values
        if nx >= 3 and ny >= 3:
            win = np.lib.stride_tricks.sliding_window_view(values, (3, 3), axis=(-2, -1))
            win = win.reshape(win.shape[:-2] + (9,))
            center = win[..., 4]
            scaled = np.einsum("kj,...j->...k", self._matrix, win - center[..., None])
            scaled[..., 0] += center
            out[..., 1:nx - 1, 1:ny - 1, :] = scaled / self._scale
        return out
