"""CWENO reconstruction of cell averages, gravity interpolation, and the
product-basis tables of their products.

1-D orders 3 and 5 (plus the degenerate piecewise-constant order 1 used by
the first-order reference scheme) and the 3x3-stencil third-order 2-D
variant.  Candidate-polynomial matrices and smoothness-indicator quadratic
forms are built with exact rational arithmetic and cached per order (2-D:
per aspect ratio dy/dx) as read-only tables; the grid spacing enters only
through the scale vectors and eps_w.  Each indicator form is factored as
A = L L^T, so an indicator is a sum of squares of rows folded into the
candidate table, and the per-cell work reduces to one matrix product and a
few contiguous passes.

Coefficients come out in cell-local coordinates: scaled internally
(powers of (x - x_i)/dx), physical (powers of (x - x_i)) at the API.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

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


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def monomials_1d(order):
    """Exponent tuples of the 1-D monomials 1, x, ..., x^(order - 1)."""
    return tuple((k,) for k in range(order))


def _windowed_fit(values, width, n_coeff, fit):
    """Per-cell coefficients (..., *grid, n_coeff) of a field (..., *grid):
    `fit` maps the flattened windows of shape `width` to coefficients; cells
    whose stencil does not fit, or is one cell, keep a constant."""
    values = np.asarray(values, dtype=float)
    grid = values.shape[values.ndim - len(width):]
    out = np.zeros(values.shape + (n_coeff,))
    out[..., 0] = values
    if max(width) > 1 and all(n >= w for n, w in zip(grid, width)):
        win = np.lib.stride_tricks.sliding_window_view(
            values, width, axis=tuple(range(-len(width), 0)))
        inner = tuple(slice(w // 2, n - w // 2) for n, w in zip(grid, width))
        out[(Ellipsis,) + inner + (slice(None),)] = fit(
            win.reshape(win.shape[:values.ndim] + (-1,)))
    return out


def _blend_table(opt, cands, dlin, form):
    """Read-only (table, linear weights, factor) of one CWENO scheme.

    The central candidate is built from the optimal polynomial so that the
    linear-weight blend reproduces it, (opt - sum_k d_k cand_k) / d_0, and
    goes last.  The factor L (n_coeff, rank) gives form = L L^T; it keeps
    the eigenvalues above 1e-14 of the largest, which drops the null
    direction of the constant term (rank 0 for order 1).  The table stacks
    the q candidate matrices (q*n_coeff rows) over the rows L^T cand_k
    (q*rank rows), all over the n_window stencil entries.
    """
    d0 = 1 - sum(dlin)
    central = [[(opt[r][c] - sum(d * cand[r][c]
                                 for d, cand in zip(dlin, cands))) / d0
                for c in range(len(opt[0]))] for r in range(len(opt))]
    matrices = np.array([[[float(x) for x in row] for row in mat]
                         for mat in cands + [central]])
    lam, vec = np.linalg.eigh(form)
    keep = lam > 1e-14 * lam.max()
    factor = vec[:, keep] * np.sqrt(lam[keep])
    n_window = matrices.shape[-1]
    rows = np.einsum("kr,qkw->qrw", factor, matrices)
    table = np.concatenate([matrices.reshape(-1, n_window),
                            rows.reshape(-1, n_window)])
    return _frozen(table, np.array([float(d) for d in dlin] + [float(d0)]),
                   factor)


def _regularization(eps_w, default):
    """The CWENO regularization eps_w (`default` when None); it divides the
    nonlinear weights, so it must be positive."""
    eps_w = default if eps_w is None else float(eps_w)
    if not eps_w > 0.0:
        raise ConfigurationError(f"eps_w = {eps_w} must be positive")
    return eps_w


class _CwenoBlend:
    """The CWENO nonlinear-weight blend shared by `Cweno1D` and `Cweno2D`.

    `_blend` maps stencil windows (..., n_window), centered on the middle
    entry, to physical coefficients (..., n_coeff), with cells on the last
    axis throughout.  The windows become deviations (n_window, cells) from
    the central average; one product with the cached table (`_blend_table`)
    gives every candidate's scaled coefficients (q, n_coeff, cells) and its
    indicator rows (q, rank, cells).  beta_k is the sum of squares of
    candidate k's rows, so beta_k = u_k^T A u_k >= 0 without forming A.
    The weights are normalised in place, the blend is q multiply-adds of
    contiguous (n_coeff, cells) blocks, and the result is transposed back.
    """

    def _set_table(self, tables, scale):
        self._table, self._dlin, self._factor = tables
        self._scale = scale[:, None]

    def _candidates(self, deviation):
        """Deviations (n_window, cells) from the central average -> scaled
        candidate coefficients (q, n_coeff, cells) and indicators (q, cells).
        """
        q, n = self._dlin.size, self._scale.shape[0]
        cells = deviation.shape[1]
        rows = self._table @ deviation
        indicator = rows[q * n:]
        np.square(indicator, out=indicator)
        return (rows[:q * n].reshape(q, n, cells),
                indicator.reshape(q, self._factor.shape[1], cells).sum(axis=1))

    def _blend(self, window):
        window = np.asarray(window, dtype=float)
        lead, n_window = window.shape[:-1], window.shape[-1]
        # deviations from the central average: every candidate reproduces
        # constants exactly, so this removes cancellation noise
        cols = np.moveaxis(window, -1, 0)
        deviation = np.empty(cols.shape)
        np.subtract(cols, cols[n_window // 2], out=deviation)
        deviation = deviation.reshape(n_window, -1)
        cells = deviation.shape[1]
        if cells == 1:
            # one column would take BLAS's matrix-vector path, which rounds
            # differently: a cell's coefficients must not depend on its batch
            deviation = np.repeat(deviation, 2, axis=1)
        # weights holds beta, then alpha = d / (eps_w + beta)^2, then the
        # normalised weights
        coeffs, weights = self._candidates(deviation)
        weights += self.eps_w
        np.square(weights, out=weights)
        np.divide(self._dlin[:, None], weights, out=weights)
        weights /= weights.sum(axis=0)
        coeffs *= weights[:, None, :]
        out = coeffs[0, :, :cells]
        for k in range(1, len(coeffs)):
            out += coeffs[k, :, :cells]
        out[0] += cols[n_window // 2].reshape(-1)
        out /= self._scale
        return out.T.reshape(lead + (self._scale.shape[0],))


@lru_cache(maxsize=None)
def _cweno_1d_table(order):
    stencil = list(range(-(order // 2), order // 2 + 1))
    # the one-sided candidates share half of the linear weight; the
    # central polynomial takes the rest
    subs = {1: [], 3: [[-1, 0], [0, 1]],
            5: [[-2, -1, 0], [-1, 0, 1], [0, 1, 2]]}[order]
    cands = [_embed(_average_fit_matrix(s, len(s) - 1), stencil, s, order)
             for s in subs]
    return _blend_table(
        _embed(_average_fit_matrix(stencil, order - 1), stencil, stencil,
               order),
        cands, [Fraction(1, 2 * len(subs)) for _ in subs],
        _smoothness_form_1d(order))


class Cweno1D(_CwenoBlend):
    """CWENO reconstruction for one grid spacing.

    Candidates per spec defaults: order 3 uses two one-sided linears plus a
    central parabola with linear weights (1/4, 1/4, 1/2); order 5 uses three
    quadratics plus a degree-4 central polynomial with weights (1/6 x3, 1/2);
    order 1 is the central constant alone.  The regularization is
    eps_w = dx**2.
    """

    def __init__(self, order, dx, eps_w=None):
        if order not in (1, 3, 5):
            raise ConfigurationError(f"unsupported reconstruction order {order}")
        self.order = order
        self.exps = monomials_1d(order)
        self.dx = float(dx)
        self.radius = (order - 1) // 2
        self.eps_w = _regularization(eps_w, self.dx ** 2)
        self._set_table(_cweno_1d_table(order),
                        self.dx ** np.arange(order, dtype=float))

    def reconstruct_stencils(self, window):
        """Stencil values (..., m) -> physical coefficients (..., m)."""
        return self._blend(window)

    def coefficients(self, values):
        """Per-cell polynomials for a whole field (..., n_tot)."""
        return _windowed_fit(values, (self.order,), self.order,
                             self.reconstruct_stencils)


@lru_cache(maxsize=None)
def _nodal_fit(points, exps):
    """Read-only exact map from values at integer `points` to the
    coefficients of the monomials `exps` (tuples of per-axis exponents)."""
    vand = [[prod(Fraction(x) ** a for x, a in zip(pt, e))
             for e in exps] for pt in points]
    ident = [[Fraction(int(i == j)) for j in range(len(points))]
             for i in range(len(points))]
    matrix, = _frozen(np.array(_fraction_solve(vand, ident), dtype=float))
    return matrix


class _GravityInterp:
    """Gravity interpolation: the exact nodal fit `_matrix` of the point
    values' deviations from the center over the stencil `_width`."""

    def coefficients(self, values):
        """Point values (..., *grid) -> physical coefficients (..., *grid, n)."""
        return _windowed_fit(values, self._width, self._scale.size, self._fit)

    def _fit(self, win):
        center = win[..., win.shape[-1] // 2]
        scaled = (win - center[..., None]) @ self._matrix.T
        scaled[..., 0] += center
        return scaled / self._scale


class GravityInterp1D(_GravityInterp):
    """Degree m-1 interpolation of cell-centered gravity point values."""

    def __init__(self, order, dx):
        if order not in (1, 3, 5):
            raise ConfigurationError(f"unsupported interpolation order {order}")
        self.order = order
        self.exps = monomials_1d(order)
        self.dx = float(dx)
        self.radius = (order - 1) // 2
        self._width = (order,)
        self._matrix = _nodal_fit(
            tuple((j,) for j in range(-self.radius, self.radius + 1)),
            self.exps)
        self._scale = self.dx ** np.arange(order, dtype=float)


# ---------------------------------------------------------------------------
# 2-D third-order CWENO on the 3x3 stencil
# ---------------------------------------------------------------------------

# exponents (a, b) of x^a y^b with a + b <= 2, ordered by total degree
MONOMIALS_DEG2 = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


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


@lru_cache(maxsize=None)
def _cweno_2d_table(ratio):
    planes = [_plane_matrix_2d(sx, sy)
              for sx, sy in ((-1, -1), (1, -1), (-1, 1), (1, 1))]
    return _blend_table(_optimal_matrix_2d(), planes, [Fraction(1, 8)] * 4,
                        _smoothness_form_2d(ratio))


class Cweno2D(_CwenoBlend):
    """Third-order CWENO on a 3x3 stencil, total degree 2.

    One central quadratic (linear weight 1/2) plus four one-sided planes
    (1/8 each); eps_w = dx*dy.
    """

    def __init__(self, dx, dy, eps_w=None):
        self.order = 3
        self.exps = MONOMIALS_DEG2
        self.radius = 1
        self.dx = float(dx)
        self.dy = float(dy)
        self.eps_w = _regularization(eps_w, self.dx * self.dy)
        self._set_table(
            _cweno_2d_table(self.dy / self.dx),
            np.array([self.dx ** a * self.dy ** b for (a, b) in MONOMIALS_DEG2]))

    def reconstruct_stencils(self, window):
        """Stencil values (..., 9) ordered by (x offset, y offset) -> coeffs (..., 6)."""
        return self._blend(window)

    def coefficients(self, values):
        """Field (..., nx, ny) -> per-cell coefficients (..., nx, ny, 6)."""
        return _windowed_fit(values, (3, 3), len(self.exps),
                             self.reconstruct_stencils)


MONOMIALS_BIQUAD = tuple((a, b) for a in range(3) for b in range(3))


class GravityInterp2D(_GravityInterp):
    """Tensor biquadratic interpolation of 3x3 cell-centered point values.

    Matches all nine nodal values exactly (so in particular reproduces any
    total-degree-2 field on the stencil).
    """

    def __init__(self, dx, dy):
        self.radius = 1
        self.dx = float(dx)
        self.dy = float(dy)
        self.exps = MONOMIALS_BIQUAD
        self._width = (3, 3)
        self._matrix = _nodal_fit(
            tuple((jx, jy) for jx in (-1, 0, 1) for jy in (-1, 0, 1)),
            self.exps)
        self._scale = np.array([self.dx ** a * self.dy ** b
                                for (a, b) in self.exps])


# ---------------------------------------------------------------------------
# product basis: reconstruction monomial x gravity monomial
# ---------------------------------------------------------------------------

ProductTables = namedtuple("ProductTables", "values line means line_means")


@lru_cache(maxsize=None)
def _unit_product_tables(rec_exps, g_exps, points):
    """Read-only unit-cell tables of `product_tables`, and for each table
    the exponents whose powers of the spacing scale its entries."""
    pts = np.array(points, dtype=float).T
    dim = pts.shape[0]
    rec = np.array(rec_exps)
    terms = (rec[:, None] + np.array(g_exps)[None, :]).reshape(-1, dim)
    steps = terms[None] + np.eye(dim, dtype=int)[:, None]
    inv = 1.0 / (terms.sum(axis=-1) + 1.0)

    def at_points(exps):
        return np.prod(pts ** exps[..., None], axis=-2)

    def means(exps):
        return np.prod(np.where(exps % 2, 0.0, 0.5 ** exps / (exps + 1.0)),
                       axis=-1)

    unit = _frozen(at_points(rec), at_points(steps) * inv[:, None],
                   means(terms), means(steps) * inv)
    return ProductTables(*unit), ProductTables(
        *_frozen(rec[:, None], steps[..., None, :], terms, steps))


def product_tables(rec_exps, g_exps, points, spacing):
    """Tables of the product basis rec-monomial x gravity-monomial at one
    node set, in physical units.

    Product term (i, j), rec-major (`product_terms`), is x^e with
    e = rec_exps[i] + g_exps[j]; `points` are the node offsets from the cell
    center in units of `spacing`, one tuple per node.  The `ProductTables`:
    `values` (n_rec, nodes), the reconstruction monomials; `line` (dim,
    n_terms, nodes), the straight-line integral from the center of each term
    times the k-th unit vector, x^(e + e_k) / (|e| + 1) (1-D: the
    antiderivative vanishing at the center); `means` (n_terms,) and
    `line_means` (dim, n_terms), the exact cell means of terms and lines.
    The unit-cell tables are cached per (exponents, points) and read-only;
    the spacing enters only through the power scale h^e of each entry.
    """
    unit, exps = _unit_product_tables(rec_exps, g_exps, points)
    h = np.asarray(spacing, dtype=float)
    return ProductTables(*(table * np.multiply.reduce(h ** e, axis=-1)
                           for table, e in zip(unit, exps)))


def product_terms(rec, g, out=None):
    """Coefficients of rec * g over the product basis (..., n_rec * n_g),
    batched over the broadcast leading axes; `out` (..., n_rec, n_g) is an
    optional work buffer."""
    outer = np.multiply(rec[..., :, None], g[..., None, :], out=out)
    return outer.reshape(outer.shape[:-2] + (-1,))
