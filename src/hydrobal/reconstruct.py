"""CWENO reconstruction of cell averages, gravity interpolation, and the
product-basis tables of their products.

1-D orders 3 and 5 (`check_order`) and the 3x3-stencil third-order 2-D
variant.  Candidate-polynomial matrices and smoothness-indicator quadratic
forms are built with exact rational arithmetic and cached per order (2-D:
per aspect ratio dy/dx) as read-only tables; the grid spacing enters only
through the scale vectors and eps_w.  The blend acts on deviations from
the central average, so each candidate keeps only the coefficient rows
that see them (its support).  Where the indicator form restricted to that
support is diagonal, the indicator is a weighted sum of squares of the
candidate's own coefficient rows; only the 1-D order-5 central polynomial
adds the rows of a Cholesky factor A = L L^T.  The per-cell work is three
small matrix products and a few contiguous passes.

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

BlendTable = namedtuple("BlendTable", "table indicator owner place dlin")


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


def check_order(order):
    """Reject a 1-D order other than CWENO3's and CWENO5's."""
    if order not in (3, 5):
        raise ConfigurationError(f"unsupported order {order}")


def stencil_windows(values, width):
    """Every full stencil of shape `width` over the trailing axes of the
    C-contiguous array `values` (any other raises), one strided view
    (*width, ..., *inner) whose windows overlap, to be read, not written;
    it costs less than `sliding_window_view`'s checks on small grids."""
    k = len(width)
    inner = tuple(n - w + 1 for n, w in zip(values.shape[-k:], width))
    return np.ndarray(tuple(width) + values.shape[:-k] + inner, values.dtype,
                      values, strides=values.strides[-k:] + values.strides)


def _blend_table(opt, cands, dlin, form):
    """Read-only compact `BlendTable` of one CWENO scheme.

    The central candidate, (opt - sum_k d_k cand_k) / d0, goes last, so the
    linear-weight blend reproduces opt.  The blend acts on deviations from
    the central average, so a candidate's support is its coefficient rows
    that are not zero once the center column is removed.  Where the form A
    restricted to the support is diagonal, beta_k = sum_j A_jj c_j^2 comes
    from the candidate's own coefficient rows; elsewhere (the 1-D order-5
    central polynomial) the candidate adds the rows L^T c of the Cholesky
    factor of A on the support rows with A_jj > 0.  `table` stacks the
    coefficient rows, factored candidates first and then the diagonal ones
    with A_jj = 0 first, over the factor rows, so the rows that carry an
    indicator are the trailing ones, which `indicator` (q, rows) weighs;
    `owner` is each coefficient row's candidate and `place` (n_coeff,
    coefficient rows) sends each row to its coefficient.
    """
    d0 = 1 - sum(dlin)
    central = [[(opt[r][c] - sum(d * cand[r][c]
                                 for d, cand in zip(dlin, cands))) / d0
                for c in range(len(opt[0]))] for r in range(len(opt))]
    n_window = len(opt[0])
    live = [c for c in range(n_window) if c != n_window // 2]
    # rows as (candidate, coefficient or None, row, indicator weight)
    factored, diagonal, factors = [], [], []
    for k, mat in enumerate(cands + [central]):
        support = [r for r in range(len(mat))
                   if any(mat[r][c] != 0 for c in live)]
        rows = np.array([[float(x) for x in mat[r]] for r in support])
        sub = form[np.ix_(support, support)]
        if np.count_nonzero(sub - np.diag(np.diag(sub))) == 0:
            diagonal += [(k, r, row, form[r, r])
                         for r, row in zip(support, rows)]
        else:
            factored += [(k, r, row, 0.0) for r, row in zip(support, rows)]
            pos = [i for i, r in enumerate(support) if form[r, r] > 0.0]
            chol = np.linalg.cholesky(sub[np.ix_(pos, pos)])
            factors += [(k, None, row, 1.0) for row in chol.T @ rows[pos]]
    # rows whose form entry is zero (constants) carry no indicator
    diagonal.sort(key=lambda entry: entry[3] > 0.0)
    coefficient = factored + diagonal
    indicated = [entry for entry in diagonal if entry[3] > 0.0] + factors
    table = np.array([row for _, _, row, _ in coefficient + factors])
    indicator = np.zeros((len(cands) + 1, len(indicated)))
    for j, (k, _, _, a) in enumerate(indicated):
        indicator[k, j] = a
    place = np.zeros((len(opt), len(coefficient)))
    for j, (_, r, _, _) in enumerate(coefficient):
        place[r, j] = 1.0
    return BlendTable(*_frozen(
        table, indicator,
        np.array([k for k, _, _, _ in coefficient], dtype=np.intp), place,
        np.array([float(d) for d in dlin] + [float(d0)])))


def _regularization(eps_w, default):
    """The CWENO regularization eps_w (`default` when None).  The weights
    divide by (eps_w + beta)^2, so eps_w must be positive and eps_w^2 a
    normal float, which keeps 1 / eps_w^2 finite too: else the weights of
    smooth data underflow or overflow to NaN."""
    eps_w = default if eps_w is None else float(eps_w)
    square = eps_w * eps_w
    finfo = np.finfo(float)
    if not (eps_w > 0.0 and finfo.tiny <= square <= finfo.max):
        raise ConfigurationError(
            f"eps_w = {eps_w} must be positive, with eps_w^2 a normal float "
            "and 1/eps_w^2 finite")
    return eps_w


class _CwenoBlend:
    """The CWENO nonlinear-weight blend shared by `Cweno1D` and `Cweno2D`.

    `_blend` maps stencil windows, stencil first and centered on the
    middle entry, to physical coefficients (n_coeff, ...), cells last.
    With `axis=0` the windows come as (n_window, ...); with a tuple of
    leading axes, `axis=(0, 1)`, as a stencil laid out over several axes
    in C order, a 3x3 window as (3, 3, ...), so that a strided view of a
    field needs no reshape copy.  The windows become deviations (n_window,
    cells) from the central average, the one copy of the windows.  The
    per-cell work is a fixed sequence on the compact cached table
    (`_blend_table`): rows = table @ deviation; beta = indicator @ rows^2
    over the indicator rows, so beta_k = u_k^T A u_k >= 0 without forming
    A; the weights, normalised in place; each coefficient row times its
    candidate's weight; one product with `_collect`, the placement with
    1/scale folded in, gives the physical coefficients (n_coeff, cells);
    the central average goes back into the constant.
    """

    def coefficients(self, values):
        """Per-cell polynomials of a field (..., *grid): coefficients (...,
        m, *inner) of the cells whose stencil fits, cells last, a view of
        the blend of the field's `stencil_windows`."""
        dim = len(self.exps[0])
        out = self.reconstruct_stencils(
            stencil_windows(np.ascontiguousarray(values, dtype=float),
                            (2 * self.radius + 1,) * dim),
            axis=tuple(range(dim)))
        lead = out.ndim - 1 - dim
        return out.transpose(*range(1, lead + 1), 0,
                             *range(lead + 1, out.ndim))

    def _set_table(self, tables, scale):
        self._table, self._indicator, self._owner, place, self._dlin = tables
        self._collect, = _frozen(place / scale[:, None])

    def _blend(self, window, axis):
        cols = np.asarray(window, dtype=float)
        n_axes = len(axis) if isinstance(axis, tuple) else 1
        stencil, lead = cols.shape[:n_axes], cols.shape[n_axes:]
        center = cols[tuple(s // 2 for s in stencil)]
        # deviations from the central average: every candidate reproduces
        # constants exactly, so this removes cancellation noise
        deviation = np.empty(cols.shape)
        np.subtract(cols, center, out=deviation)
        deviation = deviation.reshape(prod(stencil), -1)
        cells = deviation.shape[1]
        if cells == 1:
            # one column would take BLAS's matrix-vector path, which rounds
            # differently: a cell's coefficients must not depend on its batch
            deviation = np.repeat(deviation, 2, axis=1)
        rows = self._table @ deviation
        # weights holds beta, then alpha = d / (eps_w + beta)^2, then the
        # normalised weights
        indicated = rows[rows.shape[0] - self._indicator.shape[1]:]
        weights = self._indicator @ np.square(indicated)
        weights += self.eps_w
        np.square(weights, out=weights)
        np.divide(self._dlin[:, None], weights, out=weights)
        weights /= weights.sum(axis=0)
        coeffs = rows[:self._owner.size]
        coeffs *= weights[self._owner]
        out = (self._collect @ coeffs)[:, :cells]
        constant = out[0].reshape(lead)   # a view of the contiguous row
        constant += center
        return out.reshape((out.shape[0],) + lead)


@lru_cache(maxsize=None)
def _cweno_1d_table(order):
    stencil = list(range(-(order // 2), order // 2 + 1))
    # the one-sided candidates share half of the linear weight; the
    # central polynomial takes the rest
    subs = {3: [[-1, 0], [0, 1]],
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
    quadratics plus a degree-4 central polynomial with weights (1/6 x3, 1/2).
    The regularization is eps_w = dx**2.
    """

    def __init__(self, order, dx, eps_w=None):
        check_order(order)
        self.order = order
        self.exps = monomials_1d(order)
        self.dx = float(dx)
        self.radius = (order - 1) // 2
        self.eps_w = _regularization(eps_w, self.dx ** 2)
        self._set_table(_cweno_1d_table(order),
                        self.dx ** np.arange(order, dtype=float))

    def reconstruct_stencils(self, window, axis=0):
        """Stencil values (m, ...) -> physical coefficients (m, ...)."""
        return self._blend(window, axis)


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

    def fit(self, win):
        """`stencil_windows` (*width, ...) -> physical coefficients (n, ...),
        cells last."""
        k = len(self._width)
        win = win.transpose(tuple(range(k, win.ndim)) + tuple(range(k)))
        win = win.reshape(win.shape[:-k] + (-1,))
        center = win[..., win.shape[-1] // 2]
        scaled = (win - center[..., None]) @ self._matrix.T
        scaled[..., 0] += center
        scaled /= self._scale
        return scaled.transpose((-1,) + tuple(range(scaled.ndim - 1)))


class GravityInterp1D(_GravityInterp):
    """Degree m-1 interpolation of cell-centered gravity point values."""

    def __init__(self, order, dx):
        check_order(order)
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

    def reconstruct_stencils(self, window, axis=0):
        """Stencil values (9, ...) ordered by (x offset, y offset) -> coeffs
        (6, ...); with `axis=(0, 1)`, (3, 3, ...) -> (6, ...)."""
        return self._blend(window, axis)


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

    Product term (i, j), rec-major (index i * n_g + j), is x^e with
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

