"""Gauss-Legendre quadrature rules on arbitrary intervals, and tensor-Gauss
cell averages on a grid."""

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

MAX_ORDER = 5


@lru_cache(maxsize=None)
def _reference_rule(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(order, interval=(-1.0, 1.0)):
    """Return (nodes, weights) of the `order`-point Gauss-Legendre rule.

    The rule integrates polynomials up to degree 2*order - 1 exactly and its
    weights sum to the interval length.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= MAX_ORDER:
        raise ConfigurationError(
            f"unsupported Gauss-Legendre order {order!r}; expected 1..{MAX_ORDER}"
        )
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ConfigurationError(f"empty quadrature interval [{a}, {b}]")
    x, w = _reference_rule(int(order))
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w


def gauss_nodes_weights_centered(order, width):
    """Nodes (as offsets from the cell center) and weights for one cell."""
    return gauss_legendre(order, (-0.5 * width, 0.5 * width))


def cell_averages(fn, grid, order):
    """Averages of fn over every cell of `grid`, ghosts included, by the
    tensor Gauss rule of `order` nodes per axis.

    `fn` takes one coordinate array per axis on the open mesh of (*cells,
    *nodes) and returns fields (*cells, *nodes), each averaged on its own,
    so that no stack of them is held; the averages are (fields, *cells).
    """
    dim = len(grid.cells)
    coords, weights = [], []
    for a, h in enumerate(grid.spacing):
        nodes, w = gauss_nodes_weights_centered(order, h)
        line = grid.centers(a)
        shape = [1] * a + [line.size] + [1] * (dim - 1) + [order] + [1] * (dim - 1 - a)
        coords.append(np.add.outer(line, nodes).reshape(shape))
        weights += [w, [a]]
    fields = fn(*coords)
    out = np.empty((len(fields),) + fields[0].shape[:dim])
    for f, mean in zip(fields, out):
        np.einsum(*weights, f, [..., *range(dim)], [...], out=mean)
    return out / math.prod(grid.spacing)
