"""Polynomial algebra in cell-local coordinates.

Polynomials are stored as coefficient arrays over powers of (x - x0), where
x0 is the anchor (normally a cell center).  Keeping the anchor local keeps
coefficients well scaled at small cell widths.  All helpers operate on the
trailing axis so batches of per-cell polynomials vectorize naturally.
The solver evaluates through `reconstruct.product_tables`; these Horner
helpers are the reference that the tests compare against.  They stay in
the package while the benchmark tracer (perfbench/spans.py) patches them
by name; the exact integral and cell mean are test oracles only.
"""

import numpy as np


def poly_eval(coeffs, xi):
    """Evaluate at offsets xi from the anchor (Horner on the trailing axis)."""
    coeffs = np.asarray(coeffs)
    xi = np.asarray(xi)
    out = np.zeros(np.broadcast_shapes(coeffs.shape[:-1], xi.shape))
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * xi + coeffs[..., k]
    return out


def poly_antiderivative(coeffs):
    """Antiderivative with value 0 at the anchor."""
    coeffs = np.asarray(coeffs)
    k = np.arange(1, coeffs.shape[-1] + 1, dtype=float)
    out = np.zeros(coeffs.shape[:-1] + (coeffs.shape[-1] + 1,))
    out[..., 1:] = coeffs / k
    return out


def poly_mul(c1, c2):
    """Product of two polynomials sharing an anchor."""
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    n1, n2 = c1.shape[-1], c2.shape[-1]
    out = np.zeros(np.broadcast_shapes(c1.shape[:-1], c2.shape[:-1]) + (n1 + n2 - 1,))
    for i in range(n1):
        for j in range(n2):
            out[..., i + j] += c1[..., i] * c2[..., j]
    return out
