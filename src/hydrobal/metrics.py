"""Error norms, convergence rates, and conservative restriction."""

import numpy as np

from .errors import ConfigurationError


def l1_error(values, reference, cell_volume):
    """Discrete L1 norm of the difference, per component.

    `values` and `reference` are interior cell-average arrays of identical
    shape, components on the leading axis.
    """
    values = np.asarray(values)
    reference = np.asarray(reference)
    if values.shape != reference.shape:
        raise ConfigurationError(
            f"grid mismatch: {values.shape} vs {reference.shape}")
    diff = np.abs(values - reference)
    return cell_volume * diff.reshape(diff.shape[0], -1).sum(axis=1)


def convergence_rate(error_coarse, error_fine):
    """log2(e_N / e_2N) for a resolution doubling."""
    return np.log2(np.asarray(error_coarse) / np.asarray(error_fine))


def restrict(fine, ratio, dim):
    """Conservative block average of fine cell averages over the trailing
    `dim` axes onto a grid `ratio` times coarser on each of them."""
    fine = np.asarray(fine)
    cells = fine.shape[-dim:]
    if any(n % ratio for n in cells):
        raise ConfigurationError(
            f"restriction ratio {ratio} does not divide {cells}")
    blocks = sum(((n // ratio, ratio) for n in cells), ())
    return fine.reshape(fine.shape[:-dim] + blocks) \
        .mean(axis=tuple(range(1 - 2 * dim, 0, 2)))
