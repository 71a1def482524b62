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


def restrict_1d(fine, ratio):
    """Conservative block average of fine cell averages onto a coarse grid."""
    fine = np.asarray(fine)
    n = fine.shape[-1]
    if n % ratio:
        raise ConfigurationError(f"restriction ratio {ratio} does not divide {n}")
    return fine.reshape(fine.shape[:-1] + (n // ratio, ratio)).mean(axis=-1)


def restrict_2d(fine, ratio):
    fine = np.asarray(fine)
    nx, ny = fine.shape[-2:]
    if nx % ratio or ny % ratio:
        raise ConfigurationError(f"restriction ratio {ratio} does not divide {fine.shape}")
    shaped = fine.reshape(fine.shape[:-2] + (nx // ratio, ratio, ny // ratio, ratio))
    return shaped.mean(axis=(-3, -1))
