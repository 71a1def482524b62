"""Boundary specifications, the periodic ghost fill, and the edge strips
of the 1-D hydrostatic fills.

The spatial operators fill their own ghosts (`fill_ghosts` methods): the
energy correction of the hydrostatic-extrapolation and solid-wall fills
needs the scheme's equilibrium machinery.  The density and momentum
extrapolation those fills start from is here, shared with the discrete
equilibrium initializer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .reconstruct import product_tables

KINDS_1D = ("periodic", "dirichlet", "hydrostatic-extrapolation", "solid-wall")
KINDS_2D = KINDS_1D + ("background-deviation-extrapolation",)
HYDROSTATIC_1D = ("hydrostatic-extrapolation", "solid-wall")
# sign of (rho, rho*u, E) in the mirrored frame of a right boundary
MIRROR_SIGN = np.array([1.0, -1.0, 1.0])[:, None]


@dataclass(frozen=True)
class BoundarySpec1D:
    left: str = "periodic"
    right: str = "periodic"

    def __post_init__(self):
        for side in (self.left, self.right):
            if side not in KINDS_1D:
                raise ConfigurationError(f"unknown boundary kind {side!r}")
        if (self.left == "periodic") != (self.right == "periodic"):
            raise ConfigurationError("periodic boundaries must be paired")

    @property
    def periodic(self):
        return self.left == "periodic"

    @property
    def hydrostatic_sides(self):
        """Sides filled by hydrostatic extrapolation (solid walls included)."""
        return tuple(side for side in ("left", "right")
                     if getattr(self, side) in HYDROSTATIC_1D)


@dataclass(frozen=True)
class BoundarySpec2D:
    x_lo: str = "periodic"
    x_hi: str = "periodic"
    y_lo: str = "periodic"
    y_hi: str = "periodic"

    def __post_init__(self):
        for side in (self.x_lo, self.x_hi, self.y_lo, self.y_hi):
            if side not in KINDS_2D:
                raise ConfigurationError(f"unknown boundary kind {side!r}")
        if (self.x_lo == "periodic") != (self.x_hi == "periodic") or \
           (self.y_lo == "periodic") != (self.y_hi == "periodic"):
            raise ConfigurationError("periodic boundaries must be paired per axis")


def fill_periodic_axis(data, n_ghost, n_cells, axis):
    idx = [slice(None)] * data.ndim

    def at(sl):
        out = list(idx)
        out[axis] = sl
        return tuple(out)

    data[at(slice(0, n_ghost))] = data[at(slice(n_cells, n_cells + n_ghost))]
    data[at(slice(n_cells + n_ghost, None))] = data[at(slice(n_ghost, 2 * n_ghost))]


def set_edge_ghosts(data, sides, strips, n_ghost):
    """Write the ghost cells of `strips` (see `extrapolated_strips`) back."""
    for s, side in enumerate(sides):
        ghosts = strips[:, s, :n_ghost]
        if side == "left":
            data[:, :n_ghost] = ghosts
        else:
            data[:, :-n_ghost - 1:-1] = ghosts * MIRROR_SIGN


def extrapolated_strips(cweno, data, sides, n_ghost):
    """Edge strips (3, len(sides), n_ghost + 2r + 1) of the given sides,
    each seen from its boundary (index 0 is the outermost ghost; the right
    strip is mirrored, momentum negated), with every ghost average replaced
    by the extrapolation of the hydrostatic fills.

    The extrapolated polynomial is the reconstruction of cell n_ghost + r,
    the innermost cell whose stencil holds interior cells only; each ghost
    gets its exact average, a difference of one antiderivative evaluated at
    the ghost interfaces (the product-basis line table of rec x 1).
    """
    r, h = cweno.radius, cweno.dx
    width = n_ghost + 2 * r + 1
    strips = np.stack([data[:, :width] if side == "left"
                       else data[:, :-width - 1:-1] * MIRROR_SIGN
                       for side in sides], axis=1)
    coeffs = cweno.reconstruct_stencils(strips[..., n_ghost:])
    edges = tuple((j - (n_ghost + r + 0.5),) for j in range(n_ghost + 1))
    anti = coeffs @ product_tables(cweno.exps, ((0,),), edges, (h,)).line[0]
    strips[..., :n_ghost] = np.diff(anti, axis=-1) / h
    return strips
