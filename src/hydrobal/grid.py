"""One structured grid for 1-D and 2-D, and cell-average storage on it.

A `Grid` is given by its box, interior cell counts and ghost width; spacing,
storage shape, interior index and cell centers derive from these.  A state
on a grid is an array (C, *shape_tot), components first.
"""

from dataclasses import dataclass, field
from functools import partial
from numbers import Integral

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product mesh of `cells` interior cells per axis on
    `domain`, flat (lo, hi) per axis like `Scenario.domain`, plus `n_ghost`
    ghost cells on every side."""

    domain: tuple
    cells: tuple
    n_ghost: int

    def __post_init__(self):
        lo, hi = self.domain[::2], self.domain[1::2]
        if len(self.domain) != 2 * len(self.cells) \
                or not all(isinstance(n, Integral) for n in self.cells) \
                or min(self.cells, default=0) < 1 \
                or any(b <= a for a, b in zip(lo, hi)):
            raise ConfigurationError(
                f"grid needs one (lo, hi) pair with hi > lo and a whole "
                f"number of cells, at least one, per axis; got domain "
                f"{self.domain}, cells {self.cells}")
        if self.n_ghost < 0:
            raise ConfigurationError("n_ghost must be non-negative")
        # derived once, as plain attributes, since they are read every stage;
        # the interior is a plain slice on a 1-D grid
        g, derive = self.n_ghost, partial(object.__setattr__, self)
        derive("spacing", tuple((b - a) / n
                                for a, b, n in zip(lo, hi, self.cells)))
        derive("shape_tot", tuple(n + 2 * g for n in self.cells))
        interior = tuple(slice(g, g + n) for n in self.cells)
        derive("interior", interior[0] if len(interior) == 1 else interior)

    def centers(self, axis=0, include_ghosts=True):
        g = self.n_ghost if include_ghosts else 0
        return self.domain[2 * axis] \
            + (np.arange(-g, self.cells[axis] + g) + 0.5) * self.spacing[axis]

    def require_ghosts(self, needed):
        if self.n_ghost != needed:
            raise ConfigurationError(
                f"scheme needs {needed} ghost cells but the grid has {self.n_ghost}"
            )


def interior_index(grid):
    """Index of the interior cells of a state (C, *cells) on `grid`."""
    return (slice(None),) + np.index_exp[grid.interior]


@dataclass
class CellField:
    """Conserved cell averages on a grid, ghost cells included.

    `data` has shape (n_comp, *grid.shape_tot), components ordered
    (rho, rho*u[, rho*v], E).
    """

    grid: object
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.data.shape[1:] != self.grid.shape_tot:
            raise ConfigurationError(
                f"field shape {self.data.shape} does not match grid "
                f"{self.grid.shape_tot}")

    def interior(self):
        return self.data[interior_index(self.grid)]
