"""Structured 1-D/2-D grids with ghost layers and cell-average storage."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D mesh of n_cells cells plus n_ghost ghost cells per side."""

    x_min: float
    x_max: float
    n_cells: int
    n_ghost: int

    def __post_init__(self):
        if self.n_cells < 1 or self.x_max <= self.x_min:
            raise ConfigurationError("grid needs n_cells >= 1 and x_max > x_min")
        if self.n_ghost < 0:
            raise ConfigurationError("n_ghost must be non-negative")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def spacing(self):
        return (self.dx,)

    @property
    def n_tot(self):
        return self.n_cells + 2 * self.n_ghost

    @property
    def interior(self):
        return slice(self.n_ghost, self.n_ghost + self.n_cells)

    def centers(self, include_ghosts=True):
        lo = -self.n_ghost if include_ghosts else 0
        hi = self.n_cells + (self.n_ghost if include_ghosts else 0)
        return self.x_min + (np.arange(lo, hi) + 0.5) * self.dx

    def center_mesh(self):
        return (self.centers(),)

    def require_ghosts(self, needed):
        if self.n_ghost < needed:
            raise ConfigurationError(
                f"scheme needs {needed} ghost cells but the grid has {self.n_ghost}"
            )


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor-product 2-D mesh with ghost layers on every side."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_x: int
    n_y: int
    n_ghost: int

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigurationError("grid needs n_x, n_y >= 1")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ConfigurationError("grid extents must be positive")
        if self.n_ghost < 0:
            raise ConfigurationError("n_ghost must be non-negative")

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.n_x

    @property
    def dy(self):
        return (self.y_max - self.y_min) / self.n_y

    @property
    def spacing(self):
        return (self.dx, self.dy)

    @property
    def shape_tot(self):
        return (self.n_x + 2 * self.n_ghost, self.n_y + 2 * self.n_ghost)

    @property
    def interior(self):
        g = self.n_ghost
        return (slice(g, g + self.n_x), slice(g, g + self.n_y))

    def centers_x(self, include_ghosts=True):
        lo = -self.n_ghost if include_ghosts else 0
        hi = self.n_x + (self.n_ghost if include_ghosts else 0)
        return self.x_min + (np.arange(lo, hi) + 0.5) * self.dx

    def centers_y(self, include_ghosts=True):
        lo = -self.n_ghost if include_ghosts else 0
        hi = self.n_y + (self.n_ghost if include_ghosts else 0)
        return self.y_min + (np.arange(lo, hi) + 0.5) * self.dy

    def center_mesh(self, include_ghosts=True):
        return np.meshgrid(self.centers_x(include_ghosts),
                           self.centers_y(include_ghosts), indexing="ij")

    def require_ghosts(self, needed):
        if self.n_ghost < needed:
            raise ConfigurationError(
                f"scheme needs {needed} ghost cells but the grid has {self.n_ghost}"
            )


def interior_index(grid):
    """Index of the interior cells of a state (C, *cells) on `grid`."""
    return (slice(None),) + np.index_exp[grid.interior]


@dataclass
class CellField:
    """Conserved cell averages on a grid, ghost cells included.

    `data` has shape (n_comp, n_tot) in 1-D and (n_comp, nx_tot, ny_tot) in
    2-D, components ordered (rho, rho*u[, rho*v], E).
    """

    grid: object
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = (self.grid.n_tot,) if isinstance(self.grid, Grid1D) \
            else self.grid.shape_tot
        if self.data.shape[1:] != expected:
            raise ConfigurationError(
                f"field shape {self.data.shape} does not match grid {expected}"
            )

    def interior(self):
        return self.data[interior_index(self.grid)]
