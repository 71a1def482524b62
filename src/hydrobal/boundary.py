"""Boundary specifications, the side ghost fill of the spatial operator in
1-D and 2-D, and the edge strips of the 1-D hydrostatic fills.

The 1-D hydrostatic-extrapolation and solid-wall fills correct the ghost
energies with the scheme's equilibrium machinery, so the operator fills
those sides itself (a spec's `hydrostatic_sides`; 2-D has none) and leaves
the others to `fill_sides`.  The density and momentum extrapolation those
fills start from is here, shared with the discrete equilibrium
initializer.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .reconstruct import _cell_average_moment, _frozen

KINDS_1D = ("periodic", "dirichlet", "hydrostatic-extrapolation", "solid-wall")
KINDS_2D = ("periodic", "dirichlet", "solid-wall",
            "background-deviation-extrapolation")
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
    def axes(self):
        return ((self.left, self.right),)

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
                raise ConfigurationError(
                    f"boundary kind {side!r} is not available in 2-D "
                    f"(only {KINDS_2D})")
        if (self.x_lo == "periodic") != (self.x_hi == "periodic") or \
           (self.y_lo == "periodic") != (self.y_hi == "periodic"):
            raise ConfigurationError("periodic boundaries must be paired per axis")

    @property
    def axes(self):
        return ((self.x_lo, self.x_hi), (self.y_lo, self.y_hi))

    # 2-D walls mirror the interior (`fill_sides`): no side takes the 1-D
    # hydrostatic fill
    hydrostatic_sides = ()


def fill_sides(data, axes, n_ghost, frozen, background=None):
    """Fill the ghost slabs of `data` (C, *cells) for the (lo, hi) kind
    pairs of `axes`, one pair per cell axis; a side of kind None is left to
    the caller.  Periodic axes go first, then the other sides in axis order,
    each slab spanning the other axes, ghost corners included.  Dirichlet
    copies `frozen`; solid-wall mirrors the interior, normal momentum
    negated; background-deviation adds the boundary cell's deviation from
    `background` to the background averages."""
    ng = n_ghost

    def slab(axis, index):
        return (slice(None),) * (axis + 1) + (index,)

    for a, (lo, _) in enumerate(axes):
        if lo == "periodic":
            n = data.shape[a + 1] - 2 * ng
            data[slab(a, slice(0, ng))] = data[slab(a, slice(n, n + ng))]
            data[slab(a, slice(n + ng, None))] = data[slab(a, slice(ng, 2 * ng))]
    for a, kinds in enumerate(axes):
        top = data.shape[a + 1] - ng            # the first upper ghost
        # each side as (its ghosts, their mirror images, the boundary cell)
        sides = ((slice(0, ng), slice(2 * ng - 1, ng - 1, -1), ng),
                 (slice(top, None), slice(top - 1, top - ng - 1, -1), top - 1))
        for kind, (ghost, mirror, edge) in zip(kinds, sides):
            ghosts = slab(a, ghost)
            if kind == "dirichlet":
                if frozen is None:
                    raise ConfigurationError(
                        "Dirichlet boundaries need set_initial_state() first")
                data[ghosts] = frozen[ghosts]
            elif kind == "solid-wall":
                data[ghosts] = data[slab(a, mirror)]
                data[(a + 1,) + ghosts[1:]] *= -1.0
            elif kind == "background-deviation-extrapolation":
                cell = slab(a, slice(edge, edge + 1))
                data[ghosts] = background[ghosts] + (data[cell] - background[cell])


def set_edge_ghosts(data, sides, strips, n_ghost):
    """Write the ghost cells of `strips` (see `extrapolated_strips`) back."""
    for s, side in enumerate(sides):
        ghosts = strips[:, s, :n_ghost]
        if side == "left":
            data[:, :n_ghost] = ghosts
        else:
            data[:, :-n_ghost - 1:-1] = ghosts * MIRROR_SIGN


@lru_cache(maxsize=None)
def _unit_ghost_means(order, n_ghost):
    center = n_ghost + (order - 1) // 2
    return _frozen(np.array([[float(_cell_average_moment(j - center, k))
                              for j in range(n_ghost)]
                             for k in range(order)]))[0]


def ghost_mean_table(cweno, n_ghost):
    """The table (m, n_ghost) that `extrapolated_strips` takes: the exact
    means over the ghosts of the monomials (x - x_c)^k of cell
    c = n_ghost + r.  Built once per (order, n_ghost) at unit spacing,
    like the CWENO tables; the spacing enters as h^k."""
    return _unit_ghost_means(cweno.order, n_ghost) \
        * cweno.dx ** np.arange(cweno.order)[:, None]


def extrapolated_strips(cweno, data, sides, n_ghost, mean_table):
    """Edge strips (3, len(sides), n_ghost + 2r + 1) of the given sides,
    each seen from its boundary (index 0 is the outermost ghost; the right
    strip is mirrored, momentum negated), with every ghost average replaced
    by the extrapolation of the hydrostatic fills.

    The extrapolated polynomial is the reconstruction of cell n_ghost + r,
    the innermost cell whose stencil holds interior cells only; each ghost
    gets its exact average through `mean_table` (see `ghost_mean_table`).
    """
    width = n_ghost + 2 * cweno.radius + 1
    strips = np.empty((3, len(sides), width))
    for s, side in enumerate(sides):
        strips[:, s] = data[:, :width] if side == "left" \
            else data[:, :-width - 1:-1] * MIRROR_SIGN
    # the stencil axis first for the blend: transposed views, no copies
    strips[..., :n_ghost] = cweno.reconstruct_stencils(
        strips[..., n_ghost:].transpose(2, 0, 1)).transpose(1, 2, 0) \
        @ mean_table
    return strips
