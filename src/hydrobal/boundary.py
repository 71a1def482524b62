"""Boundary specifications, the side ghost fill of both operators, and the
edge strips of the 1-D hydrostatic fills.

The 1-D hydrostatic-extrapolation and solid-wall fills correct the ghost
energies with the scheme's equilibrium machinery, so the 1-D operator fills
those sides itself and leaves the others to `fill_sides`.  The density and
momentum extrapolation those fills start from is here, shared with the
discrete equilibrium initializer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .reconstruct import product_tables

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


def ghost_edge_line(cweno, n_ghost):
    """The line table that `extrapolated_strips` takes: the antiderivative
    of every reconstruction monomial of cell n_ghost + r at the interfaces
    of ghosts 0..n_ghost - 1 (the product-basis line table of rec x 1)."""
    edges = tuple((j - (n_ghost + cweno.radius + 0.5),)
                  for j in range(n_ghost + 1))
    return product_tables(cweno.exps, ((0,),), edges, (cweno.dx,)).line[0]


def extrapolated_strips(cweno, data, sides, n_ghost, edge_line):
    """Edge strips (3, len(sides), n_ghost + 2r + 1) of the given sides,
    each seen from its boundary (index 0 is the outermost ghost; the right
    strip is mirrored, momentum negated), with every ghost average replaced
    by the extrapolation of the hydrostatic fills.

    The extrapolated polynomial is the reconstruction of cell n_ghost + r,
    the innermost cell whose stencil holds interior cells only; each ghost
    gets its exact average, a difference of its antiderivative `edge_line`
    (see `ghost_edge_line`) at the ghost interfaces.
    """
    width = n_ghost + 2 * cweno.radius + 1
    strips = np.stack([data[:, :width] if side == "left"
                       else data[:, :-width - 1:-1] * MIRROR_SIGN
                       for side in sides], axis=1)
    coeffs = cweno.reconstruct_stencils(strips[..., n_ghost:])
    strips[..., :n_ghost] = np.diff(coeffs @ edge_line, axis=-1) / cweno.dx
    return strips
