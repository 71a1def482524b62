"""Mirror symmetry of the 1-D right-hand side.

Mirroring x -> lo + hi - x maps a state to one whose cells run backwards,
with momentum and gravity negated and the two sides swapped.  The scheme
has no preferred direction, so its right-hand side maps the same way, to
roundoff.  The property needs no reference solution, and it covers the
hydrostatic fill's right side, which takes its pieces mirrored.
"""

import copy

import numpy as np
import pytest

from hydrobal.boundary import BoundarySpec1D
from hydrobal.cases import grid_for, init_cell_averages, make_scenario
from hydrobal.runner import make_operator
from hydrobal.scheme import Scheme

EXTRAP, WALL, DIRICHLET = ("hydrostatic-extrapolation", "solid-wall",
                           "dirichlet")
SIGN = np.array([[1.0], [-1.0], [1.0]])    # (rho, rho u, E) mirrored


def mirrored(scenario):
    """`scenario` seen in the mirror: gravity negated at the mirror image
    of every point, the two sides swapped."""
    lo, hi = scenario.domain
    gravity = scenario.gravity
    image = copy.copy(scenario)
    image.gravity = lambda x: -gravity(lo + hi - np.asarray(x))
    image.boundary = BoundarySpec1D(scenario.boundary.right,
                                    scenario.boundary.left)
    return image


@pytest.mark.parametrize("sides", [(EXTRAP, WALL), (EXTRAP, EXTRAP),
                                   (WALL, DIRICHLET)],
                         ids=["extrap-wall", "extrap-extrap", "wall-dirichlet"])
@pytest.mark.parametrize("scenario", ["isothermal-10x", "polytropic-radiation",
                                      "riemann-on-equilibrium"])
@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("kind", ["standard", "dwb", "dwb-s", "la", "la-s"])
def test_rhs_mirror_symmetry(kind, order, scenario, sides):
    scen = make_scenario(scenario)
    scen.boundary = BoundarySpec1D(*sides)
    scheme = Scheme(kind, order)
    grid = grid_for(scen, 40, scheme.n_ghost)
    # a moving state off equilibrium
    data = init_cell_averages(scen, grid).data
    rng = np.random.default_rng(order)
    noise = rng.standard_normal(data.shape)
    data[0] *= 1.0 + 1e-2 * noise[0]
    data[1] = 0.05 * data[0] * noise[1]
    data[2] *= 1.0 + 1e-2 * noise[2]
    image = data[:, ::-1] * SIGN

    ops = []
    for case, state in ((scen, data), (mirrored(scen), image)):
        op = make_operator(case, grid, scheme)
        op.set_initial_state(state)
        ops.append((op, op.rhs(state)))
    (op, rhs), (op_image, rhs_image) = ops
    scale = np.max(np.abs(data)) / grid.spacing[0]
    assert np.max(np.abs(rhs_image - rhs[:, ::-1] * SIGN)) <= 1e-14 * scale
    assert op_image.fallback_cells == op.fallback_cells
