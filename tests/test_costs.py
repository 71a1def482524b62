"""Exact per-RHS cost counts of the benchmark workloads' schemes.

`costs.rhs_costs` counts one warm right-hand side: cProfile's primitive
calls and the interpreter's opcodes.  Both repeat exactly for one input on
one interpreter and numpy, so a change to either is a change to the code;
update the pin and state the old and new counts with the change.
"""

import sys

import numpy as np
import pytest

from costs import rhs_costs
from hydrobal.boundary import BoundarySpec1D
from hydrobal.cases import grid_for, init_cell_averages, make_scenario
from hydrobal.runner import make_operator
from hydrobal.scheme import Scheme

# the versions the pins were counted with: opcodes and the calls into
# numpy's Python wrappers differ between versions
PINNED_ON = ((3, 11), "2.")

WALL = ("hydrostatic-extrapolation", "solid-wall")

# (scenario, parameters, sides or None for the scenario's own, kind, order)
# -> (profiled calls, opcodes), at n = 48 (2-D: 16 x 16) from the averaged
# initial state
PINS = {
    ("isothermal-perturbed", "eta", None, "dwb", 5): (211, 3445),
    ("isothermal-perturbed", "eta", None, "standard", 5): (134, 2211),
    ("isothermal-perturbed", "eta", None, "dwb", 3): (211, 3390),
    ("isothermal-perturbed", "eta", None, "standard", 3): (134, 2211),
    ("isothermal-perturbed", "eta", None, "la", 3): (225, 3308),
    ("isothermal-perturbed", "eta", None, "la", 5): (225, 3308),
    ("isothermal-perturbed", "eta", None, "dwb-s", 3): (220, 3474),
    ("isothermal-perturbed", "eta", None, "dwb-s", 5): (220, 3529),
    ("isothermal-perturbed", "eta", None, "la-s", 3): (233, 3404),
    ("isothermal-perturbed", "eta", None, "la-s", 5): (233, 3404),
    ("isothermal-10x", None, None, "dwb", 5): (207, 3328),
    ("isothermal-10x", None, None, "standard", 5): (130, 2094),
    ("isothermal-10x", None, WALL, "dwb", 5): (259, 4284),
    ("isothermal-10x", None, WALL, "standard", 5): (197, 3292),
    ("polytropic-radiation", "perturbation", None, "dwb", 3): (335, 5882),
    ("polytropic-radiation", "perturbation", None, "standard", 3):
        (175, 3005),
    ("polytrope-2d", None, None, "standard", 3): (185, 3293),
    ("polytrope-2d", None, None, "la", 3): (277, 4402),
    ("polytrope-2d", None, None, "la-s", 3): (285, 4498),
}
SIZES = {"polytrope-2d": 16}


@pytest.mark.skipif(
    sys.version_info[:2] != PINNED_ON[0]
    or not np.__version__.startswith(PINNED_ON[1]),
    reason="the counts are pinned for Python 3.11 and numpy 2")
@pytest.mark.parametrize("case", list(PINS), ids=[
    f"{name}-{'wall' if sides else 'own'}-{kind}{order}"
    for name, _, sides, kind, order in PINS])
def test_rhs_costs(case):
    name, param, sides, kind, order = case
    scenario = make_scenario(name, **({param: 1e-3} if param else {}))
    if sides:
        scenario.boundary = BoundarySpec1D(*sides)
    scheme = Scheme(kind, order)
    grid = grid_for(scenario, SIZES.get(name, 48), scheme.n_ghost)
    data = init_cell_averages(scenario, grid).data
    op = make_operator(scenario, grid, scheme)
    op.set_initial_state(data)
    assert rhs_costs(op, data) == PINS[case]
    assert op.fallback_cells == 0
