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

# (scenario, parameters, sides or None for the scenario's own, kind, order,
# flux) -> (profiled calls, opcodes), at n = 48 (2-D: 16 x 16) from the
# averaged initial state
PINS = {
    ("isothermal-perturbed", "eta", None, "dwb", 5, "roe"): (180, 3153),
    ("isothermal-perturbed", "eta", None, "standard", 5, "roe"): (104, 1964),
    ("isothermal-perturbed", "eta", None, "dwb", 3, "roe"): (180, 3098),
    ("isothermal-perturbed", "eta", None, "standard", 3, "roe"): (104, 1964),
    ("isothermal-perturbed", "eta", None, "la", 3, "roe"): (194, 3038),
    ("isothermal-perturbed", "eta", None, "la", 5, "roe"): (194, 3038),
    ("isothermal-perturbed", "eta", None, "dwb-s", 3, "roe"): (188, 3201),
    ("isothermal-perturbed", "eta", None, "dwb-s", 5, "roe"): (188, 3256),
    ("isothermal-perturbed", "eta", None, "la-s", 3, "roe"): (201, 3131),
    ("isothermal-perturbed", "eta", None, "la-s", 5, "roe"): (201, 3131),
    ("isothermal-10x", None, None, "dwb", 5, "roe"): (176, 3036),
    ("isothermal-10x", None, None, "standard", 5, "roe"): (100, 1847),
    ("isothermal-10x", None, WALL, "dwb", 5, "roe"): (228, 3994),
    ("isothermal-10x", None, WALL, "standard", 5, "roe"): (176, 3208),
    ("polytropic-radiation", "perturbation", None, "dwb", 3, "roe"):
        (304, 5590),
    ("polytropic-radiation", "perturbation", None, "standard", 3, "roe"):
        (145, 2758),
    ("polytrope-2d", None, None, "standard", 3, "roe"): (141, 2905),
    ("polytrope-2d", None, None, "la", 3, "roe"): (232, 3991),
    ("polytrope-2d", None, None, "la-s", 3, "roe"): (239, 4084),
    ("isothermal-perturbed", "eta", None, "dwb", 5, "hllc"): (184, 3144),
    ("isothermal-perturbed", "eta", None, "dwb", 5, "rusanov"): (179, 2882),
    ("polytrope-2d", None, None, "la", 3, "hllc"): (242, 3973),
    ("polytrope-2d", None, None, "la", 3, "rusanov"): (232, 3449),
}
SIZES = {"polytrope-2d": 16}


@pytest.mark.skipif(
    sys.version_info[:2] != PINNED_ON[0]
    or not np.__version__.startswith(PINNED_ON[1]),
    reason="the counts are pinned for Python 3.11 and numpy 2")
@pytest.mark.parametrize("case", list(PINS), ids=[
    f"{name}-{'wall' if sides else 'own'}-{kind}{order}"
    + ("" if flux == "roe" else f"-{flux}")
    for name, _, sides, kind, order, flux in PINS])
def test_rhs_costs(case):
    name, param, sides, kind, order, flux = case
    scenario = make_scenario(name, **({param: 1e-3} if param else {}))
    if sides:
        scenario.boundary = BoundarySpec1D(*sides)
    scheme = Scheme(kind, order, flux)
    grid = grid_for(scenario, SIZES.get(name, 48), scheme.n_ghost)
    data = init_cell_averages(scenario, grid).data
    op = make_operator(scenario, grid, scheme)
    op.set_initial_state(data)
    assert rhs_costs(op, data) == PINS[case]
    assert op.fallback_cells == 0
