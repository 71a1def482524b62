"""Single-run orchestration: grid + operator + initial data + time loop."""

import math
import time
from dataclasses import dataclass, field as dc_field

from .cases import discrete_equilibrium_init, grid_for, init_cell_averages
from .errors import ConfigurationError
from .grid import CellField
from .integrate import StepController, advance
from .metrics import l1_error, restrict
from .operator1d import SpatialOperator1D
from .operator2d import SpatialOperator2D


@dataclass
class RunResult:
    scenario: object
    scheme: object
    grid: object
    initial: object
    final: object
    stats: object
    wall_time: float = 0.0
    meta: dict = dc_field(default_factory=dict)

    @property
    def cell_volume(self):
        return math.prod(self.grid.spacing)

    def errors_vs_initial(self):
        return l1_error(self.final.interior(), self.initial.interior(),
                        self.cell_volume)

    def errors_vs(self, reference):
        """L1 errors against another run's final field (block-restricted).

        The reference must have the run's resolution or an integer multiple
        of it.
        """
        ref = reference.final.interior()
        mine = self.final.interior()
        n_ref, n = ref.shape[-1], mine.shape[-1]
        if n_ref % n:
            raise ConfigurationError(
                f"reference resolution n = {n_ref} is not an integer multiple "
                f"of the run's n = {n}")
        if n_ref != n:
            ref = restrict(ref, n_ref // n, len(self.grid.cells))
        return l1_error(mine, ref, self.cell_volume)


def make_operator(scenario, grid, scheme, eps_w=None):
    if scenario.dimension == 1:
        return SpatialOperator1D(grid, scheme, scenario.eos, scenario.gravity,
                                 scenario.boundary, eps_w)
    return SpatialOperator2D(grid, scheme, scenario.eos, scenario.gravity,
                             scenario.boundary, eps_w, scenario.background)


def run(scenario, scheme, n, cfl=0.5, t_end=None, init="averages",
        damping=None, stop_condition=None, eps_w=None):
    """Run one scenario with one scheme at resolution n.

    init: 'averages' (quadrature of the initial closure) or 'discrete' (the
    discrete hydrostatic equilibrium of the run's operator, built first).
    The averages come before the operator: the other order faults in more
    fresh pages and made a 2-D set-up after a run about 20% slower.
    Timing covers the step loop only.
    """
    scheme.validate_dimension(scenario.dimension)
    grid = grid_for(scenario, n, scheme.n_ghost)
    field = None if init == "discrete" else init_cell_averages(scenario, grid)
    operator = make_operator(scenario, grid, scheme, eps_w)
    if field is None:
        field = discrete_equilibrium_init(scenario, operator)
    operator.set_initial_state(field.data)
    controller = StepController(
        cfl=cfl, t_end=scenario.t_end if t_end is None else t_end)
    delta = scenario.params.get("damping", 0.0) if damping is None else damping
    start = time.perf_counter()
    data, stats = advance(operator, field.data.copy(), controller,
                          damping=delta, stop_condition=stop_condition)
    elapsed = time.perf_counter() - start
    return RunResult(
        scenario=scenario,
        scheme=scheme,
        grid=grid,
        initial=field,
        final=CellField(grid, data),
        stats=stats,
        wall_time=elapsed,
        meta={"n": n, "cfl": cfl, "init": init, "damping": delta},
    )
