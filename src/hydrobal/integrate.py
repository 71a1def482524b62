"""Explicit Runge-Kutta time integration, CFL control, momentum damping."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EosFailure, FluxEvaluationError, StepFailure
from .grid import interior_index
from .physics import cfl_rate, physical_state


@dataclass(frozen=True)
class ButcherTableau:
    name: str
    a: tuple
    b: tuple
    c: tuple
    order: int

    @property
    def stages(self):
        return len(self.b)


FORWARD_EULER = ButcherTableau("euler", ((),), (1.0,), (0.0,), 1)

# four-stage third-order SSP scheme (effective CFL coefficient 2)
SSPRK43 = ButcherTableau(
    "ssprk43",
    ((), (0.5,), (0.5, 0.5), (1 / 6, 1 / 6, 1 / 6)),
    (1 / 6, 1 / 6, 1 / 6, 0.5),
    (0.0, 0.5, 1.0, 0.5),
    3,
)

# classic six-stage fifth-order explicit method
RK5 = ButcherTableau(
    "rk5",
    ((),
     (0.25,),
     (0.125, 0.125),
     (0.0, -0.5, 1.0),
     (3 / 16, 0.0, 0.0, 9 / 16),
     (-3 / 7, 2 / 7, 12 / 7, -12 / 7, 8 / 7)),
    (7 / 90, 0.0, 32 / 90, 12 / 90, 32 / 90, 7 / 90),
    (0.0, 0.25, 0.25, 0.5, 0.75, 1.0),
    5,
)


def tableau_for_order(order):
    return {1: FORWARD_EULER, 3: SSPRK43, 5: RK5}[order]


def rk_step(state, dt, rhs, tableau):
    """One explicit RK step; `state` is any ndarray, `rhs` maps array->array."""
    ks = []
    for s in range(tableau.stages):
        stage = state
        row = tableau.a[s]
        for j, a in enumerate(row):
            if a != 0.0:
                stage = stage + (dt * a) * ks[j]
        ks.append(rhs(stage))
    out = state
    for b, k in zip(tableau.b, ks):
        if b != 0.0:
            out = out + (dt * b) * k
    return out


def damp_momentum(data, delta, dt, momentum_components=(1,)):
    """Exact integral of d(rho u)/dt = -delta * rho u over dt (in place)."""
    factor = np.exp(-delta * dt)
    for comp in momentum_components:
        data[comp] *= factor


def cfl_dt(operator, data, cfl):
    """cfl / max over the interior of sum_a (|u_a| + c) / h_a."""
    grid = operator.grid
    dt = cfl / cfl_rate(data[interior_index(grid)], operator.eos, grid.spacing)
    if not np.isfinite(dt) or dt <= 0.0:
        raise StepFailure("non-positive time step")
    return dt


@dataclass
class StepController:
    cfl: float = 0.5
    t_end: float = 1.0
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigurationError("cfl must be in (0, 1]")


@dataclass
class RunStats:
    steps: int = 0
    time: float = 0.0
    fallback_cells: int = 0


def _check_state(data, interior, time, step):
    q = data[interior]
    if not np.all(np.isfinite(q)):
        raise StepFailure("non-finite state", time=time, step=step)
    if not np.all(physical_state(q)[1]):
        what = "density" if np.any(q[0] <= 0.0) else "internal energy"
        raise StepFailure(f"non-positive {what}", time=time, step=step)


def advance(operator, data, controller, damping=0.0, stop_condition=None):
    """March the semi-discrete system to controller.t_end.

    Returns (data, RunStats).  Momentum damping is applied as an exact
    exponential in a symmetric split around each RK step.  The state is
    checked for positivity after every accepted step.
    """
    if damping < 0.0:
        raise ConfigurationError("damping rate must be non-negative")
    interior = interior_index(operator.grid)
    tableau = tableau_for_order(operator.scheme.order)
    operator.fallback_cells = 0
    stats = RunStats()
    t = 0.0
    data = np.array(data, dtype=float)
    momenta = range(1, data.shape[0] - 1)
    tiny = 1e-12 * max(controller.t_end, 1.0)
    while t < controller.t_end - tiny:
        if stats.steps >= controller.max_steps:
            raise StepFailure("max_steps exceeded", time=t, step=stats.steps)
        dt = min(cfl_dt(operator, data, controller.cfl), controller.t_end - t)
        if damping > 0.0:
            damp_momentum(data, damping, 0.5 * dt, momenta)
        try:
            data = rk_step(data, dt, operator.rhs, tableau)
        except (FluxEvaluationError, EosFailure) as exc:
            raise StepFailure(f"stage evaluation failed: {exc}",
                              time=t, step=stats.steps) from exc
        if damping > 0.0:
            damp_momentum(data, damping, 0.5 * dt, momenta)
        t += dt
        stats.steps += 1
        _check_state(data, interior, t, stats.steps)
        if stop_condition is not None and stop_condition(t, stats):
            break
    stats.time = t
    stats.fallback_cells = operator.fallback_cells
    return data, stats
