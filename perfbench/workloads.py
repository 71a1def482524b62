"""Benchmark workloads: solver inputs made from a seed, and result checks.

Each workload is one scenario x scheme x resolution driven through the
public `hydrobal.runner.run`.  The seed only draws the perturbation
amplitude eta, log-uniformly in [1e-4, 1e-2]; across that range the step
count does not change enough to matter (pert: 61-62 steps, rad: 35).
"""

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hydrobal.boundary import BoundarySpec1D
from hydrobal.cases import make_scenario
from hydrobal.runner import run
from hydrobal.scheme import Scheme

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# final fields may differ from the recorded reference by reordered
# floating-point operations (about 1e-13 of the state scale), not more
REFERENCE_TOL = 1e-12
MASS_TOL = 1e-12
REST_MOMENTUM_TOL = 1e-12
REST_DENSITY_TOL = 1e-11


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    kind: str
    order: int
    n: int
    t_end: float
    companion: str                 # "std" or "dirichlet": ratio baseline
    eta_param: str = None          # scenario parameter set to the seeded eta
    init: str = "averages"
    boundary: tuple = None         # 1-D (left, right) override
    conserves_mass: bool = False   # periodic: total mass is exact
    at_rest: bool = False          # discrete equilibrium must stay static

    @property
    def dimension(self):
        return 2 if self.scenario.endswith("2d") else 1

    @property
    def cells(self):
        return self.n ** self.dimension

    @property
    def scheme(self):
        return Scheme(self.kind, self.order)

    def eta(self, seed):
        if self.eta_param is None:
            return None
        rng = np.random.default_rng(seed)
        return float(10.0 ** rng.uniform(-4.0, -2.0))

    def scenario_for(self, seed):
        params = {} if self.eta_param is None else {self.eta_param: self.eta(seed)}
        scenario = make_scenario(self.scenario, **params)
        if self.boundary is not None:
            scenario.boundary = BoundarySpec1D(*self.boundary)
        return scenario

    def companion_workload(self):
        """The untraced baseline that `ratio.*` divides by."""
        if self.companion == "std":
            return dataclasses.replace(self, name=self.name + "+std",
                                       kind="standard")
        return dataclasses.replace(self, name=self.name + "+dirichlet",
                                   boundary=None)

    def run(self, scenario, stop_condition=None, t_end=None):
        return run(scenario, self.scheme, self.n, init=self.init,
                   t_end=self.t_end if t_end is None else t_end,
                   stop_condition=stop_condition)


WORKLOADS = {w.name: w for w in (
    Workload("pert-dwb5",
             "the paper's use case: a small bump on a periodic equilibrium; "
             "well-balanced layers and CWENO dominate, ghost fill and EoS "
             "under 1%",
             "isothermal-perturbed", "dwb", 5, 512, t_end=0.05,
             companion="std", eta_param="eta", conserves_mass=True),
    Workload("wall-dwb5",
             "hydrostatic-extrapolation and solid-wall boundaries on a static "
             "discrete equilibrium; ghost fill dominates, no random input",
             "isothermal-10x", "dwb", 5, 128, t_end=0.1,
             companion="dirichlet", init="discrete",
             boundary=("hydrostatic-extrapolation", "solid-wall"),
             at_rest=True),
    Workload("rad-dwb3",
             "radiation EoS: the only workload where the temperature and "
             "anchor Newton solves do real work",
             "polytropic-radiation", "dwb", 3, 256, t_end=0.05,
             companion="std", eta_param="perturbation"),
    Workload("polytrope2d-la3",
             "the 2-D table-driven LA operator, which shares no equilibrium "
             "code with the 1-D path",
             "polytrope-2d", "la", 3, 48, t_end=0.02,
             companion="std", eta_param="perturbation"),
)}


class CheckFailure(Exception):
    """A run finished but its result is wrong."""


def check_physical(q):
    """Finite state with positive density and internal energy."""
    if not np.all(np.isfinite(q)):
        raise CheckFailure("non-finite final state")
    rho = q[0]
    if np.any(rho <= 0.0):
        raise CheckFailure("non-positive final density")
    kinetic = 0.5 * np.sum(q[1:-1] ** 2, axis=0) / rho
    if np.any(q[-1] - kinetic <= 0.0):
        raise CheckFailure("non-positive final internal energy")


def check_result(workload, result):
    """Raise CheckFailure unless the run's final state passes every check."""
    q = result.final.interior()
    q0 = result.initial.interior()
    check_physical(q)
    if workload.conserves_mass:
        drift = abs(np.sum(q[0]) - np.sum(q0[0])) / np.sum(q0[0])
        if drift > MASS_TOL:
            raise CheckFailure(f"mass drift {drift:.3g} > {MASS_TOL:g}")
    if workload.at_rest:
        momentum = float(np.max(np.abs(q[1:-1])))
        if momentum > REST_MOMENTUM_TOL:
            raise CheckFailure(f"max |rho u| {momentum:.3g} at rest")
        drift = float(np.max(np.abs(q[0] - q0[0]) / q0[0]))
        if drift > REST_DENSITY_TOL:
            raise CheckFailure(f"density drift {drift:.3g} at rest")


def check_fields(final, expected, what):
    """Fields equal up to REFERENCE_TOL of the largest expected magnitude."""
    final = np.asarray(final)
    expected = np.asarray(expected)
    if final.shape != expected.shape:
        raise CheckFailure(f"{what}: shape {final.shape} != {expected.shape}")
    err = float(np.max(np.abs(final - expected)))
    scale = float(np.max(np.abs(expected)))
    if not err <= REFERENCE_TOL * scale:
        raise CheckFailure(f"{what}: max deviation {err:.3g} "
                           f"> {REFERENCE_TOL:g} x {scale:.3g}")


def reference_path(workload):
    return REFERENCE_DIR / f"{workload.name}.npz"


def reference_key(workload):
    """Everything the reference field depends on, as a string."""
    return (f"{workload.scenario} {workload.scheme.label} n={workload.n} "
            f"t_end={workload.t_end!r} init={workload.init} "
            f"boundary={workload.boundary} eta={workload.eta(DEFAULT_SEED)!r}")


def load_reference(workload):
    try:
        data = np.load(reference_path(workload))
    except OSError as exc:
        raise CheckFailure(f"no reference field for {workload.name}: {exc}")
    with data:
        if str(data["key"]) != reference_key(workload):
            raise CheckFailure(f"reference for {workload.name} was recorded "
                               f"for {data['key']}")
        return data["final"]


def save_reference(workload, final):
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(reference_path(workload), final=final,
                        key=np.array(reference_key(workload)))
