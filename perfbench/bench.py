"""The two measurement passes of the hydrobal benchmark.

One process, one thread, one `run()` at a time (a closed loop).  Every run
is one operation: it fails if it raises a `HydrobalError` or its result
fails a check, and a failed run's timings are dropped.

`end_to_end` reports the metrics a user of the solver sees, untraced.
`layer_trace` alternates untraced and traced runs of the same input (plus
an untraced companion for the `ratio.*` metrics) and reports per-layer
self times and counts from the traced ones.
"""

import gc
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from hydrobal.errors import HydrobalError
from hydrobal.integrate import tableau_for_order

import spans
from workloads import (CheckFailure, DEFAULT_SEED, check_fields, check_result,
                       load_reference)

# extra set-up-only runs (t_end = 0) take this share of the timed-run time,
# so that setup_s, a few milliseconds, has enough samples for its median
SETUP_SHARE = 0.1

END_TO_END = {"us_per_cell_stage": "us", "run_s": "s", "setup_s": "s"}

COUNT_METRICS = ("gravity_interp.builds_per_stage", "poly.calls_per_stage",
                 "eos.points_per_stage", "eos.newton_iters_mean",
                 "anchor.newton_iters_mean", "anchor.newton_iters_max")


def per_layer_units():
    """Every per-layer metric the traced pass reports, with its unit."""
    units = {}
    for layer in spans.LOOP_LAYERS:
        units[f"{layer}.us_per_cell_stage"] = "us"
        units[f"{layer}.calls_per_stage"] = "count"
    units["ghost.incl_us_per_cell_stage"] = "us"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "fallback.frac": "ratio",
        "setup.init_s": "s",
        "setup.operator_s": "s",
        "mem.setup_peak_kb": "kB",
        "mem.rhs_peak_kb": "kB",
        "loop.step_p90_us_per_cell_stage": "us",
        "loop.steps": "count",
        "loop.sys_frac": "ratio",
        "loop.page_faults_per_stage": "count",
        "trace.overhead": "ratio",
        "ratio.wb_over_std": "ratio",
        "ratio.bc_over_dirichlet": "ratio",
    })
    return units


@dataclass
class Sample:
    """One finished and checked run."""
    run_s: float
    setup_s: float
    step_s: list           # wall time of each step
    steps: int
    fallback_cells: int


@dataclass
class Session:
    """Runs of one workload in one process, with their failure ledger."""
    workload: object
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    first_final: dict = field(default_factory=dict)

    @property
    def stages(self):
        return tableau_for_order(self.workload.order).stages

    def attempt(self, fn, *args):
        """Run fn(*args) as one operation; None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except (HydrobalError, CheckFailure) as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def timed(self, workload, scenario):
        """Run to t_end with a stamp after every step; check the result.

        Every run of one input must reproduce the first one's final field.
        """
        stamps = []

        def stamp(t, stats):
            stamps.append(time.perf_counter())
            return False

        gc.collect()
        start = time.perf_counter()
        result = workload.run(scenario, stop_condition=stamp)
        total = time.perf_counter() - start
        check_result(workload, result)
        final = result.final.interior()
        first = self.first_final.setdefault(workload.name, final)
        check_fields(final, first, f"{workload.name} repeat")
        # the loop starts before the first step's stamp, inside run()
        first_step = result.wall_time - (stamps[-1] - stamps[0])
        return Sample(result.wall_time, total - result.wall_time,
                      [first_step, *np.diff(stamps)], result.stats.steps,
                      result.stats.fallback_cells)

    def setup_only(self, scenario):
        """run() with t_end = 0: set-up plus an empty loop; returns setup_s."""
        start = time.perf_counter()
        result = self.workload.run(scenario, t_end=0.0)
        total = time.perf_counter() - start
        check_result(self.workload, result)
        return total - result.wall_time

    def check_reference(self, use_reference):
        """Default-seed run, checked against the recorded reference field
        when `use_reference`; it also warms the caches up before timing."""
        def reference_run():
            scenario = self.workload.scenario_for(DEFAULT_SEED)
            result = self.workload.run(scenario)
            check_result(self.workload, result)
            if use_reference:
                check_fields(result.final.interior(),
                             load_reference(self.workload),
                             f"{self.workload.name} reference")
        self.attempt(reference_run)

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


# an empty sample set (every run failed) reads 0, which JSON can carry

def _median(values):
    return float(statistics.median(values)) if len(values) else 0.0


def _p90(values):
    return float(np.percentile(values, 90)) if len(values) else 0.0


def _fastest(values):
    return float(np.min(values)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def best_steps(samples):
    """Wall time of each step of one input: the fastest of its repeats.

    Every run in a window repeats the same input, so step k has one time
    per run.  The host's speed drifts by tens of percent for seconds to
    minutes at a time.  CPU time drifts with wall time, because other
    tenants share the cores.  A fast repeat is the cost of the code with
    the least of that drift.
    """
    if not samples:
        return np.zeros(0)
    steps = min(len(s.step_s) for s in samples)
    return np.min([s.step_s[:steps] for s in samples], axis=0)


def loop_time(samples):
    """Wall time of the step loop to t_end, from the fastest steps.

    Every step does the same work: one CFL evaluation, one RK step and one
    state check.  The first step also carries the start of the loop, so it
    is taken at its own fastest repeat and every later step at the fastest
    later step of the window.  Pooling the later steps takes that minimum
    over every later step of the window rather than over one sample per
    repeat, of which a window holds only tens on a long run.
    """
    if not samples:
        return 0.0
    steps = min(len(s.step_s) for s in samples)
    first = min(s.step_s[0] for s in samples)
    if steps == 1:
        return first
    later = min(min(s.step_s[1:steps]) for s in samples)
    return first + (steps - 1) * later


def end_to_end(workload, seed, seconds, use_reference=True):
    """Untraced closed loop for `seconds`; returns (result, details)."""
    session = Session(workload)
    session.check_reference(use_reference)
    scenario = workload.scenario_for(seed)
    samples, setups = [], []
    run_time = probe_time = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        sample = session.attempt(session.timed, workload, scenario)
        if sample is not None:
            samples.append(sample)
            setups.append(sample.setup_s)
            run_time += sample.run_s + sample.setup_s
        while probe_time < SETUP_SHARE * run_time:
            start = time.perf_counter()
            setup = session.attempt(session.setup_only, scenario)
            probe_time += time.perf_counter() - start
            if setup is None:
                break
            setups.append(setup)
        if time.perf_counter() >= deadline or (sample is None and not samples):
            break
    scale = 1e6 / (workload.cells * session.stages)
    best = best_steps(samples)
    values = {
        # every step of one input does the same work; the fastest one is the
        # steadiest estimate of it on a host whose speed drifts
        "us_per_cell_stage": _fastest(best) * scale,
        "run_s": float(loop_time(samples)),
        "setup_s": _median(setups),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    every_step = [t * scale for s in samples for t in s.step_s]
    details = {
        "runs": len(samples),
        "steps": len(best),
        "setup_samples": len(setups),
        "setup_p90_s": _p90(setups),
        "every_step_us": {"median": _median(every_step),
                          "p90": _p90(every_step)},
        "run_s": {"median": _median([s.run_s for s in samples]),
                  "min": min((s.run_s for s in samples), default=0.0)},
        "errors": session.errors,
    }
    return session.result(metrics), details


def _memory_peaks(workload, scenario):
    """Peak traced allocation (bytes) of set-up and of one rhs evaluation."""
    rhs_peaks = []

    def measure_rhs(fn):
        def wrapper(*args, **kwargs):
            current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            rhs_peaks.append(tracemalloc.get_traced_memory()[1] - current)
            return out
        return wrapper

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        workload.run(scenario, t_end=0.0)
        setup_peak = tracemalloc.get_traced_memory()[1] - base
        targets = [(mod, path, measure_rhs)
                   for mod, path in spans.SPAN_TARGETS["rhs"]]
        with spans.patched(targets, []):
            workload.run(scenario, stop_condition=lambda t, stats: True)
    finally:
        tracemalloc.stop()
    return setup_peak, max(rhs_peaks, default=0)


def layer_trace(workload, seed, seconds, use_reference=True):
    """Traced pass for `seconds`; returns (result, details)."""
    session = Session(workload)
    session.check_reference(use_reference)
    scenario = workload.scenario_for(seed)
    companion = workload.companion_workload()
    companion_scenario = companion.scenario_for(seed)
    skipped = set()

    plain, traced, baseline = [], [], []
    totals = {key: Counter() for key in ("self", "incl", "calls")}
    counts = Counter()
    newton_iters, anchor_iters, init_s, operator_s = [], [], [], []
    kernel = Counter()

    def traced_run():
        tracer = spans.Tracer()
        with tracer.installed():
            sample = session.timed(workload, scenario)
        reduced = spans.reduce_spans(tracer.spans)
        for key in totals:
            totals[key].update(reduced[key])
        counts.update(tracer.counts)
        newton_iters.extend(tracer.newton_iters)
        anchor_iters.extend(tracer.anchor_iters)
        init_s.append(reduced["setup"][spans.SETUP_INIT])
        operator_s.append(reduced["setup"][spans.SETUP_OPERATOR])
        skipped.update(tracer.skipped)
        kernel.update(sys_s=tracer.loop_sys_s, faults=tracer.loop_page_faults)
        return sample

    deadline = time.perf_counter() + seconds
    while True:
        for into, fn, args in (
                (plain, session.timed, (workload, scenario)),
                (traced, traced_run, ()),
                (baseline, session.timed, (companion, companion_scenario))):
            sample = session.attempt(fn, *args)
            if sample is not None:
                into.append(sample)
        if time.perf_counter() >= deadline or not (plain and traced):
            break
    setup_peak, rhs_peak = session.attempt(_memory_peaks, workload,
                                           scenario) or (0, 0)

    stages = sum(s.steps for s in traced) * session.stages
    cell_stages = stages * workload.cells
    scale = 1e6 / (workload.cells * session.stages)
    plain_us = best_steps(plain) * scale
    traced_us = best_steps(traced) * scale
    base_us = best_steps(baseline) * scale

    values = {}
    for layer in spans.LOOP_LAYERS:
        values[f"{layer}.us_per_cell_stage"] = \
            _ratio(1e6 * totals["self"][layer], cell_stages)
        values[f"{layer}.calls_per_stage"] = \
            _ratio(totals["calls"][layer], stages)
    values["ghost.incl_us_per_cell_stage"] = \
        _ratio(1e6 * totals["incl"]["ghost"], cell_stages)
    values.update({
        "gravity_interp.builds_per_stage":
            _ratio(counts["gravity_interp.builds"], stages),
        "poly.calls_per_stage": _ratio(counts["poly.calls"], stages),
        "eos.points_per_stage": _ratio(counts["eos.points"], stages),
        "eos.newton_iters_mean": float(np.mean(newton_iters)) if newton_iters else 0.0,
        "anchor.newton_iters_mean": float(np.mean(anchor_iters)) if anchor_iters else 0.0,
        "anchor.newton_iters_max": float(max(anchor_iters, default=0)),
        "fallback.frac": _ratio(
            sum(s.fallback_cells for s in plain),
            sum(s.steps for s in plain) * session.stages * workload.cells),
        "setup.init_s": _median(init_s),
        "setup.operator_s": _median(operator_s),
        "mem.setup_peak_kb": setup_peak / 1024.0,
        "mem.rhs_peak_kb": rhs_peak / 1024.0,
        "loop.step_p90_us_per_cell_stage": _p90(plain_us),
        "loop.steps": _median([s.steps for s in plain]),
        "loop.sys_frac": _ratio(kernel["sys_s"], totals["incl"][spans.LOOP]),
        "loop.page_faults_per_stage": _ratio(kernel["faults"], stages),
        "trace.overhead": _ratio(_fastest(traced_us), _fastest(plain_us)),
        # 0 where the workload has no companion of that kind
        "ratio.wb_over_std": _ratio(_fastest(plain_us), _fastest(base_us))
        if workload.companion == "std" else 0.0,
        "ratio.bc_over_dirichlet": _ratio(_fastest(plain_us), _fastest(base_us))
        if workload.companion == "dirichlet" else 0.0,
    })
    units = per_layer_units()
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    loop_s = totals["incl"][spans.LOOP]
    details = {
        "runs": {"plain": len(plain), "traced": len(traced),
                 "companion": len(baseline)},
        "loop_us_per_cell_stage": _ratio(1e6 * loop_s, cell_stages),
        "shares": {layer: _ratio(totals["self"][layer], loop_s)
                   for layer in spans.LOOP_LAYERS},
        "ghost_incl_share": _ratio(totals["incl"]["ghost"], loop_s),
        "coverage": _ratio(sum(totals["self"][layer]
                               for layer in spans.LOOP_LAYERS), loop_s),
        "skipped": sorted(skipped),
        "errors": session.errors,
    }
    return session.result(metrics), details
