"""Outside-in span tracer for the hydrobal benchmark.

The solver carries no instrumentation of its own.  A `Tracer` patches the
entry points of each layer (module functions, class methods and the flux
table) with wrappers that record one span per call, and restores the
originals when its `installed()` context exits.  Spans are reduced to
per-layer self time (span time minus the time of its child spans), so every
microsecond inside the step loop belongs to exactly one named layer.

Entry points that a given solver version does not have are skipped and
listed in `Tracer.skipped`; their time then shows up in the calling layer.
"""

import resource
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from importlib import import_module

import numpy as np

LOOP = "step.loop"
SETUP_INIT = "setup.init"
SETUP_OPERATOR = "setup.operator"

_ANCHORS = ("anchor_pressure_ideal", "anchor_pressure_newton",
            "anchor_pressure_simplified")

# layer name -> entry points as (module, dotted attribute path); a path part
# on a dict selects an item
SPAN_TARGETS = {
    LOOP: [("hydrobal.runner", "advance")],
    SETUP_INIT: [("hydrobal.runner", "init_cell_averages"),
                 ("hydrobal.runner", "discrete_equilibrium_init")],
    SETUP_OPERATOR: [("hydrobal.runner", "make_operator"),
                     ("hydrobal.operator1d", "SpatialOperator1D.set_initial_state"),
                     ("hydrobal.operator2d", "SpatialOperator2D.set_initial_state")],
    "ghost": [("hydrobal.operator1d", "SpatialOperator1D.fill_ghosts"),
              ("hydrobal.operator2d", "SpatialOperator2D.fill_ghosts")],
    "cweno": [("hydrobal.reconstruct", "Cweno1D.reconstruct_stencils"),
              ("hydrobal.reconstruct", "Cweno2D.reconstruct_stencils")],
    "wb.profile": [("hydrobal.operator1d", "build_profiles")],
    "wb.deviation": [("hydrobal.operator1d", "energy_deviations")],
    "wb.faces": [("hydrobal.operator1d", "hydrostatic_energy_faces")],
    "wb2d": [("hydrobal.operator2d", "SpatialOperator2D._profiles_and_faces")],
    "source2d": [("hydrobal.operator2d", "SpatialOperator2D._sources")],
    "flux": [("hydrobal.physics", f"FLUXES.{name}")
             for name in ("roe", "hllc", "rusanov")]
    + [("hydrobal.operator1d", "wall_boundary_flux"),
       ("hydrobal.operator2d", "wall_boundary_flux")],
    "rhs": [("hydrobal.operator1d", "SpatialOperator1D.rhs"),
            ("hydrobal.operator2d", "SpatialOperator2D.rhs")],
    "step.cfl": [("hydrobal.integrate", "cfl_dt")],
    "step.check": [("hydrobal.integrate", "_check_state")],
    "step.rk": [("hydrobal.integrate", "rk_step")],
}
ANCHOR_TARGETS = [(mod, name) for mod in ("hydrobal.wellbalance",
                                          "hydrobal.operator1d")
                  for name in _ANCHORS] \
    + [("hydrobal.operator2d", "SpatialOperator2D._newton_anchor")]
EOS_CLASSES = ("IdealGas", "IdealGasRadiation")
EOS_POINT_METHODS = ("pressure", "internal_energy", "deps_dp", "deps_drho",
                     "sound_speed")
EOS_INNER_TARGETS = [("hydrobal.eos", f"IdealGasRadiation.{name}")
                     for name in ("temperature_from_eps", "temperature_from_p")]
POLY_TARGETS = [(mod, name) for mod in ("hydrobal.operator1d",
                                        "hydrobal.wellbalance")
                for name in ("poly_eval", "poly_mul", "poly_antiderivative")]
GRAVITY_INTERP_TARGET = ("hydrobal.operator1d", "GravityInterp1D")

# layers whose self time is reported; together they cover the step loop
LOOP_LAYERS = ("ghost", "cweno", "wb.profile", "wb.anchor", "wb.deviation",
               "wb.faces", "wb2d", "source2d", "flux", "eos", "rhs",
               "step.cfl", "step.check", "step.rk", LOOP)


def reduce_spans(spans):
    """Per-layer totals from a list of spans (name, start, end, parent).

    `parent` is the index of the enclosing span or -1; a parent always
    precedes its children.  Returns a dict with, for spans inside a `LOOP`
    span, `self` (duration minus the duration of direct children), `incl`
    and `calls` per name, both counted only for the outermost span of a name
    on any path; and `setup`, the inclusive time per name of spans outside
    the loop that no same-named span encloses.
    """
    n = len(spans)
    child = [0.0] * n
    in_loop = [False] * n
    outer = [True] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            in_loop[i] = name == LOOP
            continue
        child[parent] += end - start
        in_loop[i] = in_loop[parent]
        k = parent
        while k >= 0:
            if spans[k][0] == name:
                outer[i] = False
                break
            k = spans[k][3]
    self_t, incl, calls, setup = Counter(), Counter(), Counter(), Counter()
    for i, (name, start, end, _) in enumerate(spans):
        dur = end - start
        if in_loop[i]:
            self_t[name] += dur - child[i]
            if outer[i]:
                incl[name] += dur
                calls[name] += 1
        elif outer[i]:
            setup[name] += dur
    return {"self": self_t, "incl": incl, "calls": calls, "setup": setup}


def _resolve(owner, part):
    return owner[part] if isinstance(owner, dict) else getattr(owner, part)


class Tracer:
    """Records spans and loop-only counters while `installed()` is active.

    Counters (`counts`, `newton_iters`, `anchor_iters`) only accumulate
    while a `LOOP` span is open, so set-up work does not dilute them.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.newton_iters = []    # residual evaluations per EoS Newton solve
        self.anchor_iters = []    # EoS internal_energy calls per anchor call
        self.loop_sys_s = 0.0     # system CPU time inside the loop
        self.loop_page_faults = 0
        self.skipped = []
        self._stack = []
        self._anchor_open = []
        self._loop_depth = 0

    # -- recording ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        if name == LOOP:
            self._loop_depth += 1
            self._loop_usage = resource.getrusage(resource.RUSAGE_SELF)
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def _close(self, name):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        if name == LOOP:
            self._loop_depth -= 1
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.loop_sys_s += usage.ru_stime - self._loop_usage.ru_stime
            self.loop_page_faults += usage.ru_minflt - self._loop_usage.ru_minflt

    def _count(self, key, amount=1):
        if self._loop_depth:
            self.counts[key] += amount

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name)
        return wrapper

    def _anchor(self, fn):
        inner = self._span("wb.anchor", fn)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._anchor_open.append(0)
            try:
                return inner(*args, **kwargs)
            finally:
                calls = self._anchor_open.pop()
                if self._loop_depth:
                    self.anchor_iters.append(calls)
        return wrapper

    def _eos_points(self, method, fn):
        inner = self._span("eos", fn)

        @wraps(fn)
        def wrapper(eos, rho, other):
            self._count("eos.points", np.broadcast(rho, other).size)
            if method == "internal_energy" and self._anchor_open:
                self._anchor_open[-1] += 1
            return inner(eos, rho, other)
        return wrapper

    def _newton(self, fn):
        inner = self._span("eos", fn)

        @wraps(fn)
        def wrapper(t, rho, target, f, fprime):
            evals = [0]

            def counted(temp):
                evals[0] += 1
                return f(temp)
            try:
                return inner(t, rho, target, counted, fprime)
            finally:
                if self._loop_depth:
                    self.newton_iters.append(evals[0])
        return wrapper

    def _counter(self, key, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _targets(self):
        for layer, targets in SPAN_TARGETS.items():
            for mod, path in targets:
                yield mod, path, lambda fn, layer=layer: self._span(layer, fn)
        for mod, path in ANCHOR_TARGETS:
            yield mod, path, self._anchor
        for cls in EOS_CLASSES:
            for method in EOS_POINT_METHODS:
                yield ("hydrobal.eos", f"{cls}.{method}",
                       lambda fn, m=method: self._eos_points(m, fn))
        for mod, path in EOS_INNER_TARGETS:
            yield mod, path, lambda fn: self._span("eos", fn)
        yield "hydrobal.eos", "IdealGasRadiation._newton", self._newton
        for mod, path in POLY_TARGETS:
            yield mod, path, lambda fn: self._counter("poly.calls", fn)
        yield (*GRAVITY_INTERP_TARGET,
               lambda fn: self._counter("gravity_interp.builds", fn))

    def installed(self):
        """Context that patches every entry point and restores them on exit."""
        return patched(self._targets(), self.skipped)


@contextmanager
def patched(targets, skipped):
    """Patch each (module, path, make) target with make(original).

    Targets that do not exist are appended to `skipped`.  Every patch is
    undone on exit, in reverse order.
    """
    undo = []
    try:
        for mod_name, path, make in targets:
            *parents, last = path.split(".")
            try:
                owner = import_module(mod_name)
                for part in parents:
                    owner = _resolve(owner, part)
                undo.append(_patch(owner, last, make))
            except (ImportError, AttributeError, KeyError):
                skipped.append(f"{mod_name}:{path}")
        yield
    finally:
        for restore in reversed(undo):
            restore()


def _patch(owner, name, make):
    """Replace owner.name by make(original); return the undo function.

    Methods are patched only where the class itself defines them, and a
    staticmethod stays a staticmethod.
    """
    if isinstance(owner, dict):
        original = owner[name]
        owner[name] = make(original)
        return lambda: owner.__setitem__(name, original)
    if isinstance(owner, type):
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))
        return lambda: setattr(owner, name, raw)
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    return lambda: setattr(owner, name, original)
