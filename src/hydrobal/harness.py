"""Study orchestration and structured output (CSV tables, meta.json)."""

import csv
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cases import make_scenario
from .errors import HydrobalError
from .metrics import convergence_rate
from .runner import run
from .scheme import Scheme

COMPONENT_NAMES = {3: ("rho", "rho_u", "E"), 4: ("rho", "rho_u", "rho_v", "E")}


def scenario_from_config(cfg):
    return make_scenario(cfg.scenario, **cfg.scenario_params)


def scheme_from_config(cfg):
    return Scheme(cfg.scheme, cfg.order, cfg.flux)


def _reference_run(cfg, scenario):
    ref = cfg.reference or {"kind": "initial"}
    if ref["kind"] == "initial":
        return None
    scheme = Scheme(ref.get("scheme", cfg.scheme), ref.get("order", cfg.order),
                    cfg.flux)
    return run(scenario, scheme, ref["n"], cfl=cfg.cfl, t_end=cfg.t_end,
               init=cfg.init, eps_w=cfg.eps_w, damping=cfg.damping)


def run_single(cfg):
    scenario = scenario_from_config(cfg)
    result = run(scenario, scheme_from_config(cfg), cfg.n, cfl=cfg.cfl,
                 t_end=cfg.t_end, init=cfg.init, eps_w=cfg.eps_w,
                 damping=cfg.damping)
    reference = _reference_run(cfg, scenario)
    errors = result.errors_vs(reference) if reference is not None \
        else result.errors_vs_initial()
    return result, errors


def run_convergence_study(cfg):
    """Errors and rates (as lists) over cfg.resolutions; failures per row."""
    scenario = scenario_from_config(cfg)
    scheme = scheme_from_config(cfg)
    reference = _reference_run(cfg, scenario)
    rows = []
    for n in cfg.resolutions or [cfg.n]:
        try:
            result = run(scenario, scheme, n, cfl=cfg.cfl, t_end=cfg.t_end,
                         init=cfg.init, eps_w=cfg.eps_w, damping=cfg.damping)
            errors = result.errors_vs(reference) if reference is not None \
                else result.errors_vs_initial()
            rows.append({"n": n, "errors": errors.tolist(),
                         "steps": result.stats.steps,
                         "wall_time": result.wall_time,
                         "fallback_cells": result.stats.fallback_cells,
                         "failure": None})
        except HydrobalError as exc:
            rows.append({"n": n, "errors": None, "steps": None,
                         "wall_time": None, "fallback_cells": None,
                         "failure": f"{type(exc).__name__}: {exc}"})
    # rates between successive successful resolutions with doubled n
    for prev, row in zip(rows, rows[1:]):
        if (row["errors"] is not None and prev["errors"] is not None
                and row["n"] == 2 * prev["n"]):
            row["rates"] = convergence_rate(prev["errors"],
                                            row["errors"]).tolist()
    return {"config": cfg, "scheme_label": scheme.label, "rows": rows}


def run_efficiency_study(cfg):
    """Wall-clock statistics vs error per resolution, cfg.repetitions each."""
    scenario = scenario_from_config(cfg)
    scheme = scheme_from_config(cfg)
    reference = _reference_run(cfg, scenario)
    rows = []
    for n in cfg.resolutions or [cfg.n]:
        times = []
        errors = None
        for _ in range(cfg.repetitions):
            result = run(scenario, scheme, n, cfl=cfg.cfl, t_end=cfg.t_end,
                         init=cfg.init, eps_w=cfg.eps_w, damping=cfg.damping)
            times.append(result.wall_time)
            errors = result.errors_vs(reference) if reference is not None \
                else result.errors_vs_initial()
        rows.append({
            "n": n,
            "errors": errors.tolist(),
            "mean_time": float(np.mean(times)),
            "var_time": float(np.var(times)),
        })
    return {"config": cfg, "scheme_label": scheme.label, "rows": rows}


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def write_report_csv(report, path):
    """Fixed column order: component, N, error, rate."""
    rows = report["rows"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["component", "N", "error", "rate"])
        for row in rows:
            if row.get("failure"):
                writer.writerow(["-", row["n"], "failed", row["failure"]])
                continue
            names = COMPONENT_NAMES[len(row["errors"])]
            rates = row.get("rates")
            for c, name in enumerate(names):
                rate = "" if rates is None else f"{rates[c]:.3f}"
                writer.writerow([name, row["n"], f"{row['errors'][c]:.6e}", rate])


def write_efficiency_csv(report, path):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["N", "mean_time", "var_time", "component", "error"])
        for row in report["rows"]:
            names = COMPONENT_NAMES[len(row["errors"])]
            for c, name in enumerate(names):
                writer.writerow([row["n"], f"{row['mean_time']:.6e}",
                                 f"{row['var_time']:.6e}", name,
                                 f"{row['errors'][c]:.6e}"])


def format_table(report):
    """Human-readable error/rate table, one block per component."""
    rows = [r for r in report["rows"]]
    if not rows:
        return "(no rows)"
    lines = [f"scheme: {report['scheme_label']}"]
    ok_rows = [r for r in rows if not r.get("failure")]
    n_comp = len(ok_rows[0]["errors"]) if ok_rows else 0
    names = COMPONENT_NAMES.get(n_comp, ())
    header = "    N " + "".join(f"{name:>14s}{'rate':>8s}" for name in names)
    lines.append(header)
    for row in rows:
        if row.get("failure"):
            lines.append(f"{row['n']:5d}  FAILED: {row['failure']}")
            continue
        cells = []
        for c in range(n_comp):
            rate = row.get("rates")
            rate_txt = f"{rate[c]:8.2f}" if rate is not None else " " * 8
            cells.append(f"{row['errors'][c]:14.4e}{rate_txt}")
        lines.append(f"{row['n']:5d} " + "".join(cells))
    return "\n".join(lines)


def write_fields_csv(result, path):
    """Cell centers plus conserved averages of the final state."""
    grid = result.grid
    q = result.final.interior()
    names = COMPONENT_NAMES[q.shape[0]]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        centers = [grid.centers(a, include_ghosts=False)
                   for a in range(len(grid.cells))]
        writer.writerow([*"xy"[:len(centers)], *names])
        for cell in np.ndindex(*grid.cells):
            writer.writerow([f"{x[i]:.10e}" for x, i in zip(centers, cell)]
                            + [f"{v:.16e}" for v in q[(slice(None),) + cell]])


def write_meta(cfg, path, extra=None):
    meta = {
        "config": cfg.as_dict(),
        "versions": {
            "hydrobal": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    if extra:
        meta.update(extra)
    Path(path).write_text(json.dumps(meta, indent=2, default=str) + "\n")
