"""Command-line interface: run, study, bench."""

import argparse
import sys
from pathlib import Path

from .config import RunConfig, load_config, validate_config
from .errors import HydrobalError
from .harness import (
    COMPONENT_NAMES,
    format_table,
    run_convergence_study,
    run_efficiency_study,
    run_single,
    write_efficiency_csv,
    write_fields_csv,
    write_meta,
    write_report_csv,
)


def _add_common(parser):
    parser.add_argument("--config", type=Path, help="JSON configuration file")
    parser.add_argument("--scenario", help="scenario name (overrides config)")
    parser.add_argument("--scheme", help="standard|dwb|dwb-s|la|la-s")
    parser.add_argument("--order", type=int, help="1|3|5")
    parser.add_argument("--n", type=int, help="cells per axis")
    parser.add_argument("--flux", help="roe|hllc|rusanov")
    parser.add_argument("--cfl", type=float)
    parser.add_argument("--t-end", type=float, dest="t_end")
    parser.add_argument("--out", help="output directory")


def _build_config(args):
    raw = {}
    if args.config:
        raw = load_config(args.config).as_dict()
        raw = {k: v for k, v in raw.items() if v is not None}
        if raw.get("scenario_params") == {}:
            raw.pop("scenario_params", None)
    for key in ("scenario", "scheme", "order", "n", "flux", "cfl",
                "t_end", "out", "resolutions", "repetitions"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = value
    if "scenario" not in raw:
        raise HydrobalError("a scenario is required (--scenario or --config)")
    return validate_config(raw)


def _out_dir(cfg):
    out = Path(cfg.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args):
    cfg = _build_config(args)
    result, errors = run_single(cfg)
    print(f"scenario={cfg.scenario} scheme={result.scheme.label} n={cfg.n} "
          f"t={result.stats.time:.6g} steps={result.stats.steps}")
    for name, err in zip(COMPONENT_NAMES[len(errors)], errors):
        print(f"  L1[{name}] = {err:.6e}")
    if cfg.out:
        out = _out_dir(cfg)
        write_fields_csv(result, out / f"fields_{cfg.scenario}_{cfg.n}.csv")
        write_meta(cfg, out / "meta.json",
                   extra={"steps": result.stats.steps,
                          "wall_time": result.wall_time,
                          "fallback_cells": result.stats.fallback_cells})
    return 0


def cmd_study(args):
    cfg = _build_config(args)
    report = run_convergence_study(cfg)
    print(format_table(report))
    if cfg.out:
        out = _out_dir(cfg)
        write_report_csv(report, out / "report.csv")
        (out / "table.txt").write_text(format_table(report) + "\n")
        write_meta(cfg, out / "meta.json", extra={"rows": report["rows"]})
    return int(all(row["failure"] for row in report["rows"]))


def cmd_bench(args):
    cfg = _build_config(args)
    report = run_efficiency_study(cfg)
    for row in report["rows"]:
        if row["failure"]:
            print(f"N={row['n']:5d} FAILED: {row['failure']}")
            continue
        print(f"N={row['n']:5d} mean_time={row['mean_time']:.4f}s "
              f"var={row['var_time']:.2e} E_err={row['errors'][-1]:.4e}")
    if cfg.out:
        out = _out_dir(cfg)
        write_efficiency_csv(report, out / "report.csv")
        write_meta(cfg, out / "meta.json", extra={"rows": report["rows"]})
    return int(all(row["failure"] for row in report["rows"]))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hydrobal",
        description="Well-balanced finite-volume Euler solver benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single run, errors vs reference")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="convergence study over resolutions")
    _add_common(p_study)
    p_study.add_argument("--resolutions", type=int, nargs="+")
    p_study.set_defaults(func=cmd_study)

    p_bench = sub.add_parser("bench", help="efficiency study (time vs error)")
    _add_common(p_bench)
    p_bench.add_argument("--resolutions", type=int, nargs="+")
    p_bench.add_argument("--repetitions", type=int)
    p_bench.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HydrobalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
