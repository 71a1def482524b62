"""Run one hydrobal benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pert-dwb5 --seed 1 --seconds 25 --trace 0

Run from the repository root; the solver is imported from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
ones.  Human-readable lines and one {"env": ...} line come first; the last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

import os

# one BLAS thread: the solver is timed as a single-threaded program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_solver():
    """Import hydrobal from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import hydrobal
    except ImportError as exc:
        sys.exit(f"cannot import hydrobal from {SRC}: {exc}")
    if SRC.resolve() not in Path(hydrobal.__file__).resolve().parents:
        sys.exit(f"hydrobal was imported from {hydrobal.__file__}, not {SRC}")


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_probe_ms(warmup=10, repeats=30):
    """Median time of a fixed small numpy kernel: explains host-speed drift.

    The kernel writes into preallocated arrays, so the allocator's state
    (which the solver's runs change) does not enter the time.  Reported
    beside the metrics; never used to adjust them.
    """
    import numpy as np
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((160, 160))
    v = rng.standard_normal(100_000)
    product, work = np.empty_like(a), np.empty_like(v)
    times = []
    for _ in range(warmup + repeats):
        start = time.perf_counter()
        np.matmul(a, a, out=product)
        np.sqrt(np.abs(v, out=work), out=work)
        float(product.sum() + work.sum())
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times[warmup:])


def print_summary(workload, result, details, trace):
    print(f"workload {workload.name}: {workload.scheme.label}, n={workload.n}, "
          f"t_end={workload.t_end:g}, {workload.cells} cells")
    print(f"  failed/attempted: {result['failed']}/{result['attempted']}")
    for error in details["errors"][:5]:
        print(f"  failure: {error}")
    metrics = result["metrics"]
    if not trace:
        for name, metric in metrics.items():
            print(f"  {name:18s} {metric['value']:.6g} {metric['unit']}")
        every, runs = details["every_step_us"], details["run_s"]
        print(f"  {details['runs']} runs x {details['steps']} steps; "
              f"us_per_cell_stage is the fastest step, run_s the fastest "
              f"first step plus the others at the fastest later step")
        print(f"  over every step: median {every['median']:.4g} us, "
              f"p90 {every['p90']:.4g} us")
        print(f"  run wall time: median {runs['median']:.4g} s, "
              f"min {runs['min']:.4g} s")
        print(f"  setup_s: median of {details['setup_samples']} set-ups, "
              f"p90 {details['setup_p90_s']:.4g} s")
        return
    print(f"  runs: {details['runs']}")
    print(f"  traced loop {details['loop_us_per_cell_stage']:.4g} us/cell/stage;"
          f" layers cover {100 * details['coverage']:.2f}% of it")
    print(f"  {'layer':14s} {'us/cell/stage':>14s} {'share':>7s} {'calls/stage':>12s}")
    for layer, share in details["shares"].items():
        print(f"  {layer:14s} {metrics[layer + '.us_per_cell_stage']['value']:14.4f}"
              f" {100 * share:6.1f}% {metrics[layer + '.calls_per_stage']['value']:12.3f}")
    print(f"  ghost inclusive share {100 * details['ghost_incl_share']:.1f}%")
    in_table = {f"{layer}.{kind}" for layer in details["shares"]
                for kind in ("us_per_cell_stage", "calls_per_stage")}
    for name, metric in metrics.items():
        if name not in in_table:
            print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    if details["skipped"]:
        print(f"  entry points not found: {', '.join(details['skipped'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_solver()
    import numpy as np
    from bench import end_to_end, layer_trace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = {
        "workload": workload.name, "seed": args.seed,
        "eta": workload.eta(args.seed), "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads(), "host_probe_ms_before": host_probe_ms(),
    }
    measure = layer_trace if args.trace else end_to_end
    result, details = measure(workload, args.seed, args.seconds)
    env["host_probe_ms_after"] = host_probe_ms()
    print_summary(workload, result, details, args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
