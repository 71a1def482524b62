"""Record the default-seed reference fields that every benchmark run checks.

    python3 perfbench/record_reference.py [workload ...]

Run from the repository root.  Re-record only when a change to the solver is
meant to change its results; a refactor must reproduce the recorded fields.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import (DEFAULT_SEED, WORKLOADS, check_result,  # noqa: E402
                       reference_key, save_reference)


def main(names):
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        result = workload.run(workload.scenario_for(DEFAULT_SEED))
        check_result(workload, result)
        save_reference(workload, result.final.interior())
        print(f"{name}: {reference_key(workload)}")


if __name__ == "__main__":
    main(sys.argv[1:])
