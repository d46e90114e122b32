"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The report goes to standard output, and its
last line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from the traced run.  A record with the environment, the
operation times and the spans is written to perfbench/out/.
"""

import os

# one BLAS/OpenMP thread, set before numpy is imported: the small (m x 7)
# products of the force MLPs would otherwise start a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "graphspring" / "__init__.py").is_file():
        print(f"perfbench: graphspring sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(workloads.WORKLOADS)})")

    result, lines = workloads.run_workload(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT, ROOT / "perfbench" / "out")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
