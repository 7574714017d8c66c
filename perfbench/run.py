"""End-to-end host wall-clock benchmark of the repro package.

Run from the repository root:

    python3 perfbench/run.py --workload dense-api --seed 1 --seconds 20 --trace 0

It builds the workload's inputs from ``--seed``, sets the program up,
computes the oracle, then runs the closed loop for ``--seconds`` and
checks every result.  Human-readable lines go to stdout first; the last
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(tracing off); with ``--trace 1`` they are the per-layer ones from a
run that interleaves traced and untraced requests, and the spans are
written to ``perfbench/out/trace-<workload>.json``.  The exit code is 0
only when every operation succeeded and matched the oracle.
See ``perfbench/README.md`` for workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC.name}/repro; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import repro.api  # noqa: F401  -- program import counts as set-up
    import repro.service  # noqa: F401
    import_s = time.perf_counter() - t0
    import report
    import workloads
    from spans import stop_helper_processes

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        run = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helper_processes()
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        path = workloads.OUT_DIR / f"trace-{run.workload}.json"
        run.tracer.write(path)
        run.notes.append(f"spans written to {path.relative_to(HERE.parent)}")
    result = report.summarize(run, import_s, args.seed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
