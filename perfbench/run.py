#!/usr/bin/env python3
"""Layered benchmark for mbv.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact_sparse --seed 1 --seconds 25 --trace 0

Workloads: exact_sparse, anytime_large, exact_budget (see perfbench/README.md).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced pass with --trace 1. The full result
(environment, seeds, sample counts, failures) and, when tracing, the spans are
written under perfbench/out/. Exits 2 without a result when the checkout holds
no mbv sources.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mbv" / "__init__.py").is_file():
        print(f"error: no mbv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness

    work = harness.WORKLOADS.get(args.workload)
    if work is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(work, args.seed, args.seconds, bool(args.trace), HERE / "out")
    for reason in list(result["failures"].values())[:10]:
        print(f"failure: {reason}", file=sys.stderr)
    print(json.dumps({k: v for k, v in result.items()
                      if k not in ("correct", "attempted", "failed", "metrics")}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
