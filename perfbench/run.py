#!/usr/bin/env python3
"""gradgen benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload train_lobster --seed 1 --seconds 25 --trace 0

The run sets up its workload several times (set-up time is the median; the
last set-up is kept), then repeats timed operations for about ``--seconds``
seconds and checks every output. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
every other operation runs with the layer wrappers of ``tracing.py``
installed and the metrics are the per-layer ones derived from their spans,
plus the tracing overhead; the spans are written to
``perfbench/out/<workload>.trace.npz``.
"""

from __future__ import annotations

import argparse
import os
import sys

PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GRADGEN_WORKERS": "1",
}
for _key, _value in PINS.items():  # before numpy is imported
    os.environ[_key] = _value

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 3
MIN_OPS_TRACED = 2  # one traced and one untraced operation at least


# what the workloads read from the checkout they run in
REQUIRED = (
    "src/gradgen/__init__.py",
    "results/acceptance/lobster.ckpt.train.g",
    "results/acceptance/lobster.cfg",
    "results/acceptance/ood_lobster_ref.g",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, *p.split("/")))]
    if missing:
        print(f"error: run from a gradgen checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    import json

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    print("run record: " + json.dumps(measure.run_record(ROOT, args, PINS, SETUP_REPEATS), sort_keys=True))
    result = measure.run(workload, args.seed, args.seconds, bool(args.trace), SETUP_REPEATS,
                         MIN_OPS_TRACED, os.path.join(HERE, "out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
