#!/usr/bin/env python3
"""End-to-end acceptance driver.

Runs the full training/sampling/evaluation pipeline that the slow half of
tests/test_acceptance.py verifies. Each stage of ``STAGES`` is one row of
data run by ``run_stage``. Every step is skipped when its final artifact
already exists, so the script can be re-run after interruption; training
itself resumes from periodic checkpoints.

Total runtime is dominated by single-core training (about 31 h at the paper
config). Run it as

    python3 scripts/run_acceptance.py [--results results/acceptance]

and then `pytest tests/test_acceptance.py`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7

# tiny settings for a plumbing dry run; results are meaningless quality-wise
QUICK_OVERRIDES = dict(
    d=8, heads=2, d_s_decoder=4, d_s_flow=4, M=1, R=2, C=3,
    decoder_epochs=2, flow_epochs=2, batch=10, tau=1e-3,
)


def sh(*cmd) -> None:
    print(f"+ {' '.join(map(str, cmd))}", flush=True)
    t0 = time.time()
    subprocess.run(list(map(str, cmd)), check=True)
    print(f"  ({time.time() - t0:.0f}s)", flush=True)


def gradgen(*args) -> None:
    sh(sys.executable, "-m", "gradgen.cli", *args)


def write_config(path: str, overrides: dict, quick: bool) -> None:
    if quick:
        overrides = {k: v for k, v in overrides.items() if not k.endswith("_epochs")}
        merged = {**QUICK_OVERRIDES, **overrides}
    else:
        merged = dict(overrides)
    lines = [f"seed = {SEED}"]
    for key, value in merged.items():
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def need(path: str) -> bool:
    if os.path.exists(path):
        print(f"[skip] {path} exists", flush=True)
        return False
    return True


def gen_ood_lobsters(path: str) -> None:
    from gradgen.graphdata import gen_lobster, save_graphs

    graphs = gen_lobster(count=20, nmin=180, nmax=220, p1=0.7, p2=0.7, seed=SEED + 1)
    save_graphs(path, graphs, comment="out-of-distribution lobster reference, ~200 nodes")


class Stage(NamedTuple):
    prefix: str  # every artifact name of the stage starts with it
    data: str  # training set
    overrides: dict  # config lines after the seed
    evaluates: bool = True  # samples and evaluates after training; False trains only
    validity: bool = False  # eval passes --validity
    extra: tuple = ()  # further (command, inputs, output, options) steps after eval


STAGES = {
    # criteria 6, 7 (GrAD-D side), 9, 10
    "lobster": Stage("lobster", "lobster.g", {}, validity=True, extra=(
        # criterion 10: per-graph sampling time, 100 graphs, full vs decoder-only
        ("sample", ("lobster.ckpt", 100), "timing_full.g", ("--seed", SEED + 2)),
        ("sample", ("lobster.ckpt", 100), "timing_decoder_only.g", ("--mode", "grad_d", "--seed", SEED + 2)),
        # criterion 9: OOD at fixed N=200
        ("sample", ("lobster.ckpt", 20), "ood_samples.g", ("--fixed-n", 200, "--seed", SEED + 3)),
        ("eval", ("ood_samples.g", "ood_lobster_ref.g"), "ood_eval.txt", ()),
    )),
    # criterion 5
    "cycles": Stage("cycles", "cycles.g", {}),
    # criterion 6: the 150-decoder-epoch smoke profile
    "smoke": Stage("smoke", "lobster.g", dict(decoder_epochs=150, flow_epochs=240), validity=True),
    # criterion 7: GrAD-R at tripled epochs, training log only
    "grad_r": Stage("lobster_r", "lobster.g", dict(mode="grad_r"), evaluates=False),
    # criterion 8: block-size ablation
    "k2": Stage("lobster_k2", "lobster.g", dict(K=2)),
    "k8": Stage("lobster_k8", "lobster.g", dict(K=8)),
}


def run_stage(res: str, stage: Stage, quick: bool) -> None:
    """Write the config, train up to the .done marker, then sample and
    evaluate; every step whose artifact exists is skipped."""

    def p(name):  # file names live in res; sample counts pass through
        return os.path.join(res, name) if isinstance(name, str) else name

    cfg = f"{stage.prefix}.cfg"
    ckpt = f"{stage.prefix}.ckpt"
    done = f"{stage.prefix}.done"
    write_config(p(cfg), stage.overrides, quick)
    if need(p(done)):
        gradgen("train", p(stage.data), "--config", p(cfg), "--out", p(ckpt), "--resume")
        open(p(done), "w").close()
    if not stage.evaluates:
        return
    test = f"{ckpt}.test.g"
    samples = f"{stage.prefix}_samples.g"
    steps = (
        ("sample", (ckpt, _count_graphs(p(test))), samples, ()),
        ("eval", (samples, test), f"{stage.prefix}_eval.txt", ("--validity",) if stage.validity else ()),
        *stage.extra,
    )
    for command, inputs, out, options in steps:
        if need(p(out)):
            gradgen(command, *map(p, inputs), "--out", p(out), *options)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", default=os.path.join(ROOT, "results", "acceptance"))
    ap.add_argument("--only", nargs="+", choices=STAGES, help="run only these stages", default=None)
    ap.add_argument("--quick", action="store_true", help="tiny configs; plumbing dry run only")
    args = ap.parse_args()
    res = args.results
    os.makedirs(res, exist_ok=True)

    def p(name: str) -> str:
        return os.path.join(res, name)

    # datasets
    if need(p("lobster.g")):
        gradgen("gen-data", "lobster", p("lobster.g"), "--seed", SEED)
    if need(p("cycles.g")):
        gradgen("gen-data", "cycles", p("cycles.g"), "--seed", SEED)
    if need(p("ood_lobster_ref.g")):
        gen_ood_lobsters(p("ood_lobster_ref.g"))

    for name, stage in STAGES.items():
        if args.only is None or name in args.only:
            run_stage(res, stage, args.quick)

    print("acceptance driver finished", flush=True)
    return 0


def _count_graphs(path: str) -> int:
    from gradgen.graphdata import load_graphs

    return len(load_graphs(path))


if __name__ == "__main__":
    sys.exit(main())
