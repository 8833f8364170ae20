#!/usr/bin/env python3
"""End-to-end acceptance driver.

Runs the full training/sampling/evaluation pipeline that the slow half of
tests/test_acceptance.py verifies. Every step is skipped when its final
artifact already exists, so the script can be re-run after interruption;
training itself resumes from periodic checkpoints.

Total runtime is dominated by single-core training (many hours). Run it as

    python3 scripts/run_acceptance.py [--results results/acceptance]

and then `pytest tests/test_acceptance.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
QUICK = False
STAGES = ("lobster", "cycles", "smoke", "grad_r", "k2", "k8")

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


def write_config(path: str, **overrides) -> None:
    if QUICK:
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


def main() -> int:
    global QUICK
    ap = argparse.ArgumentParser()
    ap.add_argument("--results", default=os.path.join(ROOT, "results", "acceptance"))
    ap.add_argument("--only", nargs="+", choices=STAGES, help="run only these stages", default=None)
    ap.add_argument("--quick", action="store_true", help="tiny configs; plumbing dry run only")
    args = ap.parse_args()
    QUICK = args.quick
    res = args.results
    os.makedirs(res, exist_ok=True)

    def stage_enabled(name: str) -> bool:
        return args.only is None or name in args.only

    def p(name: str) -> str:
        return os.path.join(res, name)

    # datasets
    if need(p("lobster.g")):
        gradgen("gen-data", "lobster", p("lobster.g"), "--seed", SEED)
    if need(p("cycles.g")):
        gradgen("gen-data", "cycles", p("cycles.g"), "--seed", SEED)
    if need(p("ood_lobster_ref.g")):
        gen_ood_lobsters(p("ood_lobster_ref.g"))

    # -- lobster, defaults (criteria 6, 7 GrAD-D side, 9, 10) --------------
    if stage_enabled("lobster"):
        write_config(p("lobster.cfg"))
        if need(p("lobster.done")):
            gradgen("train", p("lobster.g"), "--config", p("lobster.cfg"), "--out", p("lobster.ckpt"), "--resume")
            open(p("lobster.done"), "w").close()
        n_test = _count_graphs(p("lobster.ckpt.test.g"))
        if need(p("lobster_samples.g")):
            gradgen("sample", p("lobster.ckpt"), n_test, "--out", p("lobster_samples.g"))
        if need(p("lobster_eval.txt")):
            gradgen("eval", p("lobster_samples.g"), p("lobster.ckpt.test.g"), "--out", p("lobster_eval.txt"),
                    "--validity", "--dataset", "lobster", "--algorithm", "grad")
        # criterion 10: per-graph sampling time, 100 graphs, full vs decoder-only
        if need(p("timing_full.g")):
            gradgen("sample", p("lobster.ckpt"), 100, "--out", p("timing_full.g"), "--seed", SEED + 2)
        if need(p("timing_decoder_only.g")):
            gradgen("sample", p("lobster.ckpt"), 100, "--out", p("timing_decoder_only.g"),
                    "--mode", "grad_d", "--seed", SEED + 2)
        # criterion 9: OOD at fixed N=200
        if need(p("ood_samples.g")):
            gradgen("sample", p("lobster.ckpt"), 20, "--out", p("ood_samples.g"), "--fixed-n", 200, "--seed", SEED + 3)
        if need(p("ood_eval.txt")):
            gradgen("eval", p("ood_samples.g"), p("ood_lobster_ref.g"), "--out", p("ood_eval.txt"),
                    "--dataset", "lobster-ood", "--algorithm", "grad")

    # -- cycles, defaults (criterion 5) -------------------------------------
    if stage_enabled("cycles"):
        write_config(p("cycles.cfg"))
        if need(p("cycles.done")):
            gradgen("train", p("cycles.g"), "--config", p("cycles.cfg"), "--out", p("cycles.ckpt"), "--resume")
            open(p("cycles.done"), "w").close()
        n_test = _count_graphs(p("cycles.ckpt.test.g"))
        if need(p("cycles_samples.g")):
            gradgen("sample", p("cycles.ckpt"), n_test, "--out", p("cycles_samples.g"))
        if need(p("cycles_eval.txt")):
            gradgen("eval", p("cycles_samples.g"), p("cycles.ckpt.test.g"), "--out", p("cycles_eval.txt"),
                    "--dataset", "cycles", "--algorithm", "grad")

    # -- lobster smoke profile: 150 decoder epochs (criterion 6) ------------
    if stage_enabled("smoke"):
        write_config(p("smoke.cfg"), decoder_epochs=150, flow_epochs=240)
        if need(p("smoke.done")):
            gradgen("train", p("lobster.g"), "--config", p("smoke.cfg"), "--out", p("smoke.ckpt"), "--resume")
            open(p("smoke.done"), "w").close()
        n_test = _count_graphs(p("smoke.ckpt.test.g"))
        if need(p("smoke_samples.g")):
            gradgen("sample", p("smoke.ckpt"), n_test, "--out", p("smoke_samples.g"))
        if need(p("smoke_eval.txt")):
            gradgen("eval", p("smoke_samples.g"), p("smoke.ckpt.test.g"), "--out", p("smoke_eval.txt"),
                    "--validity", "--dataset", "lobster-smoke", "--algorithm", "grad")

    # -- GrAD-R on lobster at tripled epochs (criterion 7) ------------------
    if stage_enabled("grad_r"):
        write_config(p("lobster_r.cfg"), mode="grad_r")
        if need(p("lobster_r.done")):
            gradgen("train", p("lobster.g"), "--config", p("lobster_r.cfg"), "--out", p("lobster_r.ckpt"), "--resume")
            open(p("lobster_r.done"), "w").close()

    # -- block-size ablation (criterion 8) ----------------------------------
    for k in (2, 8):
        if not stage_enabled(f"k{k}"):
            continue
        write_config(p(f"lobster_k{k}.cfg"), K=k)
        if need(p(f"lobster_k{k}.done")):
            gradgen("train", p("lobster.g"), "--config", p(f"lobster_k{k}.cfg"),
                    "--out", p(f"lobster_k{k}.ckpt"), "--resume")
            open(p(f"lobster_k{k}.done"), "w").close()
        n_test = _count_graphs(p(f"lobster_k{k}.ckpt.test.g"))
        if need(p(f"lobster_k{k}_samples.g")):
            gradgen("sample", p(f"lobster_k{k}.ckpt"), n_test, "--out", p(f"lobster_k{k}_samples.g"))
        if need(p(f"lobster_k{k}_eval.txt")):
            gradgen("eval", p(f"lobster_k{k}_samples.g"), p(f"lobster_k{k}.ckpt.test.g"),
                    "--out", p(f"lobster_k{k}_eval.txt"), "--dataset", f"lobster-k{k}", "--algorithm", "grad")

    print("acceptance driver finished", flush=True)
    return 0


def _count_graphs(path: str) -> int:
    from gradgen.graphdata import load_graphs

    return len(load_graphs(path))


if __name__ == "__main__":
    sys.exit(main())
