#!/usr/bin/env python3
"""Evaluate a (possibly still-training) checkpoint: sample a few graphs in a
given mode and print the four MMD statistics against the saved test split.

    python3 scripts/peek_checkpoint.py results/acceptance/lobster.ckpt [--mode grad_d] [-n 20]
"""

import argparse
import sys

import numpy as np

from gradgen import checkpoint as ckpt_io
from gradgen.cli import draw_graphs
from gradgen.config import MODES
from gradgen.evalstats import lobster_validity, mmd_suite
from gradgen.graphdata import load_graphs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("checkpoint")
    ap.add_argument("--mode", choices=MODES)
    ap.add_argument("-n", type=int, default=20)
    ap.add_argument("--seed", type=int, default=123)
    args = ap.parse_args(argv)

    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    mode = args.mode or ckpt.config.mode
    test = load_graphs(args.checkpoint + ".test.g")
    rng = np.random.default_rng(args.seed)
    print(f"decoder epochs done: {ckpt.decoder_epochs_done}, flow epochs done: {ckpt.flow_epochs_done}")
    if mode == "grad" and ckpt.flow is None:
        print("no flow trained yet; falling back to grad_d")
        mode = "grad_d"
    samples, _ = draw_graphs(ckpt, args.n, mode, rng)
    scores = mmd_suite(samples, test)
    for kind, val in scores.items():
        print(f"{kind:<12} {val:.5f}")
    validity = float(np.mean([lobster_validity(g) for g in samples]))
    print(f"{'validity':<12} {validity:.2f}")
    sizes = [g.n for g in samples]
    degs = np.concatenate([g.degrees() for g in samples])
    print(f"sampled sizes {min(sizes)}..{max(sizes)}, mean degree {degs.mean():.2f}, mode {mode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
