#!/usr/bin/env python3
"""Replay the first decoder epochs of a training log and compare them row by row.

    python3 scripts/replay_log.py results/acceptance/lobster.cfg \\
        results/acceptance/lobster.g results/acceptance/lobster.ckpt.log [--epochs 2]

The split and the training order are built as ``gradgen train`` builds them
from the same config and data. The script trains ``--epochs`` decoder epochs
from scratch and compares each ``decoder,<epoch>,<lr>,<nll>`` row, formatted
as the training log writes it, with the log's row for that epoch. It exits 0
when every row matches, and 1 at the first row that differs or is missing,
naming that row. The log is only read.
"""

import argparse
import re
import sys

from gradgen.cli import log_row, training_split
from gradgen.config import load_config
from gradgen.decoder import decoder_epoch_budget, train_autodecoder


class Mismatch(Exception):
    pass


def decoder_rows(path: str) -> dict[int, tuple[int, str]]:
    """The log's decoder rows by epoch, each with its line number."""
    rows = {}
    with open(path, encoding="utf-8") as f:
        for number, line in enumerate(f, 1):
            row = re.match(r"decoder,([0-9]+),", line)
            if row:
                rows[int(row.group(1))] = (number, line)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cfg", help="the config file the log was trained with")
    ap.add_argument("data", help="the dataset the log was trained on")
    ap.add_argument("log", help="the training log to compare with")
    ap.add_argument("--epochs", type=int, default=2, help="decoder epochs to replay (default 2)")
    args = ap.parse_args(argv)

    cfg = load_config(args.cfg)
    budget = decoder_epoch_budget(cfg)
    if not 1 <= args.epochs <= budget:
        ap.error(f"--epochs must be in 1..{budget}, the config's decoder budget, got {args.epochs}")
    expected = decoder_rows(args.log)
    _, train_ordered = training_split(cfg, args.data)

    def compare(epoch, lr, nll):
        got = log_row("decoder", epoch, lr, nll)
        if epoch not in expected:
            raise Mismatch(f"{args.log} has no row for decoder epoch {epoch}; the replay gives {got.rstrip()!r}")
        number, want = expected[epoch]
        if got != want:
            raise Mismatch(f"{args.log}:{number}: the log has {want.rstrip()!r}, the replay gives {got.rstrip()!r}")
        print(f"{args.log}:{number}: {got.rstrip()} matches", flush=True)

    try:
        train_autodecoder(train_ordered, cfg, stop_epoch=args.epochs, log=compare)
    except Mismatch as e:
        print(f"mismatch: {e}", file=sys.stderr)
        return 1
    print(f"decoder epochs 0..{args.epochs - 1} match {args.log}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
