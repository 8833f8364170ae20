"""Command-line entry point: gen-data, train, sample, eval.

The experiment pipeline is dataset generation -> decoder (+flow) training ->
graph sampling -> MMD evaluation. Training checkpoints periodically and can
resume; all artifacts are written atomically.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import sys
import time
from dataclasses import replace

import numpy as np

from . import checkpoint as ckpt_io
from .config import MODES, ConfigError, RunConfig, format_config, load_config
from .decoder import dataset_nll, decoder_epoch_budget, sample_graph, train_autodecoder
from .evalstats import lobster_validity, mmd_suite
from .flow import sample_codes, train_flow
from .graphdata import (
    DatasetSplit,
    OrderedLower,
    SizeDistribution,
    gen_community,
    gen_cycles,
    gen_grid,
    gen_lobster,
    load_graphs,
    order_nodes,
    save_graphs,
    split,
    to_lower,
)
from .graphdata.io import atomic_write_text

GENERATORS = {
    "cycles": gen_cycles,
    "grid": gen_grid,
    "lobster": gen_lobster,
    "community": gen_community,
}

CHECKPOINT_EVERY = 25  # epochs between periodic saves
GC_THRESHOLD = (200_000, 50, 50)  # tensor graphs churn small objects


def worker_count() -> int:
    raw = os.environ.get("GRADGEN_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"GRADGEN_WORKERS must be a positive integer, got {raw!r}")
    return workers


def cmd_gen_data(args) -> None:
    gen = GENERATORS.get(args.dataset)
    if gen is None:
        raise ConfigError(f"unknown dataset {args.dataset!r}; choose from {sorted(GENERATORS)}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    graphs = gen(seed=args.seed)
    save_graphs(args.out, graphs, comment=f"dataset={args.dataset} seed={args.seed}")
    sizes = [g.n for g in graphs]
    manifest = {
        "dataset": args.dataset,
        "seed": args.seed,
        "count": len(graphs),
        "min_nodes": min(sizes),
        "max_nodes": max(sizes),
        "total_edges": sum(g.num_edges() for g in graphs),
    }
    atomic_write_text(args.out + ".manifest", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(graphs)} graphs to {args.out} ({manifest['min_nodes']}..{manifest['max_nodes']} nodes)")


def log_row(phase: str, epoch: int, lr: float, nll: float) -> str:
    """One epoch's row of the training log."""
    return f"{phase},{epoch},{lr:.10g},{nll:.10g}\n"


class _EpochLog:
    def __init__(self, path: str, phase: str):
        self.path = path
        self.phase = phase

    def __call__(self, epoch: int, lr: float, nll: float) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(log_row(self.phase, epoch, lr, nll))
        if epoch % 10 == 0:
            print(f"[{self.phase}] epoch {epoch}: lr {lr:.3g}, nll {nll:.5g}", flush=True)


def _log_summary(path: str, key: str, value: float) -> None:
    with open(path, "a", encoding="utf-8") as f:
        f.write(f"summary,{key},{value:.10g}\n")


_LOG_ROW = re.compile(r"(decoder|flow),([0-9]+),|summary,")


def _trim_log(path: str, decoder_done: int, flow_done: int) -> bool:
    """Drop the log rows past the checkpointed epochs, so that a resumed run
    appends exactly what an uninterrupted run would have written. Returns
    whether the decoder summary row is already present."""
    if not os.path.exists(path):
        return False
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines(keepends=True)
    done = {"decoder": decoder_done, "flow": flow_done}
    kept = []
    for number, line in enumerate(lines, 1):
        if not line.endswith("\n"):
            continue  # cut short by the interruption
        row = _LOG_ROW.match(line)
        if row is None:
            raise ConfigError(f"{path}:{number}: malformed log row {line.rstrip()!r}")
        phase, epoch = row.groups()
        if phase is None or int(epoch) < done[phase]:
            kept.append(line)
    atomic_write_text(path, "".join(kept))
    return any(line.startswith("summary,") for line in kept)


def _nonempty_graphs(path: str) -> list:
    graphs = load_graphs(path)
    if not graphs:
        raise ConfigError(f"{path}: no graphs")
    return graphs


def training_split(cfg: RunConfig, data: str) -> tuple[DatasetSplit, list[OrderedLower]]:
    """The train/test split of the graphs in ``data`` and the training graphs
    in their training order, as ``train`` builds them."""
    graphs = _nonempty_graphs(data)
    ds = split(graphs, cfg.seed)
    if not ds.train:
        raise ConfigError(f"{data}: {len(graphs)} graph leaves the 80/20 split without a training graph")
    return ds, [to_lower(g, order_nodes(g, cfg.ordering)) for g in ds.train]


def cmd_train(args) -> None:
    gc.set_threshold(*GC_THRESHOLD)
    cfg = load_config(args.config) if args.config else RunConfig()
    ds, train_ordered = training_split(cfg, args.data)
    sizes = [g.n for g in ds.train]
    log_path = args.out + ".log"

    ckpt = None
    summary_logged = False
    if args.resume and os.path.exists(args.out):
        ckpt = ckpt_io.load_checkpoint(args.out)
        if ckpt.config != cfg:
            raise ConfigError(f"{args.out}: checkpoint config differs from requested config")
        if ckpt.train_sizes != sizes:
            raise ConfigError(f"{args.out}: checkpoint was trained on different data")
        print(f"resuming: decoder epoch {ckpt.decoder_epochs_done}, flow epoch {ckpt.flow_epochs_done}")
        summary_logged = _trim_log(log_path, ckpt.decoder_epochs_done, ckpt.flow_epochs_done)
    if ckpt is None:
        ckpt = ckpt_io.Checkpoint(
            config=cfg,
            decoder=None,  # filled by the first training chunk
            store=None,
            train_sizes=sizes,
        )
        if os.path.exists(log_path):
            os.unlink(log_path)
    # only now, so that a refused resume leaves the split it was trained on
    save_graphs(args.out + ".train.g", ds.train, comment="train split")
    save_graphs(args.out + ".test.g", ds.test, comment="test split")

    decoder_total = decoder_epoch_budget(cfg)
    for start in range(ckpt.decoder_epochs_done, decoder_total, CHECKPOINT_EVERY):
        stop = min(start + CHECKPOINT_EVERY, decoder_total)
        ckpt.decoder, ckpt.store, _ = train_autodecoder(
            train_ordered,
            cfg,
            params=ckpt.decoder,
            store=ckpt.store,
            adam=ckpt.decoder_adam,
            start_epoch=start,
            stop_epoch=stop,
            log=_EpochLog(log_path, "decoder"),
        )
        ckpt.decoder_epochs_done = stop
        ckpt_io.save_checkpoint(args.out, ckpt)
    ckpt.store.check()
    final_nll = dataset_nll(train_ordered, ckpt.store.codes, ckpt.decoder, k=cfg.K)
    if not summary_logged:
        _log_summary(log_path, "decoder_final_train_nll", final_nll)
    print(f"decoder done: clean train NLL {final_nll:.5g}")

    if cfg.mode == "grad":
        for start in range(ckpt.flow_epochs_done, cfg.flow_epochs, CHECKPOINT_EVERY):
            stop = min(start + CHECKPOINT_EVERY, cfg.flow_epochs)
            ckpt.flow, _ = train_flow(
                ckpt.store,
                train_ordered,
                cfg,
                params=ckpt.flow,
                adam=ckpt.flow_adam,
                start_epoch=start,
                epochs=stop,
                log=_EpochLog(log_path, "flow"),
            )
            ckpt.flow_epochs_done = stop
            ckpt_io.save_checkpoint(args.out, ckpt)
        print("flow done")
    print(f"checkpoint: {args.out}")


def cmd_sample(args) -> None:
    gc.set_threshold(*GC_THRESHOLD)
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    cfg = ckpt.config if args.seed is None else replace(ckpt.config, seed=args.seed).validate()
    mode = args.mode or cfg.mode
    if mode == "grad" and ckpt.flow is None:
        raise ckpt_io.CheckpointError(f"{args.checkpoint}: mode 'grad' needs saved flow parameters")
    rng = np.random.default_rng([cfg.seed, 0x5A3B1E])
    graphs, rows = draw_graphs(ckpt, args.n_graphs, mode, rng, args.fixed_n)
    times = [r["flow_s"] + r["decoder_s"] for r in rows]
    save_graphs(args.out, graphs, comment=f"samples from {args.checkpoint} seed={cfg.seed} mode={mode}")
    report = {
        "checkpoint": str(args.checkpoint),
        "mode": mode,
        "n_graphs": len(graphs),
        "fixed_n": args.fixed_n,
        "mean_seconds_per_graph": float(np.mean(times)),
        "total_seconds": float(np.sum(times)),
        "per_graph": rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # Linux reports KiB
    }
    atomic_write_text(args.out + ".timing", json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"sampled {len(graphs)} graphs -> {args.out} ({report['mean_seconds_per_graph']:.3f}s per graph)")


def draw_graphs(ckpt: ckpt_io.Checkpoint, count: int, mode: str, rng: np.random.Generator, fixed_n: int | None = None):
    """Draw ``count`` graphs from a checkpoint. Node counts follow the training
    sizes unless ``fixed_n`` is given; codes come from the inverse flow in mode
    ``grad`` and from a standard normal otherwise. Returns the graphs and one
    ``{n, flow_s, decoder_s}`` timing row per graph."""
    if count < 1:
        raise ConfigError(f"number of graphs must be at least 1, got {count}")
    if fixed_n is not None and fixed_n < 1:
        raise ConfigError(f"--fixed-n must be at least 1, got {fixed_n}")
    cfg = ckpt.config
    dist = SizeDistribution.from_sizes(ckpt.train_sizes)
    graphs = []
    rows = []
    for _ in range(count):
        n = fixed_n if fixed_n is not None else dist.sample(rng)
        t0 = time.perf_counter()
        if mode == "grad":
            codes = sample_codes(n, ckpt.flow, cfg.sigma_sample, rng)
        else:
            codes = rng.standard_normal((n, cfg.d))
        t1 = time.perf_counter()
        graphs.append(sample_graph(n, codes, ckpt.decoder, rng, k=cfg.K))
        t2 = time.perf_counter()
        rows.append({"n": int(n), "flow_s": t1 - t0, "decoder_s": t2 - t1})
    return graphs, rows


def cmd_eval(args) -> None:
    samples = _nonempty_graphs(args.samples)
    test = _nonempty_graphs(args.test)
    scores = mmd_suite(samples, test, workers=worker_count())
    lines = ["statistic        score", "-" * 28]
    lines += [f"{stat:<16} {score:.6g}" for stat, score in scores.items()]
    if args.validity:
        validity = float(np.mean([lobster_validity(g) for g in samples]))
        lines.append(f"{'validity':<16} {validity:.4f}")
    text = "\n".join(lines) + "\n"
    atomic_write_text(args.out, text)
    print(text, end="")


def cmd_show_config(args) -> None:
    print(format_config(load_config(args.config) if args.config else RunConfig()), end="")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gradgen", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset container")
    g.add_argument("dataset", choices=sorted(GENERATORS))
    g.add_argument("out")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train the auto-decoder (and flow) on a dataset")
    t.add_argument("data")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--config", help="key = value config file; the defaults when omitted")
    t.add_argument("--resume", action="store_true", help="continue from an existing checkpoint")
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="sample graphs from a checkpoint")
    s.add_argument("checkpoint")
    s.add_argument("n_graphs", type=int)
    s.add_argument("--out", required=True)
    s.add_argument("--fixed-n", type=int, dest="fixed_n")
    s.add_argument("--seed", type=int)
    s.add_argument("--mode", choices=MODES, help="override the checkpoint's sampling mode")
    s.set_defaults(fn=cmd_sample)

    e = sub.add_parser("eval", help="MMD evaluation of samples against a test set")
    e.add_argument("samples")
    e.add_argument("test")
    e.add_argument("--out", required=True)
    e.add_argument("--validity", action="store_true", help="also report lobster validity fraction")
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("show-config", help="print the effective configuration")
    c.add_argument("--config", help="key = value config file; the defaults when omitted")
    c.set_defaults(fn=cmd_show_config)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ConfigError, ckpt_io.CheckpointError, FileNotFoundError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
