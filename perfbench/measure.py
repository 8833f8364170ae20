"""Timed loop, end-to-end metrics and the run record."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from workloads import Tally


def run(workload, seed: int, seconds: float, trace: bool, setup_repeats: int,
        min_ops_traced: int, out_dir: str) -> dict:
    """Set up ``setup_repeats`` times, run timed operations for about
    ``seconds``, verify each one, and return the result object."""
    if workload.gc_threshold is not None:
        gc.set_threshold(*workload.gc_threshold)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.build_tracer()
        tracer.install()
    setup_times = []
    state = None
    for _ in range(setup_repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()

    tally = Tally()
    records = []  # (operation id, OpRecord, traced)
    op_wall = []
    min_ops = min_ops_traced if trace else 1
    start = time.perf_counter()
    k = 0
    # start another operation while its expected midpoint is inside the window
    while k < min_ops or time.perf_counter() - start + statistics.median(op_wall) / 2 <= seconds:
        gc.collect()
        traced = tracer is not None and k % 2 == 0
        t0 = time.perf_counter()
        if traced:
            tracer.current_op = k
            tracer.install()
        try:
            rec = workload.run_op(state, k)
        except Exception:  # a failed operation is counted, the run goes on
            traceback.print_exc()
            for _ in range(workload.attempts_per_op(state)):
                tally.record(False)
            rec = None
        finally:
            if traced:
                tracer.uninstall()
        if rec is not None:
            workload.verify(state, rec, tally)
            records.append((k, rec, traced))
            print(f"op {k}: {rec.graphs} graphs in {rec.seconds:.4f} s{' (traced)' if traced else ''}",
                  file=sys.stderr)
        op_wall.append(time.perf_counter() - t0)
        k += 1

    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    if tracer is None:
        result["metrics"] = end_to_end([rec for _, rec, _ in records], setup_times)
    else:
        result["metrics"] = per_layer(tracer, records, setup_repeats)
        tracer.write(os.path.join(out_dir, f"{workload.name}.trace.npz"))
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(records, setup_times) -> dict:
    seconds = sum(r.seconds for r in records)
    graphs = sum(r.graphs for r in records)
    per_graph = [t for r in records for t in r.per_graph_s]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
        "graphs_per_s": _metric(graphs / seconds if seconds else 0.0, "graphs/s"),
        "graph_s_p50": _metric(statistics.median(per_graph) if per_graph else 0.0, "s"),
    }


def per_layer(tracer, records, setup_repeats: int) -> dict:
    """Layer metrics of the traced operations, and the tracing overhead: the
    median seconds per graph of traced minus untraced operations."""
    from tracing import layer_metrics

    op_graphs = {k: rec.graphs for k, rec, traced in records if traced}
    metrics = {name: _metric(v, unit)
               for name, (v, unit) in layer_metrics(tracer, op_graphs, setup_repeats).items()}
    on = [rec.seconds / rec.graphs for _, rec, traced in records if traced]
    off = [rec.seconds / rec.graphs for _, rec, traced in records if not traced]
    delta = statistics.median(on) - statistics.median(off) if on and off else 0.0
    metrics["trace.overhead_s_per_graph"] = _metric(delta, "s/graph")
    metrics["trace.overhead_frac"] = _metric(delta / statistics.median(off) if off else 0.0, "ratio")
    return metrics


def _source_digest(root: str) -> str:
    """SHA-256 over the gradgen sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_sha(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run_record(root: str, args, pins: dict, setup_repeats: int) -> dict:
    """Code version, toolchain, machine, thread pins and workload inputs."""
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pins": pins,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": setup_repeats,
        "warmup": "one operation-sized warmup per set-up, discarded, charged to setup_s",
    }
