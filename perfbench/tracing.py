"""Outside-in tracing of gradgen's layers.

The benchmark wraps the public functions of each gradgen module from its own
files: the program is not edited. Every call of a wrapped function records
one span (name, start, end, parent span, operation id) into flat in-memory
columns; the per-layer metrics are derived from those spans when the run
ends, and the spans are then written out in one file.

Wrappers are installed on every module attribute through which the library
reaches a function. ``decoder`` and ``flow`` import ``ga_forward``,
``adam_step`` and ``sgd_project_step`` by name, so those are replaced on the
importing modules too. Engine primitives are reached through
``engine.<name>`` and the ``Tensor`` operator sugar, both of which look the
name up in the engine module, so one replacement there catches every call.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# Public primitives of gradgen.tensorcore.engine. A primitive that a later
# version of the engine no longer has is skipped and reports zero.
PRIMITIVES = (
    "add", "sub", "mul", "neg", "matmul", "linear", "attention_scores",
    "transpose", "reshape", "concat", "narrow", "gather_rows", "relu", "tanh",
    "sigmoid", "exp", "log", "logsigmoid", "tsum", "tmean", "logsumexp",
    "masked_softmax", "layer_norm", "logabsdet",
)

# ga_forward time is split by the number of nodes m the layer attends over
GA_BUCKETS = ((1, 50), (51, 100), (101, 200))

SETUP_OP = -1  # operation id of spans recorded during set-up


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("q")  # per-span integer: output bytes, node count, ...
        self.stack: list[int] = []
        self.current_op = SETUP_OP
        self.counters: dict[tuple[int, str], float] = {}
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------------

    def count(self, key: str, value: float) -> None:
        k = (self.current_op, key)
        self.counters[k] = self.counters.get(k, 0.0) + value

    def wrap(self, name: str, fn, arg=None):
        """A function that calls ``fn`` inside a span named ``name``.

        ``arg(tracer, args, kwargs, out)`` returns the span's integer argument
        and may add to the operation's counters.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            stack = tr.stack
            tr.name_id.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.op.append(tr.current_op)
            tr.end.append(0.0)
            tr.arg.append(0)
            stack.append(idx)
            tr.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf()
                stack.pop()
            if arg is not None:
                tr.arg[idx] = int(arg(tr, args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def add_site(self, name: str, modules, attr: str, arg=None) -> None:
        """Wrap ``attr`` on every module in ``modules`` that defines it."""
        owners = [m for m in modules if hasattr(m, attr)]
        if not owners:
            return
        original = getattr(owners[0], attr)
        wrapper = self.wrap(name, original, arg)
        for m in owners:
            self._patches.append((m, attr, getattr(m, attr), wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- output --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "arg": np.frombuffer(self.arg, dtype=np.int64).copy(),
        }

    def write(self, path: str) -> None:
        """Write all spans as one compressed numpy archive."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def _out_bytes(tr, args, kwargs, out) -> int:
    return out.data.nbytes


def _ga_arg(tr, args, kwargs, out) -> int:
    z, mask, params = args[0], args[1], args[2]
    m = z.shape[0]
    tr.count("scored_pairs", params.heads * m * m)
    tr.count("mask_true", params.heads * int(np.count_nonzero(mask.matrix)))
    return m


def _orbit_arg(tr, args, kwargs, out) -> int:
    # each connected 4-node subgraph adds one count to each of its 4 nodes
    # in orbits 4..14
    quads = int(round(out[:, 4:].sum() / 4.0))
    tr.count("quads", quads)
    return quads


def _sampled_arg(tr, args, kwargs, out) -> int:
    tr.count("sampled_edges", out.num_edges())
    tr.count("sampled_nodes", out.n)
    return out.n


def _ckpt_arg(tr, args, kwargs, out) -> int:
    size = os.path.getsize(args[0])
    tr.count("checkpoint_bytes", size)
    return size


def build_tracer() -> Tracer:
    """A tracer with a site for every public function the metrics use."""
    from gradgen import attention, checkpoint, decoder, evalstats, flow, graphdata
    from gradgen.tensorcore import engine, optim

    tr = Tracer()
    for prim in PRIMITIVES:
        tr.add_site(f"tensorcore.{prim}", [engine], prim, _out_bytes)
    tr.add_site("tensorcore.grad", [engine], "grad")
    tr.add_site("tensorcore.adam_step", [optim, decoder, flow], "adam_step")
    tr.add_site("tensorcore.sgd_project_step", [optim, decoder], "sgd_project_step")
    tr.add_site("attention.ga_forward", [attention, decoder, flow], "ga_forward", _ga_arg)
    for fn in ("train_autodecoder", "graph_nll", "block_log_prob", "prepare_steps",
               "build_scaffold", "block_params", "sample_block"):
        tr.add_site(f"decoder.{fn}", [decoder], fn)
    tr.add_site("decoder.sample_graph", [decoder], "sample_graph", _sampled_arg)
    for fn in ("train_flow", "flow_nll", "flow_forward", "flow_inverse", "init_actnorms",
               "sample_codes"):
        tr.add_site(f"flow.{fn}", [flow], fn)
    for fn in ("mmd_suite", "mmd2", "degree_stat", "clustering_stat", "orbit_stat",
               "spectra_stat"):
        tr.add_site(f"evalstats.{fn}", [evalstats], fn)
    tr.add_site("evalstats.orbit_counts", [evalstats], "orbit_counts", _orbit_arg)
    for fn in ("load_graphs", "order_nodes", "to_lower", "gen_community"):
        tr.add_site(f"graphdata.{fn}", [graphdata], fn)
    tr.add_site("checkpoint.save_checkpoint", [checkpoint], "save_checkpoint", _ckpt_arg)
    tr.add_site("checkpoint.load_checkpoint", [checkpoint], "load_checkpoint")
    return tr


def layer_metrics(tr: Tracer, op_graphs: dict[int, int], setup_reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derived from the recorded spans.

    ``op_graphs`` maps each traced operation id to the graphs it processed.
    Times are summed over all traced operations and divided by their graphs.
    Counts are taken from the first traced operation only, whose inputs the
    seed fixes, so that they repeat exactly between runs. Set-up metrics are
    per set-up. A layer that a workload does not call reports zero.
    """
    c = tr.columns()
    dur = c["end"] - c["start"]
    own = dur.copy()
    child = c["parent"] >= 0
    np.subtract.at(own, c["parent"][child], dur[child])
    first = min(op_graphs, default=SETUP_OP - 1)  # no traced operation: all zero
    graphs = max(1, sum(op_graphs.values()))
    graphs0 = op_graphs.get(first, 1)
    timed = np.isin(c["op"], list(op_graphs))
    in_first = c["op"] == first
    in_setup = c["op"] == SETUP_OP
    ids = {n: i for i, n in enumerate(tr.names)}

    def sel(name: str, scope: np.ndarray) -> np.ndarray:
        if name not in ids:
            return np.zeros_like(scope)
        return scope & (c["name_id"] == ids[name])

    def time_s(name: str, values=dur) -> float:
        return float(values[sel(name, timed)].sum()) / graphs

    def calls(name: str) -> float:
        return float(sel(name, in_first).sum()) / graphs0

    def setup_s(name: str) -> float:
        return float(dur[sel(name, in_setup)].sum()) / setup_reps

    def counter(key: str, op: int = first) -> float:
        return tr.counters.get((op, key), 0.0)

    out: dict[str, tuple[float, str]] = {}
    prims = [f"tensorcore.{p}" for p in PRIMITIVES]
    out["tensorcore.prim_calls"] = (sum(calls(p) for p in prims), "count/graph")
    out["tensorcore.out_bytes"] = (
        sum(float(c["arg"][sel(p, in_first)].sum()) for p in prims) / graphs0, "bytes/graph")
    out["tensorcore.grad_s"] = (time_s("tensorcore.grad"), "s/graph")
    out["tensorcore.adam_step_s"] = (time_s("tensorcore.adam_step"), "s/graph")
    out["tensorcore.sgd_project_step_s"] = (time_s("tensorcore.sgd_project_step"), "s/graph")
    for p, full in zip(PRIMITIVES, prims):
        out[f"tensorcore.{p}.calls"] = (calls(full), "count/graph")
        out[f"tensorcore.{p}.self_s"] = (time_s(full, own), "s/graph")

    ga = "attention.ga_forward"
    out[f"{ga}.calls"] = (calls(ga), "count/graph")
    out[f"{ga}.self_s"] = (time_s(ga, own), "s/graph")
    for lo, hi in GA_BUCKETS:
        bucket = sel(ga, timed) & (c["arg"] >= lo) & (c["arg"] <= hi)
        out[f"{ga}_s.m{lo}-{hi}"] = (float(dur[bucket].sum()) / graphs, "s/graph")
    scored = counter("scored_pairs")
    out["attention.scored_pairs"] = (scored / graphs0, "count/graph")
    out["attention.mask_fill"] = (counter("mask_true") / scored if scored else 0.0, "ratio")

    out["decoder.train_s"] = (time_s("decoder.train_autodecoder"), "s/graph")
    out["decoder.graph_nll.self_s"] = (time_s("decoder.graph_nll", own), "s/graph")
    for fn in ("block_log_prob", "prepare_steps", "build_scaffold", "sample_graph",
               "block_params", "sample_block"):
        out[f"decoder.{fn}_s"] = (time_s(f"decoder.{fn}"), "s/graph")
    nodes = counter("sampled_nodes")
    out["decoder.edges_per_node"] = (counter("sampled_edges") / nodes if nodes else 0.0, "edges/node")

    out["flow.train_s"] = (time_s("flow.train_flow"), "s/graph")
    out["flow.flow_nll_s"] = (time_s("flow.flow_nll"), "s/graph")
    out["flow.sample_codes_s"] = (time_s("flow.sample_codes"), "s/graph")
    out["flow.init_actnorms_s"] = (setup_s("flow.init_actnorms"), "s")

    out["evalstats.mmd_suite_s"] = (time_s("evalstats.mmd_suite"), "s/graph")
    for stat in ("degree", "clustering", "orbit", "spectra"):
        out[f"evalstats.{stat}_s"] = (time_s(f"evalstats.{stat}_stat"), "s/graph")
    out["evalstats.mmd2_s"] = (time_s("evalstats.mmd2"), "s/graph")
    out["evalstats.quads"] = (counter("quads") / graphs0, "count/graph")

    for fn in ("load_graphs", "order_nodes", "to_lower", "gen_community"):
        out[f"graphdata.{fn}_s"] = (setup_s(f"graphdata.{fn}"), "s")
    out["checkpoint.save_s"] = (setup_s("checkpoint.save_checkpoint"), "s")
    out["checkpoint.load_s"] = (setup_s("checkpoint.load_checkpoint"), "s")
    out["checkpoint.bytes"] = (counter("checkpoint_bytes", SETUP_OP) / setup_reps, "bytes")
    out["trace.spans"] = (float(in_first.sum()) / graphs0, "count/graph")
    return out
