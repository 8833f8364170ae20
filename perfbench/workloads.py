"""The benchmark's workloads.

Each workload has a ``setup(seed)`` that loads or generates its inputs,
builds its model fixture and warms up, a ``run_op(state, k)`` that performs
the k-th timed operation through the same public library functions that
``gradgen train``, ``sample`` and ``eval`` call, and a ``verify`` that checks
the operation's outputs afterwards, outside the timed region. The program
only ever receives generated inputs: the committed lobster splits and
``gen_community(seed)``.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass, field

import numpy as np

from gradgen import checkpoint, config, decoder, evalstats, flow, graphdata
from gradgen.attention import NeighborMask
from gradgen.cli import worker_count
from gradgen.tensorcore.optim import AdamState

RESULTS = os.path.join("results", "acceptance")
TRAIN_SPLIT = os.path.join(RESULTS, "lobster.ckpt.train.g")
RUN_CONFIG = os.path.join(RESULTS, "lobster.cfg")  # paper defaults, seed of the committed run
OOD_REF = os.path.join(RESULTS, "ood_lobster_ref.g")

# ``gradgen train`` and ``sample`` raise the collector thresholds this way,
# ``eval`` keeps the defaults
CLI_GC_THRESHOLD = (200_000, 50, 50)

# Batch mean NLLs of one decoder step and one flow step from the fixture, per
# balanced batch, recorded at the commit that added this benchmark. Any
# change that keeps the arithmetic must reproduce them.
EXPECTED_NLL = {
    0: (1474.7370150048862, 30.176042697692736),
    1: (1479.6115581263043, 30.1935861671186),
    2: (1450.4116556760878, 30.180975225421662),
    3: (1476.308877886118, 30.216653182617556),
}
NLL_RTOL = 1e-9

OOD_N = 200  # nodes per sampled graph: twice the largest training graph
SAMPLES_PER_OP = 4
# Added to the f_lam output bias so that n=200 draws from the untrained
# fixture have about one edge per node, like the lobster train split (0.98).
# Without it a draw has about 50 edges per node, which would misstate where
# sampling time goes.
LAM_BIAS_SHIFT = -4.78
ROUNDTRIP_ATOL = 1e-8

# Node counts of each evaluated set: one graph per target, the nearest sizes
# that gen_community(seed) drew. Fixed sizes keep the work per set the same
# for every seed; 4-node orbit enumeration grows about as n^4.
COMMUNITY_SIZES = (64, 96, 128)
# Set pairs kept for the timed loop, more than a run uses; the rest of the
# generated graphs is dropped so that it does not inflate garbage collection.
COMMUNITY_PAIRS = 24


@dataclass
class OpRecord:
    """One timed operation: its timed seconds, the graphs it processed, the
    per-graph times behind ``graph_s_p50`` and the outputs to verify."""

    seconds: float
    graphs: int
    per_graph_s: list[float]
    outputs: dict = field(default_factory=dict)


class Tally:
    """Attempted and failed operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _initial_codes(cfg, ordered) -> list[np.ndarray]:
    # the draw train_autodecoder makes when it starts without a latent store
    rng = np.random.default_rng([cfg.seed, 0x1A7E])
    return [np.clip(rng.standard_normal((ol.n, cfg.d)), -1.0, 1.0) for ol in ordered]


def _load_split(root: str):
    cfg = config.load_config(os.path.join(root, RUN_CONFIG))
    graphs = graphdata.load_graphs(os.path.join(root, TRAIN_SPLIT))
    ordered = [graphdata.to_lower(g, graphdata.order_nodes(g, cfg.ordering)) for g in graphs]
    return cfg, graphs, ordered


def _fixture(root: str, name: str, cfg, graphs, ordered, lam_shift: float = 0.0) -> checkpoint.Checkpoint:
    """Seeded decoder and flow with actnorms fitted on the first batch of
    lobster codes, round-tripped through a checkpoint file."""
    dec = decoder.init_decoder_params(cfg, np.random.default_rng([cfg.seed, 0xDEC0]))
    dec.f_lam.b3.data = dec.f_lam.b3.data + lam_shift
    codes = _initial_codes(cfg, ordered)
    fl = flow.init_flow_params(cfg, np.random.default_rng([cfg.seed, 0xF10A]))
    first = range(min(cfg.batch, len(ordered)))
    flow.init_actnorms(fl, [(codes[i], flow.mask_from_ordered(ordered[i])) for i in first])
    ckpt = checkpoint.Checkpoint(
        config=cfg, decoder=dec, store=decoder.LatentStore(codes), flow=fl,
        train_sizes=[g.n for g in graphs],
    )
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.ckpt")
    checkpoint.save_checkpoint(path, ckpt)
    try:
        return checkpoint.load_checkpoint(path)
    finally:
        os.unlink(path)


def balanced_batches(sizes: list[int], batch: int) -> list[list[int]]:
    """Split graph indices into batches of equal total size: deal the graphs,
    largest first, to the batches in snake order."""
    count = len(sizes) // batch
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    out: list[list[int]] = [[] for _ in range(count)]
    for r, i in enumerate(order[: count * batch]):
        lap, pos = divmod(r, count)
        out[pos if lap % 2 == 0 else count - 1 - pos].append(i)
    return out


def _scores_ok(scores: dict) -> bool:
    return set(scores) == set(evalstats.STATISTICS) and all(
        np.isfinite(v) and v >= 0.0 for v in scores.values()
    )


# -- train_lobster -------------------------------------------------------------


@dataclass
class TrainState:
    cfg: object
    batch_id: int
    ordered: list
    fixture: checkpoint.Checkpoint
    codes: list[np.ndarray]


class TrainLobster:
    """One whole paper-size batch: a joint decoder step (parameter and code
    pass, then second code pass) followed by a flow step on the new codes,
    always from the same fixture, so every operation repeats the same work."""

    name = "train_lobster"
    gc_threshold = CLI_GC_THRESHOLD

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int) -> TrainState:
        cfg, graphs, ordered = _load_split(self.root)
        batches = balanced_batches([g.n for g in graphs], cfg.batch)
        batch_id = int(np.random.default_rng([seed, 0x7BA7]).integers(len(batches)))
        fixture = _fixture(self.root, self.name, cfg, graphs, ordered)
        idx = batches[batch_id]
        state = TrainState(cfg, batch_id, [ordered[i] for i in idx], fixture,
                           [fixture.store.codes[i] for i in idx])
        largest = max(range(len(idx)), key=lambda j: state.ordered[j].n)
        self._step(state, [largest])  # warmup, discarded
        return state

    def _step(self, state: TrainState, members: list[int]):
        cfg = state.cfg
        ordered = [state.ordered[j] for j in members]
        params = copy.deepcopy(state.fixture.decoder)
        fl = copy.deepcopy(state.fixture.flow)
        store = decoder.LatentStore([state.codes[j].copy() for j in members])
        t0 = time.perf_counter()
        _, store, curve = decoder.train_autodecoder(
            ordered, cfg, params=params, store=store, adam=AdamState(), start_epoch=0, stop_epoch=1
        )
        _, flow_curve = flow.train_flow(store, ordered, cfg, params=fl, adam=AdamState(), start_epoch=0, epochs=1)
        seconds = time.perf_counter() - t0
        return seconds, store, curve[0][2], flow_curve[0][2]

    def run_op(self, state: TrainState, k: int) -> OpRecord:
        members = list(range(len(state.ordered)))
        seconds, store, nll, flow_nll = self._step(state, members)
        n = len(members)
        return OpRecord(seconds, n, [seconds / n], {"store": store, "nll": (nll, flow_nll)})

    def attempts_per_op(self, state: TrainState) -> int:
        return len(state.ordered) + 1

    def verify(self, state: TrainState, rec: OpRecord, tally: Tally) -> None:
        for z in rec.outputs["store"].codes:  # one training-graph step each
            try:
                decoder.LatentStore([z]).check()
                tally.record(bool(np.isfinite(z).all()))
            except AssertionError:
                tally.record(False)
        got = rec.outputs["nll"]
        want = EXPECTED_NLL[state.batch_id]
        tally.record(all(np.isfinite(g) and abs(g - w) <= NLL_RTOL * abs(w) for g, w in zip(got, want)))


# -- sample_ood200 -------------------------------------------------------------


@dataclass
class SampleState:
    cfg: object
    fixture: checkpoint.Checkpoint
    reference: list
    rng: np.random.Generator
    workers: int


class SampleOod200:
    """Inverse-flow codes and block-by-block decoding at n=200, then the
    four-statistic MMD of the new samples against the N~200 lobster
    reference."""

    name = "sample_ood200"
    gc_threshold = CLI_GC_THRESHOLD

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int) -> SampleState:
        cfg, graphs, ordered = _load_split(self.root)
        fixture = _fixture(self.root, self.name, cfg, graphs, ordered, lam_shift=LAM_BIAS_SHIFT)
        reference = graphdata.load_graphs(os.path.join(self.root, OOD_REF))
        warm = np.random.default_rng([seed, 0x3A4])
        codes = flow.sample_codes(OOD_N, fixture.flow, cfg.sigma_sample, warm)  # warmup, discarded
        decoder.sample_graph(OOD_N, codes, fixture.decoder, warm, k=cfg.K)
        # the generator `gradgen sample` seeds for its draws
        rng = np.random.default_rng([seed, 0x5A3B1E])
        return SampleState(cfg, fixture, reference, rng, worker_count())

    def run_op(self, state: SampleState, k: int) -> OpRecord:
        cfg = state.cfg
        samples, draws, codes, times = [], [], [], []
        for _ in range(SAMPLES_PER_OP):
            draws.append(copy.deepcopy(state.rng))
            t0 = time.perf_counter()
            z = flow.sample_codes(OOD_N, state.fixture.flow, cfg.sigma_sample, state.rng)
            g = decoder.sample_graph(OOD_N, z, state.fixture.decoder, state.rng, k=cfg.K)
            times.append(time.perf_counter() - t0)
            samples.append(g)
            codes.append(z)
        t0 = time.perf_counter()
        scores = evalstats.mmd_suite(samples, state.reference, workers=state.workers)
        eval_s = time.perf_counter() - t0
        return OpRecord(sum(times) + eval_s, len(samples), times,
                        {"samples": samples, "draws": draws, "codes": codes, "scores": scores})

    def attempts_per_op(self, state: SampleState) -> int:
        return SAMPLES_PER_OP + 1

    def verify(self, state: SampleState, rec: OpRecord, tally: Tally) -> None:
        cfg = state.cfg
        fl = state.fixture.flow
        out = rec.outputs
        for g, draw, z in zip(out["samples"], out["draws"], out["codes"]):
            y = cfg.sigma_sample * draw.standard_normal((OOD_N, 2 * fl.half_dim))
            back = flow.flow_forward(z, NeighborMask.complete(OOD_N), fl).y.data
            edges_ok = all(0 <= u < v < g.n for u, v in g.edges)
            tally.record(g.n == OOD_N and edges_ok and np.allclose(back, y, rtol=0.0, atol=ROUNDTRIP_ATOL))
        tally.record(_scores_ok(out["scores"]))


# -- eval_community ------------------------------------------------------------


@dataclass
class EvalState:
    pairs: list
    workers: int


class EvalCommunity:
    """MMD over all four statistics between two disjoint sets of
    two-community graphs; orbit enumeration takes nearly all of the time.

    Not listed in BENCHMARK.json: ``evalstats.mmd2`` raises on some of these
    pairs (seed 232146926, operation 2: degree MMD^2 of -6.6e-4). Its Gaussian
    kernel on total-variation distance is not positive definite, so sets from
    one distribution can score below zero. List the workload again once
    ``mmd2`` handles that."""

    name = "eval_community"
    gc_threshold = None

    def __init__(self, root: str):
        self.root = root

    def setup(self, seed: int) -> EvalState:
        graphs = graphdata.gen_community(seed=seed)
        # per target size, candidates by distance from it, then by draw order
        ranked = [sorted(range(len(graphs)), key=lambda i: (abs(graphs[i].n - s), i)) for s in COMMUNITY_SIZES]
        pairs = []
        for p in range(COMMUNITY_PAIRS):
            a = [graphs[r[2 * p]] for r in ranked]
            b = [graphs[r[2 * p + 1]] for r in ranked]
            pairs.append((a, b))
        workers = worker_count()
        warm = [min(graphs, key=lambda g: g.n)]
        evalstats.mmd_suite(warm, warm, workers=workers)  # warmup, discarded
        return EvalState(pairs, workers)

    def run_op(self, state: EvalState, k: int) -> OpRecord:
        a, b = state.pairs[k % len(state.pairs)]
        t0 = time.perf_counter()
        scores = evalstats.mmd_suite(a, b, workers=state.workers)
        seconds = time.perf_counter() - t0
        n = len(a) + len(b)
        return OpRecord(seconds, n, [seconds / n], {"scores": scores})

    def attempts_per_op(self, state: EvalState) -> int:
        return 1

    def verify(self, state: EvalState, rec: OpRecord, tally: Tally) -> None:
        tally.record(_scores_ok(rec.outputs["scores"]))


WORKLOADS = {w.name: w for w in (TrainLobster, SampleOod200, EvalCommunity)}
