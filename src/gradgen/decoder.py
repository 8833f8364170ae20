"""Block-sequential auto-decoder: scaffold construction, Bernoulli-mixture edge
distributions, teacher-forced likelihood, joint training of parameters and
per-node latent codes, and graph sampling.

Per step the decoder sees the previously generated edges plus putative edges
from each new node to every other node, refines features with stacked GA
layers, and emits a C-component multivariate-Bernoulli mixture over the new
lower-triangular rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import GaParams, NeighborMask, ga_forward, glorot, init_ga_params
from .config import RunConfig
from .graphdata.core import Graph, OrderedLower, lower_edges
from .tensorcore import engine as eng
from .tensorcore.engine import Tensor
from .tensorcore.optim import AdamState, lr_schedule, sgd_project_step, train_epochs

# Steps with at least this many nodes keep only their features and their
# log-likelihood on the tape; the backward pass recomputes the step's GA stack
# and block heads. On batches of 20 lobsters (n <= 100) peak RSS was 442 MiB
# without recomputation, and 199, 210 and 245 MiB from m >= 40, 50 and 60 with
# the GA stack alone recomputed; 50 to 60 cost ~10% in throughput. Recomputing
# the heads too took one 400-node grid's forward and backward from 482 to
# 211 MiB, and perfbench's train_lobster from 161 to 148 MiB, at the same speed
# (2-core host, one BLAS thread). Both train_lobster figures were the first
# set-up's decoder warm-up tape plus ~17 MiB from a checkpoint load that held
# the payload twice; with one copy, that tape alone sets the peak, at ~130 MiB.
# With one node per block mixture and per residual layer norm it is ~127.7 MiB,
# and the tape of the largest committed lobster (n=100) holds 53.9 MiB after
# its forward pass, against 56.4 MiB with those nodes as chains.
CHECKPOINT_MIN_M = 50

__all__ = [
    "DecoderParams",
    "LatentStore",
    "BlockParams",
    "Mlp3",
    "build_scaffold",
    "block_params",
    "block_log_prob",
    "graph_nll",
    "dataset_nll",
    "train_autodecoder",
    "decoder_epoch_budget",
    "sample_block",
    "sample_graph",
    "init_decoder_params",
]


class Mlp3:
    """Three-layer perceptron with ReLU nonlinearities."""

    FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, **tensors):
        for f in self.FIELDS:
            setattr(self, f, tensors[f])

    def __call__(self, x: Tensor) -> Tensor:
        return eng.mlp(x, [(self.w1, self.b1), (self.w2, self.b2), (self.w3, self.b3)])

    def tensors(self):
        for f in self.FIELDS:
            yield f, getattr(self, f)


class DecoderParams:
    """All learnable tensors of the auto-decoder."""

    def __init__(self, gas: list[GaParams], f_lam: Mlp3, f_pi: Mlp3):
        self.gas = gas
        self.f_lam = f_lam
        self.f_pi = f_pi

    def tensors(self):
        for i, ga in enumerate(self.gas):
            for name, t in ga.tensors():
                yield f"ga{i}/{name}", t
        for name, t in self.f_lam.tensors():
            yield f"lam/{name}", t
        for name, t in self.f_pi.tensors():
            yield f"pi/{name}", t

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self.tensors())


def _init_mlp3(rng: np.random.Generator | None, d_in: int, hidden: int, d_out: int) -> Mlp3:
    return Mlp3(
        w1=Tensor(glorot(rng, d_in, hidden), requires_grad=True),
        b1=Tensor(np.zeros(hidden), requires_grad=True),
        w2=Tensor(glorot(rng, hidden, hidden), requires_grad=True),
        b2=Tensor(np.zeros(hidden), requires_grad=True),
        w3=Tensor(glorot(rng, hidden, d_out), requires_grad=True),
        b3=Tensor(np.zeros(d_out), requires_grad=True),
    )


def init_decoder_params(cfg: RunConfig, rng: np.random.Generator | None) -> DecoderParams:
    """Glorot-initialized; with no generator the weights are left unset for a load."""
    gas = [init_ga_params(rng, cfg.d, cfg.d_s_decoder, cfg.heads) for _ in range(cfg.M)]
    f_lam = _init_mlp3(rng, cfg.d, 2 * cfg.d, cfg.C)
    f_pi = _init_mlp3(rng, cfg.d, 2 * cfg.d, cfg.C)
    return DecoderParams(gas, f_lam, f_pi)


@dataclass
class LatentStore:
    """Per-training-graph code matrices, kept inside the unit sup-norm ball."""

    codes: list[np.ndarray] = field(default_factory=list)

    def check(self) -> None:
        for i, z in enumerate(self.codes):
            if np.abs(z).max() > 1.0 + 1e-12:
                raise AssertionError(f"latent codes for graph {i} left the unit ball")


@dataclass
class BlockParams:
    """Edge-distribution parameters for one block: mixture logits over C
    components and per-putative-pair Bernoulli logits."""

    pi_logits: Tensor  # (C,)
    lam_logits: Tensor  # (P, C)
    pair_i: np.ndarray
    pair_j: np.ndarray
    features: Tensor  # (m, d) node features after the GA stack

    def pi(self) -> np.ndarray:
        x = self.pi_logits.data
        e = np.exp(x - x.max())
        return e / e.sum()


def build_scaffold(lo_i: np.ndarray, lo_j: np.ndarray, n_prev: int, k: int) -> NeighborMask:
    """Generated edges (lo_i, lo_j) among the first n_prev nodes plus putative
    edges from each new node to all other nodes (previous and new); O(|E|)
    apart from one sort of the previous nodes' edges."""
    if k < 1 or n_prev < 0:
        raise ValueError("need k >= 1 and n_prev >= 0")
    m = n_prev + k
    prev = np.arange(n_prev, dtype=np.intp)
    new = np.arange(n_prev, m, dtype=np.intp)
    # previous rows: generated edges both ways, then every new node
    keys = np.sort(np.concatenate([lo_i * m + lo_j, lo_j * m + lo_i, (prev[:, None] * m + new).ravel()]))
    # new rows: every other node, already in order
    everyone = np.arange(m, dtype=np.intp)
    new_cols = np.broadcast_to(everyone, (k, m))[everyone != new[:, None]]
    rows = np.concatenate([keys // m, np.repeat(new, m - 1)])
    cols = np.concatenate([keys % m, new_cols])
    return NeighborMask.from_sorted(m, rows, cols)


def _block_pairs(n_prev: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Putative pairs (i in the new block, j < i) in row-major order."""
    ii = []
    jj = []
    for i in range(n_prev, n_prev + k):
        ii.append(np.full(i, i, dtype=np.intp))
        jj.append(np.arange(i, dtype=np.intp))
    if not ii:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(ii), np.concatenate(jj)


def _ga_stack(x: Tensor, mask: NeighborMask, gas: list[GaParams]) -> Tensor:
    for ga in gas:
        x = ga_forward(x, mask, ga)
    return x


def _recomputed(fn, x: Tensor, params: list[Tensor]) -> Tensor:
    """``fn(x)`` for a step over the m = ``len(x)`` nodes ``x``. From m >=
    ``CHECKPOINT_MIN_M`` only the output is kept on the tape, and the backward
    pass re-runs ``fn``, which reads ``params`` besides ``x``."""
    if x.shape[0] >= CHECKPOINT_MIN_M:
        return eng.checkpoint(fn, [x], params)
    return fn(x)


def _features(
    lo_i: np.ndarray, lo_j: np.ndarray, carried: Tensor | None, new_codes: Tensor, params: DecoderParams
) -> Tensor:
    """A step's node features: the GA stack on the scaffold over the generated
    edges (lo_i, lo_j), fed the carried features of the previous nodes and
    the new block's codes."""
    n_prev = 0 if carried is None else carried.shape[0]
    mask = build_scaffold(lo_i, lo_j, n_prev, new_codes.shape[0])
    x = new_codes if carried is None else eng.concat([carried, new_codes], axis=0)
    ga_params = [t for ga in params.gas for _, t in ga.tensors()]
    return _recomputed(lambda h: _ga_stack(h, mask, params.gas), x, ga_params)


def _heads(x: Tensor, n_prev: int, params: DecoderParams) -> BlockParams:
    """The block's edge distribution from its step's features ``x``: the new
    nodes are the rows from ``n_prev`` on."""
    k = x.shape[0] - n_prev
    pair_i, pair_j = _block_pairs(n_prev, k)
    if k == 1 and n_prev > 0:
        # single-row block: all pairs share node i, broadcast beats gathering
        diff = eng.narrow(x, 0, n_prev, 1) - eng.narrow(x, 0, 0, n_prev)
    elif len(pair_i):
        diff = eng.gather_rows(x, pair_i) - eng.gather_rows(x, pair_j)
    else:
        diff = eng.narrow(x, 0, 0, 0)
    lam_logits = params.f_lam(diff)
    pi_logits = eng.tsum(params.f_pi(diff), axis=0)
    return BlockParams(pi_logits=pi_logits, lam_logits=lam_logits, pair_i=pair_i, pair_j=pair_j, features=x)


def block_params(
    lo_i: np.ndarray,
    lo_j: np.ndarray,
    carried: Tensor | None,
    new_codes: Tensor | np.ndarray,
    params: DecoderParams,
) -> BlockParams:
    """Run the GA stack on the scaffold over the generated edges (lo_i, lo_j)
    and the carried features of the previous nodes, and emit this block's edge
    distribution; ``features`` carries the refined embeddings to the next step."""
    new_codes = new_codes if isinstance(new_codes, Tensor) else Tensor(new_codes)
    n_prev = 0 if carried is None else carried.shape[0]
    return _heads(_features(lo_i, lo_j, carried, new_codes, params), n_prev, params)


def block_log_prob(observed: np.ndarray, bp: BlockParams) -> Tensor:
    """Log-likelihood of an observed 0/1 pair vector under the block mixture,
    one engine node."""
    observed = np.asarray(observed)
    if observed.shape != bp.pair_i.shape:
        raise ValueError(f"observed block has {observed.shape} entries, expected {bp.pair_i.shape}")
    if observed.dtype != bool:
        bad = observed[(observed != 0) & (observed != 1)]
        if len(bad):
            raise ValueError(f"observed block must hold 0/1 values, got {bad[0]}")
    return eng.bernoulli_mixture_log_prob(bp.pi_logits, bp.lam_logits, observed)


def _decode(codes: Tensor, params: DecoderParams, k: int, choose) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's one step loop, shared by teacher forcing and sampling.
    Each step computes its node features on the edges so far,
    ``choose(n_prev, features)`` returns the block's 0/1 pair vector (observed
    or drawn), and its edges are appended. Returns the graph's edges
    (lo_i, lo_j) in row order."""
    n = codes.shape[0]
    lo_i = lo_j = np.empty(0, dtype=np.intp)
    x = None
    for n_prev in range(0, n, k):
        x = _features(lo_i, lo_j, x, eng.narrow(codes, 0, n_prev, min(k, n - n_prev)), params)
        pair_i, pair_j = _block_pairs(n_prev, x.shape[0] - n_prev)
        hits = choose(n_prev, x)
        lo_i = np.concatenate([lo_i, pair_i[hits]])
        lo_j = np.concatenate([lo_j, pair_j[hits]])
    return lo_i, lo_j


def graph_nll(ol: OrderedLower, codes: Tensor | np.ndarray, params: DecoderParams, k: int = 1) -> Tensor:
    """Negative log-likelihood of an ordered graph under teacher forcing. A
    recomputed step keeps only its features and its log-likelihood."""
    codes = codes if isinstance(codes, Tensor) else Tensor(codes)
    n = ol.n
    if codes.shape[0] != n:
        raise ValueError("codes row count must equal the node count")
    # observed bits over all row-major pairs; pair (i, j < i) has index i(i-1)/2 + j
    lo_i, lo_j = lower_edges(ol.rows)
    bits = np.zeros(n * (n - 1) // 2, dtype=bool)
    bits[lo_i * (lo_i - 1) // 2 + lo_j] = True
    head_params = [t for _, t in params.f_lam.tensors()] + [t for _, t in params.f_pi.tensors()]
    total = None

    def observe(n_prev: int, x: Tensor) -> np.ndarray:
        nonlocal total
        m = x.shape[0]
        eps = bits[n_prev * (n_prev - 1) // 2 : m * (m - 1) // 2]
        lp = _recomputed(lambda h: block_log_prob(eps, _heads(h, n_prev, params)), x, head_params)
        total = lp if total is None else total + lp
        return eps

    _decode(codes, params, k, observe)
    return eng.neg(total)


def dataset_nll(ordered: list[OrderedLower], codes: list[np.ndarray], params: DecoderParams, k: int = 1) -> float:
    """Mean per-graph NLL over a dataset with clean (noise-free) codes."""
    with eng.no_grad():
        vals = [float(graph_nll(ol, z, params, k=k).data) for ol, z in zip(ordered, codes)]
    return float(np.mean(vals))


def sample_block(bp: BlockParams, rng: np.random.Generator) -> np.ndarray:
    """Sample one block from its mixture: draw a component, then each putative
    edge independently from that component's Bernoulli means."""
    pi = bp.pi()
    comp = int(rng.choice(len(pi), p=pi))
    if len(bp.pair_i) == 0:
        return np.empty(0, dtype=bool)
    lam = eng.stable_sigmoid(bp.lam_logits.data[:, comp])
    return rng.random(len(lam)) < lam


def sample_graph(
    n: int,
    codes: np.ndarray,
    params: DecoderParams,
    rng: np.random.Generator,
    k: int = 1,
) -> Graph:
    """Draw a graph of ``n`` nodes block by block."""
    if codes.shape[0] != n:
        raise ValueError("codes row count must equal the requested node count")
    with eng.no_grad():
        lo_i, lo_j = _decode(Tensor(codes), params, k, lambda n_prev, x: sample_block(_heads(x, n_prev, params), rng))
    return Graph(n, zip(lo_j.tolist(), lo_i.tolist()))


# -- training ------------------------------------------------------------------


def decoder_epoch_budget(cfg: RunConfig) -> int:
    """The decoder's epoch budget: ``grad_r`` runs three times ``decoder_epochs``."""
    return cfg.decoder_epochs * (3 if cfg.mode == "grad_r" else 1)


def train_autodecoder(
    train_ordered: list[OrderedLower],
    cfg: RunConfig,
    *,
    params: DecoderParams | None = None,
    store: LatentStore | None = None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    stop_epoch: int | None = None,
    log=None,
):
    """Joint optimization of decoder parameters (Adam, step-decay schedule) and
    latent codes (projected gradient ascent, two updates per batch step).

    ``grad_r`` mode freezes the codes at their initial random draws.
    ``stop_epoch`` ends the run early (for periodic checkpointing) while the
    decay schedule still spans the full budget. Returns the parameters, the
    latent store, and the loss curve as (epoch, lr, mean train NLL) rows.
    """
    if not train_ordered:
        raise ValueError("empty training set")
    total_epochs = decoder_epoch_budget(cfg)
    stop = total_epochs if stop_epoch is None else min(stop_epoch, total_epochs)
    if params is None:
        params = init_decoder_params(cfg, np.random.default_rng([cfg.seed, 0xDEC0]))
    if store is None:
        rng = np.random.default_rng([cfg.seed, 0x1A7E])
        store = LatentStore([np.clip(rng.standard_normal((ol.n, cfg.d)), -1.0, 1.0) for ol in train_ordered])
    param_list = params.as_dict()
    leaves = list(param_list.values())
    learn_codes = cfg.mode != "grad_r"

    def graph_grads(epoch, gi, rng, wrt=leaves):
        """NLL of graph ``gi`` at noisy codes and its gradients for ``wrt``; learned
        codes take a projected ascent step on their likelihood plus Gaussian prior."""
        z = store.codes[gi]
        codes = Tensor(_noisy(z, cfg.decoder_noise, rng), requires_grad=learn_codes)
        loss, grads = eng.run_diagnosed(
            lambda: graph_nll(train_ordered[gi], codes, params, k=cfg.K),
            wrt + [codes] if learn_codes else wrt,
            f"training diverged at epoch {epoch}, graph {gi}",
        )
        if learn_codes:
            store.codes[gi] = sgd_project_step(z, -grads[codes] - z, cfg.delta)
        return loss, grads

    def second_code_pass(epoch, batch, rng):
        """One more code step per graph at the new parameters, which are
        frozen so backward skips their gradient blocks."""
        for t in leaves:
            t.requires_grad = False
        try:
            for gi in batch:
                graph_grads(epoch, gi, rng, [])
        finally:
            for t in leaves:
                t.requires_grad = True

    return params, store, train_epochs(
        param_list,
        adam,
        range(start_epoch, stop),
        len(train_ordered),
        cfg.batch,
        seed=(cfg.seed, 0xE90C),
        lr_at=lambda epoch: lr_schedule("step-decay", epoch, base=cfg.tau, total=total_epochs),
        graph_grads=graph_grads,
        after_step=second_code_pass if learn_codes else None,
        log=log,
    )


def _noisy(z: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    return z + noise * rng.standard_normal(z.shape) if noise > 0 else z
