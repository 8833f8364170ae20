"""Graph-attention normalizing flow over per-node latent codes.

The flow is 2R affine coupling layers. Each updates one half of the feature
channels conditioned on the other half (scale bounded by a scaled tanh before
exponentiation), then normalizes the updated half with an actnorm (per-channel
log-scale and bias) followed by an invertible dense channel-mixing matrix;
the next layer updates the other half. Forward maps codes to a standard
Gaussian with an exact log-determinant; sampling inverts the chain on Gaussian
draws over a fully connected neighborhood mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attention import GaParams, NeighborMask, ga_forward, init_ga_params
from .config import RunConfig
from .graphdata.core import OrderedLower, lower_edges
from .tensorcore import engine as eng
from .tensorcore.engine import Tensor
from .tensorcore.optim import AdamState, noisy, train_epochs

__all__ = [
    "FlowParams",
    "Coupling",
    "FlowResult",
    "flow_forward",
    "flow_inverse",
    "flow_nll",
    "train_flow",
    "sample_codes",
    "init_flow_params",
    "init_actnorms",
    "mask_from_ordered",
]

SCALE_BOUND = 2.0  # exp argument is SCALE_BOUND * tanh(.)


class Coupling(NamedTuple):
    """One affine coupling layer: the GA transforms giving the log-scale and
    the shift, then the actnorm (log_s, b) and the channel mix w."""

    g_s: GaParams
    g_t: GaParams
    log_s: Tensor
    b: Tensor
    w: Tensor


class FlowParams:
    """The 2R coupling layers in forward order. Layer 2i updates the second
    half of the channels from the first, layer 2i+1 the first from the
    updated second; checkpoints name them as step i's (g1, g2, n1) and
    (g3, g4, n2)."""

    def __init__(self, layers: list[Coupling], initialized: bool = False):
        self.layers = layers
        self.initialized = initialized  # actnorm data-dependent init done

    @property
    def half_dim(self) -> int:
        return self.layers[0].log_s.shape[0]

    def tensors(self):
        for i, (first, second) in enumerate(zip(self.layers[::2], self.layers[1::2])):
            for g, ga in enumerate((first.g_s, first.g_t, second.g_s, second.g_t), start=1):
                for name, t in ga.tensors():
                    yield f"step{i}/g{g}/{name}", t
            for n, layer in ((1, first), (2, second)):
                yield f"step{i}/n{n}/log_s", layer.log_s
                yield f"step{i}/n{n}/b", layer.b
                yield f"step{i}/n{n}/w", layer.w

    def as_dict(self) -> dict[str, Tensor]:
        return dict(self.tensors())


@dataclass
class FlowResult:
    y: Tensor
    logdet: Tensor


def _random_rotation(rng: np.random.Generator | None, k: int) -> np.ndarray:
    if rng is None:
        return np.empty((k, k))  # left for a load to fill
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def init_flow_params(cfg: RunConfig, rng: np.random.Generator | None) -> FlowParams:
    """GA transforms start as the zero map (zeroed output gain) so every step
    begins near identity; mixing matrices start as random rotations. With no
    generator, the random weights are left unset for a checkpoint load."""
    d2 = cfg.d // 2
    layers = []
    for _ in range(cfg.R):  # seeded draw order per step: four GA transforms, then two rotations
        gas = [init_ga_params(rng, d2, cfg.d_s_flow, cfg.heads, zero_final=True) for _ in range(4)]
        for g_s, g_t in (gas[:2], gas[2:]):
            zeros = [Tensor(np.zeros(d2), requires_grad=True) for _ in range(2)]
            layers.append(Coupling(g_s, g_t, *zeros, Tensor(_random_rotation(rng, d2), requires_grad=True)))
    return FlowParams(layers)


def mask_from_ordered(ol: OrderedLower) -> NeighborMask:
    """The graph's true structure as a neighborhood mask."""
    lo_i, lo_j = lower_edges(ol.rows)
    keys = np.sort(np.concatenate([lo_i * ol.n + lo_j, lo_j * ol.n + lo_i]))
    return NeighborMask(ol.n, keys // ol.n, keys % ol.n)


def _scale(h: Tensor) -> Tensor:
    return eng.tanh(h) * Tensor(SCALE_BOUND)


def _coupling(cond: Tensor, mask: NeighborMask, layer: Coupling) -> tuple[Tensor, Tensor]:
    """Bounded log-scale ``s`` and shift ``t`` of the affine coupling that
    updates one half from the other: forward ``upd * exp(s) + t``."""
    return _scale(ga_forward(cond, mask, layer.g_s)), ga_forward(cond, mask, layer.g_t)


def _actnorm_fwd(x: Tensor, layer: Coupling) -> tuple[Tensor, Tensor]:
    n = x.shape[0]
    h = x * eng.exp(layer.log_s) + layer.b
    out = eng.matmul(h, layer.w)
    ld = (eng.tsum(layer.log_s) + eng.logabsdet(layer.w)) * Tensor(float(n))
    return out, ld


def _check_invertible(w: np.ndarray) -> np.ndarray:
    sign, ld = np.linalg.slogdet(w)
    if sign == 0 or abs(sign * np.exp(ld)) <= 1e-12:
        raise np.linalg.LinAlgError("channel-mixing matrix is numerically singular")
    return np.linalg.inv(w)


def _actnorm_inv(y: np.ndarray, layer: Coupling) -> np.ndarray:
    h = y @ _check_invertible(layer.w.data)
    return (h - layer.b.data) * np.exp(-layer.log_s.data)


def flow_forward(z: Tensor | np.ndarray, mask: NeighborMask, params: FlowParams) -> FlowResult:
    """Map codes to the Gaussian side; ``logdet`` is log|det dY/dZ|."""
    z = z if isinstance(z, Tensor) else Tensor(z)
    d = z.shape[1]
    d2 = params.half_dim
    if d != 2 * d2:
        raise ValueError(f"flow expects {2 * d2} feature channels, got {d}")
    cond, upd = eng.narrow(z, 1, 0, d2), eng.narrow(z, 1, d2, d2)
    logdet = Tensor(0.0)
    for layer in params.layers:
        s, t = _coupling(cond, mask, layer)
        logdet = logdet + eng.tsum(s)
        upd, ld = _actnorm_fwd(upd * eng.exp(s) + t, layer)
        logdet = logdet + ld
        cond, upd = upd, cond  # over an even count of layers, back to [y0, y1]
    return FlowResult(y=eng.concat([cond, upd], axis=1), logdet=logdet)


def flow_inverse(y: np.ndarray, mask: NeighborMask, params: FlowParams) -> np.ndarray:
    """Exact algebraic inversion of the forward chain (no gradients)."""
    y = np.asarray(y, dtype=np.float64)
    d2 = params.half_dim
    cond, upd = y[:, :d2], y[:, d2:]
    with eng.no_grad():
        for layer in reversed(params.layers):
            cond, upd = upd, cond  # undo the forward pass's swap
            upd = _actnorm_inv(upd, layer)
            s, t = _coupling(Tensor(cond), mask, layer)
            upd = (upd - t.data) * np.exp(-s.data)
    return np.concatenate([cond, upd], axis=1)


LOG_2PI = float(np.log(2.0 * np.pi))


def flow_nll(z: Tensor | np.ndarray, mask: NeighborMask, params: FlowParams) -> Tensor:
    """Exact negative log-likelihood under a standard-normal base density."""
    res = flow_forward(z, mask, params)
    n_entries = res.y.data.size
    gauss = eng.tsum(res.y * res.y) * Tensor(-0.5) + Tensor(-0.5 * n_entries * LOG_2PI)
    return eng.neg(gauss + res.logdet)


def sample_codes(n: int, params: FlowParams, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Codes for ``n`` nodes: Gaussian draw at scale sigma inverted through the
    flow with a complete-graph neighborhood."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = sigma * rng.standard_normal((n, 2 * params.half_dim))
    return flow_inverse(y, NeighborMask.complete(n), params)


# -- training -------------------------------------------------------------------


def init_actnorms(params: FlowParams, batch: list[tuple[np.ndarray, NeighborMask]]) -> None:
    """Data-dependent actnorm initialization: after the affine coupling, each
    channel of the first batch has zero mean and unit variance."""
    d2 = params.half_dim
    pairs = [(Tensor(z[:, :d2]), Tensor(z[:, d2:])) for z, _ in batch]
    masks = [m for _, m in batch]
    with eng.no_grad():
        for layer in params.layers:
            pre = []
            for (cond, upd), mask in zip(pairs, masks):
                s, t = _coupling(cond, mask, layer)
                pre.append(upd * eng.exp(s) + t)
            _fit_actnorm(layer, np.concatenate([h.data for h in pre], axis=0))
            pairs = [(_actnorm_fwd(h, layer)[0], cond) for h, (cond, _) in zip(pre, pairs)]
    params.initialized = True


def _fit_actnorm(layer: Coupling, activations: np.ndarray) -> None:
    std = np.maximum(activations.std(axis=0), 1e-6)
    mean = activations.mean(axis=0)
    layer.log_s.data = -np.log(std)
    layer.b.data = -mean / std


def train_flow(
    store,
    ordered: list[OrderedLower],
    cfg: RunConfig,
    *,
    params: FlowParams | None = None,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    epochs: int | None = None,
    log=None,
):
    """Adam training on noise-perturbed codes with per-graph true-structure
    masks; the objective is per-node NLL averaged over the batch."""
    codes = store.codes
    if not codes:
        raise ValueError("latent store is empty")
    if len(codes) != len(ordered):
        raise ValueError("latent store and graph list are misaligned")
    total_epochs = epochs if epochs is not None else cfg.flow_epochs
    if params is None:
        params = init_flow_params(cfg, np.random.default_rng([cfg.seed, 0xF10A]))
    param_list = params.as_dict()
    leaves = list(param_list.values())
    masks = [mask_from_ordered(ol) for ol in ordered]

    def init_on_first_batch(epoch, batch, rng):
        if not params.initialized:
            init_actnorms(params, [(noisy(codes[i], cfg.flow_noise, rng), masks[i]) for i in batch])

    def graph_grads(epoch, gi, rng):
        z = noisy(codes[gi], cfg.flow_noise, rng)
        return eng.run_diagnosed(
            lambda: flow_nll(z, masks[gi], params) * Tensor(1.0 / z.shape[0]),
            leaves,
            f"flow training diverged at epoch {epoch}, graph {gi}",
        )

    return params, train_epochs(
        param_list,
        adam,
        range(start_epoch, total_epochs),
        len(codes),
        cfg.batch,
        seed=(cfg.seed, 0xF10E),
        lr_at=lambda epoch: cfg.flow_lr * cfg.flow_gamma**epoch,
        graph_grads=graph_grads,
        before_step=init_on_first_batch,
        log=log,
    )
