"""Adam, projected gradient-ascent for latent codes, the two LR schedules, and the trainers' epoch loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor

__all__ = ["AdamState", "adam_step", "sgd_project_step", "lr_schedule", "train_epochs"]

# Adam's moment decay rates and denominator offset (Kingma & Ba defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One Adam update (bias-corrected) applied in place, in sorted key order."""
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter '{name}' {p.data.shape}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data = p.data - lr * (m / c1) / (np.sqrt(v / c2) + EPS)


def sgd_project_step(codes: np.ndarray, grads: np.ndarray, delta: float) -> np.ndarray:
    """Gradient-ascent step on the codes, projected back onto the unit sup-norm ball."""
    if codes.shape != grads.shape:
        raise ValueError(f"code shape {codes.shape} does not match gradient shape {grads.shape}")
    return np.clip(codes + delta * grads, -1.0, 1.0)


def lr_schedule(kind: str, epoch: int, *, base: float, total: int = 0, gamma: float = 0.997) -> float:
    """Learning rate at a given epoch.

    step-decay: ``base * 0.3 ** floor(3 * epoch / total)``, at most two decays.
    exponential: ``base * gamma ** epoch``.
    """
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if kind == "step-decay":
        if total <= 0:
            raise ValueError("step-decay needs the total epoch count")
        k = min((3 * epoch) // total, 2)
        return base * 0.3**k
    if kind == "exponential":
        return base * gamma**epoch
    raise ValueError(f"unknown schedule kind: {kind!r}")


def train_epochs(
    params, adam, epochs, n_graphs, batch_size, *, seed, lr_at, graph_grads, before_step=None, after_step=None, log=None
) -> list[tuple[int, float, float]]:
    """Minibatch Adam on the parameter dict ``params``; returns and logs one
    (epoch, lr, mean loss) row per epoch in ``epochs``.

    Each epoch's ``rng = default_rng([*seed, epoch])`` permutes the ``n_graphs``
    graphs into ``batch_size`` slices. Per batch, one :func:`adam_step` at
    ``lr_at(epoch)`` takes the mean of the gradients, keyed by tensor, that
    ``graph_grads(epoch, gi, rng)`` returns with each graph's loss, between
    ``before_step(epoch, batch, rng)`` and ``after_step(epoch, batch, rng)``.
    """
    adam = AdamState() if adam is None else adam
    curve = []
    for epoch in epochs:
        lr = lr_at(epoch)
        rng = np.random.default_rng([*seed, epoch])
        order = rng.permutation(n_graphs)
        losses = []
        for lo in range(0, n_graphs, batch_size):
            batch = [int(gi) for gi in order[lo : lo + batch_size]]
            if before_step is not None:
                before_step(epoch, batch, rng)
            mean = {name: np.zeros_like(t.data) for name, t in params.items()}
            for gi in batch:
                loss, grads = graph_grads(epoch, gi, rng)
                losses.append(loss)
                for name, t in params.items():
                    mean[name] += grads[t]
                del grads  # not kept alive through the next graph's forward and backward pass
            for name in mean:
                mean[name] /= len(batch)
            adam_step(params, mean, adam, lr)
            if after_step is not None:
                after_step(epoch, batch, rng)
        curve.append((epoch, lr, float(np.mean(losses))))
        if log is not None:
            log(*curve[-1])
    return curve
