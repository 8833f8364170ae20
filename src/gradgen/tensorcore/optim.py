"""Adam, projected gradient-ascent for latent codes, and the two LR schedules."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor

__all__ = ["AdamState", "adam_step", "sgd_project_step", "lr_schedule"]

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
