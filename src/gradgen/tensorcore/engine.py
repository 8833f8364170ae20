"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

Every operation returns a new :class:`Tensor` and, while gradients are
enabled, records itself on the output node (parents + backward closure).
:func:`grad` linearizes the recorded graph into an ordered tape and replays
it backward, accumulating adjoints for the requested leaves.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NonFiniteError",
    "grad",
    "no_grad",
    "finite_checks",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "mlp",
    "concat",
    "narrow",
    "gather_rows",
    "tanh",
    "exp",
    "tsum",
    "dense_attention",
    "edge_attention",
    "layer_norm",
    "bernoulli_mixture_log_prob",
    "logabsdet",
    "stable_sigmoid",
    "checkpoint",
    "run_diagnosed",
]


class NonFiniteError(RuntimeError):
    """Raised when a primitive produces a non-finite value (checks enabled)."""


_GRAD_ENABLED = True
_FINITE_CHECKS = False


@contextlib.contextmanager
def _recording(enabled: bool):
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = enabled
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    return _recording(False)


@contextlib.contextmanager
def finite_checks():
    """Validate every primitive output for NaN/Inf inside the block.

    Off by default: the per-op scan roughly doubles the cost of small-array
    workloads. :func:`run_diagnosed` re-runs a failing evaluation under this
    context to name the offending primitive.
    """
    global _FINITE_CHECKS
    prev = _FINITE_CHECKS
    _FINITE_CHECKS = True
    try:
        yield
    finally:
        _FINITE_CHECKS = prev


def run_diagnosed(objective: Callable[[], Tensor], leaves: Sequence[Tensor], context: str) -> tuple[float, dict]:
    """The value of ``objective()`` and its gradients for ``leaves``.

    If the evaluation raises :class:`NonFiniteError`, it is repeated under
    :func:`finite_checks`, and a ``RuntimeError`` that starts with
    ``context`` names the primitive that produced the first non-finite value.
    """
    try:
        loss = objective()
        return float(loss.data), grad(loss, leaves)
    except NonFiniteError as first:
        with finite_checks():
            try:
                grad(objective(), leaves)
            except NonFiniteError as e:
                raise RuntimeError(f"{context}: {e}") from e
        raise RuntimeError(f"{context}: {first}") from first


class Tensor:
    """Immutable dense float64 array node in the computation graph."""

    __slots__ = ("data", "requires_grad", "_parents", "_bwd", "_opname")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], tuple] | None = None
        self._opname = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self._opname})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __neg__(self):
        return neg(self)


def _lift(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _check(name: str, arr: np.ndarray) -> None:
    if _FINITE_CHECKS and not np.isfinite(arr).all():
        raise NonFiniteError(f"primitive '{name}' produced a non-finite value")


def _make(name: str, data: np.ndarray, parents: Sequence[Tensor], bwd) -> Tensor:
    _check(name, data)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._bwd = bwd
        out._opname = name
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over the axes that numpy broadcasting expanded."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- arithmetic ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make("add", data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.data.shape), -_unbroadcast(g, b.data.shape)

    return _make("sub", data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _make("mul", data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    return _make("neg", -a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects operands with at least 2 dimensions")
    data = a.data @ b.data

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return _make("matmul", data, (a, b), bwd)


def mlp(x: Tensor, layers: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Perceptron relu(x @ w1 + b1) ... @ wL + bL, recorded as one node.

    ``layers`` lists the (w, b) pairs; each stage computes x @ w + b with
    numpy broadcasting, so w may be stacked over heads (H, d, h). Bias and
    ReLU are applied in place on each hidden GEMM output, and only the
    post-ReLU activations are kept: their sign is the ReLU mask of the
    backward pass. The backward formulas are those of a chain of fused
    x @ w + b ('linear') and ReLU nodes, so values and gradients are the same;
    a non-finite stage is reported as that chain's 'linear'.
    """
    last = len(layers) - 1
    hs = [x.data]  # the input of every layer
    for i, (w, b) in enumerate(layers):
        h = hs[-1] @ w.data
        h += b.data
        if _FINITE_CHECKS and not np.isfinite(h).all():
            raise NonFiniteError(f"primitive 'linear' (layer {i + 1} of 'mlp') produced a non-finite value")
        if i == last:
            break
        np.maximum(h, 0.0, out=h)
        hs.append(h)

    def bwd(g):
        grads = [None] * (1 + 2 * len(layers))
        for i in range(last, -1, -1):
            w, b = layers[i]
            hin = hs[i]
            if w.requires_grad:
                grads[2 * i + 1] = _unbroadcast(np.swapaxes(hin, -1, -2) @ g, w.data.shape)
            if b.requires_grad:
                grads[2 * i + 2] = _unbroadcast(g, b.data.shape)
            if i > 0:
                g = _unbroadcast(g @ np.swapaxes(w.data, -1, -2), hin.shape)
                g *= hin > 0.0
            elif x.requires_grad:
                grads[0] = _unbroadcast(g @ np.swapaxes(w.data, -1, -2), hin.shape)
        return tuple(grads)

    parents = (x,) + tuple(t for layer in layers for t in layer)
    return _make("mlp", h, parents, bwd)


# -- shape surgery -------------------------------------------------------


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make("concat", data, parts, bwd)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    data = a.data[idx]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _make("narrow", data, (a,), bwd)


def gather_rows(a: Tensor, index: np.ndarray) -> Tensor:
    """Select rows a[index] (first axis); duplicates accumulate in backward."""
    index = np.asarray(index, dtype=np.intp)
    data = a.data[index]

    def bwd(g):
        full = np.zeros_like(a.data)
        np.add.at(full, index, g)
        return (full,)

    return _make("gather_rows", data, (a,), bwd)


# -- pointwise nonlinearities --------------------------------------------


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - data * data),)

    return _make("tanh", data, (a,), bwd)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, without overflow for large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)

    def bwd(g):
        return (g * data,)

    return _make("exp", data, (a,), bwd)


# -- reductions ----------------------------------------------------------


def tsum(a: Tensor, axis=None) -> Tensor:
    data = a.data.sum(axis=axis)

    def bwd(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return _make("sum", data, (a,), bwd)


# -- attention -----------------------------------------------------------


def dense_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray, scale: float) -> Tensor:
    """Softmax attention over a boolean (m, m) neighbourhood ``mask``.

    ``q``, ``k`` and ``v`` are (H, m, d). Row i mixes the values of the
    columns j with mask[i, j] by weights softmax_j(scale * q_i . k_j); rows
    without neighbours yield zeros. The output is (m, H * d), the heads of
    each node side by side. The backward pass keeps the (H, m, m) weights
    but not the scores.
    """
    heads = q.data.shape[0]
    x = q.data @ np.swapaxes(k.data, -1, -2)
    x *= scale
    if _FINITE_CHECKS and not np.isfinite(x).all():
        raise NonFiniteError("primitive 'dense_attention' produced non-finite scores")
    np.copyto(x, -np.inf, where=~mask)
    mx = x.max(axis=-1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    x -= mx
    n = len(mask)
    if np.count_nonzero(mask) != n * n - n or mask.diagonal().any():
        # exp(-inf) takes a slow path in numpy: exponentiate zeros at the
        # masked-out entries instead, then zero them by the mask (same values);
        # with only the diagonal masked out there are too few to matter
        np.copyto(x, 0.0, where=~mask)
        np.exp(x, out=x)
        x *= mask
    else:
        np.exp(x, out=x)
    s = x.sum(axis=-1, keepdims=True)
    x /= np.where(s > 0.0, s, 1.0)
    p = x  # the weights

    def bwd(g):
        g = _split_heads(g, heads)
        gv = np.swapaxes(p, -1, -2) @ g if v.requires_grad else None
        if not (q.requires_grad or k.requires_grad):
            return None, None, gv
        gx = g @ np.swapaxes(v.data, -1, -2)
        gx -= (gx * p).sum(axis=-1, keepdims=True)
        gx *= p  # the score gradient
        gq = scale * (gx @ k.data) if q.requires_grad else None
        gk = scale * (np.swapaxes(gx, -1, -2) @ q.data) if k.requires_grad else None
        return gq, gk, gv

    return _make("dense_attention", _concat_heads(p @ v.data), (q, k, v), bwd)


def edge_attention(q: Tensor, k: Tensor, v: Tensor, rows: np.ndarray, cols: np.ndarray, scale: float) -> Tensor:
    """Softmax attention restricted to the edges (rows[e], cols[e]).

    ``q``, ``k`` and ``v`` are (H, m, d) and the edges are sorted by row. Row
    i mixes the values of the columns of its edges with weights
    softmax_j(scale * q_i . k_j); rows without edges yield zeros. The output
    is (m, H * d), as for :func:`dense_attention`. Scores and their
    normalisation cost O(H * d * |E|); the weights are scattered into a dense
    (H, m, m) array so that mixing and the backward contractions run as BLAS
    matmuls.
    """
    heads, m, d = v.data.shape
    if len(rows) == 0:
        return _make("edge_attention", np.zeros((m, heads * d)), (q, k, v), lambda g: (None, None, None))
    # segments: the runs of equal rows, one per row that has edges
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    counts = np.diff(np.append(starts, len(rows)))
    x = _edge_dots(q.data, k.data, rows, cols) * scale
    if _FINITE_CHECKS and not np.isfinite(x).all():
        raise NonFiniteError("primitive 'edge_attention' produced non-finite scores")
    e = np.exp(x - np.repeat(np.maximum.reduceat(x, starts, axis=1), counts, axis=1))
    w = e / np.repeat(np.add.reduceat(e, starts, axis=1), counts, axis=1)

    def scatter(vals):
        full = np.zeros((heads, m, m))
        full[:, rows, cols] = vals
        return full

    data = _concat_heads(scatter(w) @ v.data)

    def bwd(g):
        # the scatter is rebuilt here rather than kept from the forward pass:
        # keeping it would hold one (H, m, m) array per layer on the tape,
        # where the (H, |E|) weights are all the backward needs
        full = scatter(w)
        g = _split_heads(g, heads)
        gv = np.swapaxes(full, -1, -2) @ g if v.requires_grad else None
        if not (q.requires_grad or k.requires_grad):
            return None, None, gv
        gw = _edge_dots(g, v.data, rows, cols)
        gx = w * (gw - np.repeat(np.add.reduceat(w * gw, starts, axis=1), counts, axis=1))
        full[:, rows, cols] = gx * scale  # same support, now the score gradient
        gq = full @ k.data if q.requires_grad else None
        gk = np.swapaxes(full, -1, -2) @ q.data if k.requires_grad else None
        return gq, gk, gv

    return _make("edge_attention", data, (q, k, v), bwd)


def _concat_heads(x: np.ndarray) -> np.ndarray:
    """(H, m, d) -> (m, H * d): the heads of each node side by side."""
    heads, m, d = x.shape
    return np.transpose(x, (1, 0, 2)).reshape(m, heads * d)


def _split_heads(g: np.ndarray, heads: int) -> np.ndarray:
    """(m, H * d) -> (H, m, d), a view: the inverse of :func:`_concat_heads`."""
    return np.transpose(g.reshape(g.shape[0], heads, -1), (1, 0, 2))


def _edge_dots(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """a[:, rows[e]] . b[:, cols[e]] over the last axis, as (H, |E|)."""
    return np.einsum("hed,hed->he", np.take(a, rows, axis=1), np.take(b, cols, axis=1))


def layer_norm(x: Tensor, r: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the residual sum x + r over the last axis to zero mean and
    unit variance (1e-5 is added to the variance), then affine. The sum is
    formed inside the node and not kept; both summands get its gradient."""
    y = x.data + r.data  # centred, then scaled, in place
    d = y.shape[-1]  # means as sum / d: ndarray.mean's own formula
    y -= y.sum(axis=-1, keepdims=True) / d
    var = (y * y).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    y *= inv
    data = y * gain.data + bias.data

    def bwd(g):
        ggain = _unbroadcast(g * y, gain.data.shape) if gain.requires_grad else None
        gbias = _unbroadcast(g, bias.data.shape) if bias.requires_grad else None
        if not (x.requires_grad or r.requires_grad):
            return None, None, ggain, gbias
        gh = g * gain.data
        ghy = (gh * y).sum(axis=-1, keepdims=True) / d
        gx = inv * (gh - gh.sum(axis=-1, keepdims=True) / d - y * ghy)
        return _unbroadcast(gx, x.data.shape), _unbroadcast(gx, r.data.shape), ggain, gbias

    return _make("layer_norm", data, (x, r, gain, bias), bwd)


def _logsumexp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(sum(exp(x))) of a nonempty vector, as shape (1,), and softmax(x)."""
    m = x.max(keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - m)
    s = e.sum(keepdims=True)
    return np.log(s) + m, e / s


def bernoulli_mixture_log_prob(pi_logits: Tensor, lam_logits: Tensor, observed: np.ndarray) -> Tensor:
    """log sum_c softmax(pi)_c prod_p Bernoulli(observed_p; sigmoid(lam_pc)).

    ``pi_logits`` is (C,), ``lam_logits`` (P, C) and ``observed`` holds P
    bits. A pair's log-likelihood is log sigmoid(sign * lam) with sign = +1
    for a set bit and -1 otherwise, the value of the chain
    eps * logsigmoid(lam) + (1 - eps) * logsigmoid(-lam) for a 0/1 eps. The
    node keeps those (P, C) values, the bits and two softmaxes over the
    components, and its backward pass associates as that chain does.
    """
    bits = np.asarray(observed, dtype=bool)
    lse_pi, soft_pi = _logsumexp(pi_logits.data)
    ls = np.logaddexp(0.0, lam_logits.data * np.where(bits, -1.0, 1.0)[:, None])
    np.negative(ls, out=ls)
    lse, r = _logsumexp(pi_logits.data - lse_pi + ls.sum(axis=0))

    def bwd(g):
        a = g * r
        gpi = a + (-a.sum()) * soft_pi if pi_logits.requires_grad else None
        if not lam_logits.requires_grad:
            return gpi, None
        glam = a * np.where(bits, 1.0, -1.0)[:, None]
        t = np.exp(ls)
        np.subtract(1.0, t, out=t)
        glam *= t
        # in the chain each entry also receives the other sign's term, a zero
        # of the opposite sign: adding +0.0 gives the same bits, -0.0 -> +0.0
        glam += 0.0
        return gpi, glam

    return _make("bernoulli_mixture_log_prob", lse.reshape(()), (pi_logits, lam_logits), bwd)


def logabsdet(a: Tensor) -> Tensor:
    """log |det A| of a square matrix; gradient is inv(A)^T."""
    sign, ld = np.linalg.slogdet(a.data)
    if sign == 0 or not np.isfinite(ld):
        raise NonFiniteError("primitive 'logabsdet' received a singular matrix")

    def bwd(g):
        return (g * np.linalg.inv(a.data).T,)

    return _make("logabsdet", np.asarray(ld), (a,), bwd)


def checkpoint(fn: Callable[..., Tensor], inputs: Sequence[Tensor], params: Sequence[Tensor]) -> Tensor:
    """``fn(*inputs)`` recorded as one node whose activations are recomputed.

    While a tape is recorded, ``fn`` runs under :func:`no_grad` and only its
    output is kept; ``params`` are the tensors ``fn`` reads besides its
    inputs. The backward pass re-runs ``fn`` on fresh leaf copies of the
    inputs, with recording on, and pulls the adjoint through that tape, which
    lives only for the duration of the call (Chen et al., arXiv:1604.06174).
    ``fn`` must be deterministic.
    """
    parents = tuple(inputs) + tuple(params)
    if not (_GRAD_ENABLED and any(p.requires_grad for p in parents)):
        return fn(*inputs)
    with no_grad():
        out = fn(*inputs)

    def bwd(g):
        leaves = [Tensor(x.data, requires_grad=x.requires_grad) for x in inputs]
        sources = leaves + list(params)
        with _recording(True):  # ``grad`` may itself run inside no_grad
            y = fn(*leaves)
            got = grad(tsum(y * Tensor(g)), [t for t in sources if t.requires_grad])
        return tuple(got.get(t) for t in sources)

    return _make("checkpoint", out.data, parents, bwd)


# -- backward pass -------------------------------------------------------


def _linearize(root: Tensor) -> list[Tensor]:
    """Ordered tape of recorded ops reachable from ``root`` (parents first)."""
    tape: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            tape.append(node)
            continue
        if id(node) in visited or node._bwd is None:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._bwd is not None and id(p) not in visited:
                stack.append((p, False))
    return tape


def grad(objective: Tensor, leaves: Sequence[Tensor]) -> dict[Tensor, np.ndarray]:
    """Gradient of a scalar objective with respect to each leaf tensor.

    Leaves that do not participate in the objective receive a zero gradient
    of their own shape. Raises :class:`NonFiniteError` if the objective value
    is not finite; re-evaluate under :func:`finite_checks` to learn which
    primitive produced the bad value.
    """
    if objective.data.size != 1:
        raise ValueError("objective must be a scalar")
    if not np.isfinite(objective.data):
        raise NonFiniteError("objective is not finite")
    adjoint: dict[int, np.ndarray] = {id(objective): np.ones_like(objective.data)}
    for node in reversed(_linearize(objective)):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        parts = node._bwd(g)
        for parent, pg in zip(node._parents, parts):
            if pg is None or not parent.requires_grad:
                continue
            if _FINITE_CHECKS and not np.isfinite(pg).all():
                raise NonFiniteError(
                    f"backward of primitive '{node._opname}' produced a non-finite gradient"
                )
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg
    out: dict[Tensor, np.ndarray] = {}
    for leaf in leaves:
        g = adjoint.get(id(leaf))
        out[leaf] = np.zeros_like(leaf.data) if g is None else np.asarray(g, dtype=np.float64)
    return out
