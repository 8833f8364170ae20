"""Multi-head graph attention restricted to 1-ring neighborhoods.

The layer maps per-node features through per-head query/key/value MLPs,
attends over each node's neighbors in the scaffold, projects concatenated
heads back to the input width, and applies two residual + layer-norm stages
with a feed-forward block in between. Nodes with empty neighborhoods receive
a zero attention update but still pass through the residual path.
"""

from __future__ import annotations

import numpy as np

from .tensorcore import engine as eng
from .tensorcore.engine import Tensor

__all__ = ["NeighborMask", "GaParams", "ga_forward", "init_ga_params"]

# Masks with a larger share |E| / m^2 of edges attend through dense (H, m, m)
# scores; sparser ones score and normalise their edge list only.
DENSE_FILL = 0.1


class NeighborMask:
    """Symmetric neighborhoods without self-loops, held as a sorted edge list.

    ``rows`` and ``cols`` list every directed edge (i, j), sorted by row and
    then column: node j belongs to node i's neighborhood. The list is taken
    as given, unchecked. ``matrix`` is the dense boolean form, built on first
    use.
    """

    __slots__ = ("n", "rows", "cols", "_matrix")

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray):
        self.n = n
        self.rows = rows.astype(np.intp, copy=False)
        self.cols = cols.astype(np.intp, copy=False)
        self._matrix = None

    @classmethod
    def complete(cls, n: int) -> "NeighborMask":
        return cls(n, *np.nonzero(~np.eye(n, dtype=bool)))

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            mat = np.zeros((self.n, self.n), dtype=bool)
            mat[self.rows, self.cols] = True
            self._matrix = mat
        return self._matrix

    @property
    def fill(self) -> float:
        """Fraction |E| / n^2 of the n x n pairs that are edges."""
        return len(self.cols) / max(1, self.n * self.n)


class GaParams:
    """Learnable tensors of one graph-attention layer.

    Query/key/value MLPs are stored stacked over heads (leading axis H); the
    head projection is a single (H * d_s, d_in) matrix without bias.
    """

    FIELDS = (
        "wq1", "bq1", "wq2", "bq2",
        "wk1", "bk1", "wk2", "bk2",
        "wv1", "bv1", "wv2", "bv2",
        "wp",
        "ww1", "bw1", "ww2", "bw2",
        "ln1_g", "ln1_b", "ln2_g", "ln2_b",
    )

    def __init__(self, **tensors):
        missing = [f for f in self.FIELDS if f not in tensors]
        if missing:
            raise ValueError(f"GaParams missing fields: {missing}")
        for f in self.FIELDS:
            setattr(self, f, tensors[f])
        self.heads = self.wq1.shape[0]
        self.d_s = self.wq2.shape[2]

    def tensors(self):
        for f in self.FIELDS:
            yield f, getattr(self, f)


def glorot(rng: np.random.Generator | None, *shape: int) -> np.ndarray:
    """Glorot-uniform weights; the last two axes are fan-in and fan-out.
    With no generator the array is left unset, for a load to fill."""
    if rng is None:
        return np.empty(shape)
    bound = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-bound, bound, size=shape)


def init_ga_params(
    rng: np.random.Generator | None,
    d_in: int,
    d_s: int,
    heads: int,
    zero_final: bool = False,
) -> GaParams:
    """Glorot-initialized layer; ``zero_final`` zeroes the output layer-norm
    gain so the layer starts as the zero map (used by the flow's transforms)."""
    hq = 2 * d_in
    hf = 4 * d_in
    t = {}
    for role in ("q", "k", "v"):
        t[f"w{role}1"] = Tensor(glorot(rng, heads, d_in, hq), requires_grad=True)
        t[f"b{role}1"] = Tensor(np.zeros((heads, 1, hq)), requires_grad=True)
        t[f"w{role}2"] = Tensor(glorot(rng, heads, hq, d_s), requires_grad=True)
        t[f"b{role}2"] = Tensor(np.zeros((heads, 1, d_s)), requires_grad=True)
    t["wp"] = Tensor(glorot(rng, heads * d_s, d_in), requires_grad=True)
    t["ww1"] = Tensor(glorot(rng, d_in, hf), requires_grad=True)
    t["bw1"] = Tensor(np.zeros(hf), requires_grad=True)
    t["ww2"] = Tensor(glorot(rng, hf, d_in), requires_grad=True)
    t["bw2"] = Tensor(np.zeros(d_in), requires_grad=True)
    t["ln1_g"] = Tensor(np.ones(d_in), requires_grad=True)
    t["ln1_b"] = Tensor(np.zeros(d_in), requires_grad=True)
    t["ln2_g"] = Tensor(np.zeros(d_in) if zero_final else np.ones(d_in), requires_grad=True)
    t["ln2_b"] = Tensor(np.zeros(d_in), requires_grad=True)
    return GaParams(**t)


def ga_forward(z: Tensor, mask: NeighborMask, params: GaParams) -> Tensor:
    """One GA layer over ``m`` nodes; output matches the input width."""
    m = z.shape[0]
    if mask.n != m:
        raise ValueError(f"mask covers {mask.n} nodes, features have {m}")
    # (m, d) -> (H, m, d_s) via broadcasting over the head axis
    q = eng.mlp(z, [(params.wq1, params.bq1), (params.wq2, params.bq2)])
    k = eng.mlp(z, [(params.wk1, params.bk1), (params.wk2, params.bk2)])
    v = eng.mlp(z, [(params.wv1, params.bv1), (params.wv2, params.bv2)])
    scale = params.d_s**-0.5
    if mask.fill > DENSE_FILL:
        mixed = eng.dense_attention(q, k, v, mask.matrix, scale)
    else:
        mixed = eng.edge_attention(q, k, v, mask.rows, mask.cols, scale)
    # mixed: (m, H * d_s), zero rows where no neighbors
    delta = eng.matmul(mixed, params.wp)
    normed = eng.layer_norm(z, delta, params.ln1_g, params.ln1_b)
    ff = eng.mlp(normed, [(params.ww1, params.bw1), (params.ww2, params.bw2)])
    return eng.layer_norm(normed, ff, params.ln2_g, params.ln2_b)
