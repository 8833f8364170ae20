"""Graph value type, lower-triangular encoding, size distribution, splits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "OrderedLower",
    "SizeDistribution",
    "DatasetSplit",
    "to_lower",
    "lower_edges",
    "split",
]


class Graph:
    """Undirected simple graph: ``n`` nodes, edges as (u, v) pairs with u < v."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("graph needs at least one node")
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
            if (u, v) in norm:
                raise ValueError(f"duplicate edge ({u}, {v})")
            norm.add((u, v))
        self.n = n
        self.edges = frozenset(norm)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            a[u, v] = a[v, u] = True
        return a

    def neighbor_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d


@dataclass
class OrderedLower:
    """The lower-triangular rows a node ordering induces: ``rows[i]`` holds
    the earlier-position neighbors of position ``i`` (all indices < i)."""

    rows: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.rows)


def to_lower(g: Graph, perm) -> OrderedLower:
    """The rows induced by placing source node ``perm[k]`` at position ``k``."""
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a bijection over the graph's nodes")
    pos = {node: i for i, node in enumerate(perm)}
    rows: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        i, j = pos[u], pos[v]
        if i < j:
            i, j = j, i
        rows[i].append(j)
    return OrderedLower(rows=[np.array(sorted(r), dtype=np.int64) for r in rows])


def lower_edges(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The edges (i, j < i) of lower-triangular rows as two index arrays, in
    row order."""
    if not rows:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    counts = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    lo_j = np.concatenate(rows).astype(np.intp, copy=False)
    return np.repeat(np.arange(len(rows), dtype=np.intp), counts), lo_j


@dataclass
class SizeDistribution:
    """Empirical node-count distribution of a training set."""

    counts: np.ndarray  # distinct node counts, ascending
    weights: np.ndarray  # empirical probabilities, same length

    @classmethod
    def from_sizes(cls, sizes: list[int]) -> SizeDistribution:
        if len(sizes) == 0:
            raise ValueError("empty training set")
        counts, freq = np.unique(np.asarray(sizes, dtype=np.int64), return_counts=True)
        return cls(counts=counts, weights=freq / freq.sum())

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.counts, p=self.weights))


@dataclass
class DatasetSplit:
    train: list[Graph]
    test: list[Graph]


def split(dataset: list[Graph], seed: int) -> DatasetSplit:
    """Seeded random 80/20 split; train gets ``floor(0.8 * total)`` graphs."""
    rng = np.random.default_rng([int(seed), 0x5B17])
    order = rng.permutation(len(dataset))
    cut = int(0.8 * len(dataset))
    train = [dataset[i] for i in order[:cut]]
    test = [dataset[i] for i in order[cut:]]
    return DatasetSplit(train=train, test=test)
