"""Graph statistics, squared-MMD scoring, lobster validity.

Statistic descriptors follow the protocol used by the sequential-generation
benchmark lineage: degree / clustering / Laplacian-spectrum histograms with a
Gaussian kernel over total-variation distance, and a 15-entry mean orbit-count
vector (connected graphlets on up to 4 nodes) with a Euclidean-distance kernel.

Graphs are walked as per-node neighbour bitmasks. Each node's triangles are
counted once (``_links``); the clustering coefficients and orbits 0-3 follow
from them and the degrees in closed form, and an ESU enumeration visits only
the connected 4-node subgraphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphdata.core import Graph

__all__ = [
    "StatHistogram",
    "STATISTICS",
    "degree_stat",
    "clustering_stat",
    "orbit_stat",
    "spectra_stat",
    "graph_stat",
    "mmd2",
    "mmd_suite",
    "lobster_validity",
]

STATISTICS = ("degree", "clustering", "orbit", "spectra")

CLUSTERING_BINS = 100
SPECTRA_BINS = 200
ORBITS = 15
SIGMA = 1.0  # MMD kernel bandwidth


@dataclass
class StatHistogram:
    """Per-graph statistic descriptor.

    For histogram kinds ``bins`` is a normalized histogram; for ``orbit`` it
    is the mean orbit-count vector over nodes (15 entries).
    """

    kind: str
    bins: np.ndarray


def _normalized(kind: str, hist: np.ndarray) -> StatHistogram:
    hist = hist.astype(np.float64)
    return StatHistogram(kind, hist / hist.sum())


def degree_stat(g: Graph) -> StatHistogram:
    """Normalized histogram of node degrees with integer bins 0..max_degree."""
    return _normalized("degree", np.bincount(g.degrees()))


def clustering_stat(g: Graph) -> StatHistogram:
    """Local clustering coefficients binned into 100 uniform bins on [0, 1]."""
    deg = g.degrees()
    links = _links(_neighbor_masks(g))
    coeffs = np.zeros(g.n)
    some = deg >= 2
    coeffs[some] = links[some] / (deg[some] * (deg[some] - 1))  # links double-counted, pairs = d(d-1)/2
    hist, _ = np.histogram(coeffs, bins=CLUSTERING_BINS, range=(0.0, 1.0))
    return _normalized("clustering", hist)


def spectra_stat(g: Graph) -> StatHistogram:
    """Eigenvalues of the normalized Laplacian, 200 uniform bins on [0, 2].

    Isolated nodes contribute eigenvalue 0 (pseudo-inverse degree convention).
    """
    a = g.adjacency().astype(np.float64)
    deg = a.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    lap = np.diag(deg) - a
    norm = (inv_sqrt[:, None] * lap) * inv_sqrt[None, :]
    eig = np.linalg.eigvalsh(norm)
    # quantize before binning so solver jitter cannot straddle bin edges
    eig = np.clip(np.round(eig, 8), 0.0, 2.0)
    hist, _ = np.histogram(eig, bins=SPECTRA_BINS, range=(0.0, 2.0))
    return _normalized("spectra", hist)


def orbit_stat(g: Graph) -> StatHistogram:
    """Mean per-node counts of the 15 orbits of connected graphlets on <= 4 nodes."""
    counts = orbit_counts(g)
    return StatHistogram("orbit", counts.mean(axis=0))


def graph_stat(g: Graph, kind: str) -> StatHistogram:
    fn = {
        "degree": degree_stat,
        "clustering": clustering_stat,
        "orbit": orbit_stat,
        "spectra": spectra_stat,
    }.get(kind)
    if fn is None:
        raise ValueError(f"unknown statistic kind: {kind!r}")
    return fn(g)


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _links(masks: list[int]) -> np.ndarray:
    """Per node, the edges among its neighbours counted from both ends, which
    is twice the node's triangle count."""
    return np.array([sum((masks[u] & m).bit_count() for u in _bits(m)) for m in masks])


def orbit_counts(g: Graph) -> np.ndarray:
    """Orbit participation counts per node (orbits 0..14, standard numbering).

    Orbits 0-3 (edge, path end, path middle, triangle) are closed forms of the
    degrees and triangle counts; the 4-node orbits come from enumeration."""
    n = g.n
    masks = _neighbor_masks(g)
    deg = g.degrees()
    links = _links(masks)
    counts = np.zeros((n, ORBITS), dtype=np.float64)
    counts[:, 0] = deg
    # neighbours w != v of each neighbour u, less those adjacent to v (two per triangle)
    counts[:, 1] = [sum(deg[u] for u in _bits(m)) for m in masks] - deg - links
    counts[:, 2] = deg * (deg - 1) // 2 - links // 2  # neighbour pairs with no edge between them
    counts[:, 3] = links // 2
    for quad in _connected_quads(masks, n):
        _classify_quad(quad, masks, counts)
    return counts


def _connected_quads(masks: list[int], n: int):
    """Each connected induced 4-node subgraph exactly once (ESU enumeration)."""
    for v in range(n):
        above = -1 << (v + 1)  # candidate nodes must exceed the root index
        vbit = 1 << v
        ext0 = masks[v] & above
        closed0 = vbit | masks[v]
        stack = [((v,), ext0, closed0)]
        while stack:
            sub, ext, closed = stack.pop()
            if len(sub) == 3:
                while ext:
                    wbit = ext & -ext
                    ext ^= wbit
                    yield sub + (wbit.bit_length() - 1,)
                continue
            while ext:
                wbit = ext & -ext
                ext ^= wbit
                w = wbit.bit_length() - 1
                excl = masks[w] & above & ~closed
                stack.append((sub + (w,), ext | excl, closed | wbit | masks[w]))


# orbit id by (edge count, node degree inside the graphlet, whether a node has degree 3)
_QUAD_ORBIT = {
    (3, 1, False): 4,  # path end
    (3, 2, False): 5,  # path middle
    (3, 1, True): 6,  # star leaf
    (3, 3, True): 7,  # star center
    (4, 2, False): 8,  # 4-cycle
    (4, 1, True): 9,  # paw pendant
    (4, 2, True): 10,  # paw triangle rim
    (4, 3, True): 11,  # paw triangle apex
    (5, 2, True): 12,  # diamond rim
    (5, 3, True): 13,  # diamond hub
    (6, 3, True): 14,  # 4-clique
}


def _classify_quad(quad, masks, counts) -> None:
    a, b, c, d = quad
    sub = (1 << a) | (1 << b) | (1 << c) | (1 << d)
    degs = [(masks[x] & sub).bit_count() for x in quad]
    e = sum(degs) // 2
    hub = 3 in degs
    for x, dg in zip(quad, degs):
        counts[x, _QUAD_ORBIT[(e, dg, hub)]] += 1.0


# -- squared MMD -----------------------------------------------------------


def _descriptor_matrix(stats: list[StatHistogram], width: int) -> np.ndarray:
    out = np.zeros((len(stats), width))
    for i, s in enumerate(stats):
        out[i, : len(s.bins)] = s.bins
    return out


def mmd2(set_a: list[StatHistogram], set_b: list[StatHistogram]) -> float:
    """Biased squared-MMD estimator between two sets of statistic descriptors.

    Gaussian kernel exp(-dist^2 / (2 SIGMA^2)); dist is total variation for
    histogram kinds and Euclidean for orbit vectors. The Gaussian of total
    variation is not a positive-definite kernel, so two sets drawn from one
    distribution can genuinely estimate below zero, not only by rounding.
    Negative estimates are clamped to zero, which biases the statistic
    slightly upward; a non-finite estimate raises ``ValueError``.
    """
    if not set_a or not set_b:
        raise ValueError("both descriptor sets must be nonempty")
    kinds = {s.kind for s in set_a} | {s.kind for s in set_b}
    if len(kinds) != 1:
        raise ValueError(f"statistic kinds differ: {sorted(kinds)}")
    kind = kinds.pop()
    width = max(len(s.bins) for s in set_a + set_b)
    xa = _descriptor_matrix(set_a, width)
    xb = _descriptor_matrix(set_b, width)

    def gram(x, y):
        if kind == "orbit":
            d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(-1)
        else:
            tv = 0.5 * np.abs(x[:, None, :] - y[None, :, :]).sum(-1)
            d2 = tv * tv
        return np.exp(-d2 / (2.0 * SIGMA * SIGMA))

    val = gram(xa, xa).mean() + gram(xb, xb).mean() - 2.0 * gram(xa, xb).mean()
    if not np.isfinite(val):
        raise ValueError(f"MMD^2 estimator returned {val}")
    return max(float(val), 0.0)


def mmd_suite(samples: list[Graph], reference: list[Graph], workers: int = 1) -> dict[str, float]:
    """All four statistics between a sample set and a reference set. With
    ``workers > 1`` one process pool computes every graph's statistics."""
    graphs = list(samples) + list(reference)
    if workers > 1 and len(graphs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(_graph_stats, graphs))
    else:
        stats = [_graph_stats(g) for g in graphs]
    n = len(samples)
    return {
        kind: mmd2([s[i] for s in stats[:n]], [s[i] for s in stats[n:]])
        for i, kind in enumerate(STATISTICS)
    }


def _graph_stats(g: Graph) -> list[StatHistogram]:
    return [graph_stat(g, kind) for kind in STATISTICS]


# -- lobster validity --------------------------------------------------------


def lobster_validity(g: Graph) -> bool:
    """True iff ``g`` is a tree and removing two rounds of leaves leaves a
    (possibly empty) path."""
    if g.num_edges() != g.n - 1:
        return False
    masks = _neighbor_masks(g)
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= masks[v]
        frontier = reach & ~seen
        seen |= frontier
    if seen != (1 << g.n) - 1:
        return False  # n - 1 edges but disconnected: a cycle somewhere
    alive = seen
    for _ in range(2):
        alive &= ~sum(1 << v for v in _bits(alive) if (masks[v] & alive).bit_count() == 1)
    # what is left of a tree is connected, so degrees <= 2 make it a path
    return all((masks[v] & alive).bit_count() <= 2 for v in _bits(alive))

