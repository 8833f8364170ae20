"""Canonical node orderings used before lower-triangular encoding."""

from __future__ import annotations

from collections import deque

import numpy as np

from .core import Graph

__all__ = ["order_nodes", "ORDERINGS"]

ORDERINGS = ("bfs", "dfs", "default", "degree", "kcore")


def order_nodes(g: Graph, scheme: str) -> list[int]:
    """Node permutation under the given scheme; position k holds the k-th node.

    bfs/dfs start at node 0 with ascending-index tie-breaking and restart at
    the lowest unvisited index on disconnected graphs. degree sorts by
    descending degree, kcore by descending core number, ties by index.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if scheme == "default":
        return list(range(g.n))
    if scheme == "bfs":
        return _bfs(g)
    if scheme == "dfs":
        return _dfs(g)
    if scheme == "degree":
        deg = g.degrees()
        return sorted(range(g.n), key=lambda v: (-deg[v], v))
    if scheme == "kcore":
        core = _core_numbers(g)
        return sorted(range(g.n), key=lambda v: (-core[v], v))
    raise ValueError(f"unknown ordering scheme: {scheme!r}")


def _bfs(g: Graph) -> list[int]:
    adj = g.neighbor_lists()
    seen = [False] * g.n
    order: list[int] = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            order.append(v)
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    q.append(w)
    return order


def _dfs(g: Graph) -> list[int]:
    adj = g.neighbor_lists()
    seen = [False] * g.n
    order: list[int] = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        while stack:
            v = stack.pop()
            if seen[v]:
                continue
            seen[v] = True
            order.append(v)
            # push descending so the smallest unvisited neighbor pops first
            for w in reversed(adj[v]):
                if not seen[w]:
                    stack.append(w)
    return order


def _core_numbers(g: Graph) -> np.ndarray:
    """Standard peeling: repeatedly remove min-degree nodes."""
    deg = g.degrees().copy()
    adj = g.neighbor_lists()
    core = np.zeros(g.n, dtype=np.int64)
    removed = [False] * g.n
    pending = sorted(range(g.n), key=lambda v: deg[v])
    k = 0
    for _ in range(g.n):
        v = min((u for u in pending if not removed[u]), key=lambda u: (deg[u], u))
        k = max(k, int(deg[v]))
        core[v] = k
        removed[v] = True
        for w in adj[v]:
            if not removed[w]:
                deg[w] -= 1
    return core
