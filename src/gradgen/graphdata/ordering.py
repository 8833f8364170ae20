"""The node ordering used before lower-triangular encoding: breadth-first search."""

from __future__ import annotations

from collections import deque

from .core import Graph

__all__ = ["order_nodes", "ORDERINGS"]

ORDERINGS = ("bfs",)


def order_nodes(g: Graph, scheme: str) -> list[int]:
    """Node permutation under the given scheme; position k holds the k-th node.

    bfs starts at node 0 with ascending-index tie-breaking and restarts at the
    lowest unvisited index on disconnected graphs.
    """
    if scheme not in ORDERINGS:
        raise ValueError(f"unknown ordering scheme: {scheme!r}")
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
