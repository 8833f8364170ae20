"""Multi-graph text container.

Each record is a header line ``graph <id> <num_nodes>`` followed by one
``u v`` edge per line (0-indexed, u < v) and a terminating blank line.
Lines starting with ``#`` are comments. UTF-8, LF line endings.
"""

from __future__ import annotations

import os
import tempfile

from .core import Graph

__all__ = ["load_graphs", "save_graphs", "ParseError", "atomic_write_bytes", "atomic_write_text"]


class ParseError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def atomic_write_bytes(path, *chunks) -> None:
    """Write the byte chunks via a temp file in the same directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def save_graphs(path, graphs: list[Graph], comment: str | None = None) -> None:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    for idx, g in enumerate(graphs):
        lines.append(f"graph {idx} {g.n}")
        for u, v in sorted(g.edges):
            lines.append(f"{u} {v}")
        lines.append("")
    atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


def load_graphs(path) -> list[Graph]:
    graphs: list[Graph] = []
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    start_line = 0

    def flush():
        nonlocal n, edges, seen
        if n is None:
            return
        try:
            graphs.append(Graph(n, edges))
        except ValueError as e:
            raise ParseError(path, start_line, str(e)) from e
        n = None
        edges = []
        seen = set()

    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if line.startswith("#"):
                continue
            if not line:
                flush()
                continue
            parts = line.split()
            if parts[0] == "graph":
                flush()
                if len(parts) != 3:
                    raise ParseError(path, lineno, "header must be 'graph <id> <num_nodes>'")
                try:
                    n = int(parts[2])
                except ValueError:
                    raise ParseError(path, lineno, f"bad node count {parts[2]!r}") from None
                if n < 1:
                    raise ParseError(path, lineno, "node count must be positive")
                start_line = lineno
                continue
            if n is None:
                raise ParseError(path, lineno, "edge line before any graph header")
            if len(parts) != 2:
                raise ParseError(path, lineno, f"expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(path, lineno, f"non-integer edge endpoints {line!r}") from None
            if u == v:
                raise ParseError(path, lineno, f"self-loop on node {u}")
            if not (0 <= u < v < n):
                raise ParseError(path, lineno, f"edge ({u}, {v}) violates 0 <= u < v < {n}")
            if (u, v) in seen:
                raise ParseError(path, lineno, f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            edges.append((u, v))
    flush()
    return graphs
