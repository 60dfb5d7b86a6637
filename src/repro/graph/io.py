"""Serialization of data graphs.

One format: a plain-text *edge list* compatible with how SNAP-style
datasets (the paper's WordNet/DBLP/Flickr sources) ship::

    # comment lines start with '#'
    v <id> <label>
    e <u> <v>

Vertex ids must be dense ``0..n-1``; every vertex line must precede the
edge lines that use it (conventionally all ``v`` lines come first).
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import GraphIOError
from repro.graph.builder import GraphBuilder
from repro.graph.graph import Graph

__all__ = ["save_edge_list", "load_edge_list"]


def save_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` in the text edge-list format."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}\n")
        handle.write(f"# |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        for v in graph.iter_vertices():
            handle.write(f"v {v} {graph.label(v)}\n")
        for u, v in graph.iter_edges():
            handle.write(f"e {u} {v}\n")


def load_edge_list(path: str | Path, name: str | None = None) -> Graph:
    """Parse the text edge-list format at ``path`` into a :class:`Graph`.

    Labels are read back as strings (the format is untyped); callers that
    need integer labels should map them after loading.
    """
    path = Path(path)
    builder = GraphBuilder(name=name or path.stem)
    expected_vertex = 0
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "v":
                    vid = int(parts[1])
                    if vid != expected_vertex:
                        raise GraphIOError(
                            f"{path}:{lineno}: vertex ids must be dense and "
                            f"ordered; expected {expected_vertex}, got {vid}"
                        )
                    label = " ".join(parts[2:])
                    if not label:
                        raise GraphIOError(f"{path}:{lineno}: vertex missing label")
                    builder.add_vertex(label)
                    expected_vertex += 1
                elif kind == "e":
                    builder.add_edge(int(parts[1]), int(parts[2]))
                else:
                    raise GraphIOError(
                        f"{path}:{lineno}: unknown record kind {kind!r}"
                    )
            except GraphIOError:
                raise
            except (ValueError, IndexError) as exc:
                raise GraphIOError(f"{path}:{lineno}: malformed line {line!r}") from exc
            except Exception as exc:  # GraphBuildError / VertexNotFoundError
                raise GraphIOError(f"{path}:{lineno}: {exc}") from exc
    return builder.build()
