"""Constructors that turn edge lists and networkx graphs into CSR form.

All builders normalise their input the same way: self-loops dropped,
parallel edges collapsed, both directions stored, neighbour lists sorted.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "from_edges",
    "from_edge_array",
    "from_networkx",
    "to_networkx",
    "empty_graph",
]


def from_edge_array(
    edges: np.ndarray,
    n_vertices: Optional[int] = None,
    labels: Optional[np.ndarray] = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an ``(m, 2)`` integer edge array.

    Vertices must already be integers in ``0..n-1``.  Self-loops are
    removed and duplicate edges (either orientation) collapsed.

    Parameters
    ----------
    edges:
        Array of vertex-id pairs.
    n_vertices:
        Total vertex count; defaults to ``edges.max() + 1`` (isolated
        trailing vertices need it to be passed explicitly).
    labels:
        Optional external labels, one per vertex.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array")
    if n_vertices is None:
        n_vertices = int(edges.max()) + 1 if len(edges) else 0
    if len(edges) and (edges.min() < 0 or edges.max() >= n_vertices):
        raise ValueError("edge endpoints outside 0..n_vertices-1")

    # Drop loops, store both directions as one sortable key per arc,
    # and dedup: sorted keys order arcs by source, then by neighbour.
    keep = edges[:, 0] != edges[:, 1]
    u, v = edges[keep, 0], edges[keep, 1]
    n = np.int64(n_vertices)
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    if len(keys):
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    src, dst = np.divmod(keys, n)
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_vertices), out=indptr[1:])
    return CSRGraph(indptr, dst, labels=labels)


def from_edges(
    edges: Iterable[Tuple[Hashable, Hashable]],
    nodes: Optional[Sequence[Hashable]] = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an iterable of (u, v) pairs.

    Endpoints may be arbitrary hashables; they are relabelled to dense
    integer ids (sorted order when sortable, insertion order otherwise)
    and the originals stored as ``labels``.

    Parameters
    ----------
    edges:
        Edge pairs.
    nodes:
        Optional full node collection, for graphs with isolated vertices.
    """
    edge_list = [(u, v) for u, v in edges]
    seen = {}
    universe = list(nodes) if nodes is not None else []
    for u, v in edge_list:
        universe.append(u)
        universe.append(v)
    ordered = []
    for x in universe:
        if x not in seen:
            seen[x] = True
            ordered.append(x)
    try:
        ordered = sorted(ordered)
    except TypeError:
        pass  # unsortable mixed labels keep insertion order
    index = {x: i for i, x in enumerate(ordered)}
    arr = np.array(
        [(index[u], index[v]) for u, v in edge_list], dtype=np.int64
    ).reshape(-1, 2)
    labels = np.array(ordered, dtype=object)
    if labels.size and all(isinstance(x, (int, np.integer)) for x in ordered):
        labels = labels.astype(np.int64)
    return from_edge_array(arr, n_vertices=len(ordered), labels=labels)


def from_networkx(graph) -> CSRGraph:
    """Convert an undirected networkx graph (nodes relabelled densely)."""
    return from_edges(graph.edges(), nodes=list(graph.nodes()))


def to_networkx(graph: CSRGraph):
    """Convert to a ``networkx.Graph`` on internal integer ids."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(graph.n_vertices))
    out.add_edges_from(graph.edges())
    return out


def empty_graph(n_vertices: int = 0) -> CSRGraph:
    """A graph with ``n_vertices`` isolated vertices and no edges."""
    return from_edge_array(
        np.empty((0, 2), dtype=np.int64), n_vertices=n_vertices
    )
