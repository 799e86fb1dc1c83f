"""Triangle counting and clustering coefficients.

Edge triangle *support* feeds the K-truss decomposition; vertex triangle
counts and clustering coefficients are used as derived scalar measures
and as role-extraction features.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import accel
from ..accel import native
from ..graph.csr import CSRGraph
from ..engine.registry import edge_measure, vertex_measure

__all__ = [
    "edge_supports",
    "vertex_triangles",
    "total_triangles",
    "clustering_coefficients",
    "average_clustering",
]


def edge_supports(graph: CSRGraph, backend: Optional[str] = None) -> np.ndarray:
    """Number of triangles through each edge (dense edge-id order).

    ``support(u, v) = |N(u) ∩ N(v)|``, computed by merging the two
    sorted neighbour lists — or, on the native tier
    (:func:`repro.accel.native.edge_supports`), by marking each
    triangle once from its smallest vertex.  Both count the same
    triangles.
    """
    pairs = graph.edge_array()
    if accel.resolve(backend, size=graph.n_edges, native=True) == "native":
        return native.edge_supports(graph.indptr, graph.indices, pairs)
    supports = np.zeros(len(pairs), dtype=np.int64)
    for eid, (u, v) in enumerate(pairs):
        a = graph.neighbors(int(u))
        b = graph.neighbors(int(v))
        if len(a) > len(b):
            a, b = b, a
        # Sorted-merge intersection count.
        supports[eid] = len(np.intersect1d(a, b, assume_unique=True))
    return supports


def vertex_triangles(graph: CSRGraph) -> np.ndarray:
    """Number of triangles incident to each vertex."""
    counts = np.zeros(graph.n_vertices, dtype=np.int64)
    for (u, v), s in zip(graph.edge_array(), edge_supports(graph)):
        counts[u] += s
        counts[v] += s
    # Each triangle at vertex w is counted once per incident edge pair;
    # an edge (u, v) with support s contributes s to u and to v, so each
    # triangle is counted twice at each of its three corners.
    return counts // 2


def total_triangles(graph: CSRGraph) -> int:
    """Total number of triangles in the graph."""
    return int(edge_supports(graph).sum()) // 3


def clustering_coefficients(graph: CSRGraph) -> np.ndarray:
    """Local clustering coefficient per vertex (0 where degree < 2)."""
    tri = vertex_triangles(graph).astype(np.float64)
    deg = graph.degree().astype(np.float64)
    possible = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = np.where(possible > 0, tri / np.where(possible > 0, possible, 1), 0.0)
    return cc


def average_clustering(graph: CSRGraph) -> float:
    """Mean local clustering coefficient."""
    if graph.n_vertices == 0:
        return 0.0
    return float(clustering_coefficients(graph).mean())


# ----------------------------------------------------------------------
# Registry adapters (repro.engine).
# ----------------------------------------------------------------------
@vertex_measure(
    "clustering", cost="moderate", replace=True,
    description="local clustering coefficient per vertex",
)
def _clustering_field(graph: CSRGraph) -> np.ndarray:
    return clustering_coefficients(graph)


@edge_measure(
    "support", cost="moderate", replace=True,
    description="triangle support sup(e) per edge",
)
def _support_field(graph: CSRGraph) -> np.ndarray:
    return edge_supports(graph).astype(np.float64)
