"""Structural role extraction (hub / dense-community / periphery / whisker).

The paper's Fig 9 colours a community terrain by each vertex's *dominant
role*, following the simultaneous communities-and-roles method of Ruan &
Parthasarathy [33] with the four canonical roles of RolX [32].  We
reproduce this with a transparent substitute (see the README's
"Offline stand-ins"): per-vertex structural features are z-scored and
projected onto four fixed role prototypes:

* **hub** — exceptionally high degree;
* **dense community member** — high clustering and core number;
* **whisker** — low degree, zero clustering, low-degree neighbours
  (chains hanging off the graph);
* **periphery** — low degree but attached to well-connected vertices.

``role_affinities`` returns the softmax over prototype scores — the
paper's "role affinity vector" — and ``extract_roles`` its argmax.
A seeded k-means implementation is exported as a generic utility (it
also backs other feature-space analyses in the examples).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.csr import CSRGraph
from .kcore import core_numbers
from .triangles import clustering_coefficients

__all__ = [
    "ROLE_NAMES",
    "role_features",
    "kmeans",
    "extract_roles",
    "role_affinities",
]

ROLE_NAMES = ("hub", "dense", "periphery", "whisker")

# Rows: roles in ROLE_NAMES order.  Columns: z-scored features
# [log degree, clustering, log mean-neighbour-degree, core number].
# A vertex is assigned the role of the *nearest* prototype.  Hubs out-degree
# everything but their star neighbourhood is sparse (low clustering); dense
# members sit in high-core cliques; periphery vertices are weak themselves
# yet attach to strong vertices; whiskers are weak vertices among weak ones.
_PROTOTYPES = np.array(
    [
        [1.6, -0.8, -0.2, 1.0],   # hub
        [0.9, 0.3, 0.2, 1.0],     # dense
        [-0.9, 0.2, 0.6, -0.9],   # periphery
        [-1.1, -1.6, -2.4, -1.2], # whisker
    ]
)


def role_features(graph: CSRGraph) -> np.ndarray:
    """Per-vertex structural feature matrix (n, 4), z-scored.

    Columns: log(1+degree), clustering coefficient, log(1+mean neighbour
    degree), core number.
    """
    degree = graph.degree().astype(np.float64)
    cc = clustering_coefficients(graph)
    core = core_numbers(graph).astype(np.float64)
    nbr_deg = np.zeros(graph.n_vertices)
    for v in range(graph.n_vertices):
        nbrs = graph.neighbors(v)
        if len(nbrs):
            nbr_deg[v] = degree[nbrs].mean()
    feats = np.column_stack(
        [np.log1p(degree), cc, np.log1p(nbr_deg), core]
    )
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0] = 1.0
    return (feats - mean) / std


def role_affinities(graph: CSRGraph) -> np.ndarray:
    """Soft role-affinity vectors, one row per vertex, rows sum to 1.

    Softmax over negative squared distances between z-scored features
    and the four role prototypes (nearest-prototype classification).
    Deterministic (no randomness involved).
    """
    feats = role_features(graph)
    d2 = ((feats[:, None, :] - _PROTOTYPES[None, :, :]) ** 2).sum(axis=2)
    logits = -d2
    logits -= logits.max(axis=1, keepdims=True)
    soft = np.exp(logits)
    return soft / soft.sum(axis=1, keepdims=True)


def extract_roles(graph: CSRGraph) -> np.ndarray:
    """Dominant role per vertex: 0=hub, 1=dense, 2=periphery, 3=whisker."""
    return role_affinities(graph).argmax(axis=1).astype(np.int64)


def kmeans(
    points: np.ndarray, k: int, max_iter: int = 100, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd's k-means with k-means++ seeding.

    Returns ``(labels, centroids)``.  Deterministic under ``seed``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k > n:
        raise ValueError("k may not exceed the number of points")
    rng = np.random.default_rng(seed)
    centroids = [points[rng.integers(0, n)]]
    for __ in range(k - 1):
        d2 = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(points[rng.integers(0, n)])
            continue
        probs = d2 / total
        centroids.append(points[rng.choice(n, p=probs)])
    centroids = np.array(centroids)
    labels = np.zeros(n, dtype=np.int64)
    for iteration in range(max_iter):
        dists = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if iteration > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
    return labels, centroids
