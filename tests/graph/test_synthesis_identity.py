"""Dataset synthesis against the per-edge formulation it replaced.

``loop_powerlaw_cluster``, ``loop_large_mixed`` and the edge-array
builder they call are the original per-edge code, kept verbatim as the
reference: the block-built generators must return the same ``indptr``
and ``indices`` for every configuration.  The full-size stand-ins are
too slow to rebuild through the reference on every run, so their CSR
arrays are pinned by SHA-256 instead.
"""

import hashlib
from typing import List

import numpy as np
import pytest

from repro.graph import CSRGraph, datasets, from_edge_array, generators

#: SHA-256 of ``indptr`` and ``indices`` (int64, native byte order) of
#: every stand-in, recorded before the generators were rewritten.
PINS = {
    "grqc": (
        "f4589dcef20e7f591fe2f720918f647f9b6b3a28b5027049346cd73881d1ea49",
        "cdaaae632e7b4c65b7b52ae1323807c27733e42aee54b0072b19499b1d6a679c",
    ),
    "wikivote": (
        "fc402b6941f743e0834f189c53dc00eaec9f25165cb6797a555576c7b0b2c8b9",
        "1b48d2f31d6c2d2b5b51f182270debe241918b77acd2f3db7dfa4d57a41501b4",
    ),
    "wikipedia": (
        "c58fb3a37ce7d014d9d190157c82c98b1c5c27ccba4ac49186a8810c5d017eea",
        "f7e1439f1bf6cd355f66f75a6bb74708d744c7bd10efe6f5062f4fc40970c2a9",
    ),
    "ppi": (
        "f9279824bc7751c8157b099736463d19a1b3eabeb02fc40e262ed240b5a6b844",
        "050741c6fb3c601775763c60c0eefe7ce9e53d51a1e9d6e58c4345ad9a3ad1c7",
    ),
    "cit_patent": (
        "077fc324bed343cfc7b86dbd313cd336c9d070bfcf81635479f331bd2f9bddc3",
        "d388b7376bcb2d8131f597f168f95103f5b3b67fd65855cc365f534e8d59b536",
    ),
    "amazon": (
        "0bc49ee1f37afb717fc92bf67cb25d9d90e7b7f53f736413dbe45d58f04d48fe",
        "89a16c54b28fb6a4390e89a5f72828703958998e170e865be2fcd2768294dd30",
    ),
    "astro": (
        "36fcc52df81703cde18266b5bacf4a10e00c1a6e9dec67a5167674123159611c",
        "06de9f54b7f7c63c5bf82a0af9010cbf25cd7b527113e170e8c289ae0a83e3fa",
    ),
    "dblp": (
        "bece3c89e7349ee65b5d08382882da3f76d4001e2e622966595fd0e163bce671",
        "f2f293885ebe4297f66fd7b710126e69ee0401b0b62c6ae78338d17b00e54e45",
    ),
}


def loop_from_edge_array(edges, n_vertices=None, labels=None):
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array")
    if n_vertices is None:
        n_vertices = int(edges.max()) + 1 if len(edges) else 0
    if len(edges) and (edges.min() < 0 or edges.max() >= n_vertices):
        raise ValueError("edge endpoints outside 0..n_vertices-1")

    # Canonicalise: drop loops, order endpoints, dedup.
    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    if len(lo):
        canon = np.unique(lo * np.int64(n_vertices) + hi)
        lo = canon // n_vertices
        hi = canon % n_vertices

    # Symmetrise and bucket by source.
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n_vertices + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    indptr = np.cumsum(indptr)
    return CSRGraph(indptr, dst, labels=labels)


def loop_powerlaw_cluster(n: int, m_per_node: int, p_triangle: float, seed: int = 0) -> CSRGraph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert but after each preferential attachment, with
    probability ``p_triangle`` the next link closes a triangle with a
    random neighbour of the previous target.  Used for the Astro and
    Wikipedia/Cit-Patent stand-ins (heavy-tailed degrees, many triangles,
    hence non-trivial k-core and k-truss structure).
    """
    if n <= m_per_node:
        raise ValueError("n must exceed m_per_node")
    rng = np.random.default_rng(seed)
    repeated: List[int] = list(range(m_per_node))
    adjacency: List[set] = [set() for _ in range(n)]
    pairs = []

    def add_edge(u: int, v: int) -> bool:
        if u == v or v in adjacency[u]:
            return False
        adjacency[u].add(v)
        adjacency[v].add(u)
        pairs.append((u, v))
        repeated.append(u)
        repeated.append(v)
        return True

    for v in range(m_per_node, n):
        target = int(repeated[rng.integers(0, len(repeated))])
        links = 0
        guard = 0
        while links < m_per_node and guard < 20 * m_per_node:
            guard += 1
            if add_edge(v, target):
                links += 1
            if links >= m_per_node:
                break
            if adjacency[target] and rng.random() < p_triangle:
                candidates = list(adjacency[target])
                nxt = int(candidates[rng.integers(0, len(candidates))])
            else:
                nxt = int(repeated[rng.integers(0, len(repeated))])
            target = nxt
    return loop_from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=n)


def loop_large_mixed(
    blocks,
    clique_sizes,
    join_edges: int,
    seed: int,
) -> CSRGraph:
    """Union of power-law blocks of differing density plus planted
    cliques, loosely joined.

    A single preferential-attachment graph has a near-uniform core
    number (KC(v) ≈ m everywhere), which collapses the scalar tree to
    one super node — real web/citation graphs instead mix regions of
    very different density.  Mixing blocks with different ``m`` and a
    ladder of clique sizes restores the paper's deep, varied k-core and
    k-truss hierarchies at large scale.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    offset = 0
    anchors = []
    for i, (n, m, p_tri) in enumerate(blocks):
        block = loop_powerlaw_cluster(n, m, p_tri, seed=seed + i)
        pairs.extend(
            (int(u) + offset, int(v) + offset) for u, v in block.edge_array()
        )
        anchors.append((offset, n))
        offset += n
    for size in clique_sizes:
        members = range(offset, offset + size)
        for a in members:
            for b in members:
                if a < b:
                    pairs.append((a, b))
        lo, n = anchors[int(rng.integers(0, len(anchors)))]
        pairs.append((offset, lo + int(rng.integers(0, n))))
        offset += size
    for __ in range(join_edges):
        (lo_a, n_a), (lo_b, n_b) = rng.choice(anchors, size=2)
        pairs.append(
            (int(lo_a + rng.integers(0, n_a)), int(lo_b + rng.integers(0, n_b)))
        )
    return loop_from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=offset)


def assert_same_csr(graph: CSRGraph, reference: CSRGraph) -> None:
    assert graph.indptr.dtype == reference.indptr.dtype == np.int64
    assert graph.indices.dtype == reference.indices.dtype == np.int64
    assert np.array_equal(graph.indptr, reference.indptr)
    assert np.array_equal(graph.indices, reference.indices)


def _sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_stand_in_matches_pin(name):
    graph = datasets.load(name).graph
    assert (_sha256(graph.indptr), _sha256(graph.indices)) == PINS[name]


def test_pins_cover_every_stand_in():
    assert set(PINS) == set(datasets.names())


#: (n, m, p, seed) tuples the rest of the suite builds, plus the three
#: astro communities.
POWERLAW_CONFIGS = [
    (300, 3, 0.7, 0), (100, 2, 0.5, 4), (300, 2, 0.4, 11),
    (2000, 2, 0.3, 1), (8000, 2, 0.3, 1), (400, 2, 0.3, 8),
    (300, 2, 0.3, 11), (500, 2, 0.3, 21), (600, 2, 0.4, 3),
    (400, 2, 0.3, 9), (150, 2, 0.3, 5), (200, 2, 0.3, 6),
    (400, 3, 0.3, 7), (60, 2, 0.3, 2), (60, 3, 0.3, 3), (30, 2, 0.5, 0),
    (1000, 5, 0.65, 17), (1000, 5, 0.65, 18), (1000, 5, 0.65, 19),
    # Edge cases: no triangle steps, always triangle steps, and one
    # vertex past the seed set.
    (200, 4, 0.0, 1), (200, 4, 1.0, 1), (3, 2, 0.5, 0),
]


@pytest.mark.parametrize("n, m, p, seed", POWERLAW_CONFIGS)
def test_powerlaw_cluster_matches_loop(n, m, p, seed):
    assert_same_csr(
        generators.powerlaw_cluster(n, m, p, seed=seed),
        loop_powerlaw_cluster(n, m, p, seed=seed),
    )


def test_powerlaw_pairs_are_the_added_edges():
    pairs = generators._powerlaw_pairs(400, 3, 0.5, seed=2)
    assert (pairs[:, 0] != pairs[:, 1]).all()
    canon = {(min(u, v), max(u, v)) for u, v in pairs.tolist()}
    assert len(canon) == len(pairs)
    assert_same_csr(
        from_edge_array(pairs, n_vertices=400),
        loop_powerlaw_cluster(400, 3, 0.5, seed=2),
    )


@pytest.mark.parametrize("n, m", [(2, 2), (1, 3)])
def test_powerlaw_cluster_rejects_tiny_n(n, m):
    with pytest.raises(ValueError, match="n must exceed"):
        generators.powerlaw_cluster(n, m, 0.5)


#: Scaled-down wikipedia / cit_patent layouts (same block shapes and
#: clique ladders, about a fiftieth of the vertices).
LARGE_MIXED_CONFIGS = [
    dict(
        blocks=[(500, 3, 0.6), (160, 6, 0.5), (80, 10, 0.4)],
        clique_sizes=[40, 32, 26, 21, 17, 14, 11, 9, 7],
        join_edges=40,
        seed=3,
    ),
    dict(
        blocks=[(700, 2, 0.3), (200, 5, 0.3), (100, 8, 0.25)],
        clique_sizes=[30, 24, 19, 15, 12, 10, 8, 6],
        join_edges=50,
        seed=5,
    ),
    dict(blocks=[(50, 2, 0.5)], clique_sizes=[], join_edges=0, seed=1),
    dict(blocks=[(40, 3, 0.5), (30, 2, 0.1)], clique_sizes=[3],
         join_edges=5, seed=9),
]


@pytest.mark.parametrize("config", LARGE_MIXED_CONFIGS)
def test_large_mixed_matches_loop(config):
    assert_same_csr(
        datasets._large_mixed(**config), loop_large_mixed(**config)
    )


EDGE_ARRAYS = {
    "empty": (np.empty((0, 2), dtype=np.int64), 0),
    "empty with vertices": (np.empty((0, 2), dtype=np.int64), 4),
    "loops only": (np.array([[1, 1], [2, 2]]), 3),
    "duplicates both ways": (np.array([[0, 1], [1, 0], [0, 1], [2, 1]]), 3),
    "isolated trailing": (np.array([[0, 2], [2, 1]]), 6),
    "random multigraph": (
        np.random.default_rng(4).integers(0, 50, size=(400, 2)), 50
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_ARRAYS))
def test_from_edge_array_matches_loop(name):
    edges, n = EDGE_ARRAYS[name]
    assert_same_csr(
        from_edge_array(edges, n_vertices=n),
        loop_from_edge_array(edges, n_vertices=n),
    )
