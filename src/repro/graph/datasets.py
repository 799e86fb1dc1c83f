"""Synthetic stand-ins for the paper's Table I datasets.

The paper evaluates on SNAP graphs (GrQc, Wikivote, Wikipedia, PPI,
Cit-Patent, Amazon, Astro, DBLP).  Offline and at pure-Python scale we
substitute seeded generators that preserve the *structural trait each
experiment relies on* — see the README's "Offline stand-ins" table.
Stand-ins are scaled down but keep the relative size ordering (Wikipedia
and Cit-Patent are by far the largest).

Every dataset is deterministic: ``load(name)`` always returns the same
graph.  Results are cached per-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional

import numpy as np

from . import generators
from .builders import from_edge_array
from .csr import CSRGraph

__all__ = [
    "Dataset",
    "load",
    "names",
    "clear_cache",
    "dataset_table",
    "role_community_graph",
]


@dataclass
class Dataset:
    """A named benchmark graph plus whatever ground truth was planted.

    Attributes
    ----------
    name:
        Registry key (paper dataset it stands in for).
    graph:
        The generated :class:`CSRGraph`.
    context:
        Table I's one-line description of the original data.
    planted:
        Generator-side ground truth (e.g. clique member lists, community
        affiliation matrix, bridge vertex ids).  Algorithms never read
        this; tests and benches use it to validate recovered structure.
    """

    name: str
    graph: CSRGraph
    context: str
    planted: Dict[str, object] = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.graph.n_vertices

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges


def role_community_graph(
    n_communities: int = 3,
    dense_size: int = 14,
    periphery_size: int = 10,
    whisker_length: int = 3,
    seed: int = 7,
):
    """Communities with explicit hub / dense / periphery / whisker roles.

    Stand-in for the Amazon co-purchase network of Fig 9.  Each community
    is built as: one *hub* adjacent to every dense member; a near-clique
    of *dense* members; *periphery* vertices each attached to 1–2 dense
    members; and a *whisker* chain hanging off one periphery vertex.
    Communities are joined by single weak edges.

    Returns ``(graph, roles, community)`` with per-vertex role labels
    (``0=hub, 1=dense, 2=periphery, 3=whisker``) and community ids.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    roles: List[int] = []
    community: List[int] = []
    hubs = []
    v = 0
    for c in range(n_communities):
        hub = v
        hubs.append(hub)
        roles.append(0)
        community.append(c)
        v += 1
        dense = list(range(v, v + dense_size))
        v += dense_size
        roles.extend([1] * dense_size)
        community.extend([c] * dense_size)
        for d in dense:
            pairs.append((hub, d))
        for i, a in enumerate(dense):
            for b in dense[i + 1:]:
                if rng.random() < 0.75:
                    pairs.append((a, b))
        periphery = list(range(v, v + periphery_size))
        v += periphery_size
        roles.extend([2] * periphery_size)
        community.extend([c] * periphery_size)
        for p in periphery:
            k = 1 + int(rng.random() < 0.5)
            for d in rng.choice(dense, size=k, replace=False):
                pairs.append((int(d), p))
            if rng.random() < 0.6:
                pairs.append((hub, p))
        prev = periphery[0]
        for _ in range(whisker_length):
            pairs.append((prev, v))
            roles.append(3)
            community.append(c)
            prev = v
            v += 1
    for c in range(n_communities - 1):
        pairs.append((hubs[c], hubs[c + 1]))
    graph = from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=v)
    return graph, np.array(roles), np.array(community)


def _make_grqc() -> Dataset:
    graph, cliques = generators.planted_cliques(
        background_n=1500,
        background_m=3200,
        clique_sizes=[26, 20, 16, 12, 9],
        attach_edges=2,
        seed=42,
    )
    return Dataset(
        name="grqc",
        graph=graph,
        context="Coauthorship in General Relativity and Quantum Cosmology",
        planted={"cliques": cliques},
    )


def _make_wikivote() -> Dataset:
    graph = generators.nested_core(
        n_layers=6, layer_size=110, p_core=0.85, decay=0.45, seed=7
    )
    return Dataset(
        name="wikivote",
        graph=graph,
        context="Who-votes-on-whom relationship between Wikipedia users",
    )


def _large_mixed(
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
    parts = []
    offset = 0
    anchors = []
    for i, (n, m, p_tri) in enumerate(blocks):
        parts.append(
            generators._powerlaw_pairs(n, m, p_tri, seed=seed + i) + offset
        )
        anchors.append((offset, n))
        offset += n
    links = []
    for size in clique_sizes:
        parts.append(np.column_stack(np.triu_indices(size, 1)) + offset)
        lo, n = anchors[int(rng.integers(0, len(anchors)))]
        links.append((offset, lo + int(rng.integers(0, n))))
        offset += size
    for __ in range(join_edges):
        (lo_a, n_a), (lo_b, n_b) = rng.choice(anchors, size=2)
        links.append(
            (int(lo_a + rng.integers(0, n_a)), int(lo_b + rng.integers(0, n_b)))
        )
    parts.append(np.array(links, dtype=np.int64).reshape(-1, 2))
    return from_edge_array(np.concatenate(parts), n_vertices=offset)


def _make_wikipedia() -> Dataset:
    graph = _large_mixed(
        blocks=[(25000, 3, 0.6), (8000, 6, 0.5), (4000, 10, 0.4)],
        clique_sizes=[40, 32, 26, 21, 17, 14, 11, 9, 7],
        join_edges=400,
        seed=3,
    )
    return Dataset(
        name="wikipedia",
        graph=graph,
        context="Links between Wikipedia pages",
    )


def _make_ppi() -> Dataset:
    graph, cliques = generators.planted_cliques(
        background_n=1100,
        background_m=2400,
        clique_sizes=[18, 13, 10],
        attach_edges=2,
        seed=11,
    )
    return Dataset(
        name="ppi",
        graph=graph,
        context="Protein Protein Interaction network",
        planted={"cliques": cliques},
    )


def _make_cit_patent() -> Dataset:
    graph = _large_mixed(
        blocks=[(35000, 2, 0.3), (10000, 5, 0.3), (5000, 8, 0.25)],
        clique_sizes=[30, 24, 19, 15, 12, 10, 8, 6],
        join_edges=500,
        seed=5,
    )
    return Dataset(
        name="cit_patent",
        graph=graph,
        context="Citations made by patents granted between 1975 and 1999",
    )


def _make_amazon() -> Dataset:
    graph, roles, community = role_community_graph(
        n_communities=4,
        dense_size=16,
        periphery_size=12,
        whisker_length=4,
        seed=13,
    )
    return Dataset(
        name="amazon",
        graph=graph,
        context="Co-Purchase relationship between products in Amazon",
        planted={"roles": roles, "community": community},
    )


def _make_astro() -> Dataset:
    # Three research communities connected *only* through a few bridge
    # vertices.  Every cross-community shortest path funnels through a
    # bridge, while each of the bridge's several attachment vertices
    # carries only a fraction of that flow — so bridges end up with low
    # degree but locally-maximal betweenness: the negative-LCI outliers
    # of Fig 10 / §III-C.
    n_comm = 3
    comm_size = 1000
    attachments_per_side = 5
    parts = [
        generators._powerlaw_pairs(comm_size, 5, 0.65, seed=17 + i)
        + i * comm_size
        for i in range(n_comm)
    ]
    rng = np.random.default_rng(99)
    n = n_comm * comm_size
    bridges = []
    bridge_id = n
    for a in range(n_comm):
        for b in range(a + 1, n_comm):
            for __ in range(2):
                bridges.append(bridge_id)
                for comm in (a, b):
                    picks = rng.choice(
                        comm_size, size=attachments_per_side, replace=False
                    )
                    parts.append(np.column_stack([
                        comm * comm_size + picks,
                        np.full(attachments_per_side, bridge_id),
                    ]))
                bridge_id += 1
    graph = from_edge_array(np.concatenate(parts), n_vertices=bridge_id)
    return Dataset(
        name="astro",
        graph=graph,
        context="Coauthorship between authors in Astro Physics",
        planted={"bridges": np.array(bridges)},
    )


def _make_dblp() -> Dataset:
    # Four communities in two chains of two; the chains touch only
    # through their *sparse* communities (1 and 3).  Heterogeneous
    # densities give the dense communities (0 and 2) different k-core
    # depths, and routing the inter-chain bridges through low-core
    # vertices keeps those dense cores disconnected at high α — the
    # real-DBLP trait the study's Task 2 and Fig 8 rely on.
    chain_a, aff_a = generators.overlapping_communities(
        n_communities=2, size=90, overlap=12,
        p_in=(0.62, 0.38), p_out=0.0, sub_blocks=2, seed=23,
    )
    chain_b, aff_b = generators.overlapping_communities(
        n_communities=2, size=90, overlap=12,
        p_in=(0.52, 0.33), p_out=0.0, sub_blocks=2, seed=29,
    )
    n_a = chain_a.n_vertices
    n_b = chain_b.n_vertices
    rng = np.random.default_rng(31)
    pairs = [tuple(e) for e in chain_a.edge_array()]
    pairs += [(int(u) + n_a, int(v) + n_a) for u, v in chain_b.edge_array()]
    # The chains are joined through low-degree *connector* authors
    # (cross-area collaborators) attached to the sparse communities'
    # interiors: they belong to no community strongly, so community
    # score fields dip at the junction (the valleys of Fig 1(b)) and
    # the dense cores stay disconnected at high α.
    sparse_a = np.arange(100, n_a)
    sparse_b = np.arange(100, n_b) + n_a
    connectors = []
    next_id = n_a + n_b
    for __ in range(6):
        connectors.append(next_id)
        pairs.append((int(rng.choice(sparse_a)), next_id))
        pairs.append((int(rng.choice(sparse_b)), next_id))
        next_id += 1
    graph = from_edge_array(
        np.array(pairs, dtype=np.int64), n_vertices=next_id
    )
    affiliation = np.zeros((next_id, 4), dtype=np.int64)
    affiliation[:n_a, :2] = aff_a
    affiliation[n_a: n_a + n_b, 2:] = aff_b
    return Dataset(
        name="dblp",
        graph=graph,
        context=(
            "Coauthorship between authors in (Database, Data Mining, "
            "Machine Learning, Information Retrieval)"
        ),
        planted={
            "affiliation": affiliation,
            "connectors": np.array(connectors),
        },
    )


_REGISTRY: Dict[str, Callable[[], Dataset]] = {
    "grqc": _make_grqc,
    "wikivote": _make_wikivote,
    "wikipedia": _make_wikipedia,
    "ppi": _make_ppi,
    "cit_patent": _make_cit_patent,
    "amazon": _make_amazon,
    "astro": _make_astro,
    "dblp": _make_dblp,
}

def names() -> List[str]:
    """All registered dataset names, in Table I order."""
    return list(_REGISTRY)


@lru_cache(maxsize=None)
def _load_cached(name: str) -> Dataset:
    return _REGISTRY[name]()


def load(name: str) -> Dataset:
    """Load the stand-in dataset called ``name``.

    Memoized per process (``functools.lru_cache`` keyed by name), so
    repeated loads from benchmarks, the CLI and stream replay share one
    generated instance; use :func:`clear_cache` to force regeneration.
    Pipelines reach this only on a miss of their cached ``source``
    stage (:class:`repro.engine.DatasetSource`), so with a warm
    ``--cache-dir`` a new process never synthesizes the graph.
    """
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(names())}"
        )
    return _load_cached(name)


def clear_cache() -> None:
    """Drop all memoized datasets (mainly for tests)."""
    _load_cached.cache_clear()


def dataset_table(include_large: bool = True) -> List[Dict[str, object]]:
    """Rows of Table I (name, nodes, edges, context) for the stand-ins."""
    rows = []
    for name in names():
        if not include_large and name in ("wikipedia", "cit_patent"):
            continue
        ds = load(name)
        rows.append(
            {
                "dataset": ds.name,
                "nodes": ds.n_vertices,
                "edges": ds.n_edges,
                "context": ds.context,
            }
        )
    return rows
