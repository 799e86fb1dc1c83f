"""Seeded random-graph generators.

These supply the synthetic stand-ins for the paper's SNAP datasets (see
the README's "Offline stand-ins") and the workloads for property-based
tests and ablation benches.  Every generator is deterministic given
``seed`` and returns a :class:`~repro.graph.csr.CSRGraph` (plus planted
metadata where noted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .builders import from_edge_array
from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "ring_lattice",
    "watts_strogatz",
    "powerlaw_cluster",
    "planted_partition",
    "overlapping_communities",
    "connected_caveman",
    "hub_and_spoke",
    "planted_cliques",
    "nested_core",
    "CommunityEvent",
    "DynamicCommunityLog",
    "dynamic_planted_partition",
]


def _dedup_edges(pairs: np.ndarray, n: int) -> np.ndarray:
    """Drop self-loops and duplicates from an (m, 2) pair array."""
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    canon = np.unique(lo * np.int64(n) + hi)
    return np.column_stack([canon // n, canon % n])


def erdos_renyi(n: int, m: int, seed: int = 0) -> CSRGraph:
    """G(n, m): ``m`` distinct uniform random edges on ``n`` vertices."""
    rng = np.random.default_rng(seed)
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"requested {m} edges but only {max_m} possible")
    edges = np.empty((0, 2), dtype=np.int64)
    while len(edges) < m:
        need = m - len(edges)
        batch = rng.integers(0, n, size=(int(need * 1.5) + 8, 2))
        edges = _dedup_edges(np.vstack([edges, batch]), n)
    # Deterministic trim: keep the lexicographically first m edges.
    return from_edge_array(edges[:m], n_vertices=n)


def barabasi_albert(n: int, m_per_node: int, seed: int = 0) -> CSRGraph:
    """Preferential attachment: each new vertex links to ``m_per_node`` targets."""
    if n <= m_per_node:
        raise ValueError("n must exceed m_per_node")
    rng = np.random.default_rng(seed)
    targets = list(range(m_per_node))
    repeated: List[int] = []
    pairs = []
    for v in range(m_per_node, n):
        for t in set(targets):
            pairs.append((v, t))
        repeated.extend(set(targets))
        repeated.extend([v] * m_per_node)
        targets = [repeated[i] for i in rng.integers(0, len(repeated), m_per_node)]
    return from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=n)


def ring_lattice(n: int, k: int) -> CSRGraph:
    """Ring of ``n`` vertices each joined to its ``k`` nearest on each side."""
    pairs = [
        (v, (v + offset) % n) for v in range(n) for offset in range(1, k + 1)
    ]
    return from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=n)


def watts_strogatz(n: int, k: int, p: float, seed: int = 0) -> CSRGraph:
    """Small-world graph: ring lattice with each edge rewired w.p. ``p``."""
    rng = np.random.default_rng(seed)
    pairs = []
    for v in range(n):
        for offset in range(1, k + 1):
            u = (v + offset) % n
            if rng.random() < p:
                u = int(rng.integers(0, n))
            pairs.append((v, u))
    return from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=n)


def powerlaw_cluster(n: int, m_per_node: int, p_triangle: float, seed: int = 0) -> CSRGraph:
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
    return from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=n)


def planted_partition(
    sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> Tuple[CSRGraph, np.ndarray]:
    """Blocks with dense internal and sparse external wiring.

    Returns ``(graph, membership)`` where ``membership[v]`` is the planted
    block id of vertex ``v``.
    """
    rng = np.random.default_rng(seed)
    n = int(sum(sizes))
    membership = np.zeros(n, dtype=np.int64)
    starts = np.cumsum([0] + list(sizes))
    for b, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        membership[lo:hi] = b
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            p = p_in if membership[u] == membership[v] else p_out
            if rng.random() < p:
                pairs.append((u, v))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return from_edge_array(arr, n_vertices=n), membership


def overlapping_communities(
    n_communities: int,
    size: int,
    overlap: int,
    p_in,
    p_out: float,
    sub_blocks: int = 1,
    seed: int = 0,
) -> Tuple[CSRGraph, np.ndarray]:
    """Overlapping community benchmark (DBLP stand-in, Figs 1(b)/8).

    Communities are laid out on a chain; consecutive communities share
    ``overlap`` vertices.  Each community may itself contain ``sub_blocks``
    denser sub-blocks (the paper's "sub-communities": geographically
    separated core-author groups that do not co-author across blocks).
    ``p_in`` may be a single density or one per community —
    heterogeneous densities give the communities distinct k-core levels
    (as in the real DBLP, where the densest groups are disconnected).

    Returns ``(graph, affiliation)`` with ``affiliation`` an
    ``(n, n_communities)`` 0/1 matrix of planted memberships.
    """
    rng = np.random.default_rng(seed)
    step = size - overlap
    n = step * (n_communities - 1) + size if n_communities else 0
    affiliation = np.zeros((n, n_communities), dtype=np.int64)
    if np.isscalar(p_in):
        p_in_values = [float(p_in)] * n_communities
    else:
        p_in_values = [float(p) for p in p_in]
        if len(p_in_values) != n_communities:
            raise ValueError("p_in must be scalar or one density per community")
    pairs = []
    for c in range(n_communities):
        lo = c * step
        members = np.arange(lo, lo + size)
        affiliation[members, c] = 1
        # Sub-block structure: denser wiring inside each sub-block.
        block_of = (np.arange(size) * sub_blocks) // size
        for i in range(size):
            for j in range(i + 1, size):
                same_block = block_of[i] == block_of[j]
                p = p_in_values[c] if same_block else p_in_values[c] * 0.25
                if rng.random() < p:
                    pairs.append((members[i], members[j]))
    # Background noise edges.
    n_noise = int(p_out * n)
    for _ in range(n_noise):
        u, v = rng.integers(0, n, size=2)
        pairs.append((int(u), int(v)))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return from_edge_array(arr, n_vertices=n), affiliation


def connected_caveman(n_cliques: int, clique_size: int) -> CSRGraph:
    """``n_cliques`` cliques joined in a ring by single re-wired edges."""
    pairs = []
    for c in range(n_cliques):
        lo = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                pairs.append((lo + i, lo + j))
        nxt = ((c + 1) % n_cliques) * clique_size
        pairs.append((lo, nxt))
    n = n_cliques * clique_size
    return from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=n)


def hub_and_spoke(n_spokes: int, spoke_length: int = 1) -> CSRGraph:
    """A hub vertex 0 with ``n_spokes`` chains of ``spoke_length`` hanging off."""
    pairs = []
    v = 1
    for _ in range(n_spokes):
        prev = 0
        for _ in range(spoke_length):
            pairs.append((prev, v))
            prev = v
            v += 1
    return from_edge_array(np.array(pairs, dtype=np.int64), n_vertices=v)


def planted_cliques(
    background_n: int,
    background_m: int,
    clique_sizes: Sequence[int],
    attach_edges: int = 2,
    seed: int = 0,
) -> Tuple[CSRGraph, List[np.ndarray]]:
    """Sparse background plus disjoint planted cliques (GrQc stand-in).

    Each clique is attached to the background by ``attach_edges`` random
    edges, so cliques are *disconnected from each other* at high α — the
    paper's "several disconnected dense K-cores" trait of GrQc.

    Returns ``(graph, clique_members)``.
    """
    rng = np.random.default_rng(seed)
    total = background_n + int(sum(clique_sizes))
    base = erdos_renyi(background_n, background_m, seed=seed)
    pairs = list(map(tuple, base.edge_array()))
    cliques = []
    v = background_n
    for size in clique_sizes:
        members = np.arange(v, v + size)
        cliques.append(members)
        for i in range(size):
            for j in range(i + 1, size):
                pairs.append((int(members[i]), int(members[j])))
        for _ in range(attach_edges):
            anchor = int(rng.integers(0, background_n))
            inside = int(members[rng.integers(0, size)])
            pairs.append((anchor, inside))
        v += size
    arr = np.array(pairs, dtype=np.int64)
    return from_edge_array(arr, n_vertices=total), cliques


def nested_core(
    n_layers: int,
    layer_size: int,
    p_core: float = 0.9,
    decay: float = 0.55,
    seed: int = 0,
) -> CSRGraph:
    """Onion graph: one dense core with density decaying outward.

    Layer 0 is near-clique; each outer layer is wired to itself and to all
    inner layers with geometrically decaying probability.  Its k-core
    field has a *single* dominant peak (the paper's Wikivote trait).
    """
    rng = np.random.default_rng(seed)
    n = n_layers * layer_size
    layer = np.arange(n) // layer_size
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            depth = max(layer[u], layer[v])
            p = p_core * (decay ** depth)
            if rng.random() < p:
                pairs.append((u, v))
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return from_edge_array(arr, n_vertices=n)


# ---------------------------------------------------------------------------
# Dynamic planted partition (temporal ground truth for repro.evolve)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommunityEvent:
    """A scheduled lifecycle event in a dynamic-community log.

    ``communities`` lists the planted ids involved: ``(cid,)`` for
    birth/death, ``(a, b, merged)`` for a merge, ``(a, left, right)``
    for a split.
    """

    kind: str  # "birth" | "death" | "merge" | "split"
    window: int
    communities: Tuple[int, ...]


@dataclass
class DynamicCommunityLog:
    """Output of :func:`dynamic_planted_partition`.

    ``rows`` is a timestamp-sorted ``(k, 4)`` float64 array of
    ``u v ts w`` records (one tumbling window per unit of time: window
    ``w`` owns timestamps in ``(w, w + 1)``).  ``memberships[w]`` maps
    each vertex to its planted community id at window ``w`` (``-1`` for
    background), and ``events`` is the scheduled ground truth the
    :mod:`repro.evolve` tracker is scored against.
    """

    rows: np.ndarray
    memberships: List[np.ndarray]
    events: List[CommunityEvent]
    n_vertices: int
    n_windows: int
    #: Timeline origin aligning frame k with window k exactly: window
    #: w's timestamps all lie strictly inside (w, w + 1), so a
    #: horizon-1 tumbling timeline started at 0 puts window w's edges
    #: in frame w and nothing else.
    origin: float = 0.0

    def write(self, path) -> None:
        """Write the log as a ``src dst ts w`` temporal edge list."""
        from .io import write_temporal_edge_list

        write_temporal_edge_list(
            self.rows,
            path,
            header=(
                "dynamic planted partition: "
                f"{self.n_vertices} vertices, {self.n_windows} windows"
            ),
        )

    def members_at(self, window: int, cid: int) -> np.ndarray:
        """Vertex ids belonging to community ``cid`` at ``window``."""
        return np.flatnonzero(self.memberships[window] == cid)


def _sample_community_edges(
    members: np.ndarray, p_in: float, rng: np.random.Generator
) -> Set[Tuple[int, int]]:
    """Bernoulli(p_in) edges over all member pairs, canonically ordered."""
    k = len(members)
    iu, ju = np.triu_indices(k, 1)
    keep = rng.random(len(iu)) < p_in
    edges: Set[Tuple[int, int]] = set()
    for i, j in zip(iu[keep], ju[keep]):
        a, b = int(members[i]), int(members[j])
        edges.add((a, b) if a < b else (b, a))
    return edges


def _churn_community_edges(
    edges: Set[Tuple[int, int]],
    members: np.ndarray,
    churn: float,
    rng: np.random.Generator,
) -> None:
    """Swap out a ``churn`` fraction of ``edges`` for fresh member pairs."""
    n_swap = int(round(churn * len(edges)))
    if n_swap <= 0 or len(members) < 2:
        return
    ordered = sorted(edges)
    drop = rng.choice(len(ordered), size=min(n_swap, len(ordered)), replace=False)
    for i in drop:
        edges.discard(ordered[int(i)])
    added, guard = 0, 0
    while added < n_swap and guard < 50 * n_swap + 100:
        guard += 1
        i, j = rng.integers(0, len(members), size=2)
        if i == j:
            continue
        a, b = int(members[i]), int(members[j])
        pair = (a, b) if a < b else (b, a)
        if pair in edges:
            continue
        edges.add(pair)
        added += 1


def dynamic_planted_partition(
    n_vertices: int = 96,
    n_windows: int = 8,
    n_communities: int = 3,
    community_size: int = 14,
    p_in: float = 0.6,
    churn: float = 0.2,
    noise_per_window: int = 6,
    schedule: Optional[Sequence[Tuple[str, int, Tuple[int, ...]]]] = None,
    seed: int = 0,
) -> DynamicCommunityLog:
    """Timestamped planted partition with scheduled community events.

    ``n_communities`` blocks of ``community_size`` vertices each emit
    Bernoulli(``p_in``) internal edges every window, with a ``churn``
    fraction of each block's edge set resampled between windows (the
    knob the incremental-vs-rebuild bench turns).  ``noise_per_window``
    background edges are added per window, each touching at least one
    background-pool vertex so noise never bridges two communities
    directly.  Timestamps land strictly inside ``(w, w + 1)`` — never
    on window boundaries.

    ``schedule`` entries are ``(kind, window, targets)``:
    ``("merge", w, (a, b))``, ``("split", w, (a,))``,
    ``("death", w, (a,))``, ``("birth", w, ())``.  Events apply
    *before* window ``w``'s edges are generated, so ``w`` is the first
    window reflecting them.  ``None`` picks a canonical
    merge-then-split schedule.  Initial communities are recorded as
    window-0 births.  Everything is deterministic given ``seed``.
    """
    if n_communities * community_size > n_vertices:
        raise ValueError("communities do not fit in n_vertices")
    rng = np.random.default_rng(seed)
    if schedule is None:
        schedule = []
        if n_windows >= 6 and n_communities >= 3:
            w_merge = max(2, n_windows // 3)
            w_split = max(w_merge + 2, (2 * n_windows) // 3)
            schedule = [
                ("merge", w_merge, (0, 1)),
                ("split", w_split, (2,)),
            ]
    by_window: Dict[int, List[Tuple[str, Tuple[int, ...]]]] = {}
    for kind, window, targets in schedule:
        if not 0 <= window < n_windows:
            raise ValueError(f"event window {window} out of range")
        by_window.setdefault(window, []).append((kind, tuple(targets)))

    live: Dict[int, np.ndarray] = {}
    edge_sets: Dict[int, Set[Tuple[int, int]]] = {}
    events: List[CommunityEvent] = []
    next_cid = 0
    free = list(range(n_communities * community_size, n_vertices))

    def _spawn(members: np.ndarray) -> int:
        nonlocal next_cid
        cid = next_cid
        next_cid += 1
        live[cid] = np.asarray(members, dtype=np.int64)
        edge_sets[cid] = _sample_community_edges(live[cid], p_in, rng)
        return cid

    for c in range(n_communities):
        lo = c * community_size
        cid = _spawn(np.arange(lo, lo + community_size))
        events.append(CommunityEvent("birth", 0, (cid,)))

    rows: List[Tuple[int, int, float, float]] = []
    memberships: List[np.ndarray] = []

    for w in range(n_windows):
        for kind, targets in by_window.get(w, ()):
            if kind == "merge":
                a, b = targets
                merged_members = np.concatenate([live.pop(a), live.pop(b)])
                edge_sets.pop(a)
                edge_sets.pop(b)
                cid = _spawn(np.sort(merged_members))
                events.append(CommunityEvent("merge", w, (a, b, cid)))
            elif kind == "split":
                (a,) = targets
                members = live.pop(a)
                edge_sets.pop(a)
                half = len(members) // 2
                left = _spawn(members[:half])
                right = _spawn(members[half:])
                events.append(CommunityEvent("split", w, (a, left, right)))
            elif kind == "death":
                (a,) = targets
                live.pop(a)
                edge_sets.pop(a)
                events.append(CommunityEvent("death", w, (a,)))
            elif kind == "birth":
                if len(free) < community_size:
                    raise ValueError("background pool exhausted for birth")
                members = np.array(free[:community_size], dtype=np.int64)
                del free[:community_size]
                cid = _spawn(members)
                events.append(CommunityEvent("birth", w, (cid,)))
            else:
                raise ValueError(f"unknown event kind {kind!r}")

        membership = np.full(n_vertices, -1, dtype=np.int64)
        for cid in sorted(live):
            membership[live[cid]] = cid
            if w > 0:
                _churn_community_edges(edge_sets[cid], live[cid], churn, rng)
            for u, v in sorted(edge_sets[cid]):
                ts = w + 0.01 + 0.98 * rng.random()
                rows.append((u, v, ts, 1.0))
        memberships.append(membership)

        # Noise always touches >= 1 background vertex, and every
        # background vertex carries at most 2 noise edges per window:
        # its degree stays strictly below any alpha >= 3, so noise can
        # never pull background into the alpha-cut and bridge two
        # planted communities into one spurious peak.
        pool = np.flatnonzero(membership < 0)
        pool_set = set(int(x) for x in pool)
        used: Dict[int, int] = {}
        if len(pool):
            for _ in range(noise_per_window):
                u = int(pool[rng.integers(0, len(pool))])
                v = int(rng.integers(0, n_vertices))
                if u == v or used.get(u, 0) >= 2:
                    continue
                if v in pool_set and used.get(v, 0) >= 2:
                    continue
                used[u] = used.get(u, 0) + 1
                if v in pool_set:
                    used[v] = used.get(v, 0) + 1
                ts = w + 0.01 + 0.98 * rng.random()
                rows.append((u, v, ts, 1.0))

    arr = np.array(rows, dtype=np.float64).reshape(-1, 4)
    arr = arr[np.argsort(arr[:, 2], kind="stable")]
    return DynamicCommunityLog(
        rows=arr,
        memberships=memberships,
        events=events,
        n_vertices=n_vertices,
        n_windows=n_windows,
    )
