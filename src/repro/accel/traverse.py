"""Frontier-at-a-time traversal kernels over CSR arrays.

The naive centrality code runs one Python ``deque`` BFS per source and
the naive k-core/k-truss peels remove one item at a time.  The kernels
here process a whole BFS frontier (or a whole peel level) per step with
numpy gathers: neighbour lists of the entire frontier are pulled in one
``indptr``-arithmetic gather (``np.repeat`` over degree counts), the
visited test is one mask, and peeling decrements arrive via
``np.bincount`` / ``np.add.at`` scatters.

Everything takes flat ``indptr``/``indices`` arrays (not a
:class:`~repro.graph.csr.CSRGraph`).

Equivalence to the naive code (``tests/accel/``): BFS distances, and
hence harmonic/closeness values, are byte-identical (same masked-sum
expression over the same integer distances); k-core and k-truss
numbers are identical integer vectors (the decompositions are
peel-order-independent); Brandes betweenness accumulates partial
dependencies in a different order, so it agrees to ``atol=1e-9``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "bfs_distances",
    "harmonic_values",
    "closeness_values",
    "betweenness_accumulate",
    "core_numbers_vector",
    "truss_numbers_vector",
]


def _frontier_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """All adjacency entries of ``frontier`` as ``(sources, targets)``.

    One gather for the whole frontier: positions are ``arange`` offsets
    into each vertex's CSR slice, laid out with ``np.repeat``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    csum = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - (csum - counts), counts)
    return np.repeat(frontier, counts), indices[pos]


def bfs_distances(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (−1 if unreachable)."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        __, nbrs = _frontier_neighbors(indptr, indices, frontier)
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size == 0:
            break
        d += 1
        dist[fresh] = d
        frontier = np.unique(fresh)
    return dist


def harmonic_values(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Harmonic centrality of each source (full length-n vector, zeros
    elsewhere); ``sources=None`` means every vertex."""
    n = len(indptr) - 1
    out = np.zeros(n)
    iterable = range(n) if sources is None else sources
    for v in iterable:
        dist = bfs_distances(indptr, indices, int(v))
        pos = dist > 0
        out[v] = float((1.0 / dist[pos]).sum())
    return out


def closeness_values(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Wasserman–Faust closeness of each source (zeros elsewhere)."""
    n = len(indptr) - 1
    out = np.zeros(n)
    iterable = range(n) if sources is None else sources
    for v in iterable:
        dist = bfs_distances(indptr, indices, int(v))
        reach = dist >= 0
        r = int(reach.sum())
        total = int(dist[reach].sum())
        if total > 0 and n > 1:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def betweenness_accumulate(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int],
) -> np.ndarray:
    """Unscaled Brandes dependency sums from ``sources``.

    Level-synchronous: the forward pass grows whole BFS levels
    (shortest-path counts ``sigma`` scattered per level with
    ``np.add.at``), the backward pass folds dependencies level by level.
    The caller applies pair-count/sampling scaling, exactly as the
    naive accumulation expects.
    """
    n = len(indptr) - 1
    bc = np.zeros(n)
    for s in sources:
        s = int(s)
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        levels: List[np.ndarray] = [np.array([s], dtype=np.int64)]
        d = 0
        while levels[-1].size:
            src, nbrs = _frontier_neighbors(indptr, indices, levels[-1])
            fresh = nbrs[dist[nbrs] < 0]
            d += 1
            if fresh.size:
                dist[fresh] = d
            # All frontier->next-level adjacency entries contribute to
            # sigma, including parallel discoveries within the level.
            on_next = dist[nbrs] == d
            if on_next.any():
                np.add.at(sigma, nbrs[on_next], sigma[src[on_next]])
            levels.append(np.unique(fresh))
        delta = np.zeros(n)
        for depth in range(len(levels) - 1, 0, -1):
            frontier = levels[depth]
            if frontier.size == 0:
                continue
            src, nbrs = _frontier_neighbors(indptr, indices, frontier)
            up = dist[nbrs] == depth - 1
            if up.any():
                coeff = (1.0 + delta[src[up]]) / sigma[src[up]]
                np.add.at(delta, nbrs[up], sigma[nbrs[up]] * coeff)
        bc += delta
        bc[s] -= delta[s]
    return bc


# ----------------------------------------------------------------------
# Peeling kernels
# ----------------------------------------------------------------------
def core_numbers_vector(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """K-core numbers by level-synchronous bucket peeling.

    Instead of removing one minimum-degree vertex at a time, every
    vertex at or below the current level peels in one batch; the batch's
    surviving neighbours take their degree decrements from one
    ``np.add.at`` scatter and are the only candidates for the next
    batch — cascade rounds touch O(frontier edges), not O(n), so long
    peel chains stay linear overall.  Core numbers are
    peel-order-independent, so the output matches the naive
    Batagelj–Zaversnik peel exactly.
    """
    n = len(indptr) - 1
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    deg = np.diff(indptr).astype(np.int64)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining:
        k = max(k, int(deg[alive].min()))
        peel = np.flatnonzero(alive & (deg <= k))
        while peel.size:
            core[peel] = k
            alive[peel] = False
            remaining -= len(peel)
            __, nbrs = _frontier_neighbors(indptr, indices, peel)
            nbrs = nbrs[alive[nbrs]]
            if nbrs.size == 0:
                break
            np.add.at(deg, nbrs, -1)
            # Only vertices that just lost degree can newly fall to <= k.
            candidates = np.unique(nbrs)
            peel = candidates[deg[candidates] <= k]
    return core


def _alive_row(
    indptr: np.ndarray,
    indices: np.ndarray,
    slot_eid: np.ndarray,
    alive_slot: np.ndarray,
    v: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Surviving neighbours of ``v`` and the edge id of each slot."""
    lo, hi = int(indptr[v]), int(indptr[v + 1])
    keep = alive_slot[lo:hi]
    return indices[lo:hi][keep], slot_eid[lo:hi][keep]


def truss_numbers_vector(
    indptr: np.ndarray,
    indices: np.ndarray,
    support: Optional[np.ndarray] = None,
) -> np.ndarray:
    """K-truss numbers by level-synchronous support peeling.

    All edges at or below the current support level peel as one batch
    against a *pre-batch* adjacency snapshot.  A triangle that loses
    ``t`` of its three edges to the batch is rediscovered once from each
    of them, so every rediscovery contributes ``6 // t`` sixths to the
    surviving edges' decrement tally — integer-exact accounting that
    charges each dying triangle to each survivor exactly once, the same
    net effect as the naive one-edge-at-a-time peel.  Cascade rounds
    re-examine only the edges whose support was just decremented, so
    long peel chains stay proportional to the triangles they destroy.
    Truss numbers are peel-order-independent, so the output matches
    naive exactly.

    ``support`` is the initial triangle count per dense edge id —
    :func:`repro.measures.triangles.edge_supports` precomputed by the
    caller; omit it to have the kernel derive it here.
    """
    n = len(indptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    fwd = src < indices
    m = int(fwd.sum())
    if m == 0:
        return np.zeros(0, dtype=np.int64)
    pairs = np.column_stack([src[fwd], indices[fwd]])
    # Row-major CSR with sorted rows makes the canonical keys sorted,
    # so every slot's dense edge id is one searchsorted away.
    canon = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    lo = np.minimum(src, indices)
    hi = np.maximum(src, indices)
    slot_eid = np.searchsorted(canon, lo * np.int64(n) + hi)
    # Each edge owns exactly two slots (one per direction).
    edge_slots = np.argsort(slot_eid, kind="stable").reshape(m, 2)

    alive_slot = np.ones(len(indices), dtype=bool)
    alive_edge = np.ones(m, dtype=bool)
    if support is not None:
        sup = np.array(support, dtype=np.int64)
    else:
        sup = np.zeros(m, dtype=np.int64)
        for eid in range(m):
            u, v = int(pairs[eid, 0]), int(pairs[eid, 1])
            a = indices[indptr[u]: indptr[u + 1]]
            b = indices[indptr[v]: indptr[v + 1]]
            if len(a) > len(b):
                a, b = b, a
            sup[eid] = len(np.intersect1d(a, b, assume_unique=True))

    truss = np.zeros(m, dtype=np.int64)
    in_batch = np.zeros(m, dtype=bool)
    dec6 = np.zeros(m, dtype=np.int64)
    remaining = m
    k = 0
    while remaining:
        k = max(k, int(sup[alive_edge].min()))
        batch = np.flatnonzero(alive_edge & (sup <= k))
        while batch.size:
            truss[batch] = k
            alive_edge[batch] = False
            remaining -= len(batch)
            in_batch[batch] = True
            touched = []
            for eid in batch.tolist():
                u, v = int(pairs[eid, 0]), int(pairs[eid, 1])
                nbr_u, eid_u = _alive_row(indptr, indices, slot_eid, alive_slot, u)
                nbr_v, eid_v = _alive_row(indptr, indices, slot_eid, alive_slot, v)
                common, iu, iv = np.intersect1d(
                    nbr_u, nbr_v, assume_unique=True, return_indices=True
                )
                if not len(common):
                    continue
                f1 = eid_u[iu]
                f2 = eid_v[iv]
                weight = 6 // (1 + in_batch[f1] + in_batch[f2])
                live1 = ~in_batch[f1]
                live2 = ~in_batch[f2]
                np.add.at(dec6, f1[live1], weight[live1])
                np.add.at(dec6, f2[live2], weight[live2])
                touched.append(f1[live1])
                touched.append(f2[live2])
            alive_slot[edge_slots[batch].ravel()] = False
            in_batch[batch] = False
            if touched:
                hit = np.unique(np.concatenate(touched))
                sup[hit] -= dec6[hit] // 6
                dec6[hit] = 0
                batch = hit[sup[hit] <= k]
            else:
                batch = np.empty(0, dtype=np.int64)
    return truss
