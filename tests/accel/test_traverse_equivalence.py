"""Property: vector traversal measures ≡ naive per-source/per-item code.

BFS-derived values (harmonic, closeness) must be byte-identical — the
frontier kernel computes the very same integer distances.  Betweenness
sums float dependencies in a different order, so it gets atol=1e-9.
K-core and k-truss are integer vectors and must match exactly.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings

from repro import accel
from repro.accel import native
from repro.measures import core_numbers, truss_numbers
from repro.measures.triangles import edge_supports
from repro.measures.centrality import (
    _bfs_distances,
    betweenness_centrality,
    closeness_centrality,
    harmonic_centrality,
)
from repro.accel import traverse
from repro.serve import StageRunner

from accel_strategies import graphs


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bfs_distances_identical(graph):
    for source in range(0, graph.n_vertices, max(1, graph.n_vertices // 5)):
        naive = _bfs_distances(graph, source)
        vector = traverse.bfs_distances(graph.indptr, graph.indices, source)
        assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_harmonic_identical(graph):
    naive = harmonic_centrality(graph, backend="naive")
    vector = harmonic_centrality(graph, backend="vector")
    assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_closeness_identical(graph):
    naive = closeness_centrality(graph, backend="naive")
    vector = closeness_centrality(graph, backend="vector")
    assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_betweenness_close(graph):
    naive = betweenness_centrality(graph, backend="naive")
    vector = betweenness_centrality(graph, backend="vector")
    assert np.allclose(naive, vector, atol=1e-9, rtol=0)


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_betweenness_sampled_same_pivots(graph):
    naive = betweenness_centrality(graph, samples=7, seed=3, backend="naive")
    vector = betweenness_centrality(graph, samples=7, seed=3, backend="vector")
    assert np.allclose(naive, vector, atol=1e-9, rtol=0)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_core_numbers_identical(graph):
    naive = core_numbers(graph, backend="naive")
    vector = core_numbers(graph, backend="vector")
    assert np.array_equal(naive, vector)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_truss_numbers_identical(graph):
    naive = truss_numbers(graph, backend="naive")
    for backend in ("vector", "native"):
        assert np.array_equal(naive, truss_numbers(graph, backend=backend))


@pytest.mark.skipif(
    not native.available(), reason="native tier unavailable (no C compiler)"
)
@settings(max_examples=40, deadline=None)
@given(graphs())
def test_edge_supports_native_identical(graph):
    naive = edge_supports(graph, backend="naive")
    assert np.array_equal(naive, edge_supports(graph, backend="native"))


def test_auto_without_native_runs_dict_peel(monkeypatch):
    from repro.graph.generators import powerlaw_cluster

    graph = powerlaw_cluster(200, 3, 0.6, seed=5)
    expected = truss_numbers(graph, backend="naive")

    def refuse(*args):
        raise AssertionError("native kernel called while unavailable")

    monkeypatch.setattr(native, "available", lambda: False)
    monkeypatch.setattr(native, "truss_numbers", refuse)
    monkeypatch.setattr(native, "edge_supports", refuse)
    with accel.using("auto"):
        assert np.array_equal(truss_numbers(graph), expected)


@settings(max_examples=15, deadline=None)
@given(graphs())
def test_sources_restriction_matches_full(graph):
    """Partial harmonic over a source subset equals the full vector's
    entries at those sources, on both backends."""
    sources = list(range(0, graph.n_vertices, 2))
    full = harmonic_centrality(graph, backend="vector")
    for backend in ("naive", "vector"):
        part = harmonic_centrality(graph, backend=backend, sources=sources)
        assert np.array_equal(part[sources], full[sources])
        untouched = np.ones(graph.n_vertices, dtype=bool)
        untouched[sources] = False
        assert not part[untouched].any()


def _fan_out_sources(fn, graph, n_chunks=5):
    """Split every vertex into source chunks, run ``fn`` on each chunk
    as its own StageRunner job and sum the full-length partials."""
    chunks = np.array_split(np.arange(graph.n_vertices), n_chunks)

    async def gather(runner):
        return await asyncio.gather(*(
            runner.run(f"chunk-{i}", fn, graph.indptr, graph.indices, chunk)
            for i, chunk in enumerate(chunks)
        ))

    runner = StageRunner(workers=0)
    try:
        parts = asyncio.run(gather(runner))
    finally:
        runner.shutdown()
    return np.sum(parts, axis=0)


class TestRunnerSharding:
    """Multi-source kernels combine by addition over disjoint source
    chunks, so chunks fanned out as separate runner jobs reproduce the
    one inline call."""

    def test_sharded_harmonic_matches_inline(self):
        from repro.graph.generators import powerlaw_cluster

        graph = powerlaw_cluster(300, 2, 0.4, seed=11)
        inline = harmonic_centrality(graph, backend="vector")
        sharded = _fan_out_sources(traverse.harmonic_values, graph)
        assert np.array_equal(inline, sharded)

    def test_sharded_betweenness_matches_inline(self):
        from repro.graph.generators import erdos_renyi

        graph = erdos_renyi(200, 500, seed=4)
        n = graph.n_vertices
        inline = betweenness_centrality(graph, backend="vector")
        sharded = _fan_out_sources(traverse.betweenness_accumulate, graph)
        # The scaling betweenness_centrality applies after accumulating.
        sharded = sharded / 2.0 / ((n - 1) * (n - 2) / 2.0)
        assert np.allclose(inline, sharded, atol=1e-9, rtol=0)
