"""Property: vector rasterization ≡ naive level-major painting.

Both backends paint the same canonical order (level-major, node id
within a level, full discs before sub-pixel stamps), so height and node
grids must be byte-identical — the point-stamp batching in particular
must reproduce the sequential compare-and-set winner per cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.raster import forest_depths, stamp_points
from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.core.super_tree import SuperTree
from repro.engine import ArtifactCache, DatasetSource, Pipeline
from repro.graph.builders import from_edge_array
from repro.terrain import layout_tree, rasterize
from repro.terrain.layout2d import TerrainLayout

from accel_strategies import scalar_fields


@settings(max_examples=30, deadline=None)
@given(scalar_fields(), st.sampled_from([16, 40, 96]))
def test_rasterize_identical_across_backends(field, resolution):
    graph, scalars = field
    tree = build_super_tree(build_vertex_tree(ScalarGraph(graph, scalars)))
    layout = layout_tree(tree)
    naive = rasterize(layout, resolution=resolution, backend="naive")
    vector = rasterize(layout, resolution=resolution, backend="vector")
    assert np.array_equal(naive.height, vector.height)
    assert np.array_equal(naive.node, vector.node)
    assert naive.extent == vector.extent
    assert naive.base == vector.base


def test_star_of_point_leaves_identical():
    """A star graph maximizes sub-pixel leaf discs — the batched-stamp
    hot path — at a resolution coarse enough that leaves collide."""
    n = 120
    pairs = np.array([(0, i) for i in range(1, n)], dtype=np.int64)
    graph = from_edge_array(pairs, n_vertices=n)
    rng = np.random.default_rng(0)
    scalars = np.concatenate([[0.0], rng.integers(1, 4, n - 1)]).astype(float)
    tree = build_super_tree(build_vertex_tree(ScalarGraph(graph, scalars)))
    _assert_backends_agree(layout_tree(tree), (8, 16, 64))


def _assert_backends_agree(layout, resolutions):
    for resolution in resolutions:
        naive = rasterize(layout, resolution=resolution, backend="naive")
        vector = rasterize(layout, resolution=resolution, backend="vector")
        assert np.array_equal(naive.height, vector.height)
        assert np.array_equal(naive.node, vector.node)
        assert naive.base == vector.base


def test_chain_tree_identical():
    """A path with monotone scalars is one chain of sub-pixel levels:
    the vector path stamps long runs spanning many levels at once."""
    n = 400
    pairs = np.array([(i, i + 1) for i in range(n - 1)], dtype=np.int64)
    graph = from_edge_array(pairs, n_vertices=n)
    scalars = np.arange(n, dtype=np.float64)
    tree = build_super_tree(build_vertex_tree(ScalarGraph(graph, scalars)))
    assert forest_depths(tree.parent).max() == n - 1
    _assert_backends_agree(layout_tree(tree), (8, 64, 256))


def test_deep_pagerank_tree_identical():
    """grqc's pagerank display tree is near-chain (1,503 nodes, 1,228
    levels deep) with full discs breaking the stamp runs."""
    pipeline = Pipeline(DatasetSource("grqc"), "pagerank", cache=ArtifactCache())
    layout = pipeline.layout()
    assert layout.tree.n_nodes == 1503
    assert forest_depths(layout.tree.parent).max() == 1228
    _assert_backends_agree(layout, (64, 160, 256))


def test_stamp_run_ends_before_a_deeper_disc():
    """A tall sub-pixel leaf at depth 1 lies under a full disc at depth
    2 of another branch: its stamp must land before that disc paints,
    so the deeper boundary owns the cell."""
    tree = SuperTree(
        scalars=[0.0, 10.0, 1.0, 2.0],
        parent=[-1, 0, 0, 2],
        members=[[0], [1], [2], [3]],
    )
    layout = TerrainLayout(
        tree, cx=[0.0, 0.05, 0.0, 0.0], cy=[0.0, 0.05, 0.0, 0.0],
        r=[1.0, 1e-4, 0.6, 0.5],
    )
    for backend in ("naive", "vector"):
        field = rasterize(layout, resolution=16, backend=backend)
        assert field.node[field.world_to_grid(0.05, 0.05)] == 3, backend
    _assert_backends_agree(layout, (8, 16, 64))


def _walk_depths(parent):
    depth = []
    for v in range(len(parent)):
        d = 0
        while parent[v] >= 0:
            v = parent[v]
            d += 1
        depth.append(d)
    return depth


@st.composite
def forests(draw):
    """Parent arrays of random forests: every node's parent has a
    smaller rank in a random permutation, so there is no cycle."""
    n = draw(st.integers(min_value=1, max_value=200))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    rank = rng.permutation(n)
    by_rank = np.argsort(rank)
    parent = np.full(n, -1, dtype=np.int64)
    chainy = draw(st.booleans())
    for r in range(1, n):
        if rng.random() < 0.1:
            continue
        up = r - 1 if chainy else int(rng.integers(0, r))
        parent[by_rank[r]] = by_rank[up]
    return parent


class TestForestDepths:
    def test_chain_and_forest(self):
        parent = np.array([-1, 0, 1, -1, 3, 3])
        assert np.array_equal(forest_depths(parent), [0, 1, 2, 0, 1, 1])

    @settings(max_examples=60, deadline=None)
    @given(forests())
    def test_matches_per_node_walk(self, parent):
        assert forest_depths(parent).tolist() == _walk_depths(parent)

    def test_long_chain(self):
        n = 5000
        parent = np.arange(-1, n - 1)
        assert np.array_equal(forest_depths(parent), np.arange(n))

    def test_cycle_rejected(self):
        with np.testing.assert_raises(ValueError):
            forest_depths(np.array([1, 0]))

    @pytest.mark.parametrize(
        "parent",
        [[0], [-1, 2, 1], [-1, 0, 3, 4, 2], [-1, 0, 1, 3]],
        ids=["self-parent", "under-non-root", "3-cycle", "self-parent-deep"],
    )
    def test_cycles_rejected(self, parent):
        with pytest.raises(ValueError):
            forest_depths(np.array(parent))

    def test_empty(self):
        assert len(forest_depths(np.zeros(0, dtype=np.int64))) == 0


class TestStampPoints:
    def _grids(self):
        height = np.zeros((4, 4))
        node = np.full((4, 4), -1, dtype=np.int64)
        return height, node

    def test_highest_scalar_wins(self):
        height, node = self._grids()
        stamp_points(
            height, node,
            rows=np.array([1, 1, 1]), cols=np.array([2, 2, 2]),
            ids=np.array([7, 8, 9]),
            scalars=np.array([5.0, 9.0, 3.0]),
        )
        assert height[1, 2] == 9.0 and node[1, 2] == 8

    def test_tie_goes_to_latest(self):
        height, node = self._grids()
        stamp_points(
            height, node,
            rows=np.array([0, 0]), cols=np.array([0, 0]),
            ids=np.array([3, 4]), scalars=np.array([2.0, 2.0]),
        )
        assert node[0, 0] == 4

    def test_below_standing_height_skipped(self):
        height, node = self._grids()
        height[2, 2] = 10.0
        node[2, 2] = 99
        stamp_points(
            height, node,
            rows=np.array([2]), cols=np.array([2]),
            ids=np.array([1]), scalars=np.array([4.0]),
        )
        assert height[2, 2] == 10.0 and node[2, 2] == 99

    def test_empty_noop(self):
        height, node = self._grids()
        stamp_points(
            height, node,
            rows=np.zeros(0, dtype=np.int64),
            cols=np.zeros(0, dtype=np.int64),
            ids=np.zeros(0, dtype=np.int64),
            scalars=np.zeros(0),
        )
        assert (node == -1).all()
