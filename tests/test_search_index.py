"""The ``repro.search`` package: protocol conformance and adapter
equivalence with the structure-specific modules they wrap."""

import numpy as np
import pytest

from repro.bvh.lbvh import build_lbvh_for_points
from repro.bvh.traversal import TraversalStats, radius_search
from repro.errors import BuildError
from repro.graph.hnsw import build_hnsw
from repro.graph.search import GraphSearchStats, search
from repro.kdtree.build import build_kdtree
from repro.kdtree.search import KdSearchStats, knn_search
from repro.search import (
    BvhRadiusIndex,
    HnswIndex,
    KdTreeIndex,
    QuerySpec,
    SearchIndex,
)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.random((256, 3))


@pytest.fixture(scope="module")
def queries(points):
    rng = np.random.default_rng(8)
    picks = rng.choice(points.shape[0], size=16)
    return points[picks] + rng.normal(scale=0.01, size=(16, 3))


class TestProtocol:
    def test_adapters_satisfy_the_protocol(self):
        for adapter in (BvhRadiusIndex(), KdTreeIndex(), HnswIndex()):
            assert isinstance(adapter, SearchIndex)

    def test_query_before_build_is_an_error(self, queries):
        for adapter in (BvhRadiusIndex(), KdTreeIndex(), HnswIndex()):
            with pytest.raises(BuildError):
                adapter.query(queries[0])

    def test_bad_bvh_parameters_rejected(self):
        with pytest.raises(BuildError):
            BvhRadiusIndex(builder="octree")
        with pytest.raises(BuildError):
            BvhRadiusIndex(arity=3)


class TestBvhAdapter:
    def test_matches_direct_radius_search(self, points, queries):
        radius = 0.05
        index = BvhRadiusIndex().build(points, radius)
        bvh = build_lbvh_for_points(points, radius)
        for q in queries:
            stats = TraversalStats(record_events=True)
            direct = radius_search(bvh, points, q, radius, stats=stats)
            assert index.query(q, record_events=True) == direct
            assert index.last_events == stats.events
        shape = index.stats()
        assert shape["structure"] == "bvh"
        assert shape["queries"] == len(queries)
        assert shape["num_nodes"] == index.num_nodes > 0
        assert index.node_arity == 2
        assert np.array_equal(index.prim_indices, bvh.prim_indices)


class TestKdTreeAdapter:
    def test_matches_direct_knn_search(self, points, queries):
        index = KdTreeIndex(leaf_size=8).build(points)
        tree = build_kdtree(points, leaf_size=8)
        for q in queries:
            stats = KdSearchStats(record_events=True)
            direct = knn_search(tree, q, k=5, max_checks=64, stats=stats)
            assert index.query(q, spec=QuerySpec(k=5, max_checks=64),
                               record_events=True) == direct
            assert index.last_events == stats.events
        shape = index.stats()
        assert shape["structure"] == "kdtree"
        assert shape["dist_tests"] > 0
        assert index.num_points == points.shape[0]
        assert np.array_equal(index.point_indices, tree.point_indices)


class TestHnswAdapter:
    def test_matches_direct_graph_search(self, points, queries):
        index = HnswIndex(m=8, ef_construction=32, seed=3).build(points)
        graph = build_hnsw(points, m=8, ef_construction=32, seed=3)
        for q in queries:
            stats = GraphSearchStats(record_events=True)
            direct = search(graph, q, k=5, ef=16, stats=stats)
            assert index.query(
                q, spec=QuerySpec(k=5, ef=16), record_events=True
            ) == direct
            assert index.last_events == stats.events
        shape = index.stats()
        assert shape["structure"] == "hnsw"
        assert shape["nodes_expanded"] > 0
        assert index.num_points == points.shape[0]
