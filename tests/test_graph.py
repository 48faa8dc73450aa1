"""HNSW graph build, GGNN-style search, and the priority cache."""

import heapq
import math

import numpy as np
import pytest

from repro.ann import brute_force_knn, recall_at_k
from repro.datasets import load_dataset
from repro.errors import BuildError
from repro.graph import HnswGraph, PriorityCache, build_hnsw, search
from repro.graph.hnsw import (
    CERTIFIED_NORMS,
    GRAPH_METRICS,
    METRIC_ANGULAR,
    METRIC_EUCLID,
    ROW_EXACT_METRICS,
    GraphDistances,
    angular_error_bound,
    batch_distances,
)
from repro.graph.search import GraphSearchStats
from repro.kernels import get_backend
from repro.metrics.transforms import METRIC_L1, METRIC_LINF
from repro.search import HnswIndex


def random_points(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)).astype(np.float32)


class TestPriorityCache:
    def test_push_pop_ordering(self):
        cache = PriorityCache(k=2, ef=4)
        for dist, node in [(3.0, 3), (1.0, 1), (2.0, 2)]:
            cache.push(dist, node)
        assert cache.pop_nearest() == (1.0, 1)
        assert cache.pop_nearest() == (2.0, 2)

    def test_results_best_k(self):
        cache = PriorityCache(k=2, ef=4)
        for dist, node in [(5.0, 5), (1.0, 1), (3.0, 3), (2.0, 2)]:
            cache.push(dist, node)
        assert cache.results() == [(1, 1.0), (2, 2.0)]

    def test_bounded_rejects_far_candidates(self):
        cache = PriorityCache(k=1, ef=2)
        cache.push(1.0, 1)
        cache.push(2.0, 2)
        cache.push(50.0, 50)  # beyond the worst of a full best-list
        assert all(node != 50 for node, _d in cache.results())

    def test_visited_filter(self):
        cache = PriorityCache(k=1, ef=2)
        assert cache.mark_visited(7)
        assert not cache.mark_visited(7)
        assert cache.is_visited(7)
        assert not cache.is_visited(8)

    def test_termination_rule(self):
        cache = PriorityCache(k=1, ef=1)
        cache.push(1.0, 1)
        cache.push(0.5, 2)
        first = cache.pop_nearest()
        assert first == (0.5, 2)
        # The remaining frontier entry (1.0) is no better than the best:
        # search terminates.
        assert cache.pop_nearest() is None

    def test_op_counts(self):
        cache = PriorityCache(k=1, ef=2)
        cache.push(1.0, 1)
        cache.mark_visited(1)
        cache.pop_nearest()
        assert cache.counts.total() >= 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityCache(k=0, ef=1)
        with pytest.raises(ValueError):
            PriorityCache(k=4, ef=2)


class TestBatchDistances:
    def test_euclid_matches_numpy(self):
        points = random_points(50, 16)
        q = points[0] + 0.1
        dists = batch_distances(q, points, METRIC_EUCLID)
        expected = np.sum((points - q) ** 2, axis=1)
        np.testing.assert_allclose(dists, expected, rtol=1e-4)

    def test_angular_range(self):
        points = random_points(50, 16, seed=1)
        dists = batch_distances(points[0], points, METRIC_ANGULAR)
        assert np.all(dists >= -1e-5) and np.all(dists <= 2.0 + 1e-5)
        assert dists[0] == pytest.approx(0.0, abs=1e-5)

    def test_unknown_metric(self):
        with pytest.raises(BuildError):
            batch_distances(np.zeros(4), np.zeros((2, 4)), "manhattan")


class TestBuild:
    def test_structure_valid(self):
        graph = build_hnsw(random_points(400, 8), m=8, ef_construction=24)
        graph.validate()
        assert graph.num_points == 400

    def test_layer_zero_complete(self):
        graph = build_hnsw(random_points(200, 4), m=6, ef_construction=16)
        assert len(graph.layers[0]) == 200

    def test_degrees_bounded(self):
        graph = build_hnsw(random_points(300, 8), m=8, ef_construction=24)
        for layer_index, layer in enumerate(graph.layers):
            cap = 16 if layer_index == 0 else 8
            for node, nbrs in layer.items():
                assert len(nbrs) <= cap, (layer_index, node)

    def test_validation_errors(self):
        with pytest.raises(BuildError):
            build_hnsw(np.empty((0, 4)))
        with pytest.raises(BuildError):
            build_hnsw(random_points(10, 4), m=1)
        with pytest.raises(BuildError):
            build_hnsw(random_points(10, 4), m=8, ef_construction=4)

    def test_deterministic(self):
        a = build_hnsw(random_points(100, 4), m=4, ef_construction=8, seed=3)
        b = build_hnsw(random_points(100, 4), m=4, ef_construction=8, seed=3)
        _assert_same_graph(a, b)

    @pytest.mark.parametrize("layer_index,cap", [(0, 8), (1, 4)])
    def test_validate_rejects_degree_overflow(self, layer_index, cap):
        graph = build_hnsw(random_points(400, 6), m=4, ef_construction=16)
        layer = graph.layers[layer_index]
        node = next(iter(layer))
        others = [n for n in layer if n != node]
        layer[node] = others[:cap]
        graph.validate()  # at the cap is fine
        layer[node] = others[: cap + 1]
        with pytest.raises(BuildError, match=f"cap of {cap}"):
            graph.validate()

    def test_non_finite_points_rejected(self):
        points = random_points(20, 4)
        points[3, 1] = np.nan
        with pytest.raises(BuildError, match="finite"):
            build_hnsw(points, m=4, ef_construction=8)


# ---------------------------------------------------------------------------
# Frozen oracle: the build as it was before distances were resolved once
# per graph and row-exact prunes read stored distances.  The current build
# must reproduce its graphs bit for bit.
# ---------------------------------------------------------------------------


def _reference_batch_distances(query, candidates, metric, calls):
    calls[0] += 1
    q = query.astype(np.float32, copy=False)
    c = candidates.astype(np.float32, copy=False)
    if metric == METRIC_EUCLID:
        return get_backend().sq_l2_f32(c, q)
    if metric == METRIC_ANGULAR:
        dot = c @ q
        norms = np.sqrt(np.sum(c * c, axis=1, dtype=np.float32))
        q_norm = np.float32(math.sqrt(float(np.sum(q * q, dtype=np.float64))))
        denom = norms * q_norm
        denom[denom == 0.0] = np.float32(1.0)
        return np.float32(1.0) - dot / denom
    if metric in (METRIC_L1, METRIC_LINF):
        block = np.ascontiguousarray(c)
        width = block.shape[1]
        if metric == METRIC_L1:
            return get_backend().l1_beats(q, block, width)
        return get_backend().linf_beats(q, block, width)
    raise BuildError(f"unknown metric {metric!r}")


def _reference_search_layer(graph, query, entry, entry_dist, layer, ef, calls):
    visited = {entry}
    frontier = [(entry_dist, entry)]
    best = [(-entry_dist, entry)]
    while frontier:
        dist, node = heapq.heappop(frontier)
        if dist > -best[0][0] and len(best) >= ef:
            break
        nbrs = [n for n in graph.neighbors(layer, node) if n not in visited]
        if not nbrs:
            continue
        visited.update(nbrs)
        dists = _reference_batch_distances(
            query, graph.points[nbrs], graph.metric, calls
        )
        for nbr_dist, nbr in zip(dists, nbrs):
            nbr_dist = float(nbr_dist)
            if len(best) < ef:
                heapq.heappush(best, (-nbr_dist, nbr))
                heapq.heappush(frontier, (nbr_dist, nbr))
            elif nbr_dist < -best[0][0]:
                heapq.heapreplace(best, (-nbr_dist, nbr))
                heapq.heappush(frontier, (nbr_dist, nbr))
    return sorted((-negd, node) for negd, node in best)


def _reference_build_hnsw(points, m, ef_construction, metric, seed):
    """Returns ``(graph, kernel calls)``."""
    calls = [0]
    points = np.ascontiguousarray(points, dtype=np.float32)
    count = points.shape[0]
    rng = np.random.default_rng(seed)
    level_scale = 1.0 / math.log(m)
    max_layers = max(1, int(math.log(max(count, 2)) * level_scale) + 1)
    node_levels = np.minimum(
        (-np.log(rng.uniform(size=count) + 1e-12) * level_scale).astype(np.int32),
        max_layers - 1,
    )
    graph = HnswGraph(
        points=points,
        metric=metric,
        m=m,
        layers=[{} for _ in range(int(node_levels.max()) + 1)],
        node_max_layer=node_levels,
    )

    def degree_cap(layer):
        return 2 * m if layer == 0 else m

    def connect(layer, node, candidates):
        chosen = [nbr for _dist, nbr in candidates[: degree_cap(layer)]]
        graph.layers[layer][node] = chosen
        for nbr in chosen:
            back = graph.layers[layer].setdefault(nbr, [])
            if node not in back:
                back.append(node)
                if len(back) > degree_cap(layer):
                    dists = _reference_batch_distances(
                        points[nbr], points[back], metric, calls
                    )
                    back.pop(int(np.argmax(dists)))

    first_level = int(node_levels[0])
    graph.entry_point = 0
    for layer in range(first_level + 1):
        graph.layers[layer][0] = []
    entry_level = first_level
    for node in range(1, count):
        query = points[node]
        level = int(node_levels[node])
        entry = graph.entry_point
        entry_dist = float(_reference_batch_distances(
            query, points[entry : entry + 1], metric, calls
        )[0])
        for layer in range(entry_level, level, -1):
            improved = True
            while improved:
                improved = False
                nbrs = graph.neighbors(layer, entry)
                if not nbrs:
                    break
                dists = _reference_batch_distances(
                    query, points[nbrs], metric, calls
                )
                best = int(np.argmin(dists))
                if float(dists[best]) < entry_dist:
                    entry_dist = float(dists[best])
                    entry = nbrs[best]
                    improved = True
        for layer in range(min(level, entry_level), -1, -1):
            candidates = _reference_search_layer(
                graph, query, entry, entry_dist, layer, ef_construction, calls
            )
            connect(layer, node, candidates)
            entry_dist, entry = candidates[0]
        if level > entry_level:
            for layer in range(entry_level + 1, level + 1):
                graph.layers[layer][node] = []
            graph.entry_point = node
            entry_level = level
    return graph, calls[0]


def _assert_same_graph(got, want):
    assert got.layers == want.layers
    assert got.entry_point == want.entry_point
    assert np.array_equal(got.node_max_layer, want.node_max_layer)
    assert got.node_max_layer.dtype == want.node_max_layer.dtype


def _check_against_oracle(points, m, ef_construction, metric, seed):
    got = build_hnsw(points, m=m, ef_construction=ef_construction,
                     metric=metric, seed=seed)
    want, want_calls = _reference_build_hnsw(
        points, m, ef_construction, metric, seed
    )
    got.validate()
    want.validate()
    _assert_same_graph(got, want)
    counters = got.build_counters
    assert counters["build_prunes_reused"] + counters[
        "build_prunes_fallback"
    ] == counters["build_prunes"]
    if metric in ROW_EXACT_METRICS:
        # Every prune read stored distances instead of calling the kernel.
        assert counters["build_prunes_fallback"] == 0
    # Every other call is one the oracle made too.
    assert counters["build_kernel_calls"] == (
        want_calls - counters["build_prunes_reused"]
    )
    return got


def _with_zero_rows(points, every=7):
    points = points.copy()
    points[::every] = 0.0
    return points


class TestBuildMatchesOracle:
    @pytest.mark.parametrize("metric", GRAPH_METRICS)
    @pytest.mark.parametrize(
        "seed,m,ef_construction", [(0, 4, 8), (1, 6, 24), (2, 12, 48)]
    )
    def test_random_points(self, metric, seed, m, ef_construction):
        points = random_points(240, 8, seed=seed)
        _check_against_oracle(points, m, ef_construction, metric, seed)

    @pytest.mark.parametrize("metric", GRAPH_METRICS)
    def test_duplicate_points(self, metric):
        # Exact distance ties: the prune's first-index argmax decides.
        rng = np.random.default_rng(5)
        points = np.repeat(rng.normal(size=(40, 6)), 5, axis=0)
        points = points.astype(np.float32)
        graph = _check_against_oracle(points, 4, 12, metric, 4)
        assert graph.build_counters["build_prunes"] > 0

    @pytest.mark.parametrize("metric", GRAPH_METRICS)
    def test_zero_rows(self, metric):
        # Angular's zero-denominator fix-up, for queries and candidates.
        points = _with_zero_rows(random_points(200, 8, seed=6))
        _check_against_oracle(points, 6, 16, metric, 6)

    def test_float64_input(self):
        points = np.random.default_rng(7).normal(size=(150, 10))
        for metric in GRAPH_METRICS:
            _check_against_oracle(points, 5, 20, metric, 7)

    def test_scaled_duplicates_fall_back(self):
        # Copies of one direction at several magnitudes tie exactly in
        # angle, but their float32 distances differ in the last bits: the
        # stored values cannot certify those prunes, so they recompute.
        rng = np.random.default_rng(11)
        directions = rng.normal(size=(30, 8))
        scales = np.array([1.0, 1.0 + 2.0**-20, 2.0, 3.0])
        points = (directions[:, None, :] * scales[None, :, None]).reshape(
            -1, 8
        )
        graph = _check_against_oracle(points, 4, 12, METRIC_ANGULAR, 11)
        assert graph.build_counters["build_prunes_fallback"] > 0

    @pytest.mark.parametrize("scale", [1e-21, 1e21])
    def test_uncertified_norms_fall_back(self, scale):
        # Squares underflow in float32: the error bound does not hold, so
        # no prune may trust the stored distances.  Squares that overflow
        # would make every distance inf or NaN, so the build refuses them.
        points = random_points(150, 8, seed=12) * np.float32(scale)
        if scale > 1:
            for metric in (METRIC_ANGULAR, METRIC_EUCLID):
                with pytest.raises(BuildError, match="overflow"):
                    build_hnsw(points, m=4, ef_construction=12,
                               metric=metric, seed=12)
            return
        with np.errstate(over="ignore", invalid="ignore"):
            helper = GraphDistances(points, METRIC_ANGULAR)
            graph = _check_against_oracle(points, 4, 12, METRIC_ANGULAR, 12)
        low, high = CERTIFIED_NORMS
        assert np.all((helper.norms < low) | (helper.norms > high))
        counters = graph.build_counters
        assert counters["build_prunes"] > 0
        assert counters["build_prunes_reused"] == 0

    def test_some_uncertified_norms(self):
        # Only prunes whose lists touch a tiny row fall back.
        points = random_points(240, 8, seed=13)
        points[::9] *= np.float32(1e-21)
        graph = _check_against_oracle(points, 6, 16, METRIC_ANGULAR, 13)
        counters = graph.build_counters
        assert 0 < counters["build_prunes_fallback"] < counters["build_prunes"]

    @pytest.mark.parametrize(
        "abbr,scale,metric",
        [("S10K", 0.25, METRIC_EUCLID), ("LFM", 0.1, METRIC_ANGULAR)],
    )
    def test_paper_datasets(self, abbr, scale, metric):
        points = load_dataset(abbr, scale=scale, seed=0).points
        _check_against_oracle(points, 12, 48, metric, 0)


class TestGraphDistances:
    def test_build_hands_its_norms_to_search(self):
        points = _with_zero_rows(random_points(120, 8, seed=9))
        graph = build_hnsw(points, m=6, ef_construction=16,
                           metric=METRIC_ANGULAR)
        helper = graph.distances()
        assert helper is graph.distances()
        assert helper.norms.dtype == np.float32
        assert helper.norms.shape == (120,)
        assert np.all(helper.norms[::7] == 0.0)
        assert np.all(helper.norms[1::7] > 0.0)

    @pytest.mark.parametrize("metric", GRAPH_METRICS)
    def test_bound_kernel_matches_batch_distances(self, metric):
        points = _with_zero_rows(random_points(60, 8, seed=10))
        helper = build_hnsw(points, m=4, ef_construction=8,
                            metric=metric).distances()
        dist = helper.bind(get_backend())
        ids = [5, 0, 17, 3, 59, 21]
        for query in (points[3], points[7], points[11] + 0.5):
            got = dist(query, helper.query_norm(query), ids)
            want = batch_distances(query, points[ids], metric)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()
            one = dist(query, helper.query_norm(query), slice(4, 5))
            assert one.tobytes() == batch_distances(
                query, points[4:5], metric
            ).tobytes()


class TestBuildCounters:
    def test_euclid_reuses_every_prune(self):
        index = HnswIndex(m=6, ef_construction=24, seed=1)
        before = index.stats()
        assert before["build_kernel_calls"] == before["build_prunes"] == 0
        assert before["build_prunes_fallback"] == 0
        shape = index.build(random_points(300, 8, seed=8)).stats()
        assert shape["build_prunes"] > 0
        assert shape["build_prunes_reused"] == shape["build_prunes"]
        assert shape["build_prunes_fallback"] == 0
        assert shape["build_kernel_calls"] > 0

    @pytest.mark.parametrize("metric", [METRIC_ANGULAR, "cosine"])
    def test_angular_reuses_most_prunes(self, metric):
        index = HnswIndex(m=6, ef_construction=24, metric=metric, seed=1)
        shape = index.build(random_points(300, 8, seed=8)).stats()
        assert shape["build_prunes"] > 0
        assert shape["build_prunes_reused"] + shape[
            "build_prunes_fallback"
        ] == shape["build_prunes"]
        assert shape["build_prunes_reused"] > 0.9 * shape["build_prunes"]
        assert shape["build_kernel_calls"] > 0


def _exact_angular(query, rows):
    """``1 - cos`` of float32 inputs, in float64 with ``math.fsum``."""
    q = [float(x) for x in query]
    q_norm = math.sqrt(math.fsum(x * x for x in q))
    out = []
    for row in rows:
        r = [float(x) for x in row]
        dot = math.fsum(a * b for a, b in zip(q, r))
        norm = math.sqrt(math.fsum(x * x for x in r))
        out.append(1.0 - dot / (norm * q_norm))
    return np.array(out)


class TestAngularErrorBound:
    def test_formula(self):
        assert angular_error_bound(96) == 2 * 100 * 2.0**-24

    @pytest.mark.parametrize("dim", [2, 8, 65, 96, 200, 256, 960])
    def test_bound_holds(self, dim):
        # Call shapes of the build and search: one row (the entry point),
        # short neighbor lists and full beams.  Half the rows are shifted
        # towards row 0, so some pairs are nearly parallel.
        rng = np.random.default_rng(dim)
        points = rng.normal(size=(300, dim)).astype(np.float32)
        points[150:] += np.float32(3.0) * points[0]
        helper = GraphDistances(points, METRIC_ANGULAR)
        dist = helper.bind(get_backend())
        tau = angular_error_bound(dim)
        worst = 0.0
        for trial in range(40):
            query = points[rng.integers(300)]
            size = (1, 2, 7, 16, 25, 33, 48)[trial % 7]
            ids = rng.choice(300, size=size, replace=False).tolist()
            got = dist(query, helper.query_norm(query), ids)
            exact = _exact_angular(query, points[ids])
            worst = max(worst, float(np.max(np.abs(got - exact))))
            one_shot = batch_distances(query, points[ids], METRIC_ANGULAR)
            assert one_shot.tobytes() == got.tobytes()
        assert worst <= tau


class TestSearch:
    def test_recall_reasonable(self):
        points = random_points(800, 16, seed=2)
        graph = build_hnsw(points, m=12, ef_construction=48)
        queries = points[:20] + 0.01
        found = [[n for n, _ in search(graph, q, k=10, ef=48)] for q in queries]
        truth = brute_force_knn(points, queries, 10)
        assert recall_at_k(found, truth) >= 0.8

    def test_angular_metric(self):
        points = random_points(400, 24, seed=3)
        graph = build_hnsw(points, m=8, ef_construction=32,
                           metric=METRIC_ANGULAR)
        results = search(graph, points[5], k=5, ef=32)
        assert results[0][0] == 5  # the point itself is its own nearest
        assert results[0][1] == pytest.approx(0.0, abs=1e-5)

    def test_results_sorted(self):
        points = random_points(300, 8, seed=4)
        graph = build_hnsw(points, m=8, ef_construction=24)
        results = search(graph, points[0], k=8, ef=24)
        dists = [d for _n, d in results]
        assert dists == sorted(dists)

    def test_stats_and_events(self):
        points = random_points(300, 8, seed=5)
        graph = build_hnsw(points, m=8, ef_construction=24)
        stats = GraphSearchStats(record_events=True)
        search(graph, points[1], k=5, ef=16, stats=stats)
        assert stats.dist_tests > 0
        assert stats.nodes_expanded > 0
        assert stats.queue_ops > 0
        kinds = {kind for kind, _i, _p in stats.events}
        assert {"dist", "visit", "queue"} <= kinds
        # Event-counted distances match the counter.
        assert stats.dist_tests == sum(
            1 for kind, _i, _p in stats.events if kind == "dist"
        )
