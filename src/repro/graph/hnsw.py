"""Hierarchical navigable-small-world graph construction.

A from-scratch HNSW build (Malkov & Yashunin) — the layered graph family
GGNN, SONG and CAGRA draw on (Fig. 1; §V-A).  Points receive geometrically
distributed maximum layers; insertion greedily descends from the top layer,
then connects each point to its ``m`` closest neighbors per layer (with
``ef_construction`` beam width), pruning back-links to ``m_max``.

Distances use float32 numpy batch kernels for build speed; the *search* path
(:mod:`repro.graph.search`) is the instrumented one the trace compiler uses.
Both go through one :class:`GraphDistances` per graph: the kernel is
resolved from :mod:`repro.kernels` once per build (once per search call on
the search side) and angular row norms are computed once per graph.  For
every metric the build keeps each adjacency list's distances beside it,
so back-link pruning needs no kernel call: for the row-exact metrics
(euclid, l1, linf) never, for angular whenever the stored distances
certify the argmax (:func:`angular_error_bound`).
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import BuildError
from repro.kernels import get_backend
from repro.metrics.transforms import METRIC_L1, METRIC_LINF

#: Supported distance metrics.
METRIC_EUCLID = "euclid"
METRIC_ANGULAR = "angular"

#: Every metric the graph builds and searches under: the original two
#: plus the Arkade filter metrics (cosine arrives as ``angular`` — the
#: adapter folds the alias, since both mean ``1 - cos(theta)``).
GRAPH_METRICS = (METRIC_EUCLID, METRIC_ANGULAR, METRIC_L1, METRIC_LINF)

#: Metrics whose kernels reduce every candidate row on its own, so a
#: pair's distance has one bit pattern whatever call computes it:
#: ``(a-b)^2 == (b-a)^2`` and ``|a-b| == |b-a|`` in IEEE arithmetic, and
#: each row's float32 reduction does not depend on the other rows.
#: Angular is not among them (see :func:`batch_distances`).
ROW_EXACT_METRICS = (METRIC_EUCLID, METRIC_L1, METRIC_LINF)

#: Build counters :func:`build_hnsw` records in ``HnswGraph.build_counters``.
BUILD_COUNTERS = (
    "build_kernel_calls", "build_prunes", "build_prunes_reused",
    "build_prunes_fallback",
)

#: Angular prunes are certified only when every involved norm lies in this
#: range: no square, product or denominator underflows or overflows
#: (see :func:`angular_error_bound`).
CERTIFIED_NORMS = (2.0**-60, 2.0**60)

#: ``dist(query, query_norm, ids)``: float32 distances from ``query`` to
#: ``points[ids]`` (``ids`` a list, index array or slice); ``query_norm``
#: is :meth:`GraphDistances.query_norm` of the query (``None`` unless angular).
DistanceFn = Callable[[np.ndarray, object, object], np.ndarray]


def _query_norm(query: np.ndarray) -> np.float32:
    """The angular query norm: float32 squares summed in float64."""
    return np.float32(math.sqrt(float(np.sum(query * query, dtype=np.float64))))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The angular candidate norms: per-row float32 sums of squares."""
    return np.sqrt(np.sum(rows * rows, axis=1, dtype=np.float32))


def angular_error_bound(dim: int) -> float:
    """``tau(dim) = 2*(dim+4)*2**-24``: how far a float32 angular distance
    on this code path can be from the exact ``1 - cos(theta)``.

    With ``u = 2**-24`` and ``gamma_n = n*u/(1-n*u)``, for rows ``a`` and
    ``q`` of dimension ``n`` whose norms lie in :data:`CERTIFIED_NORMS`
    (so nothing underflows or overflows):

    * the dot product, in any summation order (BLAS blocking, SIMD lanes,
      FMA), is ``a.q + e`` with ``|e| <= gamma_n * sum|a_i q_i| <=
      gamma_n*|a||q|``;
    * the row norm (float32 squares, float32 sum, float32 sqrt) is
      ``|a|(1+alpha)`` with ``|alpha| <= gamma_n/2 + u``;
    * the query norm (float32 squares summed in float64, sqrt, cast to
      float32) is ``|q|(1+beta)`` with ``|beta| <= 1.5u + n*2**-53``;
    * the denominator product and the divide each round once (``u``), so
      the computed cosine is within ``(1.5n + 4.5)u`` of the exact one,
      to first order;
    * ``1 - cos`` rounds once more, with ``|1 - cos| <= 2``: another
      ``2u``.

    That is ``(1.5n + 6.5)u``; ``tau = (2n + 8)u`` leaves ``(0.5n + 1.5)u``
    for the second-order terms (below ``8*(n*u)**2``, so covered for
    ``n <= 2**20``) and the float64 rounding of a difference of two
    float32 distances.
    Two evaluations of one pair, in either direction, differ by at most
    ``2*tau``; so when the largest of a list's stored distances beats the
    second largest by more than ``4*tau``, a recomputation of the list has
    the same unique argmax.
    """
    return 2.0 * (dim + 4) * 2.0**-24


def _distance_bound(points: np.ndarray, metric: str) -> float:
    """An upper bound, in float64, on any ``metric`` distance between rows
    of ``points``.

    Each coordinate difference is at most ``span = 2 * max|x|``, so a
    squared-L2 distance is at most ``dim * span**2``; the same bound
    covers angular's dot products and norm products (each at most
    ``dim * max|x|**2``).  L1 sums ``dim`` differences and L-inf takes one.
    """
    span = 2.0 * float(np.abs(points).max())
    if metric == METRIC_LINF:
        return span
    if metric == METRIC_L1:
        return points.shape[1] * span
    return points.shape[1] * span * span


#: :func:`build_hnsw` refuses points whose :func:`_distance_bound` exceeds
#: this: half of float32's largest finite value, so the rounding of the
#: float32 partial sums (relative error far below 1) cannot reach inf.
_DISTANCE_LIMIT = float(np.finfo(np.float32).max) / 2


def _angular(dot: np.ndarray, norms: np.ndarray, q_norm) -> np.ndarray:
    """``1 - dot / (norms * q_norm)``, zero denominators read as 1.

    Overwrites ``dot``; every step is elementwise and correctly rounded,
    so doing it in place cannot move a bit.
    """
    denom = norms * q_norm
    if not denom.all():
        denom[denom == 0.0] = np.float32(1.0)
    np.divide(dot, denom, out=dot)
    return np.subtract(np.float32(1.0), dot, out=dot)


def _row_kernel(backend, metric: str, width: int):
    """``kernel(block, query)`` for a row-exact metric on ``backend``."""
    if metric == METRIC_EUCLID:
        return backend.sq_l2_f32
    if metric == METRIC_L1:
        l1 = backend.l1_beats
        return lambda block, q: l1(q, block, width)
    if metric == METRIC_LINF:
        linf = backend.linf_beats
        return lambda block, q: linf(q, block, width)
    raise BuildError(f"unknown metric {metric!r}")


def batch_distances(
    query: np.ndarray, candidates: np.ndarray, metric: str
) -> np.ndarray:
    """Distances from ``query`` to each row of ``candidates`` (float32).

    Euclid returns squared distances (what ``POINT_EUCLID`` computes);
    angular returns ``1 - cos(theta)`` (the software epilogue over
    ``POINT_ANGULAR``'s dot/norm sums); ``l1``/``linf`` return the
    Manhattan/Chebyshev distances through the Arkade refine kernels
    (single-beat, so the whole row reduces in one float32 pass).

    This is the one-shot form; graph build and search bind the same
    kernels once through :class:`GraphDistances`.

    Angular distances are not row-exact: the dot products come from a
    BLAS matrix-vector product, whose bits for one row depend on the
    call's shape and the row's position in it.  Measured with
    scipy-openblas 0.3.31 (Haswell kernels), a row's bits changed with its
    position in 2,309 of 3,000 random batches, and a 1-row call differed
    from the same row inside a batch in 2,870 of 3,000.  Angular graphs
    are therefore tied to the BLAS kernel, and angular searches that must
    agree bit for bit keep every call's shape and row order.  Build prunes
    need only an argmax, so :func:`build_hnsw` decides them from stored
    distances whenever the ``4 * tau`` gap of :func:`angular_error_bound`
    certifies it.
    """
    q = query.astype(np.float32, copy=False)
    c = candidates.astype(np.float32, copy=False)
    if metric == METRIC_ANGULAR:
        return _angular(c @ q, _row_norms(c), _query_norm(q))
    kernel = _row_kernel(get_backend(), metric, c.shape[1])
    if metric == METRIC_EUCLID:
        return kernel(c, q)
    return kernel(np.ascontiguousarray(c), q)


class GraphDistances:
    """Distance helper shared by every build and search call on one graph.

    Holds what does not change between calls: the points, the metric and,
    for angular, the row norms of every point.  :meth:`bind` turns it into
    a :data:`DistanceFn` over one kernel backend, computing exactly what
    :func:`batch_distances` computes for ``points[ids]``.
    """

    def __init__(self, points: np.ndarray, metric: str) -> None:
        if metric not in GRAPH_METRICS:
            raise BuildError(f"unknown metric {metric!r}")
        self.points = points
        self.metric = metric
        self.norms = _row_norms(points) if metric == METRIC_ANGULAR else None
        self.min_norm = (
            self.norms.min() if metric == METRIC_ANGULAR else None
        )

    @property
    def row_exact(self) -> bool:
        return self.metric in ROW_EXACT_METRICS

    def query_norm(self, query: np.ndarray):
        """What the bound function wants as ``query_norm`` for ``query``."""
        return _query_norm(query) if self.metric == METRIC_ANGULAR else None

    def bind(self, backend) -> DistanceFn:
        points = self.points
        take = points.take
        if self.metric == METRIC_ANGULAR:
            norms, min_norm = self.norms, self.min_norm
            take_norms = norms.take
            one = np.array(1.0, np.float32)  # 0-d: cheaper ufunc dispatch
            divide, subtract, fromiter = np.divide, np.subtract, np.fromiter

            def angular(q, q_norm, ids):
                if ids.__class__ is slice:
                    rows, row_norms = points[ids], norms[ids]
                else:
                    # One index conversion shared by both gathers.
                    ids = fromiter(ids, np.intp, len(ids))
                    rows, row_norms = take(ids, 0), take_norms(ids)
                dot = rows @ q
                if min_norm * q_norm > 0:
                    # Rounding is monotone, so every denominator is at
                    # least this one: none needs the zero fix-up.
                    divide(dot, row_norms * q_norm, out=dot)
                    return subtract(one, dot, out=dot)
                return _angular(dot, row_norms, q_norm)

            return angular
        kernel = _row_kernel(backend, self.metric, points.shape[1])

        def row_exact(q, _q_norm, ids):
            if ids.__class__ is slice:
                return kernel(points[ids], q)
            return kernel(take(ids, 0), q)

        return row_exact


@dataclass
class HnswGraph:
    """A layered proximity graph.

    ``layers[l]`` maps node id -> neighbor id list for layer ``l`` (layer 0
    holds every point; higher layers are sparser).  ``entry_point`` is the
    node the search starts from, on ``top_layer``.  ``build_counters``
    records how the build computed its distances (see :func:`build_hnsw`).
    """

    points: np.ndarray
    metric: str
    m: int
    layers: list[dict[int, list[int]]] = field(default_factory=list)
    node_max_layer: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int32)
    )
    entry_point: int = 0
    build_counters: dict[str, int] = field(default_factory=dict)
    _distances: GraphDistances | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    @property
    def top_layer(self) -> int:
        return len(self.layers) - 1

    def neighbors(self, layer: int, node: int) -> list[int]:
        return self.layers[layer].get(node, [])

    def distances(self) -> GraphDistances:
        """This graph's distance helper (angular norms computed once)."""
        if self._distances is None:
            self._distances = GraphDistances(self.points, self.metric)
        return self._distances

    def degree_cap(self, layer: int) -> int:
        """Out-degree bound: ``2*m`` on layer 0, ``m`` above it."""
        return 2 * self.m if layer == 0 else self.m

    def validate(self) -> None:
        """Check layer nesting, edge closure and the degree caps."""
        if not self.layers:
            raise BuildError("graph has no layers")
        if len(self.layers[0]) != self.num_points:
            raise BuildError("layer 0 must contain every point")
        for layer_index, layer in enumerate(self.layers):
            cap = self.degree_cap(layer_index)
            for node, nbrs in layer.items():
                if self.node_max_layer[node] < layer_index:
                    raise BuildError(
                        f"node {node} appears above its max layer"
                    )
                if len(nbrs) > cap:
                    raise BuildError(
                        f"node {node} has {len(nbrs)} neighbors on layer "
                        f"{layer_index}, above the cap of {cap}"
                    )
                for nbr in nbrs:
                    if nbr == node:
                        raise BuildError(f"self-loop at node {node}")
                    if nbr not in layer:
                        raise BuildError(
                            f"edge {node}->{nbr} leaves layer {layer_index}"
                        )


def _search_layer(
    adjacency: dict[int, list[int]],
    dist: DistanceFn,
    query: np.ndarray,
    q_norm,
    entry: int,
    entry_dist: float,
    ef: int,
) -> tuple[list[tuple[float, int]], int]:
    """Beam search on one layer.

    Returns the (dist, node) pairs ascending, length<=ef, and the number
    of kernel calls made.
    """
    heappush, heappop, heapreplace = (
        heapq.heappush, heapq.heappop, heapq.heapreplace
    )
    visited = {entry}
    frontier = [(entry_dist, entry)]  # min-heap
    best = [(-entry_dist, entry)]  # max-heap
    worst = entry_dist  # -best[0][0]
    room = ef - 1  # ef - len(best)
    calls = 0
    while frontier:
        d, node = heappop(frontier)
        if d > worst and room <= 0:
            break
        nbrs = [n for n in adjacency.get(node, ()) if n not in visited]
        if not nbrs:
            continue
        visited.update(nbrs)
        calls += 1
        for nbr_dist, nbr in zip(dist(query, q_norm, nbrs).tolist(), nbrs):
            if room > 0:
                room -= 1
                heappush(best, (-nbr_dist, nbr))
            elif nbr_dist < worst:
                heapreplace(best, (-nbr_dist, nbr))
            else:
                continue
            heappush(frontier, (nbr_dist, nbr))
            worst = -best[0][0]
    return sorted((-negd, node) for negd, node in best), calls


def build_hnsw(
    points: np.ndarray,
    m: int = 12,
    ef_construction: int = 48,
    metric: str = METRIC_EUCLID,
    seed: int = 0,
) -> HnswGraph:
    """Build an HNSW graph over ``points``.

    ``m`` is the target out-degree per layer (layer 0 allows ``2*m``);
    ``ef_construction`` the build-time beam width.

    The distance kernel is resolved once, from the active backend.  Every
    adjacency list keeps its edges' distances beside it (float32, in an
    ``array('f')``): a chosen neighbor's from the beam search, a
    back-link's as ``d(node, nbr)``.  Pruning the farthest back-link is a
    first-index argmax over the stored values.  For row-exact metrics that
    equals recomputing them bit for bit.  Angular recomputations depend on
    the BLAS call's shape, so an angular prune trusts the stored argmax
    only when it beats the runner-up by more than ``4 * tau``
    (:func:`angular_error_bound`) and every involved norm lies in
    :data:`CERTIFIED_NORMS`; otherwise it recomputes with the same shape
    and row order as ever.  ``build_counters`` reports
    ``build_kernel_calls``, ``build_prunes``, ``build_prunes_reused``
    (prunes answered from stored distances) and ``build_prunes_fallback``
    (prunes that called the kernel); the last two sum to the second.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    if points.ndim != 2 or points.shape[0] == 0:
        raise BuildError(f"expected non-empty (N, dim) points, got {points.shape}")
    if m < 2:
        raise BuildError(f"m must be >= 2, got {m}")
    if ef_construction < m:
        raise BuildError("ef_construction must be >= m")
    if not np.isfinite(points).all():
        raise BuildError("points must be finite")
    if _distance_bound(points, metric) > _DISTANCE_LIMIT:
        raise BuildError(
            f"{metric} distances over these points can overflow float32 "
            f"(max |x| = {float(np.abs(points).max()):.3g})"
        )
    helper = GraphDistances(points, metric)

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
    graph._distances = helper
    layers = graph.layers
    dist = helper.bind(get_backend())
    reuse = helper.row_exact
    # Distances parallel to each adjacency list, and (angular) each
    # inserted node's query norm for the prunes that must recompute.
    edge_dists: list[dict[int, array]] = [{} for _ in layers]
    q_norms = np.zeros(count, np.float32)
    if not reuse:
        gap = 4.0 * angular_error_bound(points.shape[1])
        low, high = CERTIFIED_NORMS
        norms = helper.norms
        uncertified = set(
            np.flatnonzero((norms < low) | (norms > high)).tolist()
        )
    calls = prunes = fallbacks = 0

    def certified_worst(nbr: int, back: list[int], back_d: array) -> int:
        """The stored argmax when it certifies the recomputed one, else -1."""
        if uncertified and (
            nbr in uncertified or not uncertified.isdisjoint(back)
        ):
            return -1
        ranked = sorted(back_d)
        top = ranked[-1]
        return back_d.index(top) if top - ranked[-2] > gap else -1

    def connect(layer: int, node: int, candidates: list[tuple[float, int]]) -> None:
        nonlocal calls, prunes, fallbacks
        cap = graph.degree_cap(layer)
        adjacency = layers[layer]
        layer_dists = edge_dists[layer]
        chosen = candidates[:cap]
        adjacency[node] = [nbr for _dist, nbr in chosen]
        layer_dists[node] = array("f", [d for d, _nbr in chosen])
        for d, nbr in chosen:
            back = adjacency[nbr]
            if node in back:
                continue
            back.append(node)
            back_d = layer_dists[nbr]
            back_d.append(d)
            if len(back) > cap:
                # Prune the farthest back-link (first index on ties).
                prunes += 1
                if reuse:
                    worst = back_d.index(max(back_d))
                else:
                    worst = certified_worst(nbr, back, back_d)
                    if worst < 0:
                        fallbacks += 1
                        calls += 1
                        worst = int(np.argmax(
                            dist(points[nbr], q_norms[nbr], back)
                        ))
                back.pop(worst)
                del back_d[worst]

    # First point seeds every one of its layers.
    first_level = int(node_levels[0])
    graph.entry_point = 0
    for layer in range(first_level + 1):
        layers[layer][0] = []
        edge_dists[layer][0] = array("f")
    entry_level = first_level
    if not reuse:
        q_norms[0] = helper.query_norm(points[0])

    for node in range(1, count):
        query = points[node]
        q_norm = helper.query_norm(query)
        if not reuse:
            q_norms[node] = q_norm
        level = int(node_levels[node])
        entry = graph.entry_point
        entry_dist = float(dist(query, q_norm, slice(entry, entry + 1))[0])
        calls += 1
        # Greedy descent through layers above the node's level.
        for layer in range(entry_level, level, -1):
            adjacency = layers[layer]
            improved = True
            while improved:
                improved = False
                nbrs = adjacency.get(entry, [])
                if not nbrs:
                    break
                dists = dist(query, q_norm, nbrs)
                calls += 1
                best = int(np.argmin(dists))
                if float(dists[best]) < entry_dist:
                    entry_dist = float(dists[best])
                    entry = nbrs[best]
                    improved = True
        # Beam-search and connect on layers min(level, entry_level)..0.
        for layer in range(min(level, entry_level), -1, -1):
            candidates, layer_calls = _search_layer(
                layers[layer], dist, query, q_norm, entry, entry_dist,
                ef_construction,
            )
            calls += layer_calls
            connect(layer, node, candidates)
            entry_dist, entry = candidates[0]
        if level > entry_level:
            for layer in range(entry_level + 1, level + 1):
                layers[layer][node] = []
                edge_dists[layer][node] = array("f")
            graph.entry_point = node
            entry_level = level
    graph.build_counters = dict(
        zip(BUILD_COUNTERS, (calls, prunes, prunes - fallbacks, fallbacks))
    )
    return graph
