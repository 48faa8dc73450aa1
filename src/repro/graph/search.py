"""GGNN-style best-first graph search with an instrumented event stream.

One query maps to one threadblock in GGNN; the block cooperatively computes
distances to a node's neighbors (the HSU-able work), then updates the
priority-queue cache (SIMD-only work, §VI-C/§VI-D).  The recorded event
stream interleaves these phases in traversal order so the trace compiler
reproduces the overlap behaviour the roofline analysis discusses (§VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.graph.hnsw import METRIC_EUCLID, HnswGraph
from repro.graph.priority_cache import PriorityCache
from repro.kernels import get_backend
from repro.search.events import BatchResult, EventLog

#: Event kinds consumed by the trace compiler.
EVENT_DIST = "dist"
EVENT_QUEUE = "queue"
EVENT_VISIT = "visit"

#: Event-kind vocabulary of the array-backed log (codes index this tuple).
GRAPH_EVENT_KINDS = (EVENT_DIST, EVENT_QUEUE, EVENT_VISIT)
_CODE_OF = {kind: code for code, kind in enumerate(GRAPH_EVENT_KINDS)}


@dataclass
class GraphSearchStats:
    """Counters and optional event log for one query."""

    dist_tests: int = 0
    nodes_expanded: int = 0
    queue_ops: int = 0
    record_events: bool = False
    #: (kind, node_id, payload): payload is dim for dist, op count for queue.
    events: list[tuple[str, int, int]] = field(default_factory=list)

    def _event(self, kind: str, ident: int, payload: int) -> None:
        if self.record_events:
            self.events.append((kind, ident, payload))

    def dist(self, node_id: int, dim: int) -> None:
        self.dist_tests += 1
        self._event(EVENT_DIST, node_id, dim)

    def queue(self, ops: int) -> None:
        self.queue_ops += ops
        self._event(EVENT_QUEUE, -1, ops)

    def visit(self, node_id: int) -> None:
        self.nodes_expanded += 1
        self._event(EVENT_VISIT, node_id, 0)


def search(
    graph: HnswGraph,
    query: np.ndarray,
    k: int = 10,
    ef: int = 32,
    stats: GraphSearchStats | None = None,
) -> list[tuple[int, float]]:
    """Approximate K nearest neighbors of ``query``.

    Greedy descent through the upper layers to a layer-0 entry, then
    best-first expansion with beam width ``ef``.  Returns (node, distance)
    pairs ascending by distance.
    """
    stats = stats if stats is not None else GraphSearchStats()
    query = np.asarray(query, dtype=np.float32)
    helper = graph.distances()
    dist = helper.bind(get_backend())
    q_norm = helper.query_norm(query)

    entry = graph.entry_point
    stats.dist(entry, graph.dim)
    entry_dist = float(dist(query, q_norm, slice(entry, entry + 1))[0])

    # Greedy descent on the sparse upper layers.
    for layer in range(graph.top_layer, 0, -1):
        improved = True
        while improved:
            improved = False
            nbrs = graph.neighbors(layer, entry)
            if not nbrs:
                break
            dists = dist(query, q_norm, nbrs)
            for node_id in nbrs:
                stats.dist(node_id, graph.dim)
            best = int(np.argmin(dists))
            stats.queue(1)  # compare-and-swap of the running minimum
            if float(dists[best]) < entry_dist:
                entry_dist = float(dists[best])
                entry = nbrs[best]
                improved = True

    # Best-first expansion on layer 0 with the priority cache.
    cache = PriorityCache(k=k, ef=ef)
    cache.mark_visited(entry)
    cache.push(entry_dist, entry)
    stats.queue(2)
    while True:
        popped = cache.pop_nearest()
        stats.queue(1)
        if popped is None:
            break
        _dist, node = popped
        stats.visit(node)
        adjacency = graph.neighbors(0, node)
        nbrs = [n for n in adjacency if cache.mark_visited(n)]
        stats.queue(len(adjacency))  # visited-filter checks
        if not nbrs:
            continue
        dists = dist(query, q_norm, nbrs)
        for nbr, nbr_dist in zip(nbrs, dists):
            stats.dist(nbr, graph.dim)
            cache.push(float(nbr_dist), nbr)
            stats.queue(1)
    return cache.results()


def _query_plan(graph: HnswGraph, k: int, ef: int,
                stats: GraphSearchStats, events: list | None):
    """One query's search as a coroutine: :func:`search` verbatim, except
    every distance call becomes ``dists = yield nbrs`` so the
    lockstep driver can answer many queries' requests with one merged
    kernel.  Yields candidate id lists; receives their distance rows;
    returns the final neighbor list.
    """

    def event(kind: str, ident: int, payload: int) -> None:
        if events is not None:
            events.append((kind, ident, payload))

    entry = graph.entry_point
    stats.dist_tests += 1
    event(EVENT_DIST, entry, graph.dim)
    dists = yield [entry]
    entry_dist = float(dists[0])

    for layer in range(graph.top_layer, 0, -1):
        improved = True
        while improved:
            improved = False
            nbrs = graph.neighbors(layer, entry)
            if not nbrs:
                break
            dists = yield nbrs
            for node_id in nbrs:
                stats.dist_tests += 1
                event(EVENT_DIST, node_id, graph.dim)
            best = int(np.argmin(dists))
            stats.queue_ops += 1
            event(EVENT_QUEUE, -1, 1)
            if float(dists[best]) < entry_dist:
                entry_dist = float(dists[best])
                entry = nbrs[best]
                improved = True

    cache = PriorityCache(k=k, ef=ef)
    cache.mark_visited(entry)
    cache.push(entry_dist, entry)
    stats.queue_ops += 2
    event(EVENT_QUEUE, -1, 2)
    while True:
        popped = cache.pop_nearest()
        stats.queue_ops += 1
        event(EVENT_QUEUE, -1, 1)
        if popped is None:
            break
        _dist, node = popped
        stats.nodes_expanded += 1
        event(EVENT_VISIT, node, 0)
        adjacency = graph.neighbors(0, node)
        nbrs = [n for n in adjacency if cache.mark_visited(n)]
        stats.queue_ops += len(adjacency)
        event(EVENT_QUEUE, -1, len(adjacency))
        if not nbrs:
            continue
        dists = yield nbrs
        for nbr, nbr_dist in zip(nbrs, dists):
            stats.dist_tests += 1
            event(EVENT_DIST, nbr, graph.dim)
            cache.push(float(nbr_dist), nbr)
            stats.queue_ops += 1
            event(EVENT_QUEUE, -1, 1)
    return cache.results()


def search_batch(
    graph: HnswGraph,
    queries: np.ndarray,
    k: int = 10,
    ef: int = 32,
    record_events: bool = False,
    stats: GraphSearchStats | None = None,
) -> BatchResult:
    """Batched :func:`search` over a ``(Q, dim)`` query block.

    Lockstep beam search: each round gathers every active query's pending
    candidate list and (for the Euclidean metric) answers them all with
    one merged row-wise kernel over the concatenated pools — exact,
    because the batch kernel's reductions are row-independent.  The other
    metrics keep one kernel call per request, shaped as the scalar search
    shapes it (the angular matmul's bits depend on the call's shape),
    with angular norms from the graph's cache.  Per query, neighbors,
    events and stats counters are bit-identical to the scalar search.
    """
    stats = stats if stats is not None else GraphSearchStats()
    queries32 = np.asarray(queries, dtype=np.float32)
    if queries32.ndim != 2 or queries32.shape[1] != graph.dim:
        raise ValueError(
            f"expected (Q, {graph.dim}) queries, got shape {queries32.shape}"
        )
    num_q = queries32.shape[0]
    events: list[list] | None = (
        [[] for _ in range(num_q)] if record_events else None
    )
    results: list[list[tuple[int, float]]] = [[] for _ in range(num_q)]
    plans = [
        _query_plan(graph, k, ef, stats,
                    events[i] if events is not None else None)
        for i in range(num_q)
    ]

    requests: list[tuple[int, list[int]]] = []
    for i, plan in enumerate(plans):
        try:
            requests.append((i, plan.send(None)))
        except StopIteration as stop:  # pragma: no cover - first yield
            results[i] = stop.value

    euclid = graph.metric == METRIC_EUCLID
    if not euclid:
        helper = graph.distances()
        dist = helper.bind(get_backend())
        q_norms = [helper.query_norm(q) for q in queries32]
    while requests:
        if euclid:
            counts = np.fromiter(
                (len(nbrs) for _i, nbrs in requests), np.int64, len(requests)
            )
            cand = np.concatenate(
                [np.asarray(nbrs, dtype=np.int64) for _i, nbrs in requests]
            )
            qids = np.repeat(
                np.fromiter((i for i, _n in requests), np.int64,
                            len(requests)),
                counts,
            )
            merged = get_backend().sq_l2_f32(
                graph.points[cand], queries32[qids]
            )
            bounds = np.zeros(len(requests) + 1, dtype=np.int64)
            np.cumsum(counts, out=bounds[1:])
            chunks = [
                merged[bounds[j] : bounds[j + 1]]
                for j in range(len(requests))
            ]
        else:
            chunks = [
                dist(queries32[i], q_norms[i], nbrs) for i, nbrs in requests
            ]
        next_requests: list[tuple[int, list[int]]] = []
        for (i, _nbrs), dists in zip(requests, chunks):
            try:
                next_requests.append((i, plans[i].send(dists)))
            except StopIteration as stop:
                results[i] = stop.value
        requests = next_requests

    if events is None:
        return BatchResult(results, EventLog.empty(GRAPH_EVENT_KINDS, num_q))
    total = sum(len(ev) for ev in events)
    codes = np.fromiter(
        (_CODE_OF[kind] for ev in events for kind, _i, _p in ev),
        np.int64, total,
    )
    idents = np.fromiter(
        (ident for ev in events for _k, ident, _p in ev), np.int64, total
    )
    payloads = np.fromiter(
        (payload for ev in events for _k, _i, payload in ev), np.int64, total
    )
    qids_all = np.repeat(
        np.arange(num_q, dtype=np.int64),
        np.fromiter((len(ev) for ev in events), np.int64, num_q),
    )
    log = EventLog.from_sorted(
        GRAPH_EVENT_KINDS, codes, idents, payloads, qids_all, num_q
    )
    return BatchResult(results, log)
