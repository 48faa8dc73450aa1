"""HNSW adapter: hierarchical-graph ANN behind :class:`SearchIndex`.

The graph substrate computes metric distances directly (no space
transform needed): ``euclid`` and ``angular`` are the original pair,
``l1``/``linf`` ride the Arkade refine kernels through the graph's
:class:`repro.graph.hnsw.GraphDistances`, and ``cosine`` is accepted as
an alias of ``angular`` (both mean ``1 - cos(theta)``) so the adapter
matches the metric vocabulary of the other substrates.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BuildError, ConfigError
from repro.graph.hnsw import (
    BUILD_COUNTERS,
    GRAPH_METRICS,
    METRIC_ANGULAR,
    METRIC_EUCLID,
    build_hnsw,
)
from repro.graph.search import (
    EVENT_DIST,
    EVENT_QUEUE,
    EVENT_VISIT,
    GraphSearchStats,
    search,
    search_batch,
)
from repro.metrics.transforms import METRIC_COSINE
from repro.search.base import Event, Neighbor
from repro.search.events import BatchResult
from repro.search.spec import QuerySpec, resolve_spec


class HnswIndex:
    """Best-first search over an HNSW-style graph (the GGNN substrate)."""

    EVENT_DIST = EVENT_DIST
    EVENT_QUEUE = EVENT_QUEUE
    EVENT_VISIT = EVENT_VISIT

    #: QuerySpec fields this substrate honors, and their defaults.
    SPEC_FIELDS = ("k", "ef")
    SPEC_DEFAULTS = {"k": 10, "ef": 32}

    def __init__(
        self,
        m: int = 12,
        ef_construction: int = 48,
        metric: str = METRIC_EUCLID,
        seed: int = 0,
    ) -> None:
        if metric != METRIC_COSINE and metric not in GRAPH_METRICS:
            raise ConfigError(
                f"HnswIndex: unknown metric {metric!r}; expected one of "
                f"{', '.join(GRAPH_METRICS + (METRIC_COSINE,))}"
            )
        self.m = m
        self.ef_construction = ef_construction
        self.metric = metric
        # The graph names 1 - cos(theta) "angular"; fold the alias here so
        # callers can use the shared metric vocabulary.
        self._graph_metric = (
            METRIC_ANGULAR if metric == METRIC_COSINE else metric
        )
        self.seed = seed
        self._graph = None
        self.last_events: list[Event] = []
        self._queries = 0
        self._dist_tests = 0
        self._nodes_expanded = 0

    def build(self, points: np.ndarray) -> "HnswIndex":
        self._graph = build_hnsw(
            points,
            m=self.m,
            ef_construction=self.ef_construction,
            metric=self._graph_metric,
            seed=self.seed,
        )
        return self

    def query(
        self,
        q: np.ndarray,
        spec: QuerySpec | None = None,
        record_events: bool = False,
        **legacy: object,
    ) -> list[Neighbor]:
        """Approximate ``k`` nearest (node id, distance), ascending."""
        if self._graph is None:
            raise BuildError("query before build")
        spec = resolve_spec(
            "HnswIndex.query", spec, legacy,
            self.SPEC_FIELDS, self.SPEC_DEFAULTS, self.metric,
        )
        stats = GraphSearchStats(record_events=record_events)
        result = search(self._graph, q, k=spec.k, ef=spec.ef, stats=stats)
        self.last_events = stats.events
        self._queries += 1
        self._dist_tests += stats.dist_tests
        self._nodes_expanded += stats.nodes_expanded
        return result

    def query_batch(
        self,
        queries: np.ndarray,
        spec: QuerySpec | None = None,
        record_events: bool = False,
        **legacy: object,
    ) -> BatchResult:
        """Batched ANN over a ``(Q, dim)`` query block; per query the
        neighbors and events are bit-identical to ``query``."""
        if self._graph is None:
            raise BuildError("query_batch before build")
        spec = resolve_spec(
            "HnswIndex.query_batch", spec, legacy,
            self.SPEC_FIELDS, self.SPEC_DEFAULTS, self.metric,
        )
        stats = GraphSearchStats()
        result = search_batch(
            self._graph, queries, k=spec.k, ef=spec.ef,
            record_events=record_events, stats=stats,
        )
        self._queries += len(result)
        self._dist_tests += stats.dist_tests
        self._nodes_expanded += stats.nodes_expanded
        return result

    def stats(self) -> dict[str, object]:
        """Shape and counters; the ``build_*`` counters say how the build
        computed its distances (zero before :meth:`build`)."""
        built = self._graph.build_counters if self._graph is not None else {}
        return {
            "structure": "hnsw",
            "m": self.m,
            "ef_construction": self.ef_construction,
            "metric": self.metric,
            "num_points": self.num_points,
            "queries": self._queries,
            "dist_tests": self._dist_tests,
            "nodes_expanded": self._nodes_expanded,
            **{name: built.get(name, 0) for name in BUILD_COUNTERS},
        }

    # -- layout hooks -----------------------------------------------------

    @property
    def num_points(self) -> int:
        return 0 if self._graph is None else self._graph.num_points

    @property
    def points(self) -> np.ndarray:
        if self._graph is None:
            raise BuildError("points before build")
        return self._graph.points
