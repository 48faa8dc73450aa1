"""In-memory spans around the program's layer entry points.

The traced run replaces each layer's public entry point, at the name its
callers bind, with a wrapper that records a span (name, start, end, parent,
job id).  Spans nest as the program calls them and no work runs twice.  A
layer's self time is its spans' durations minus the parts covered by child
spans, so the self times of every span under the measured region sum to
that region's wall-clock.  The cost of tracing is estimated as the span
count times the measured cost of one wrapper call (``span_cost``).

Independently of tracing, the search entry points are always wrapped with a
light *capture* that keeps each call's queries and answers, so the output
checks judge exactly what the workload computed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Layer span names whose self times make up ``search.build_s``.
BUILD_SPANS = ("bvh.build", "kdtree.build", "graph.build", "btree.build")

#: Every span name the benchmark records, in pipeline order; each is
#: reported as the per-layer metric ``<name>_s`` (the builds summed as
#: ``search.build_s``).  ``bench.loop`` is the benchmark's own job loop:
#: whatever the layers' spans leave uncovered inside the measured region.
SPAN_NAMES = (
    "datasets.load",
    *BUILD_SPANS,
    "search.query",
    "workloads.assemble",
    "compiler.lower",
    "gpusim.fingerprint",
    "campaign.cache_load",
    "campaign.cache_store",
    "campaign.simulate",
    "gpusim.pack",
    "gpusim.run",
    "observability.manifest",
    "bench.loop",
)


@dataclass
class Capture:
    """One search call's inputs and answers, kept for the output checks."""

    job: str
    index: object
    queries: object
    kwargs: dict
    answers: object
    events: int


@dataclass
class Recorder:
    """Spans and captures of one benchmark process, kept in memory."""

    trace: bool
    job: str = ""
    #: ``[name, start, end, parent index or -1, job id]`` per span.
    spans: list = field(default_factory=list)
    captures: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        if not self.trace:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]


def _timed(recorder: Recorder, name: str):
    """Decorator factory: run the wrapped callable inside span ``name``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def span_cost() -> float:
    """Seconds one traced wrapper call adds to the call it wraps.

    Times 20,000 calls of a no-op with and without the wrapper the traced
    run installs (best of three each); the tracing overhead of a run is its
    span count times this.
    """
    calls = 20_000

    def noop():
        return None

    wrapped = _timed(Recorder(trace=True), "bench.loop")(noop)

    def best(fn) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, best(wrapped) - best(noop)) / calls


def install(recorder: Recorder):
    """Wrap the layers' entry points; returns a callable that undoes it."""
    import repro.workloads.btree_kv as btree_kv
    import repro.workloads.bvhnn as bvhnn
    import repro.workloads.flann as flann
    import repro.workloads.ggnn as ggnn
    from repro.btree.btree import BTree
    from repro.experiments import campaign
    from repro.gpusim.gpu import GpuSimulator
    from repro.gpusim.trace import KernelTrace
    from repro.search import BvhRadiusIndex, HnswIndex, KdTreeIndex

    undo: list[tuple[object, str, object]] = []

    def patch(owner: object, attr: str, make) -> None:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def captured(btree: bool = False):
        def make(fn):
            def wrapper(self, queries, *args, **kwargs):
                with recorder.span("search.query"):
                    result = fn(self, queries, *args, **kwargs)
                if btree:  # (values, found, trail) rather than BatchResult
                    answers = result[1]
                    events = sum(int(ids.shape[0]) for ids, _ in result[2])
                else:
                    answers = result.neighbors
                    events = result.events.num_events
                call = dict(kwargs, **({"spec": args[0]} if args else {}))
                recorder.captures.append(
                    Capture(recorder.job, self, queries, call, answers,
                            events)
                )
                return result

            return wrapper

        return make

    def timed(name: str):
        return _timed(recorder, name)

    for index in (BvhRadiusIndex, KdTreeIndex, HnswIndex):
        patch(index, "query_batch", captured())
    patch(BTree, "lookup_batch", captured(btree=True))
    if recorder.trace:
        for module in (bvhnn, flann, ggnn, btree_kv):
            patch(module, "load_dataset", timed("datasets.load"))
        for module in (flann, ggnn):
            patch(module, "perturbed_queries", timed("datasets.load"))
        patch(bvhnn, "choose_radius", timed("bvh.build"))
        patch(BvhRadiusIndex, "build", timed("bvh.build"))
        patch(KdTreeIndex, "build", timed("kdtree.build"))
        patch(HnswIndex, "build", timed("graph.build"))
        patch(btree_kv, "bulk_load", timed("btree.build"))
        patch(KernelTrace, "fingerprint", timed("gpusim.fingerprint"))
        patch(GpuSimulator, "__init__", timed("gpusim.pack"))
        patch(GpuSimulator, "run", timed("gpusim.run"))
        for attr in ("load_stats_entry", "load_artifact"):
            patch(campaign, attr, timed("campaign.cache_load"))
        for attr in ("store_stats_entry", "store_artifact"):
            patch(campaign, attr, timed("campaign.cache_store"))
        for attr in ("build_manifest", "write_manifest"):
            patch(campaign, attr, timed("observability.manifest"))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
