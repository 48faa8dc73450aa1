"""One benchmark repetition: a fresh process that runs one workload cold.

``run.py`` launches this file once per repetition.  The process imports the
program, makes its own cache and results directories, runs every job of the
workload through the public pipeline (the measured region), then checks the
outputs and writes one JSON record.  Run by hand::

    PYTHONPATH=src python3 perfbench/rep.py --workload rt-cold --seed 0 \
        --trace 0 --launched 0 --dir /tmp/rep --out /tmp/rep/out.json

Each job is one ``repro.api.simulate`` call.  A workload is a list of
sources; each source runs ``repro.workloads.run_<family>`` once, lowers it
with ``repro.workloads.to_traces`` and simulates the bundle as a baseline
and an HSU job, as the campaign's paired families do.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

#: HSU datapath width every job lowers with (the campaign's default).
EUCLID_WIDTH = 16

#: Recall@k floors of the approximate searches per (family, dataset).
#: Measured at seeds 0-9 with this benchmark's query counts and scales:
#: FLANN R10K 0.9996-0.9999, GGNN S10K 0.63-0.92, GGNN LFM at half scale
#: 0.46-0.79.  Each floor sits below the lowest value seen, so it catches a
#: broken index (recall near 0), not the seed-to-seed spread.
RECALL_FLOOR = {
    ("flann", "R10K"): 0.98,
    ("ggnn", "S10K"): 0.5,
    ("ggnn", "LFM"): 0.3,
}

#: BVH radius answers are compared with brute force on this many queries.
RADIUS_SAMPLE = 64
#: FLANN recall is measured on this many queries (GGNN uses all of them).
RECALL_SAMPLE = 128


#: The paired design points of every source: variant -> its config.
PAIRED = (
    ("baseline", lambda config: config),
    ("hsu", lambda config: config.with_warp_buffer(8)),
)


@dataclass(frozen=True)
class Source:
    """One workload execution, simulated as a baseline and an HSU job.

    ``scale`` multiplies the dataset's point count (``run_<family>``'s
    ``scale=``); at 1.0 the jobs equal the campaign's.
    """

    family: str
    abbr: str
    scale: float = 1.0

    @property
    def group(self) -> str:
        return f"{self.family}-{self.abbr.replace('+', '')}".lower()


WORKLOADS = {
    # Thread-per-query families: box tests, multi-beat distances and key
    # compares on the RT/HSU unit; the simulator dominates.  Every dataset
    # here costs the same simulated work at every seed (within 3%).
    "rt-cold": (
        Source("bvhnn", "R10K"),
        Source("flann", "R10K"),
        Source("btree", "B+1M"),
    ),
    # HNSW construction dominates; both distance metrics (Euclidean S10K,
    # angular LFM) so the angular norm-recompute path is covered.  LFM runs
    # at half its 6,000 points: at full size a repetition takes 15-20 s and
    # a 60-second run holds only two or three, too few for a steady median.
    "graph-cold": (
        Source("ggnn", "S10K"),
        Source("ggnn", "LFM", scale=0.5),
    ),
}


@dataclass
class JobResult:
    """One ``api.simulate`` call and what the checks made of it."""

    id: str
    group: str
    family: str
    abbr: str
    variant: str
    stats: object = None  # SimStats
    error: str | None = None


@dataclass
class SourceRun:
    """What one source's trace generation left for the checks."""

    source: Source
    warp_instructions: int
    error: str | None = None


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_jobs(sources, seed: int, recorder) -> tuple[list, list]:
    """Run every job of ``sources`` (the measured region).

    Returns ``(job results, source runs)``.  A job that raises is recorded
    as failed and the rest go on; a source whose trace generation raises
    fails all of its jobs.
    """
    from repro import api, workloads
    from repro.compiler.lowering import HsuWidths
    from repro.experiments import common

    jobs: list[JobResult] = []
    runs: list[SourceRun] = []
    for source in sources:
        recorder.job = source.group
        count = common.resolved_queries(source.family, source.abbr)
        runner = getattr(workloads, f"run_{source.family}")
        try:
            with recorder.span("workloads.assemble"):
                run = runner(source.abbr, num_queries=count,
                             scale=source.scale, seed=seed)
            with recorder.span("compiler.lower"):
                bundle = workloads.to_traces(
                    run, widths=HsuWidths(euclid=EUCLID_WIDTH)
                )
        except Exception as exc:  # noqa: BLE001 - a failed job is counted
            runs.append(SourceRun(source, 0, _error(exc)))
            jobs += [
                JobResult(f"{source.group}-{v}", source.group, source.family,
                          source.abbr, v, error=_error(exc))
                for v, _ in PAIRED
            ]
            continue
        runs.append(SourceRun(
            source,
            bundle.baseline.total_instructions()
            + bundle.hsu.total_instructions(),
        ))
        base_config = common.config_for(source.family)
        for variant, design in PAIRED:
            job = JobResult(f"{source.group}-{variant}", source.group,
                            source.family, source.abbr, variant)
            recorder.job = job.id
            try:
                with recorder.span("campaign.simulate"):
                    job.stats = api.simulate(
                        bundle, variant=variant, config=design(base_config),
                        label=(source.family, source.abbr),
                    )
            except Exception as exc:  # noqa: BLE001 - a failed job is counted
                job.error = _error(exc)
            jobs.append(job)
        del run, bundle
    return jobs, runs


# ---------------------------------------------------------------------------
# Output checks (outside the measured region)
# ---------------------------------------------------------------------------


def _sample(count: int, size: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(count, size=min(size, count), replace=False))


def _check_radius(capture, seed: int) -> str | None:
    """BVH radius answers equal brute force on a query sample."""
    import numpy as np

    index = capture.index
    points = index.points
    queries = np.asarray(capture.queries, dtype=np.float64)
    limit = index.radius * index.radius
    for qi in _sample(len(queries), RADIUS_SAMPLE, seed):
        diff = points - queries[qi]
        d2 = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
        d2 = d2 + diff[:, 2] * diff[:, 2]
        truth = set(np.flatnonzero(d2 <= limit).tolist())
        found = {int(pid) for pid, _ in capture.answers[qi]}
        if found != truth:
            return (f"radius answers of query {qi} differ from brute force "
                    f"({len(found)} found, {len(truth)} true)")
    return None


def _check_recall(capture, source: Source, seed: int) -> str | None:
    """Recall@k of an approximate search is at or above its floor."""
    import numpy as np

    from repro.ann.ground_truth import brute_force_knn
    from repro.ann.recall import recall_at_k

    spec = capture.kwargs.get("spec")  # the QuerySpec form of the call
    k = getattr(spec, "k", None) or capture.kwargs.get(
        "k", capture.index.SPEC_DEFAULTS["k"]
    )
    metric = getattr(capture.index, "metric", "euclid")
    floor = RECALL_FLOOR[(source.family, source.abbr)]
    size = RECALL_SAMPLE if source.family == "flann" else len(capture.answers)
    rows = _sample(len(capture.answers), size, seed)
    queries = np.asarray(capture.queries)[rows]
    truth = brute_force_knn(capture.index.points, queries, k, metric)
    found = [[i for i, _ in capture.answers[r]] for r in rows]
    recall = recall_at_k(found, truth)
    if recall < floor:
        return f"recall@{k} {recall:.3f} below floor {floor}"
    return None


def _check_btree(capture, source: Source, seed: int) -> str | None:
    """Every probe is found iff it is one of the dataset's keys.

    The keys are loaded as ``run_btree`` loads them, so a lookup or
    ``bulk_load`` that loses keys is judged against the data itself.
    """
    import numpy as np

    from repro.datasets.registry import load_dataset

    keys = load_dataset(source.abbr, num_queries=1024, scale=source.scale,
                        seed=seed).points
    probes = np.asarray(capture.queries, dtype=np.float64)
    expected = np.isin(probes, keys.astype(np.float64).reshape(-1))
    found = np.asarray(capture.answers)
    if not np.array_equal(found, expected):
        wrong = int(np.count_nonzero(found != expected))
        return f"{wrong} B-tree probes answered wrongly"
    return None


def _check_source(run: SourceRun, captures, seed: int) -> str | None:
    if run.error:
        return run.error
    family = run.source.family
    mine = [c for c in captures if c.job == run.source.group]
    if len(mine) != 1:
        return f"expected one search call, saw {len(mine)}"
    capture = mine[0]
    if family == "bvhnn":
        return _check_radius(capture, seed)
    if (family, run.source.abbr) in RECALL_FLOOR:
        return _check_recall(capture, run.source, seed)
    return _check_btree(capture, run.source, seed)


def _cache_entries() -> dict[tuple, str]:
    """``(family, dataset, variant)`` -> stats key of each cache entry."""
    from repro.experiments import campaign

    entries = {}
    for path in sorted((campaign.cache_dir() / "sims").glob("*.json")):
        workload = json.loads(path.read_text())["workload"]
        entries[(workload["family"], workload["dataset"],
                 workload["variant"])] = path.stem
    return entries


def check_jobs(jobs, runs, captures, seed: int) -> dict[str, dict]:
    """Run every output check; failed jobs get ``error`` set.

    Returns per job id the trace fingerprint and the registry counts read
    back from the job's cache entry and manifest.
    """
    from repro.experiments import campaign
    from repro.gpusim.observability import load_manifest, results_dir

    source_errors = {
        run.source.group: _check_source(run, captures, seed) for run in runs
    }
    entries = _cache_entries()
    by_group: dict[str, dict[str, JobResult]] = {}
    for job in jobs:
        by_group.setdefault(job.group, {})[job.variant] = job
    detail: dict[str, dict] = {}
    for group, variants in by_group.items():
        base = variants.get("baseline")
        for job in variants.values():
            if job.error:
                continue
            error = source_errors.get(group)
            stats = job.stats
            if error is None and base is not None and base.stats is not None:
                if stats.num_warps != base.stats.num_warps:
                    error = (f"warp count {stats.num_warps} != baseline "
                             f"{base.stats.num_warps}")
            if error is None and job.variant != "baseline" and (
                stats.hsu_warp_instructions <= 0
            ):
                error = "HSU trace issued no RT-unit instructions"
            key = entries.get((job.family, job.abbr, job.variant))
            if error is None and key is None:
                error = "no campaign cache entry written"
            if error is None:
                loaded = campaign.load_stats_entry(key)
                if loaded is None or loaded[0] != stats:
                    error = "stats read back from the cache differ"
            if error is not None:
                job.error = error
                continue
            payload = loaded[1]
            manifest = results_dir() / f"{job.id}.json"
            metrics = load_manifest(manifest).metrics
            detail[job.id] = {
                "trace_sha": payload["trace_sha"],
                "engine_events": metrics["gpu/engine/events"],
                "idle_cycles_skipped":
                    metrics["gpu/engine/idle_cycles_skipped"],
            }
    return detail


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def mean_improvements(jobs) -> dict[str, float]:
    """Mean HSU improvement % per family."""
    from repro.analysis.speedup import mean_improvement_percent

    cycles = {(j.family, j.abbr, j.variant): j.stats.cycles
              for j in jobs if j.stats is not None}
    speedups: dict[str, list[float]] = {}
    for (family, abbr, variant), base in cycles.items():
        if variant == "baseline" and (family, abbr, "hsu") in cycles:
            speedups.setdefault(family, []).append(
                base / cycles[(family, abbr, "hsu")]
            )
    return {f: mean_improvement_percent(s) for f, s in speedups.items()}


def fidelity_error(improvements: dict[str, float]) -> float:
    """Mean |our improvement % - the paper's Fig. 9 family mean| in pp."""
    from repro.experiments.fig09_speedup import PAPER_MEAN_IMPROVEMENT

    errors = [abs(v - PAPER_MEAN_IMPROVEMENT[f])
              for f, v in improvements.items()]
    return sum(errors) / len(errors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--dir", required=True,
                        help="fresh directory for cache and results")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # -- set-up: imports and fresh per-run directories ----------------------
    # ``spans.install`` imports every workload module, so the first job
    # times generation, not module loading (as the campaign does).
    import spans
    from repro.experiments import campaign

    work = Path(args.dir)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_RESULTS_DIR"] = str(work / "results")
    (work / "cache").mkdir(parents=True, exist_ok=True)
    (work / "results").mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(trace=bool(args.trace))
    restore = spans.install(recorder)
    setup_s = time.monotonic() - args.launched
    if args.setup_only:
        restore()
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    # -- measured region ----------------------------------------------------
    phases = campaign.phase_stats.snapshot()
    cache = campaign.cache_stats.snapshot()
    start = time.perf_counter()
    with recorder.span("bench.loop"):
        jobs, runs = run_jobs(WORKLOADS[args.workload], args.seed, recorder)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sim_s = campaign.phase_stats.delta(phases).simulate
    traffic = campaign.cache_stats.delta(cache)
    restore()

    # -- checks and record --------------------------------------------------
    try:
        detail = check_jobs(jobs, runs, recorder.captures, args.seed)
    except Exception:  # noqa: BLE001 - reported, and every job fails
        traceback.print_exc()
        detail = {}
        for job in jobs:
            job.error = job.error or "output checks raised"
    improvements = mean_improvements(jobs)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sim_s": sim_s,
        "sim_kinst": sum(j.stats.warp_instructions for j in jobs
                         if j.stats is not None) / 1000.0,
        "peak_rss_mb": peak_rss_mb,
        "improvement_pct": improvements,
        "fidelity_err_pp": fidelity_error(improvements)
        if improvements else None,
        "cache_hits": traffic.hits,
        "cache_misses": traffic.misses,
        "search_events": sum(c.events for c in recorder.captures),
        "warp_instructions_lowered": sum(r.warp_instructions for r in runs),
        "jobs": [
            {
                "id": j.id,
                "family": j.family,
                "abbr": j.abbr,
                "variant": j.variant,
                "error": j.error,
                "stats": j.stats.to_json_dict() if j.stats else None,
                **detail.get(j.id, {}),
            }
            for j in jobs
        ],
    }
    if args.trace:
        record["self_s"] = recorder.self_times()
        record["spans"] = recorder.to_json()
        record["span_cost_s"] = spans.span_cost()
        record["trace_overhead_s"] = (
            len(recorder.spans) * record["span_cost_s"]
        )
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
