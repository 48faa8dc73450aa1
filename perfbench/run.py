"""The repository benchmark: cold paired pipeline and cold graph build.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload rt-cold --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

Each repetition is a fresh single process (``perfbench/rep.py``) with its own
cache and results directories, so every kernel simulates cold.  With
``--trace 0`` repetitions run until ``--seconds`` is spent and the end-to-end
metrics are medians over them.  With ``--trace 1`` one untraced and one
traced repetition run; the per-layer metrics come from the traced one and
their simulated statistics must match.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
with the names and units ``BENCHMARK.json`` lists.  The full record, with
per-job simulated statistics, is written to ``--out`` (default under
``.bench_out/``) and two such records are compared with ``--compare``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import rep
import spans
from compare import compare, simulated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: A run must end within this many seconds; repetitions are cut to fit.
RUN_LIMIT_S = 170.0
#: Set-up is sampled at least this many times per run (extra set-up-only
#: launches top up the repetitions' own samples).
SETUP_SAMPLES = 7

#: Per-layer self-time metric -> its span.  The four index builds are
#: reported as one ``search.build_s``: each workload builds only some index
#: kinds, and a layer time that reads 0 on every run of a workload is no
#: measurement.  The record keeps each kind's self time under ``self_s``.
LAYER_TIMES = {
    f"{name}_s": name for name in spans.SPAN_NAMES
    if name not in spans.BUILD_SPANS
}

#: Simulated counts summed over a workload's jobs: metric -> SimStats field.
SIM_SUMS = {
    "gpusim.cycles": "cycles",
    "sched.warp_instructions": "warp_instructions",
    "rtunit.warp_instructions": "hsu_warp_instructions",
    "rtunit.thread_beats": "hsu_thread_beats",
    "rtunit.entry_stall_cycles": "hsu_entry_stall_cycles",
    "rtunit.fetch_line_accesses": "hsu_fetch_line_accesses",
    "memory.l1_mshr_stalls": "l1_mshr_stalls",
    "dram.accesses": "dram_accesses",
}
#: Ratios over a workload's jobs: metric -> (numerator, denominator) fields.
SIM_RATIOS = {
    "memory.l1_hit_ratio": ("l1_hits", "l1_accesses"),
    "memory.l2_hit_ratio": ("l2_hits", "l2_accesses"),
    "dram.row_locality": ("dram_accesses", "dram_activations"),
}
FAMILIES = ("bvhnn", "flann", "btree", "ggnn")

def _launch(workload: str, seed: int, trace: int, deadline: float,
            setup_only: bool = False) -> dict:
    """Run one repetition in a fresh process; returns its record."""
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=OUT / "tmp"))
    out = work / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("REPRO_MANIFESTS", None)
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--dir", str(work),
        "--out", str(out), *(["--setup-only"] if setup_only else []),
    ]
    try:
        done = subprocess.run(
            [*command, "--launched", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not out.exists():
            raise RuntimeError(
                f"repetition of {workload} exited with {done.returncode}"
            )
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _sim_signature(record: dict) -> dict:
    """Per job, everything simulated: must not depend on tracing."""
    return {job["id"]: simulated(job) for job in record["jobs"]}


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    def median(key: str) -> float:
        return statistics.median(r[key] for r in records)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": median("wall_s"),
        "peak_rss_mb": median("peak_rss_mb"),
    }


def per_layer(traced: dict) -> dict:
    self_s = traced["self_s"]
    metrics = {"search.build_s": sum(self_s[n] for n in spans.BUILD_SPANS)}
    metrics.update({metric: self_s[name]
                    for metric, name in LAYER_TIMES.items()})
    jobs = [job for job in traced["jobs"] if job["stats"]]
    events = sum(job.get("engine_events", 0) for job in jobs)
    metrics.update({
        "search.events": traced["search_events"],
        "compiler.warp_instructions": traced["warp_instructions_lowered"],
        "campaign.cache_hits": traced["cache_hits"],
        "campaign.cache_misses": traced["cache_misses"],
        "gpusim.events": events,
        "gpusim.us_per_event": metrics["gpusim.run_s"] * 1e6 / events
        if events else 0.0,
        "sim_kinst_per_s": traced["sim_kinst"] / traced["sim_s"]
        if traced["sim_s"] else 0.0,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["trace_overhead_s"],
        "fidelity_err_pp": traced["fidelity_err_pp"],
        "gpusim.idle_cycles_skipped": sum(
            job.get("idle_cycles_skipped", 0) for job in jobs
        ),
    })
    for metric, field in SIM_SUMS.items():
        metrics[metric] = sum(job["stats"][field] for job in jobs)
    for metric, (num, den) in SIM_RATIOS.items():
        total = sum(job["stats"][den] for job in jobs)
        metrics[metric] = (
            sum(job["stats"][num] for job in jobs) / total if total else 0.0
        )
    for family in FAMILIES:
        pct = traced["improvement_pct"].get(family)
        metrics[f"hsu_speedup.{family}"] = (
            1.0 + pct / 100.0 if pct is not None else 0.0
        )
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the repetitions of one benchmark run; returns its full record."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    records: list[dict] = []
    if trace:
        untraced = _launch(workload, seed, 0, deadline)
        traced = _launch(workload, seed, 1, deadline)
        records = [untraced, traced]
        metrics = per_layer(traced)
        consistent = _sim_signature(traced) == _sim_signature(untraced)
    else:
        while True:
            records.append(_launch(workload, seed, 0, deadline))
            spent = time.monotonic() - start
            per_rep = spent / len(records)
            if spent + per_rep > seconds:
                break
        setups = [r["setup_s"] for r in records]
        while len(setups) < SETUP_SAMPLES:
            setups.append(
                _launch(workload, seed, 0, deadline, setup_only=True)[
                    "setup_s"]
            )
        metrics = end_to_end(records, setups)
        first = _sim_signature(records[0])
        consistent = all(_sim_signature(r) == first for r in records[1:])
    failed = sum(1 for r in records for job in r["jobs"] if job["error"])
    if not consistent:
        failed = max(failed, 1)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": sum(len(r["jobs"]) for r in records),
        "failed": failed,
        "metrics": metrics,
        "jobs": records[0]["jobs"],
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("jobs", "spans")}
            for r in records
        ],
        "spans": records[-1].get("spans"),
    }


def _result_line(record: dict) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if record["trace"] else "end_to_end"]
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in listed
    }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(rep.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the full record")
    parser.add_argument("--compare", nargs=2, type=Path, metavar="RECORD",
                        help="diff two records (files or directories)")
    args = parser.parse_args(argv)
    if args.compare:
        print(compare(*args.compare))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    out = args.out or (
        OUT / "results"
        / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(_result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
