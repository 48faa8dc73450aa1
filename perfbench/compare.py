"""Diff two benchmark records: metrics side by side, moved simulated counts.

``python3 perfbench/run.py --compare OLD NEW`` where each side is a record
written by ``run.py --out`` or a directory of them (paired by file name).
Every simulated count that moved is listed per workload and job; when none
moved, a host-only change left the simulated statistics identical.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Per-job values besides the ``SimStats`` fields that must not move.
JOB_KEYS = ("trace_sha", "engine_events", "idle_cycles_skipped")


def _pairs(old: Path, new: Path) -> list[tuple[Path, Path]]:
    if old.is_dir() and new.is_dir():
        names = sorted({p.name for p in old.glob("*.json")}
                       & {p.name for p in new.glob("*.json")})
        if not names:
            raise SystemExit(f"no record names shared by {old} and {new}")
        return [(old / name, new / name) for name in names]
    if old.is_dir() or new.is_dir():
        raise SystemExit("compare two files or two directories")
    return [(old, new)]


def simulated(job: dict) -> dict:
    """Everything simulated about one job: its stats and ``JOB_KEYS``."""
    values = {f"stats.{k}": v for k, v in (job.get("stats") or {}).items()}
    values.update({k: job.get(k) for k in JOB_KEYS})
    return values


def _moved(old: dict, new: dict) -> list[str]:
    lines = []
    old_jobs = {job["id"]: job for job in old["jobs"]}
    new_jobs = {job["id"]: job for job in new["jobs"]}
    for job_id in sorted(old_jobs.keys() | new_jobs.keys()):
        if job_id not in old_jobs or job_id not in new_jobs:
            side = "old" if job_id in old_jobs else "new"
            lines.append(f"  {job_id}: only in {side}")
            continue
        a, b = simulated(old_jobs[job_id]), simulated(new_jobs[job_id])
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                lines.append(f"  {job_id} {key}: {a.get(key)} -> {b.get(key)}")
    return lines


def _metric_rows(old: dict, new: dict) -> list[str]:
    rows = [f"  {'metric':32} {'old':>14} {'new':>14} {'change':>9}"]
    for name in sorted(old["metrics"].keys() | new["metrics"].keys()):
        a, b = old["metrics"].get(name), new["metrics"].get(name)
        change = (f"{(b - a) / a * 100:+8.2f}%"
                  if a not in (None, 0) and b is not None else "")
        rows.append(f"  {name:32} {_num(a):>14} {_num(b):>14} {change:>9}")
    return rows


def _num(value) -> str:
    if value is None:
        return "-"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def compare(old_path: Path, new_path: Path) -> str:
    """Side-by-side metrics and every moved simulated count, per workload."""
    out = []
    for old_file, new_file in _pairs(Path(old_path), Path(new_path)):
        old = json.loads(old_file.read_text())
        new = json.loads(new_file.read_text())
        out.append(f"{old['workload']} (seed {old['seed']} vs {new['seed']}, "
                   f"trace {old['trace']}): {old_file} -> {new_file}")
        out += _metric_rows(old, new)
        moved = _moved(old, new)
        if moved:
            out.append(f"  {len(moved)} simulated values moved:")
            out += moved
        else:
            out.append("  simulated statistics identical on every job")
    return "\n".join(out)
