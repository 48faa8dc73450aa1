"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q

The campaign-equivalence test simulates every benchmark job twice (about
two minutes on a 2-core machine); the others take seconds.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import compare
import rep
import spans


def _run_checked(sources, seed, directory: Path, monkeypatch):
    """Run and check ``sources`` in a fresh cache; returns (jobs, detail)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(directory / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(directory / "results"))
    recorder = spans.Recorder(trace=False)
    restore = spans.install(recorder)
    try:
        jobs, runs = rep.run_jobs(sources, seed, recorder)
    finally:
        restore()
    detail = rep.check_jobs(jobs, runs, recorder.captures, seed)
    return jobs, detail


def test_seed0_jobs_equal_campaign_run_job(tmp_path, monkeypatch):
    from repro.experiments import campaign, common

    # The campaign runs every dataset at full scale only.
    sources = tuple(
        s for name in ("rt-cold", "graph-cold") for s in rep.WORKLOADS[name]
        if s.scale == 1.0
    )
    jobs, detail = _run_checked(sources, 0, tmp_path / "bench", monkeypatch)
    assert [j.id for j in jobs if j.error] == []

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "campaign"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "campaign-results"))
    for job in jobs:
        campaign_job = campaign.Job(job.family, job.abbr, job.variant)
        outcome = campaign.run_job(campaign_job)
        params = common.workload_params(job.family, job.abbr)
        entry = campaign.load_trace_entry(campaign.trace_key(
            params, campaign_job.variant, campaign_job.euclid_width
        ))
        assert detail[job.id]["trace_sha"] == entry["trace_sha"], job.id
        assert job.stats == outcome.stats, job.id

    cycles = {j.id: j.stats.cycles for j in jobs}
    assert cycles["bvhnn-r10k-baseline"] == 660_766
    assert cycles["bvhnn-r10k-hsu"] == 370_535
    assert cycles["ggnn-s10k-baseline"] == 321_977
    assert cycles["ggnn-s10k-hsu"] == 211_298


def test_checks_pass_on_another_seed(tmp_path, monkeypatch):
    sources = rep.WORKLOADS["rt-cold"] + rep.WORKLOADS["graph-cold"]
    jobs, detail = _run_checked(sources, 1, tmp_path, monkeypatch)
    assert [(j.id, j.error) for j in jobs if j.error] == []
    assert set(detail) == {j.id for j in jobs}


def test_span_cost_is_small_and_positive():
    assert 0.0 < spans.span_cost() < 1e-3


def test_self_times_sum_to_the_root_span():
    recorder = spans.Recorder(trace=True)
    with recorder.span("bench.loop"):
        with recorder.span("workloads.assemble"):
            with recorder.span("graph.build"):
                time.sleep(0.01)
            with recorder.span("search.query"):
                time.sleep(0.005)
        with recorder.span("gpusim.run"):
            time.sleep(0.01)
    root = recorder.spans[0]
    self_s = recorder.self_times()
    assert sum(self_s.values()) == pytest.approx(root[2] - root[1], abs=1e-9)
    assert self_s["graph.build"] >= 0.01
    assert [s[3] for s in recorder.spans] == [-1, 0, 1, 1, 0]


def _record(cycles: int) -> dict:
    return {
        "workload": "rt-cold", "seed": 0, "trace": 0,
        "metrics": {"wall_s": 10.0},
        "jobs": [{"id": "bvhnn-r10k-hsu", "stats": {"cycles": cycles},
                  "trace_sha": "ab", "engine_events": 5,
                  "idle_cycles_skipped": 1}],
    }


def test_compare_lists_every_moved_count(tmp_path):
    old, same, moved = (tmp_path / n for n in ("old.json", "same.json",
                                                "moved.json"))
    old.write_text(json.dumps(_record(100)))
    same.write_text(json.dumps(_record(100)))
    moved.write_text(json.dumps(_record(101)))
    assert "identical on every job" in compare.compare(old, same)
    text = compare.compare(old, moved)
    assert "bvhnn-r10k-hsu stats.cycles: 100 -> 101" in text
    assert "wall_s" in text

