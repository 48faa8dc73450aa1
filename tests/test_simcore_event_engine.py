"""The skip-to-next-event engine against a per-cycle reference stepper.

``GpuSimulator.run`` jumps the clock straight to the scheduler's event
horizon.  The reference stepper below executes the *same* issue logic but
ticks the clock one cycle at a time — the implementation the engine
replaced, built on ``SmCore.issue``, ``RtUnit.execute`` and
``Cache.access`` rather than the engine's packed columns.  Equality of the
resulting :class:`SimStats` on randomized traces, across every scheduler
policy, memory model and kernel backend, plus a mass admission wave, is
the exactness property the engine claims; a golden pin ties the engine to
the committed stats, and unit tests pin the ``next_event_cycle()``
contract of each occupancy primitive the horizons compose from.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.isa import Opcode
from repro.gpusim.config import (
    MEMORY_MODELS,
    SCHEDULER_POLICIES,
    GpuConfig,
)
from repro.gpusim.gpu import GpuSimulator
from repro.kernels import register_backend
from repro.kernels.jit import JitBackend, make_jit_backend
from repro.gpusim.resource import PipelinedLane, Port, SlotPool, Timeline
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KernelTrace, WarpInstr, WarpTrace

#: Small structure so traces overflow residency (exercising wave
#: admission) and contend on sub-cores, warp buffer, and MSHRs.
SMALL = GpuConfig(
    num_sms=2,
    subcores_per_sm=2,
    max_warps_per_sm=3,
    warp_buffer_size=2,
    l1_size_bytes=4 * 1024,
    l2_size_bytes=16 * 1024,
    l2_ways=4,
    l1_mshr_entries=4,
    l2_mshr_entries=8,
)

_OPCODES = (
    Opcode.RAY_INTERSECT,
    Opcode.POINT_EUCLID,
    Opcode.POINT_ANGULAR,
    Opcode.KEY_COMPARE,
)


def random_kernel(rng: random.Random, num_warps: int) -> KernelTrace:
    """A small trace touching every instruction kind with clustered
    addresses (so loads hit, miss, merge in MSHRs, and conflict)."""
    warps = []
    for windex in range(num_warps):
        instrs = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("alu", "sfu", "lds", "ldg", "hsu"))
            if kind == "ldg":
                active = rng.randint(1, 8)
                addrs = tuple(
                    rng.randrange(0, 1 << 13) for _ in range(active)
                )
                instrs.append(
                    WarpInstr(
                        "ldg",
                        active=active,
                        addrs=addrs,
                        bytes_per_thread=rng.choice((4, 8, 12)),
                    )
                )
            elif kind == "hsu":
                active = rng.randint(1, 6)
                addrs = tuple(
                    rng.randrange(0, 1 << 13) for _ in range(active)
                )
                instrs.append(
                    WarpInstr(
                        "hsu",
                        active=active,
                        addrs=addrs,
                        bytes_per_thread=rng.choice((0, 8, 32)),
                        opcode=rng.choice(_OPCODES),
                        beats=rng.randint(1, 3),
                    )
                )
            else:
                instrs.append(
                    WarpInstr(
                        kind,
                        active=rng.randint(1, 32),
                        repeat=rng.randint(1, 4),
                        chain=rng.randint(1, 3),
                        hsu_able=rng.random() < 0.3,
                    )
                )
        warps.append(WarpTrace(instructions=instrs, label=f"w{windex}"))
    return KernelTrace(warps=warps, name="event-engine-property")


def per_cycle_run(sim: GpuSimulator) -> SimStats:
    """Reference stepper: `GpuSimulator.run` with the jump removed.

    Identical warp placement, wave admission, issue, and retirement
    logic, but the clock advances one cycle per iteration and each cycle
    drains exactly the events ready at that cycle, in policy order.
    """
    config = sim.config
    scheduler = sim.scheduler
    num_sms = config.num_sms

    placements = []
    for index in range(sim.kernel.num_warps):
        sm = index % num_sms
        subcore = (index // num_sms) % config.subcores_per_sm
        placements.append((sm, subcore))

    deferred = [[] for _ in range(num_sms)]
    for index in range(sim.kernel.num_warps):
        sm_index, _ = placements[index]
        sm = sim.sms[sm_index]
        if sm.resident < config.max_warps_per_sm:
            sm.resident += 1
            scheduler.push(0, index, 0)
        else:
            deferred[sm_index].append(index)

    warps = sim.kernel.warps
    finish = 0
    clock = 0
    ticks = 0
    while len(scheduler):
        while scheduler.next_event_cycle() == clock:
            ready, windex, position = scheduler.pop()
            warp = warps[windex]
            instr = warp.instructions[position]
            sm_index, subcore = placements[windex]
            sm = sim.sms[sm_index]

            done = sm.issue(instr, subcore, ready)

            position += 1
            if position < warp.length:
                scheduler.push(done, windex, position)
            else:
                if done > finish:
                    finish = done
                heapq.heappush(sm.retire_heap, done)
                if deferred[sm_index]:
                    successor = deferred[sm_index].pop(0)
                    start = heapq.heappop(sm.retire_heap)
                    scheduler.push(start, successor, 0)
        clock += 1
        ticks += 1
        assert ticks < 5_000_000, "reference stepper runaway"

    sim._m_cycles.set(finish)
    sim._m_warps.set(sim.kernel.num_warps)
    for sm in sim.sms:
        sm.publish()
    sim.memory.finish()
    stats = SimStats.from_registry(sim.registry)
    stats.check_dram_consistency()
    return stats


def assert_matches_reference(config: GpuConfig, kernel: KernelTrace, label):
    """The event loop and the per-cycle stepper agree bit for bit."""
    event_stats = GpuSimulator(config, kernel).run()
    reference = per_cycle_run(GpuSimulator(config, kernel))
    assert event_stats == reference, label
    return event_stats


def mass_horizon_kernel(rng: random.Random) -> KernelTrace:
    """An admission wave of 2 x 64 pure-compute warps: with 64 resident
    warps per SM on two SMs, all of them are admitted at cycle 0, so the
    first horizon holds 128 same-cycle pure events."""
    warps = []
    for windex in range(2 * 64):
        instrs = [
            WarpInstr(
                rng.choice(("alu", "sfu", "lds")),
                active=rng.randint(1, 32),
                repeat=rng.randint(1, 4),
                chain=rng.randint(1, 2),
                hsu_able=rng.random() < 0.2,
            )
            for _ in range(rng.randint(2, 6))
        ]
        warps.append(WarpTrace(instructions=instrs, label=f"w{windex}"))
    return KernelTrace(warps=warps, name="mass-horizon")


class TestEngineMatchesReference:
    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    @pytest.mark.parametrize("memory", MEMORY_MODELS)
    def test_identical_stats_on_random_traces(self, policy, memory):
        config = replace(SMALL, scheduler=policy, memory=memory)
        base = 1000 * SCHEDULER_POLICIES.index(policy)
        base += 100 * MEMORY_MODELS.index(memory)
        for seed in range(4):
            rng = random.Random(base + seed)
            kernel = random_kernel(rng, num_warps=rng.randint(1, 12))
            assert_matches_reference(
                config, kernel, f"policy={policy} memory={memory} "
                f"seed={base + seed}"
            )

    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    def test_mass_horizon_admission_wave(self, policy):
        wide = replace(
            SMALL, scheduler=policy, max_warps_per_sm=64, warp_buffer_size=8
        )
        rng = random.Random(SCHEDULER_POLICIES.index(policy))
        assert_matches_reference(wide, mass_horizon_kernel(rng), policy)

    def test_forced_jit_backend(self):
        """``get_backend("jit")`` degrades to the reference instance when
        numba is absent, so force the registry to hand out a
        directly-constructed :class:`JitBackend` (its kernels run as plain
        Python without numba)."""
        register_backend("jit", JitBackend)
        try:
            config = replace(SMALL, kernel_backend="jit")
            for seed in range(3):
                rng = random.Random(31_000 + seed)
                kernel = random_kernel(rng, num_warps=rng.randint(2, 12))
                assert_matches_reference(config, kernel, seed)
        finally:
            register_backend("jit", make_jit_backend)

    def test_engine_gauges_account_for_every_issue(self):
        rng = random.Random(42)
        kernel = random_kernel(rng, num_warps=9)
        sim = GpuSimulator(SMALL, kernel)
        stats = sim.run()
        # One engine event per warp-instruction issue, even for warps
        # admitted by wave scheduling after a residency slot frees.
        assert sim.registry.value("gpu/engine/events") == (
            kernel.total_instructions()
        )
        skipped = sim.registry.value("gpu/engine/idle_cycles_skipped")
        assert 0 <= skipped < stats.cycles

    def test_slow_path_events_count_the_non_pure_issues(self):
        """Without wave admission no pure event is ever due before the
        clock, so the per-instruction path handles exactly the loads,
        HSU chains and warp-final instructions."""
        rng = random.Random(43)
        kernel = random_kernel(rng, num_warps=9)
        sim = GpuSimulator(replace(SMALL, max_warps_per_sm=64), kernel)
        sim.run()
        non_pure = sum(
            1
            for warp in kernel.warps
            for position, instr in enumerate(warp.instructions)
            if instr.kind in ("ldg", "hsu") or position == warp.length - 1
        )
        assert sim.registry.value("gpu/engine/slow_path_events") == non_pure
        assert non_pure < sim.registry.value("gpu/engine/events")

    def test_single_warp_single_instruction(self):
        kernel = KernelTrace(
            warps=[WarpTrace(instructions=[WarpInstr("alu")])], name="tiny"
        )
        event_stats = assert_matches_reference(SMALL, kernel, "tiny")
        assert event_stats.warp_instructions == 1

    def test_reproduces_committed_golden(self):
        """Golden pin: the event loop must land on the committed
        ``gpusim_smoke.json`` stats bit-exactly, from the committed trace
        fingerprint and config hash."""
        from repro.experiments.common import config_for, trace_bundle

        golden_path = (
            Path(__file__).resolve().parent / "goldens" / "gpusim_smoke.json"
        )
        golden = json.loads(golden_path.read_text())
        key = sorted(golden)[0]
        family, abbr, variant = key.split("-")
        entry = golden[key]
        bundle = trace_bundle(family, abbr, 64)
        trace = bundle.baseline if variant == "baseline" else bundle.hsu
        config = config_for(family)
        assert trace.fingerprint() == entry["trace_sha"], key
        assert config.stable_hash() == entry["config_sha"], key
        stats = GpuSimulator(config, trace).run()
        assert stats.to_json_dict() == entry["simstats"], key


class TestBatchedMatchesScalar:
    """The warp-batched engine against the scalar per-instruction
    reference stepper on a second, disjoint family of random seeds:
    :class:`SimStats` must be bit-identical for every policy and memory
    model."""

    @pytest.mark.parametrize("policy", SCHEDULER_POLICIES)
    @pytest.mark.parametrize("memory", MEMORY_MODELS)
    def test_identical_stats_on_random_traces(self, policy, memory):
        config = replace(SMALL, scheduler=policy, memory=memory)
        base = 7000 * SCHEDULER_POLICIES.index(policy)
        base += 700 * MEMORY_MODELS.index(memory)
        for seed in range(3):
            rng = random.Random(base + seed)
            kernel = random_kernel(rng, num_warps=rng.randint(1, 12))
            assert_matches_reference(
                config, kernel, f"policy={policy} memory={memory} "
                f"seed={base + seed}"
            )


class TestPrimitiveHorizons:
    """``next_event_cycle()``: observational, and the integer cycle at
    which each primitive's occupancy next changes an acquirer's outcome."""

    def test_port_horizon_tracks_fractional_budget(self):
        port = Port(interval=2.5)
        assert port.next_event_cycle() == 0
        assert port.acquire(0) == 0
        assert port.next_event_cycle() == 3  # ceil(2.5)
        assert port.acquire(0) == 3
        assert port.next_event_cycle() == 5  # ceil(5.0)
        before = port.next_event_cycle()
        assert port.next_event_cycle() == before  # observational

    def test_timeline_horizon_is_the_reservation_expiry(self):
        line = Timeline()
        assert line.next_event_cycle() == 0
        line.hold_until(7)
        assert line.next_event_cycle() == 7
        assert line.begin(3) == 7  # begin() does not mutate the horizon
        assert line.next_event_cycle() == 7

    def test_slot_pool_horizon_is_the_earliest_release(self):
        pool = SlotPool(capacity=2)
        assert pool.next_event_cycle() == 0
        pool.occupy(9)
        pool.occupy(5)
        assert pool.next_event_cycle() == 5
        assert pool.next_event_cycle() == 5  # observational
        # Full pool: acquiring waits for exactly the advertised horizon.
        assert pool.acquire(0) == 5
        assert pool.next_event_cycle() == 9

    def test_pipelined_lane_horizon_prefers_backfillable_gaps(self):
        lane = PipelinedLane()
        assert lane.next_event_cycle() == 0
        assert lane.allocate(0, 3) == 0
        assert lane.next_event_cycle() == 3  # tail, no gaps
        assert lane.allocate(10, 2) == 10  # leaves gap [3, 10)
        assert lane.next_event_cycle() == 3  # gap start wins over tail
        assert lane.allocate(0, 4) == 3  # backfills the gap
        assert lane.next_event_cycle() == 7  # remaining gap [7, 10)

    def test_sm_core_horizon_composes_children(self):
        kernel = KernelTrace(
            warps=[
                WarpTrace(
                    instructions=[
                        WarpInstr("alu", repeat=4),
                        WarpInstr(
                            "ldg",
                            active=2,
                            addrs=(0, 4096),
                            bytes_per_thread=4,
                        ),
                    ]
                )
            ],
            name="horizon",
        )
        sim = GpuSimulator(SMALL, kernel)
        assert sim.next_event_cycle() is None  # nothing queued before run
        sim.run()
        sm = sim.sms[0]
        # After the run, the SM horizon is the max of nothing pending:
        # still a plain integer, never None (components always answer).
        assert isinstance(sm.next_event_cycle(), int)
        assert sim.next_event_cycle() is None  # drained
