"""RT/HSU unit model: warp buffer, fetch coalescing, pipeline allocation."""

import random

import pytest

from repro.core.isa import Opcode
from repro.errors import TraceError
from repro.gpusim.cache import Cache
from repro.gpusim.config import VOLTA_V100
from repro.gpusim.observability import MetricsRegistry
from repro.gpusim.resource import PipelinedLane
from repro.gpusim.rtunit import RtUnit
from repro.gpusim.trace import KIND_HSU, WarpInstr


def make_unit(warp_buffer=8, next_latency=200):
    config = VOLTA_V100.scaled(1).with_warp_buffer(warp_buffer)

    def next_level(line, time):
        return time + next_latency

    l1 = Cache(
        name="L1", sets=config.l1_sets, ways=config.l1_ways,
        line_bytes=128, hit_latency=32, mshr_entries=48,
        next_level=next_level,
    )
    return RtUnit(config, l1), l1


def hsu_instr(active=4, beats=1, base=0x1000, stride=4096, bytes_per_thread=64):
    return WarpInstr(
        KIND_HSU,
        active=active,
        addrs=tuple(base + i * stride for i in range(active)),
        bytes_per_thread=bytes_per_thread,
        opcode=Opcode.POINT_EUCLID,
        beats=beats,
    )


class TestExecution:
    def test_single_instruction_latency(self):
        unit, _l1 = make_unit()
        done = unit.execute(hsu_instr(active=4), issue_time=0)
        # fetch (~miss 200+) + 4 pipeline slots + depth 9.
        assert done >= 200 + 4 + 9
        assert unit.stats.warp_instructions == 1
        assert unit.stats.thread_beats == 4

    def test_multibeat_occupancy(self):
        unit, _l1 = make_unit()
        done_1 = make_unit()[0].execute(hsu_instr(active=8, beats=1), 0)
        done_6 = unit.execute(hsu_instr(active=8, beats=6), 0)
        # Six beats per thread occupy the single-lane pipeline longer.
        assert done_6 > done_1
        assert unit.stats.thread_beats == 48

    def test_fetch_lines_deduplicated(self):
        """Threads touching the same cache line coalesce into one request
        in the memory access FIFO (the Fig. 12 CISC coalescing)."""
        unit, l1 = make_unit()
        # All four threads read within one 128-byte line.
        instr = WarpInstr(
            KIND_HSU, active=4, addrs=(0, 16, 32, 48), bytes_per_thread=16,
            opcode=Opcode.POINT_EUCLID,
        )
        unit.execute(instr, 0)
        assert unit.stats.fetch_line_accesses == 1
        assert l1.stats.accesses == 1

    def test_scattered_threads_fetch_separately(self):
        unit, l1 = make_unit()
        unit.execute(hsu_instr(active=4, stride=4096), 0)
        assert l1.stats.accesses == 4


class TestWarpBuffer:
    def test_single_entry_serializes(self):
        """§VI-I: one entry allows only one instruction to fetch at a time."""
        serialized, _ = make_unit(warp_buffer=1)
        parallel, _ = make_unit(warp_buffer=8)
        last_serial = 0
        last_parallel = 0
        for i in range(8):
            instr = hsu_instr(active=2, base=0x1000 + i * 64 * 1024)
            last_serial = max(last_serial, serialized.execute(instr, 0))
            last_parallel = max(last_parallel, parallel.execute(instr, 0))
        assert last_serial > last_parallel * 2

    def test_entry_stall_accounting(self):
        unit, _ = make_unit(warp_buffer=1)
        for i in range(4):
            unit.execute(hsu_instr(active=2, base=0x1000 + i * 64 * 1024), 0)
        assert unit.stats.entry_stall_cycles > 0

    def test_entry_released_at_pipeline_issue(self):
        """The entry frees when all threads have issued to the datapath,
        not at retirement — back-to-back dispatches of warm data should
        proceed at pipeline rate."""
        unit, l1 = make_unit(warp_buffer=1, next_latency=10)
        # Warm the line.
        unit.execute(hsu_instr(active=1, base=0), 0)
        warm_start = 1000
        d1 = unit.execute(hsu_instr(active=1, base=0), warm_start)
        d2 = unit.execute(hsu_instr(active=1, base=0), warm_start)
        # The second dispatch waits for the entry (released at pipe issue,
        # before d1's full retirement).
        assert d2 - d1 <= 40
        del l1


class TestPipelineAllocator:
    def test_backfill_no_head_of_line_blocking(self):
        """A slow-fetching instruction must not delay a later one whose
        data is already available (out-of-order entry scheduling)."""
        unit, _ = make_unit(next_latency=500)
        # First instruction misses (ready ~500+).
        slow = unit.execute(hsu_instr(active=2, base=0x100000), 0)
        # Second touches the same line as a previous... use a warmed line:
        unit2, _ = make_unit(next_latency=500)
        unit2.execute(hsu_instr(active=1, base=0), 0)  # warm line 0
        t_slow = unit2.execute(hsu_instr(active=2, base=0x200000), 600)
        t_fast = unit2.execute(hsu_instr(active=1, base=0), 601)
        # The fast one completes well before the slow one.
        assert t_fast < t_slow
        del slow

    def test_gap_reuse_preserves_capacity(self):
        unit, _ = make_unit(next_latency=100)
        times = [
            unit.execute(hsu_instr(active=4, base=i * 0x10000), 0)
            for i in range(10)
        ]
        # Total pipeline work = 40 thread-beats; the last completion cannot
        # be earlier than fetch + work.
        assert max(times) >= 100 + 40


class _ListLane:
    """The linear-scan gap list :class:`PipelinedLane` replaced, kept as
    the oracle: its start cycles and horizons define the lane's behaviour."""

    _MAX_GAPS = 64

    def __init__(self) -> None:
        self._tail = 0
        self._gaps: list[tuple[int, int]] = []
        self._max_gap_len = 0

    def allocate(self, ready: int, busy: int) -> int:
        gaps = self._gaps
        if gaps and busy <= self._max_gap_len and ready < self._tail:
            longest = 0
            fitted = False
            for index, (gap_start, gap_end) in enumerate(gaps):
                length = gap_end - gap_start
                if length > longest:
                    longest = length
                if length < busy:
                    continue
                start = gap_start if gap_start >= ready else ready
                if start + busy <= gap_end:
                    fitted = True
                    break
            if fitted:
                replacement = []
                if start > gap_start:
                    replacement.append((gap_start, start))
                if start + busy < gap_end:
                    replacement.append((start + busy, gap_end))
                gaps[index : index + 1] = replacement
                return start
            self._max_gap_len = longest
        start = max(self._tail, ready)
        if start > self._tail:
            gaps.append((self._tail, start))
            if start - self._tail > self._max_gap_len:
                self._max_gap_len = start - self._tail
            if len(gaps) > self._MAX_GAPS:
                gaps.pop(0)
        self._tail = start + busy
        return start

    def next_event_cycle(self) -> int:
        if self._gaps:
            return self._gaps[0][0]
        return self._tail


class _SmallBlockLane(PipelinedLane):
    """Two-gap blocks, so block splits and index rebuilds run constantly."""

    __slots__ = ()
    _BLOCK = 2


def _next_request(rng: random.Random, oracle: _ListLane) -> tuple[str, int, int]:
    """One ``(kind, ready, busy)`` request aimed at the oracle's state."""
    gaps, tail = oracle._gaps, oracle._tail
    roll = rng.random()
    if not gaps or roll < 0.25:
        # At or past the tail: appends a gap, evicting past the cap.
        return "tail", tail + rng.randint(0, 200), rng.randint(1, 12)
    start, end = rng.choice(gaps)
    length = end - start
    if roll < 0.35:
        return "exact", start, length  # zero remainders
    if roll < 0.45 and length > 1:
        return "head", start, rng.randint(1, length - 1)  # right remainder
    if roll < 0.55 and length > 1:
        busy = rng.randint(1, length - 1)
        return "rear", end - busy, busy  # left remainder
    if roll < 0.80 and length > 2:
        ready = rng.randint(start + 1, end - 2)
        return "inside", ready, rng.randint(1, min(8, end - ready - 1))  # two
    if roll < 0.88:
        # Before every gap, with any size.
        return "early", rng.randint(0, gaps[0][0]), rng.randint(1, 30)
    if roll < 0.94:
        longest = max(e - s for s, e in gaps)
        return "oversize", rng.randint(0, tail), longest + rng.randint(1, 5)
    return "random", rng.randint(0, tail), rng.randint(1, 30)


class TestLaneFirstFit:
    """The lane against the list oracle on seeded request streams."""

    @pytest.mark.parametrize("lane_type", [PipelinedLane, _SmallBlockLane])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_list_oracle(self, lane_type, seed):
        rng = random.Random(seed)
        oracle, lane = _ListLane(), lane_type()
        outcomes = set()
        evictions = 0

        def step_both(ready, busy):
            expected = oracle.allocate(ready, busy)
            assert lane.allocate(ready, busy) == expected, (ready, busy)
            assert lane.next_event_cycle() == oracle.next_event_cycle()
            assert lane.gap_count == len(oracle._gaps)

        for step in range(4000):
            if step % 2000 == 1999:
                # Fill every gap exactly, so the lane empties and refills.
                for start, end in list(oracle._gaps):
                    step_both(start, end - start)
                assert lane.gap_count == 0
            kind, ready, busy = _next_request(rng, oracle)
            before = len(oracle._gaps)
            first = oracle._gaps[0] if oracle._gaps else None
            step_both(ready, busy)
            if step % 25 == 0:
                assert lane.gaps() == oracle._gaps
            if kind == "tail" and before >= lane._MAX_GAPS:
                evictions += first not in oracle._gaps
            outcomes.add((kind, len(oracle._gaps) - before))
        assert lane.gaps() == oracle._gaps
        # Every situation the stream aims at actually arose.
        for outcome in [
            ("exact", -1), ("head", 0), ("rear", 0), ("inside", 1),
            ("tail", 1), ("oversize", 0), ("early", 0),
        ]:
            assert outcome in outcomes, outcome
        assert lane.peak_gaps > 200
        assert evictions > 20

    def test_rejects_empty_allocation(self):
        with pytest.raises(TraceError):
            PipelinedLane().allocate(0, 0)


def _fill_to_cap(lane: PipelinedLane) -> None:
    """Append gaps ``[4i, 4i+3)`` (one-cycle entries) up to the cap."""
    for _ in range(lane._MAX_GAPS):
        lane.allocate(lane.tail + 3, 1)


class TestGapBound:
    """The bound the docstrings state: cap on append only."""

    def test_splits_grow_past_the_cap(self):
        lane = PipelinedLane()
        _fill_to_cap(lane)
        assert lane.gap_count == lane._MAX_GAPS
        # A one-cycle entry in the middle of a three-cycle gap splits it.
        for start, _end in lane.gaps()[:10]:
            assert lane.allocate(start + 1, 1) == start + 1
        assert lane.gap_count == lane._MAX_GAPS + 10
        assert lane.peak_gaps == lane._MAX_GAPS + 10

    def test_overflowing_append_evicts_the_lowest_start_gap(self):
        lane = PipelinedLane()
        _fill_to_cap(lane)
        for start, _end in lane.gaps()[:5]:
            lane.allocate(start + 1, 1)
        held = lane.gaps()
        tail = lane.tail
        assert lane.allocate(tail + 7, 2) == tail + 7
        assert lane.gaps() == held[1:] + [(tail, tail + 7)]
        assert lane.next_event_cycle() == held[1][0]
        assert lane.peak_gaps == len(held)


class TestGapGauge:
    def test_probe_reports_the_lane_high_water_mark(self):
        unit, _ = make_unit(next_latency=300)
        registry = MetricsRegistry()
        unit.register_metrics(registry.scope("sm0").scope("rt"))
        assert registry.value("sm0/rt/pipe_gaps_peak") == 0
        # Misses issued 50 cycles apart each start past the lane's tail,
        # leaving an idle gap behind them.
        for i in range(6):
            unit.execute(hsu_instr(active=2, base=0x100000 * (i + 1)), i * 50)
        peak = registry.value("sm0/rt/pipe_gaps_peak")
        assert peak == unit._pipe.peak_gaps == 6
