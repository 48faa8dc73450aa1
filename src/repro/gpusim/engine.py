"""The simulate event loop: one skip-to-next-event engine over SoA columns.

:meth:`GpuSimulator.run <repro.gpusim.gpu.GpuSimulator.run>` calls
:func:`run_events`, which loops over the flat per-instruction columns
:mod:`repro.gpusim.soa` packs at ingest instead of walking
:class:`~repro.gpusim.trace.WarpInstr` objects.  The clock jumps straight
to the scheduler's event horizon; every event due at the clock is handled
in policy order on one of two paths:

1. **Pure chain** — the heap top is a *pure* instruction (ALU/SFU/LDS
   with a successor in its warp: no memory-system interaction, no
   retirement) due at or after the clock.  Its issue is closed-form port
   + latency math, and its successor is re-queued with one
   ``heapreplace`` sift.  The chain continues while the new heap top is
   pure and due at the same clock.  Safe because a pure event completes
   strictly later than it issues (``off >= 1``), so its successor can
   never precede another same-clock event in policy order.  The chain
   attributes no counters: every instruction issues exactly once and a
   pure instruction's whole attribution (kind/warp-instruction counts and
   its ``off + 1`` busy span) is a pack-time constant, so the per-SM
   accumulators start from the static seeds ``soa.py`` precomputes.
2. **Per-instruction path** — memory/HSU instructions, warp retirements
   and wave admissions, and pure events due *before* the clock (deferred
   admissions, whose completions may land at or before it).  Semantics
   are identical to :meth:`SmCore.issue <repro.gpusim.gpu.SmCore.issue>`
   plus retirement, including the same per-line cache port grants via the
   batch :meth:`~repro.gpusim.cache.Cache.access_lines` fetch.  Only
   non-pure events attribute counters here (pure ones are in the seed).
   The ``gpu/engine/slow_path_events`` gauge counts the events this path
   handled; the pure chain's share is ``events - slow_path_events``.

``tests/test_simcore_event_engine.py`` checks the loop against a
per-cycle reference stepper built on ``SmCore.issue``, ``RtUnit.execute``
and ``Cache.access`` across every scheduler policy, memory model and
kernel backend, and pins the committed golden.
"""

from __future__ import annotations

import heapq

from repro.gpusim.observability.tracer import MODE_LAST
from repro.gpusim.scheduler import (
    GtoScheduler,
    LrrScheduler,
    OldestFirstScheduler,
)
from repro.gpusim.stats import SimStats
from repro.gpusim.trace import KIND_CODES

_KIND_NAMES = tuple(KIND_CODES)

#: Scheduler classes whose heap-entry layout the pure chain inlines
#: (subclasses may change ``_key``, so exact-type match only).
_KNOWN_SCHEDULERS = (GtoScheduler, LrrScheduler, OldestFirstScheduler)


def run_events(sim) -> SimStats:
    """Run one simulation of ``sim`` (a ``GpuSimulator``; see the module
    doc) and return its :class:`SimStats`."""
    config = sim.config
    tracer = sim.tracer
    scheduler = sim.scheduler
    sms = sim.sms
    packed = sim._packed

    occupancy_channel = None
    if tracer is not None:
        occupancy_channel = tracer.channel(
            "gpu/warps_inflight", mode=MODE_LAST, unit="warps"
        )

    num_sms = config.num_sms
    subcores_per_sm = config.subcores_per_sm
    num_warps = sim.kernel.num_warps

    # Static warp placement: round-robin over SMs, then sub-cores.
    # ``warp_port`` is the flat sub-core issue-port id.
    warp_sm = [0] * num_warps
    warp_port = [0] * num_warps
    for index in range(num_warps):
        smi = index % num_sms
        subcore = (index // num_sms) % subcores_per_sm
        warp_sm[index] = smi
        warp_port[index] = smi * subcores_per_sm + subcore

    # Wave admission: a warp starts at cycle 0 if a residency slot is
    # free, else when the earliest resident warp on its SM retires.
    deferred: list[list[int]] = [[] for _ in range(num_sms)]
    max_warps = config.max_warps_per_sm
    for index in range(num_warps):
        sm = sms[warp_sm[index]]
        if sm.resident < max_warps:
            sm.resident += 1
            scheduler.push(0, index, 0)
        else:
            deferred[warp_sm[index]].append(index)

    inflight = len(scheduler)
    if occupancy_channel is not None:
        tracer.record(occupancy_channel, 0, inflight)

    # Flat issue-port busy-until times (the sub-core Timeline mirror) and
    # per-SM counter accumulators seeded with the pure-instruction totals.
    port_busy = [0] * (num_sms * subcores_per_sm)
    wi_list = list(packed.static_wi)
    able_list = list(packed.static_able)
    other_list = list(packed.static_other)
    kinds_list = [row[:] for row in packed.static_kinds]

    starts = packed.starts
    lengths = packed.lengths
    kind = packed.kind
    hold = packed.hold
    off = packed.off
    kcnt = packed.kcnt
    repeat = packed.repeat
    able = packed.able
    attrs = packed.attrs
    lines = packed.lines
    hsubusy = packed.hsubusy

    # Per-SM bound methods for the memory/HSU paths — one list index
    # instead of three attribute hops per event.
    l1_fetch = [sm.l1.access_lines for sm in sms]
    hsu_exec = [sm.rt_unit.execute_packed for sm in sms]

    heap = scheduler._heap
    push = scheduler.push
    replace = scheduler.replace
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    # Policy code for the pure chain's inlined heapreplace entries
    # (-1 = unknown policy, fall back to the scheduler.replace method).
    pol = scheduler.policy_code if type(scheduler) in _KNOWN_SCHEDULERS \
        else -1
    finish = 0
    clock = 0
    events = 0
    slow = 0
    idle = 0

    while heap:
        top = heap[0]
        r0 = top[-3]
        w0 = top[-2]
        p0 = top[-1]
        gi0 = starts[w0] + p0
        a = attrs[gi0]

        if a is not None and r0 >= clock:
            # Pure chain: each pure top is processed in place and swapped
            # for its successor in ONE heap sift (``heapreplace``).
            if r0 > clock:
                idle += r0 - clock - 1
                clock = r0
            w = w0
            p = p0
            while True:
                h, o = a
                pp = warp_port[w]
                b = port_busy[pp]
                s = b if b > clock else clock
                port_busy[pp] = s + h
                done = s + o
                events += 1
                p += 1
                # scheduler.replace with the entry built inline (policy
                # layouts from scheduler.py) — the method call is
                # measurable at one call per event.
                if pol == 0:
                    heapreplace(heap, (done, w, done, w, p))
                elif pol == 2:
                    heapreplace(heap, (done, p, w, done, w, p))
                elif pol == 1:
                    seq = scheduler._seq + 1
                    scheduler._seq = seq
                    heapreplace(heap, (done, seq, done, w, p))
                else:
                    replace(done, w, p)
                top = heap[0]
                if top[-3] != clock:
                    break
                w = top[-2]
                p = top[-1]
                a = attrs[starts[w] + p]
                if a is None:  # non-pure successor: per-instruction path
                    break
            continue

        # Per-instruction path: SmCore.issue's semantics plus retirement.
        if r0 > clock:
            idle += r0 - clock - 1
            clock = r0
        heappop(heap)
        events += 1
        slow += 1
        smi = warp_sm[w0]
        pp = warp_port[w0]
        kc = kind[gi0]
        b = port_busy[pp]
        s = b if b > r0 else r0
        if kc < 3:
            port_busy[pp] = s + hold[gi0]
            done = s + off[gi0]
        elif kc == 3:
            port_busy[pp] = s + hold[gi0]
            done = l1_fetch[smi](lines[gi0], s)
            if done < s:
                done = s
        else:
            port_busy[pp] = s + 1
            done = hsu_exec[smi](lines[gi0], hsubusy[gi0], s)
        if a is None:
            kinds_list[smi][kc] += kcnt[gi0]
            wi_list[smi] += repeat[gi0]
            if able[gi0]:
                able_list[smi] += done - s + 1
            else:
                other_list[smi] += done - s + 1

        p0 += 1
        if p0 < lengths[w0]:
            push(done, w0, p0)
        else:
            sm = sms[smi]
            if done > finish:
                finish = done
            heapq.heappush(sm.retire_heap, done)
            inflight -= 1
            if occupancy_channel is not None:
                tracer.record(occupancy_channel, done, inflight)
            if deferred[smi]:
                successor = deferred[smi].pop(0)
                start = heappop(sm.retire_heap)
                push(start, successor, 0)
                inflight += 1
                if occupancy_channel is not None:
                    tracer.record(occupancy_channel, start, inflight)

    # Flush the accumulators into the SmCore slots, mirror the port state
    # back into the sub-core Timelines, then publish.
    sim._m_cycles.set(finish)
    sim._m_warps.set(num_warps)
    sim._m_events.set(events)
    sim._m_slow_events.set(slow)
    sim._m_idle_skipped.set(idle)
    for smi, sm in enumerate(sms):
        sm.sched_wi += wi_list[smi]
        sm.sched_able += able_list[smi]
        sm.sched_other += other_list[smi]
        kinds = kinds_list[smi]
        for code, name in enumerate(_KIND_NAMES):
            sm.sched_kinds[name] += kinds[code]
        base = smi * subcores_per_sm
        for subcore in range(subcores_per_sm):
            sm.subcores[subcore].busy_until = port_busy[base + subcore]
        sm.publish()
    sim.memory.finish()

    stats = SimStats.from_registry(sim.registry)
    stats.check_dram_consistency()
    return stats
