"""Pluggable warp-scheduler policies for the timing model.

The simulator's event loop is policy-agnostic: it pushes
``(ready_cycle, warp_index, position)`` events into a
:class:`WarpScheduler` and pops them in whatever order the policy
dictates.  Because every warp executes its trace in order, at most one
event per warp is ever queued, so a policy is fully described by the sort
key it assigns to ready warps.

Three policies are provided:

* :class:`GtoScheduler` — greedy-then-oldest, the paper's Table III
  baseline.  Orders by ``(ready_cycle, warp_index)``: a ready warp keeps
  issuing until it blocks (greediness emerges from its completion times),
  and among warps that become ready together the oldest (lowest launch
  index) goes first.  This reproduces the pre-refactor event ordering
  bit-exactly (the legacy heap tuples were
  ``(ready, warp_age, warp_index, position)`` with ``age == index``).
* :class:`LrrScheduler` — loose round-robin.  Among warps ready at the
  same cycle, the one that *blocked earliest* issues first, so issue
  opportunities rotate through the warp pool instead of favouring old
  warps.
* :class:`OldestFirstScheduler` — oldest-instruction-first: the warp with
  the least trace progress (lowest instruction position) wins ties, a
  fairness-oriented policy that drags all warps forward together.

:func:`build_scheduler` maps a :attr:`GpuConfig.scheduler` policy name to
an instance; the valid names are declared in
:data:`repro.gpusim.config.SCHEDULER_POLICIES` (the config validates
against them so an invalid name fails at construction, not mid-run).
"""

from __future__ import annotations

import heapq

from repro.errors import ConfigError
from repro.gpusim.config import SCHEDULER_POLICIES


class WarpScheduler:
    """Owns the ready-warp event queue; subclasses define the issue order.

    Entries are stored as ``key + (ready, windex, position)`` so the heap
    orders by the policy key while :meth:`pop` recovers the event.  Keys
    must totally order concurrent events (every provided policy breaks
    ties on the unique warp index).

    **Horizon invariant**: every policy key must *lead with the ready
    cycle* (``key[0] == ready``).  That makes the heap top carry the
    minimum ready cycle across all queued events, which is what
    :meth:`next_event_cycle` reports and what lets the skip-to-next-event
    engine in ``GpuSimulator.run`` advance the clock straight to the next
    issueable warp.  A policy whose key did not lead with ``ready`` could
    issue a warp before its operands are ready — that is a correctness
    bug, not just a horizon bug, so the invariant costs nothing.
    """

    #: Policy name, matching :data:`repro.gpusim.config.SCHEDULER_POLICIES`.
    name = ""
    #: Integer policy id the event loop's pure chain dispatches on when it
    #: builds heap entries inline (:mod:`repro.gpusim.engine`):
    #: 0 = gto, 1 = lrr, 2 = oldest.
    policy_code = -1

    def __init__(self) -> None:
        self._heap: list[tuple] = []

    def _key(self, ready: int, windex: int, position: int) -> tuple:
        raise NotImplementedError  # pragma: no cover - abstract

    def push(self, ready: int, windex: int, position: int) -> None:
        """Queue warp ``windex``, ready at ``ready``, at trace ``position``."""
        heapq.heappush(
            self._heap,
            (*self._key(ready, windex, position), ready, windex, position),
        )

    def pop(self) -> tuple[int, int, int]:
        """Next ``(ready, windex, position)`` event in policy order."""
        entry = heapq.heappop(self._heap)
        return entry[-3], entry[-2], entry[-1]

    def replace(self, ready: int, windex: int, position: int) -> None:
        """Drop the policy-min event and queue a new one, in one sift.

        Equivalent to :meth:`pop` (discarding the result) followed by
        :meth:`push` — the event loop's pure chain, where the popped
        event's successor is pushed immediately.  (The chain builds the
        entries of the provided policies inline; this method serves
        policies it does not know.)
        ``heapreplace`` does both in a single sift-down; the internal
        array layout can differ from a pop+push sequence but pop order
        (the only observable — keys are unique) is identical.
        """
        heapq.heapreplace(
            self._heap,
            (*self._key(ready, windex, position), ready, windex, position),
        )

    def next_event_cycle(self) -> int | None:
        """Ready cycle of the next event in policy order, ``None`` if empty.

        Because every policy key leads with the ready cycle (see the class
        docstring), the heap top is simultaneously the next event in
        policy order *and* the event with the minimum ready cycle — so
        this is the engine's global event horizon.
        """
        if not self._heap:
            return None
        return self._heap[0][-3]

    def __len__(self) -> int:
        return len(self._heap)


class GtoScheduler(WarpScheduler):
    """Greedy-then-oldest (Table III): oldest ready warp first."""

    name = "gto"
    policy_code = 0

    def _key(self, ready: int, windex: int, position: int) -> tuple:
        return (ready, windex)

    def push(self, ready: int, windex: int, position: int) -> None:
        # Inline of the base push with _key applied by hand: one push per
        # simulated event makes the method call + tuple splat measurable.
        heapq.heappush(
            self._heap, (ready, windex, ready, windex, position)
        )


class LrrScheduler(WarpScheduler):
    """Loose round-robin: issue opportunities rotate through the pool."""

    name = "lrr"
    policy_code = 1

    def __init__(self) -> None:
        super().__init__()
        self._seq = 0

    def _key(self, ready: int, windex: int, position: int) -> tuple:
        # FIFO among same-cycle warps: whoever blocked first goes first,
        # which cycles the pool instead of re-favouring low warp indices.
        self._seq += 1
        return (ready, self._seq)

    def push(self, ready: int, windex: int, position: int) -> None:
        # Inline of the base push with _key applied by hand (hot path).
        seq = self._seq + 1
        self._seq = seq
        heapq.heappush(
            self._heap, (ready, seq, ready, windex, position)
        )


class OldestFirstScheduler(WarpScheduler):
    """Oldest-instruction-first: least trace progress wins the tie."""

    name = "oldest"
    policy_code = 2

    def _key(self, ready: int, windex: int, position: int) -> tuple:
        return (ready, position, windex)

    def push(self, ready: int, windex: int, position: int) -> None:
        # Inline of the base push with _key applied by hand (hot path).
        heapq.heappush(
            self._heap, (ready, position, windex, ready, windex, position)
        )


#: Policy name -> scheduler class (the names validated by GpuConfig).
SCHEDULERS: dict[str, type[WarpScheduler]] = {
    cls.name: cls
    for cls in (GtoScheduler, LrrScheduler, OldestFirstScheduler)
}

assert set(SCHEDULERS) == set(SCHEDULER_POLICIES), (
    "scheduler registry out of sync with config.SCHEDULER_POLICIES"
)


def build_scheduler(policy: str) -> WarpScheduler:
    """Instantiate the scheduler for a ``GpuConfig.scheduler`` name."""
    try:
        cls = SCHEDULERS[policy]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler policy {policy!r} "
            f"(want one of {sorted(SCHEDULERS)})"
        ) from None
    return cls()
