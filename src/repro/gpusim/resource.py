"""Shared occupancy primitives for every contended structure in the model.

Before this module existed, each component hand-rolled its own
``next_free_cycle`` bookkeeping: the sub-core issue ports in ``gpu.py``, the
cache tag port in ``cache.py``, the DRAM data bus and per-bank timelines in
``dram.py``, and the RT unit's warp buffer and single-lane pipeline in
``rtunit.py``.  The four primitives here replace all of them, so occupancy
semantics live (and are tested) in exactly one place:

* :class:`Port` — a serial port granting one access per ``interval``
  cycles.  Fractional intervals (the chip-share L2/DRAM bandwidths) are
  supported by accumulating the budget internally while granting *integer*
  start cycles — timestamps are ints at every component boundary.
* :class:`Timeline` — a single-slot resource reserved to an explicit
  busy-until time (a sub-core issue port holding a repeat burst, a DRAM
  bank serving a row access).
* :class:`SlotPool` — a bounded pool of slots tracked by release time
  (the RT unit's warp buffer): acquiring from a full pool waits for the
  earliest release.
* :class:`PipelinedLane` — a fully pipelined single lane with gap
  backfill: work is appended at the tail, but an allocation whose
  operands were ready earlier may claim the first idle gap a late-ready
  predecessor left behind (work-conserving, no head-of-line blocking).
  Its gap cap applies on append only, so splits can take the count past
  it; the first fit is found in O(log n) Python steps for ``n`` gaps.

All primitives take and return **integer** cycles; :class:`Port` is the
only one that carries fractional state, and it never leaks it.

Every primitive also exposes ``next_event_cycle()``: the earliest cycle at
which its occupancy state can next change an acquirer's outcome (a grant
becoming available, a reservation expiring, a slot releasing).  Components
compose their children's horizons the same way, and the
skip-to-next-event engine in :meth:`GpuSimulator.run` advances the clock
directly to the minimum horizon instead of ticking every cycle.  Horizons
are *observational*: calling ``next_event_cycle()`` never mutates state.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from itertools import compress, count, islice

from repro.errors import ConfigError, TraceError


class Port:
    """Serial port: one grant per ``interval`` cycles, integer start times.

    The fractional bandwidth budget (e.g. the L2's ``80/15`` cycles per
    line on a one-SM slice) accumulates in ``_next_free``; the granted
    start cycle is ``ceil`` of the accumulator so callers only ever see
    integer timestamps while long-run throughput matches the configured
    interval exactly.
    """

    __slots__ = ("interval", "_next_free")

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0.0:
            raise ConfigError("port interval must be positive")
        self.interval = interval
        self._next_free = 0.0

    def acquire(self, time: int) -> int:
        """Grant the next slot at or after ``time``; returns the start cycle."""
        base = self._next_free
        if base < time:
            base = time
        self._next_free = base + self.interval
        return math.ceil(base)

    def next_event_cycle(self) -> int:
        """Earliest integer cycle the next grant could start."""
        return math.ceil(self._next_free)


class Timeline:
    """Single-slot resource reserved through explicit busy-until times."""

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0

    def begin(self, time: int) -> int:
        """Earliest start at or after ``time`` (does not reserve)."""
        busy = self.busy_until
        return busy if busy > time else time

    def hold_until(self, time: int) -> None:
        """Reserve the resource until ``time``."""
        self.busy_until = time

    def next_event_cycle(self) -> int:
        """Cycle the current reservation expires (0 when never reserved)."""
        return self.busy_until


class SlotPool:
    """Bounded pool of slots, each occupied until an explicit release time.

    Models the RT unit's warp buffer: ``acquire`` returns the cycle a slot
    is actually available (waiting for the earliest release when the pool
    is full), and the caller later records the slot's release time with
    :meth:`occupy`.
    """

    __slots__ = ("capacity", "_releases")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError("slot pool capacity must be >= 1")
        self.capacity = capacity
        # Min-heap of in-flight release times.
        self._releases: list[int] = []

    def acquire(self, time: int) -> int:
        """Cycle a slot is free at or after ``time`` (pops the earliest
        release when full, mirroring hardware freeing the oldest entry)."""
        if len(self._releases) >= self.capacity:
            earliest = heapq.heappop(self._releases)
            if earliest > time:
                return earliest
        return time

    def occupy(self, release: int) -> None:
        """Record one acquired slot's release time."""
        heapq.heappush(self._releases, release)

    def next_event_cycle(self) -> int:
        """Earliest in-flight release (0 when the pool is idle)."""
        return self._releases[0] if self._releases else 0

    @property
    def outstanding(self) -> int:
        return len(self._releases)


class PipelinedLane:
    """Single-lane pipeline allocator with exact first-fit gap backfill.

    Allocations normally extend the tail, but an entry whose operands were
    ready before the tail (because a *later-dispatched* entry's fetch
    stalled on DRAM) may backfill an idle gap left behind — the
    work-conserving, out-of-order entry scheduling of the RT unit's
    datapath.  The lowest-start gap that can hold the entry wins.

    **Gap bound.**  ``_MAX_GAPS`` caps the gap count on append only: a
    tail append that pushes the count past it evicts the lowest-start gap.
    A backfill that lands strictly inside a gap splits it in two without
    evicting, so the count can grow past the cap (thousands of gaps on the
    BVH-NN jobs); :attr:`peak_gaps` records the high-water mark.

    **Search.**  The gaps are disjoint and sorted by start, hence also by
    end.  A gap ``[s, e)`` holds ``busy`` slots at or after ``ready``
    exactly when ``e >= ready + busy`` and ``e - s >= busy``, so the first
    fit is the first gap, among those ending late enough, whose length is
    at least ``busy``.  The gaps live in blocks of at most ``2 * _BLOCK``
    in start order; a bisect over block limits and then over one block's
    ends finds the first gap ending late enough, and a max-length segment
    tree over the blocks finds the first later block holding a long enough
    gap.  One allocation takes O(log n) Python steps for ``n`` gaps plus
    C-level passes over at most two blocks (and, amortized, a C-level
    index rebuild when a block is halved), never a Python loop over the
    gaps.
    """

    __slots__ = (
        "_tail",
        "_ends",
        "_lens",
        "_limits",
        "_tree",
        "_leaves",
        "_head",
        "_count",
        "_peak",
    )

    _MAX_GAPS = 64
    #: Gaps a block takes by append; a block that splits past twice this
    #: is halved.
    _BLOCK = 64

    def __init__(self) -> None:
        self._tail = 0
        # Gap blocks in start order; a gap is stored as its end and length.
        self._ends: list[list[int]] = []
        self._lens: list[list[int]] = []
        # Per block: at or past its last gap's end and at or before the
        # next block's first start (gaps only shrink, so it stays valid).
        self._limits: list[int] = []
        # Max segment tree over the blocks' longest gaps: root at 1,
        # block k's leaf at ``_leaves + k``, empty blocks and spare leaves 0.
        self._leaves = 1
        self._tree = [0, 0]
        # First non-empty block (meaningful while ``_count`` is nonzero).
        self._head = 0
        self._count = 0
        self._peak = 0

    def allocate(self, ready: int, busy: int) -> int:
        """Earliest start giving ``busy`` back-to-back single-lane slots at
        or after ``ready`` (``busy >= 1``)."""
        if busy < 1:
            raise TraceError("a lane allocation needs busy >= 1")
        tail = self._tail
        # Every gap lies before the tail, so an entry ready at or past it
        # cannot backfill; the root holds the longest gap.
        if ready < tail and self._tree[1] >= busy:
            need = ready + busy
            k = bisect_left(self._limits, need)
            j = -1
            if k < len(self._limits) and self._tree[self._leaves + k] >= busy:
                first = bisect_left(self._ends[k], need)
                j = _first_at_least(self._lens[k], first, busy)
            if j < 0:
                # Later blocks start at or past block k's limit, so every
                # gap there ends late enough: only length counts.
                k = self._next_block(k + 1, busy)
                if k >= 0:
                    j = _first_at_least(self._lens[k], 0, busy)
            if j >= 0:
                return self._backfill(k, j, ready, busy)
        start = ready if ready > tail else tail
        if start > tail:
            self._append(tail, start)
        self._tail = start + busy
        return start

    def next_event_cycle(self) -> int:
        """Earliest cycle new work could start: the first backfillable gap
        if one exists, else the pipeline tail."""
        if self._count:
            head = self._head
            return self._ends[head][0] - self._lens[head][0]
        return self._tail

    @property
    def tail(self) -> int:
        return self._tail

    @property
    def gap_count(self) -> int:
        """Gaps currently held."""
        return self._count

    @property
    def peak_gaps(self) -> int:
        """Most gaps held at once between allocations."""
        return self._peak

    def gaps(self) -> list[tuple[int, int]]:
        """The held gaps as ``(start, end)`` pairs, lowest start first."""
        return [
            (end - length, end)
            for ends, lens in zip(self._ends, self._lens)
            for end, length in zip(ends, lens)
        ]

    def _backfill(self, k: int, j: int, ready: int, busy: int) -> int:
        """Place ``busy`` slots in gap ``j`` of block ``k``; returns the start."""
        ends = self._ends[k]
        lens = self._lens[k]
        end = ends[j]
        length = lens[j]
        gap_start = end - length
        start = gap_start if gap_start >= ready else ready
        stop = start + busy
        if start > gap_start:
            ends[j] = start
            lens[j] = start - gap_start
            if stop < end:
                ends.insert(j + 1, end)
                lens.insert(j + 1, end - stop)
                self._count += 1
                if self._count > self._peak:
                    self._peak = self._count
        elif stop < end:
            lens[j] = end - stop
        else:
            del ends[j]
            del lens[j]
            self._count -= 1
        self._shrunk(k, length)
        if len(ends) > 2 * self._BLOCK:
            self._split(k)
        return start

    def _append(self, gap_start: int, gap_end: int) -> None:
        """Add the gap a tail allocation leaves, evicting the lowest-start
        gap when the count passes ``_MAX_GAPS``."""
        length = gap_end - gap_start
        ends = self._ends
        k = len(ends) - 1
        if k >= 0 and len(ends[k]) < self._BLOCK:
            ends[k].append(gap_end)
            self._lens[k].append(length)
            self._limits[k] = gap_end
            self._grown(k, length)
        else:
            ends.append([gap_end])
            self._lens.append([length])
            self._limits.append(gap_end)
            k += 1
            if k < self._leaves:
                self._grown(k, length)
            else:
                self._reindex()
                k = len(self._ends) - 1
        if not self._count:
            self._head = k
        self._count += 1
        if self._count > self._MAX_GAPS:
            head = self._head
            del self._ends[head][0]
            self._count -= 1
            self._shrunk(head, self._lens[head].pop(0))
        elif self._count > self._peak:
            self._peak = self._count

    def _grown(self, k: int, length: int) -> None:
        """Raise block ``k``'s path in the tree to at least ``length``."""
        tree = self._tree
        node = self._leaves + k
        while node and tree[node] < length:
            tree[node] = length
            node >>= 1

    def _shrunk(self, k: int, length: int) -> None:
        """Refresh block ``k`` after a gap of ``length`` in it shrank or
        went away."""
        lens = self._lens[k]
        tree = self._tree
        node = self._leaves + k
        # Only the loss of the block's longest gap can lower its maximum.
        if tree[node] == length:
            value = max(lens, default=0)
            tree[node] = value
            while node > 1:
                sibling = tree[node ^ 1]
                if sibling > value:
                    value = sibling
                node >>= 1
                if tree[node] == value:
                    break
                tree[node] = value
        if not lens and k == self._head and self._count:
            self._head = self._next_block(k + 1, 1)

    def _next_block(self, k: int, busy: int) -> int:
        """First block at or after ``k`` holding a gap of at least
        ``busy``, or -1."""
        leaves = self._leaves
        if k >= leaves:
            return -1
        tree = self._tree
        node = leaves + k
        while tree[node] < busy:
            # Climb out of right children, then step to the next subtree.
            while node & 1:
                node >>= 1
            if not node:
                return -1
            node += 1
        while node < leaves:
            node <<= 1
            if tree[node] < busy:
                node += 1
        return node - leaves

    def _split(self, k: int) -> None:
        """Halve block ``k`` and rebuild the block index."""
        ends = self._ends[k]
        lens = self._lens[k]
        half = len(ends) // 2
        self._ends[k : k + 1] = [ends[:half], ends[half:]]
        self._lens[k : k + 1] = [lens[:half], lens[half:]]
        self._limits.insert(k, ends[half - 1])
        self._reindex()

    def _reindex(self) -> None:
        """Drop empty blocks and rebuild the tree with spare leaves for
        appended blocks."""
        keep = list(map(bool, self._ends))
        if not all(keep):
            self._ends = list(compress(self._ends, keep))
            self._lens = list(compress(self._lens, keep))
            self._limits = list(compress(self._limits, keep))
        blocks = len(self._ends)
        leaves = 1 << max(0, 2 * blocks - 1).bit_length()
        row = list(map(max, self._lens)) + [0] * (leaves - blocks)
        tree = row
        while len(row) > 1:
            row = list(map(max, row[0::2], row[1::2]))
            tree = row + tree
        self._tree = [0] + tree
        self._leaves = leaves
        self._head = 0


def _first_at_least(values: list[int], first: int, bound: int) -> int:
    """Index of the first of ``values[first:]`` that is >= ``bound``, or -1
    (the scan runs in C)."""
    hits = compress(count(first), map(bound.__le__, islice(values, first, None)))
    return next(hits, -1)
