"""Structure-of-arrays trace lowering for the simulate event loop.

Walking a :class:`~repro.gpusim.trace.WarpInstr` object per issued
instruction costs five attribute reads, a string compare per kind, and
(for loads) a fresh coalescing pass.  :func:`pack_kernel` lowers a
:class:`~repro.gpusim.trace.KernelTrace` once, at ingest, into flat
per-instruction columns indexed ``gi = starts[warp] + position`` (a CSR
layout over warps):

* ``kind`` — integer kind code (:data:`KIND_CODES`),
* ``hold`` — sub-core issue-port occupancy in cycles (``repeat``, or 1
  for an HSU chain),
* ``off`` — completion offset for *pure* kinds: ``done = issue + off``
  with ``off = repeat - 1 + chain * latency`` (0 for memory kinds, whose
  completion the memory system decides),
* ``kcnt`` / ``repeat`` — the per-kind and warp-instruction counter
  increments (HSU chains count once in ``kcnt``),
* ``able`` — HSU-able attribution flag (Fig. 7),
* ``attrs`` — fused ``(hold, off)`` tuple for *pure* instructions,
  ``None`` otherwise.  An instruction is pure iff it is an ALU/SFU/LDS op
  with a successor in its warp and ``off >= 1``: it never touches the
  memory system, never retires a warp, and always completes strictly
  after it issues — the three properties the event loop's pure chain
  (:mod:`repro.gpusim.engine`) relies on.  The chain pays one list index
  + unpack per event, and ``attrs[gi] is None`` doubles as the pure test,
* ``static_kinds`` / ``static_wi`` / ``static_able`` / ``static_other``
  — per-SM counter totals over all *pure* instructions, precomputed
  here because every instruction issues exactly once per run and a pure
  instruction's whole attribution is static: kind counts and
  warp-instruction counts are trace constants, and its issue-busy span
  is ``done - issue + 1 = off + 1`` regardless of when it issues.  The
  event loop seeds its accumulators with these and attributes only
  non-pure events at run time.  Placement uses the same round-robin
  ``smi = warp_index % num_sms`` as the event loop,
* ``lines`` — the precomputed coalesced line list (LDG: the backend's
  ``coalesce_lines`` kernel over all thread addresses; HSU:
  :func:`~repro.gpusim.rtunit.hsu_coalesced_lines` over active threads),
* ``hsubusy`` — HSU datapath occupancy (``active * beats``).

Columns are plain Python lists (fastest for the event loop's scalar
indexing).  Packing depends only on the config fields named in the column
definitions — never on scheduler, memory model, or backend choice — and
is a pure function of the trace, so it cannot perturb fingerprints,
goldens, or cache keys.
"""

from __future__ import annotations

from repro.gpusim.config import GpuConfig
from repro.gpusim.rtunit import hsu_coalesced_lines
from repro.gpusim.trace import KIND_CODES, KernelTrace

_CODE_LDG = KIND_CODES["ldg"]
_CODE_HSU = KIND_CODES["hsu"]


class PackedKernel:
    """One kernel trace lowered into flat per-instruction columns."""

    __slots__ = (
        "starts",
        "lengths",
        "kind",
        "hold",
        "off",
        "kcnt",
        "repeat",
        "able",
        "attrs",
        "static_kinds",
        "static_wi",
        "static_able",
        "static_other",
        "lines",
        "hsubusy",
    )

    def __init__(self, kernel: KernelTrace, config: GpuConfig, backend) -> None:
        latencies = (
            config.alu_latency,
            config.sfu_latency,
            config.shared_latency,
        )
        line_bytes = config.line_bytes
        coalesce = backend.coalesce_lines
        starts = [0]
        lengths = []
        kind: list[int] = []
        hold: list[int] = []
        off: list[int] = []
        kcnt: list[int] = []
        repeat: list[int] = []
        able: list[int] = []
        attrs: list = []
        lines: list = []
        num_sms = config.num_sms
        static_kinds = [[0] * 5 for _ in range(num_sms)]
        static_wi = [0] * num_sms
        static_able = [0] * num_sms
        static_other = [0] * num_sms
        hsubusy: list[int] = []
        total = 0
        for windex, warp in enumerate(kernel.warps):
            smi = windex % num_sms
            kinds_row = static_kinds[smi]
            instructions = warp.instructions
            last = len(instructions) - 1
            for position, instr in enumerate(instructions):
                code = KIND_CODES[instr.kind]
                rep = instr.repeat
                if code < 3:
                    h = rep
                    o = rep - 1 + instr.chain * latencies[code]
                    kc = rep
                    ln = None
                    hb = 0
                    pure = 1 if position != last and o >= 1 else 0
                elif code == _CODE_LDG:
                    h = rep
                    o = 0
                    kc = rep
                    ln = coalesce(
                        instr.addrs, instr.bytes_per_thread, line_bytes
                    )
                    hb = 0
                    pure = 0
                else:
                    h = 1
                    o = 0
                    kc = 1
                    ln = hsu_coalesced_lines(instr, line_bytes)
                    hb = instr.active * instr.beats
                    pure = 0
                ab = 1 if (instr.hsu_able or code == _CODE_HSU) else 0
                kind.append(code)
                hold.append(h)
                off.append(o)
                kcnt.append(kc)
                repeat.append(rep)
                able.append(ab)
                if pure:
                    attrs.append((h, o))
                    kinds_row[code] += kc
                    static_wi[smi] += rep
                    if ab:
                        static_able[smi] += o + 1
                    else:
                        static_other[smi] += o + 1
                else:
                    attrs.append(None)
                lines.append(ln)
                hsubusy.append(hb)
            total += len(instructions)
            starts.append(total)
            lengths.append(len(instructions))
        self.starts = starts
        self.lengths = lengths
        self.kind = kind
        self.hold = hold
        self.off = off
        self.kcnt = kcnt
        self.repeat = repeat
        self.able = able
        self.attrs = attrs
        self.static_kinds = static_kinds
        self.static_wi = static_wi
        self.static_able = static_able
        self.static_other = static_other
        self.lines = lines
        self.hsubusy = hsubusy


def pack_kernel(
    kernel: KernelTrace, config: GpuConfig, backend
) -> PackedKernel:
    """Lower ``kernel`` for ``config`` (see the module docstring)."""
    return PackedKernel(kernel, config, backend)
