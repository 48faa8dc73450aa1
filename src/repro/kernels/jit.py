"""The ``jit`` kernel backend: numba-compiled hot loops.

:class:`JitBackend` subclasses the reference backend and overrides the
kernels where compilation pays: the per-query BVH DFS (the lockstep
frontier's vectorization overhead disappears entirely in a compiled
sequential walk), the beat-structured distance kernels, the k-d plane
step, segmented gathers, and the batched AABB tests.  Kernels where
numpy already spends its time inside one C call (lexsort-based warp
grouping, ``searchsorted`` descent and membership, the per-warp
coalescing sets) inherit the reference implementation — compiling them
would add dispatch cost without removing any interpreter time.

Bit-exactness contract: every override must reproduce the reference
kernel exactly, including float32 summation order.  numpy reduces
contiguous float32 rows with pairwise summation; :func:`_pairwise_f32`
transliterates that algorithm (sequential under 8 elements, an
8-accumulator unrolled block up to 128, recursive halving above) so the
compiled distance kernels emit the very bits ``np.sum(..., axis=1,
dtype=np.float32)`` does.  Because that equivalence depends on numpy
build internals, :func:`make_jit_backend` *verifies* each overridden
kernel against the reference on deterministic probes at construction
and silently rebinds any mismatching kernel back to its reference
implementation — a jit backend can therefore be slower than hoped on an
exotic numpy build, but never wrong.

Without numba (the optional ``[jit]`` extra), :func:`make_jit_backend`
returns ``None`` and the registry degrades to ``reference``.  The
``_njit`` decorator is an identity function in that case, which keeps
:class:`JitBackend` directly constructible in pure Python — the
equivalence tests exercise the jit *algorithms* even where numba is not
installed.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.reference import ReferenceBackend

try:
    from numba import njit as _numba_njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on numba-less installs
    NUMBA_AVAILABLE = False

    def _numba_njit(**_kwargs):
        def decorate(fn):
            return fn

        return decorate


def _njit(fn):
    """``@njit(cache=True)`` with numba, identity without."""
    if not NUMBA_AVAILABLE:
        return fn
    return _numba_njit(cache=True)(fn)


_INT = np.int64


# ---------------------------------------------------------------------------
# compiled bodies (module-level so numba's on-disk cache can key them)
# ---------------------------------------------------------------------------


@_njit
def _pairwise_f32(a, lo, n):
    """numpy's pairwise float32 summation of ``a[lo : lo + n]``.

    Transliterated from numpy's ``pairwise_sum`` so compiled reductions
    bit-match ``np.sum(..., dtype=np.float32)`` over contiguous data.
    """
    if n < 8:
        res = np.float32(0.0)
        for i in range(n):
            res = res + a[lo + i]
        return res
    if n <= 128:
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        while i + 8 <= n:
            r0 = r0 + a[lo + i]
            r1 = r1 + a[lo + i + 1]
            r2 = r2 + a[lo + i + 2]
            r3 = r3 + a[lo + i + 3]
            r4 = r4 + a[lo + i + 4]
            r5 = r5 + a[lo + i + 5]
            r6 = r6 + a[lo + i + 6]
            r7 = r7 + a[lo + i + 7]
            i += 8
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            res = res + a[lo + i]
            i += 1
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_f32(a, lo, n2) + _pairwise_f32(a, lo + n2, n - n2)


@_njit
def _euclid_beats_body(q, block, width, out):
    rows = block.shape[0]
    dim = q.shape[0]
    scratch = np.empty(width, np.float32)
    for row in range(rows):
        total = np.float32(0.0)
        lo = 0
        while lo < dim:
            hi = min(lo + width, dim)
            n = hi - lo
            for j in range(n):
                d = q[lo + j] - block[row, lo + j]
                scratch[j] = d * d
            total = total + _pairwise_f32(scratch, 0, n)
            lo = hi
        out[row] = total


@_njit
def _euclid_beats_rowwise_body(qrows, crows, width, out):
    rows = qrows.shape[0]
    dim = qrows.shape[1]
    scratch = np.empty(width, np.float32)
    for row in range(rows):
        total = np.float32(0.0)
        lo = 0
        while lo < dim:
            hi = min(lo + width, dim)
            n = hi - lo
            for j in range(n):
                d = qrows[row, lo + j] - crows[row, lo + j]
                scratch[j] = d * d
            total = total + _pairwise_f32(scratch, 0, n)
            lo = hi
        out[row] = total


@_njit
def _l1_beats_body(q, block, width, out):
    rows = block.shape[0]
    dim = q.shape[0]
    scratch = np.empty(width, np.float32)
    for row in range(rows):
        total = np.float32(0.0)
        lo = 0
        while lo < dim:
            hi = min(lo + width, dim)
            n = hi - lo
            for j in range(n):
                d = q[lo + j] - block[row, lo + j]
                scratch[j] = abs(d)
            total = total + _pairwise_f32(scratch, 0, n)
            lo = hi
        out[row] = total


@_njit
def _l1_beats_rowwise_body(qrows, crows, width, out):
    rows = qrows.shape[0]
    dim = qrows.shape[1]
    scratch = np.empty(width, np.float32)
    for row in range(rows):
        total = np.float32(0.0)
        lo = 0
        while lo < dim:
            hi = min(lo + width, dim)
            n = hi - lo
            for j in range(n):
                d = qrows[row, lo + j] - crows[row, lo + j]
                scratch[j] = abs(d)
            total = total + _pairwise_f32(scratch, 0, n)
            lo = hi
        out[row] = total


@_njit
def _linf_beats_body(q, block, out):
    # max is exact and order-independent: no beat structure needed.
    rows = block.shape[0]
    dim = q.shape[0]
    for row in range(rows):
        total = np.float32(0.0)
        for j in range(dim):
            d = abs(q[j] - block[row, j])
            if d > total:
                total = d
        out[row] = total


@_njit
def _linf_beats_rowwise_body(qrows, crows, out):
    rows = qrows.shape[0]
    dim = qrows.shape[1]
    for row in range(rows):
        total = np.float32(0.0)
        for j in range(dim):
            d = abs(qrows[row, j] - crows[row, j])
            if d > total:
                total = d
        out[row] = total


@_njit
def _normalize_rows_body(rows, out):
    count = rows.shape[0]
    dim = rows.shape[1]
    scratch = np.empty(dim, np.float32)
    for i in range(count):
        for j in range(dim):
            v = rows[i, j]
            scratch[j] = v * v
        norm_sq = _pairwise_f32(scratch, 0, dim)
        if norm_sq > np.float32(0.0):
            scale = np.float32(1.0) / np.sqrt(norm_sq)
        else:
            scale = np.float32(1.0)
        for j in range(dim):
            out[i, j] = rows[i, j] * scale


@_njit
def _sq_l2_broadcast_body(candidates, query, out):
    rows = candidates.shape[0]
    dim = candidates.shape[1]
    scratch = np.empty(dim, np.float32)
    for row in range(rows):
        for j in range(dim):
            d = candidates[row, j] - query[j]
            scratch[j] = d * d
        out[row] = _pairwise_f32(scratch, 0, dim)


@_njit
def _sq_l2_rowwise_body(candidates, qrows, out):
    rows = candidates.shape[0]
    dim = candidates.shape[1]
    scratch = np.empty(dim, np.float32)
    for row in range(rows):
        for j in range(dim):
            d = candidates[row, j] - qrows[row, j]
            scratch[j] = d * d
        out[row] = _pairwise_f32(scratch, 0, dim)


@_njit
def _aabb_contains_body(lo_rows, hi_rows, points, out):
    rows = points.shape[0]
    dim = points.shape[1]
    for row in range(rows):
        inside = True
        for d in range(dim):
            v = points[row, d]
            if v < lo_rows[row, d] or hi_rows[row, d] < v:
                inside = False
                break
        out[row] = inside


@_njit
def _aabb_distance_sq_body(lo_rows, hi_rows, points, out):
    rows = points.shape[0]
    dim = points.shape[1]
    for row in range(rows):
        total = out[row]
        for d in range(dim):
            below = lo_rows[row, d] - points[row, d]
            if below < 0.0:
                below = 0.0
            above = points[row, d] - hi_rows[row, d]
            if above < 0.0:
                above = 0.0
            delta = below + above
            total = total + delta * delta
        out[row] = total


@_njit
def _segmented_gather_body(firsts, counts, indices, out):
    at = 0
    for seg in range(firsts.shape[0]):
        base = firsts[seg]
        for j in range(counts[seg]):
            out[at] = indices[base + j]
            at += 1


@_njit
def _kd_plane_step_body(
    queries, internal, node, split_dim, split_value, left, right,
    axes, far, far_contrib,
):
    for i in range(internal.shape[0]):
        qid = internal[i]
        nid = node[qid]
        axis = split_dim[nid]
        axes[i] = axis
        diff = queries[qid, axis] - split_value[nid]
        far_contrib[i] = diff * diff
        if diff < 0.0:
            node[qid] = left[nid]
            far[i] = right[nid]
        else:
            node[qid] = right[nid]
            far[i] = left[nid]


@_njit
def _bvh_point_query_body(
    queries, is_leaf, child_off, child_cnt, child_idx,
    firsts, counts, lo, hi, prim_indices, root,
    record_events, box_code, stack_code,
):
    num_queries = queries.shape[0]
    dim = queries.shape[1]
    cand_starts = np.zeros(num_queries + 1, _INT)
    ev_starts = np.zeros(num_queries + 1, _INT)
    cand_prims = np.empty(256, _INT)
    cand_n = 0
    ev_codes = np.empty(256, _INT)
    ev_idents = np.empty(256, _INT)
    ev_payloads = np.empty(256, _INT)
    ev_n = 0
    stack = np.empty(64, _INT)
    nodes_visited = 0
    box_nodes = 0
    box_tests = 0
    leaf_visits = 0
    max_depth = 1
    # Sequential DFS per query: pops happen in exactly the order the
    # lockstep reference pops that query's stack entries, so the
    # candidate and event streams land already query-major — no sort.
    for q in range(num_queries):
        depth = 1
        stack[0] = root
        while depth > 0:
            depth -= 1
            node = stack[depth]
            nodes_visited += 1
            if is_leaf[node]:
                leaf_visits += 1
                base = firsts[node]
                leaf_count = counts[node]
                while cand_n + leaf_count > cand_prims.shape[0]:
                    grown = np.empty(cand_prims.shape[0] * 2, _INT)
                    grown[:cand_n] = cand_prims[:cand_n]
                    cand_prims = grown
                for j in range(leaf_count):
                    cand_prims[cand_n] = prim_indices[base + j]
                    cand_n += 1
            else:
                box_nodes += 1
                fanout = child_cnt[node]
                box_tests += fanout
                base = child_off[node]
                pushes = 0
                if depth + fanout > stack.shape[0]:
                    grown = np.empty(stack.shape[0] * 2, _INT)
                    grown[:depth] = stack[:depth]
                    stack = grown
                for ci in range(fanout):
                    child = child_idx[base + ci]
                    inside = True
                    for d in range(dim):
                        v = queries[q, d]
                        if v < lo[child, d] or hi[child, d] < v:
                            inside = False
                            break
                    if inside:
                        stack[depth + pushes] = child
                        pushes += 1
                depth += pushes
                if depth > max_depth:
                    max_depth = depth
                if record_events:
                    if ev_n + 2 > ev_codes.shape[0]:
                        cap = ev_codes.shape[0] * 2
                        gc = np.empty(cap, _INT)
                        gi = np.empty(cap, _INT)
                        gp = np.empty(cap, _INT)
                        gc[:ev_n] = ev_codes[:ev_n]
                        gi[:ev_n] = ev_idents[:ev_n]
                        gp[:ev_n] = ev_payloads[:ev_n]
                        ev_codes = gc
                        ev_idents = gi
                        ev_payloads = gp
                    ev_codes[ev_n] = box_code
                    ev_idents[ev_n] = node
                    ev_payloads[ev_n] = fanout
                    ev_codes[ev_n + 1] = stack_code
                    ev_idents[ev_n + 1] = -1
                    ev_payloads[ev_n + 1] = pushes
                    ev_n += 2
        cand_starts[q + 1] = cand_n
        ev_starts[q + 1] = ev_n
    return (
        cand_starts,
        cand_prims[:cand_n].copy(),
        ev_codes[:ev_n].copy(),
        ev_idents[:ev_n].copy(),
        ev_payloads[:ev_n].copy(),
        ev_starts,
        nodes_visited,
        box_nodes,
        box_tests,
        leaf_visits,
        max_depth,
    )


@_njit
def _bvh_radius_query_body(
    queries, points, width, is_leaf, child_off, child_cnt, child_idx,
    firsts, counts, lo, hi, prim_indices, root,
):
    num_queries = queries.shape[0]
    dim = queries.shape[1]
    cand_starts = np.zeros(num_queries + 1, _INT)
    cand_prims = np.empty(256, _INT)
    cand_d2 = np.empty(256, np.float32)
    cand_n = 0
    stack = np.empty(64, _INT)
    scratch = np.empty(width, np.float32)
    nodes_visited = 0
    box_nodes = 0
    box_tests = 0
    leaf_visits = 0
    max_depth = 1
    for q in range(num_queries):
        depth = 1
        stack[0] = root
        while depth > 0:
            depth -= 1
            node = stack[depth]
            nodes_visited += 1
            if is_leaf[node]:
                leaf_visits += 1
                base = firsts[node]
                leaf_count = counts[node]
                while cand_n + leaf_count > cand_prims.shape[0]:
                    cap = cand_prims.shape[0] * 2
                    grown = np.empty(cap, _INT)
                    grown[:cand_n] = cand_prims[:cand_n]
                    cand_prims = grown
                    grown_d2 = np.empty(cap, np.float32)
                    grown_d2[:cand_n] = cand_d2[:cand_n]
                    cand_d2 = grown_d2
                for j in range(leaf_count):
                    prim = prim_indices[base + j]
                    # Fused confirm step: the candidate's beat-structured
                    # squared distance, computed with the same per-element
                    # float32 casts and pairwise reductions as the unfused
                    # euclid_beats_rowwise pipeline.
                    total = np.float32(0.0)
                    b0 = 0
                    while b0 < dim:
                        b1 = min(b0 + width, dim)
                        n = b1 - b0
                        for d in range(n):
                            qv = np.float32(queries[q, b0 + d])
                            cv = np.float32(points[prim, b0 + d])
                            diff = qv - cv
                            scratch[d] = diff * diff
                        total = total + _pairwise_f32(scratch, 0, n)
                        b0 = b1
                    cand_prims[cand_n] = prim
                    cand_d2[cand_n] = total
                    cand_n += 1
            else:
                box_nodes += 1
                fanout = child_cnt[node]
                box_tests += fanout
                base = child_off[node]
                pushes = 0
                if depth + fanout > stack.shape[0]:
                    grown = np.empty(stack.shape[0] * 2, _INT)
                    grown[:depth] = stack[:depth]
                    stack = grown
                for ci in range(fanout):
                    child = child_idx[base + ci]
                    inside = True
                    for d in range(dim):
                        v = queries[q, d]
                        if v < lo[child, d] or hi[child, d] < v:
                            inside = False
                            break
                    if inside:
                        stack[depth + pushes] = child
                        pushes += 1
                depth += pushes
                if depth > max_depth:
                    max_depth = depth
        cand_starts[q + 1] = cand_n
    return (
        cand_starts,
        cand_prims[:cand_n].copy(),
        cand_d2[:cand_n].copy(),
        nodes_visited,
        box_nodes,
        box_tests,
        leaf_visits,
        max_depth,
    )


# ---------------------------------------------------------------------------
# backend class
# ---------------------------------------------------------------------------


class JitBackend(ReferenceBackend):
    """Compiled kernels, self-verified against the reference at init."""

    name = "jit"

    def __init__(self) -> None:
        self.verified: dict[str, bool] = {}
        reference = ReferenceBackend()
        for kernel, probe in _PROBES.items():
            try:
                ok = _results_identical(probe(self), probe(reference))
            except Exception:
                ok = False
            if not ok:
                # Rebind the mismatching kernel to the reference bound
                # method: this instance stays fast where verified and
                # bit-correct everywhere.
                setattr(self, kernel, getattr(reference, kernel))
            self.verified[kernel] = ok

    def euclid_beats(self, q, block, width):
        out = np.empty(block.shape[0], dtype=np.float32)
        _euclid_beats_body(q, block, width, out)
        return out

    def euclid_beats_rowwise(self, qrows, crows, width):
        out = np.empty(qrows.shape[0], dtype=np.float32)
        _euclid_beats_rowwise_body(qrows, crows, width, out)
        return out

    def l1_beats(self, q, block, width):
        out = np.empty(block.shape[0], dtype=np.float32)
        _l1_beats_body(q, block, width, out)
        return out

    def l1_beats_rowwise(self, qrows, crows, width):
        out = np.empty(qrows.shape[0], dtype=np.float32)
        _l1_beats_rowwise_body(qrows, crows, width, out)
        return out

    def linf_beats(self, q, block, width):
        out = np.empty(block.shape[0], dtype=np.float32)
        _linf_beats_body(q, block, out)
        return out

    def linf_beats_rowwise(self, qrows, crows, width):
        out = np.empty(qrows.shape[0], dtype=np.float32)
        _linf_beats_rowwise_body(qrows, crows, out)
        return out

    def normalize_rows(self, rows):
        out = np.empty(rows.shape, dtype=np.float32)
        _normalize_rows_body(rows, out)
        return out

    def sq_l2_f32(self, candidates, query):
        out = np.empty(candidates.shape[0], dtype=np.float32)
        if query.ndim == 1:
            _sq_l2_broadcast_body(candidates, query, out)
        else:
            _sq_l2_rowwise_body(candidates, query, out)
        return out

    def aabb_contains_points(self, lo_rows, hi_rows, points):
        out = np.empty(points.shape[0], dtype=bool)
        _aabb_contains_body(lo_rows, hi_rows, points, out)
        return out

    def aabb_distance_sq(self, lo_rows, hi_rows, points):
        out = np.zeros(
            points.shape[0],
            dtype=np.result_type(lo_rows.dtype, points.dtype),
        )
        _aabb_distance_sq_body(lo_rows, hi_rows, points, out)
        return out

    def segmented_gather(self, firsts, counts, indices):
        out = np.empty(int(counts.sum()), dtype=indices.dtype)
        _segmented_gather_body(
            firsts.astype(_INT, copy=False),
            counts.astype(_INT, copy=False),
            indices,
            out,
        )
        return out

    def kd_plane_step(
        self, queries, internal, node, split_dim, split_value, left, right
    ):
        n = internal.shape[0]
        axes = np.empty(n, dtype=split_dim.dtype)
        far = np.empty(n, dtype=left.dtype)
        far_contrib = np.empty(
            n, dtype=np.result_type(queries.dtype, split_value.dtype)
        )
        _kd_plane_step_body(
            queries, internal, node, split_dim, split_value, left, right,
            axes, far, far_contrib,
        )
        return axes, far, far_contrib

    def bvh_point_query(
        self,
        queries, is_leaf, child_off, child_cnt, child_idx,
        firsts, counts, lo, hi, prim_indices, root,
        record_events, box_code, stack_code,
    ):
        packed = _bvh_point_query_body(
            np.ascontiguousarray(queries),
            is_leaf,
            child_off.astype(_INT, copy=False),
            child_cnt.astype(_INT, copy=False),
            child_idx.astype(_INT, copy=False),
            firsts.astype(_INT, copy=False),
            counts.astype(_INT, copy=False),
            np.ascontiguousarray(lo),
            np.ascontiguousarray(hi),
            prim_indices.astype(_INT, copy=False),
            root,
            record_events,
            box_code,
            stack_code,
        )
        (cand_starts, cand_prims, ev_codes, ev_idents, ev_payloads,
         ev_starts, nodes_visited, box_nodes, box_tests, leaf_visits,
         max_depth) = packed
        if not record_events:
            ev_codes = ev_idents = ev_payloads = ev_starts = None
        counters = (
            int(nodes_visited), int(box_nodes), int(box_tests),
            int(leaf_visits), int(max_depth),
        )
        return (
            cand_starts, cand_prims,
            ev_codes, ev_idents, ev_payloads, ev_starts,
            counters,
        )

    def bvh_radius_query(
        self,
        queries, points, width,
        is_leaf, child_off, child_cnt, child_idx,
        firsts, counts, lo, hi, prim_indices, root,
    ):
        packed = _bvh_radius_query_body(
            np.ascontiguousarray(queries),
            np.ascontiguousarray(points),
            width,
            is_leaf,
            child_off.astype(_INT, copy=False),
            child_cnt.astype(_INT, copy=False),
            child_idx.astype(_INT, copy=False),
            firsts.astype(_INT, copy=False),
            counts.astype(_INT, copy=False),
            np.ascontiguousarray(lo),
            np.ascontiguousarray(hi),
            prim_indices.astype(_INT, copy=False),
            root,
        )
        (cand_starts, cand_prims, d2, nodes_visited, box_nodes,
         box_tests, leaf_visits, max_depth) = packed
        counters = (
            int(nodes_visited), int(box_nodes), int(box_tests),
            int(leaf_visits), int(max_depth),
        )
        return cand_starts, cand_prims, d2, counters


# ---------------------------------------------------------------------------
# construction-time verification probes
# ---------------------------------------------------------------------------


def _results_identical(got, want) -> bool:
    if isinstance(want, tuple):
        return (
            isinstance(got, tuple)
            and len(got) == len(want)
            and all(_results_identical(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, np.ndarray):
        return (
            isinstance(got, np.ndarray)
            and got.dtype == want.dtype
            and got.shape == want.shape
            and got.tobytes() == want.tobytes()
        )
    return type(got) is type(want) and got == want


def _probe_rng():
    return np.random.default_rng(20260808)


def _probe_euclid_beats(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 7, 8, 13, 16, 48, 200):
        q = (rng.standard_normal(dim) * 50).astype(np.float32)
        block = (rng.standard_normal((33, dim)) * 50).astype(np.float32)
        outs.append(backend.euclid_beats(q, block, 16))
    return tuple(outs)


def _probe_euclid_beats_rowwise(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 8, 16, 48, 200):
        qrows = (rng.standard_normal((29, dim)) * 50).astype(np.float32)
        crows = (rng.standard_normal((29, dim)) * 50).astype(np.float32)
        outs.append(backend.euclid_beats_rowwise(qrows, crows, 16))
    return tuple(outs)


def _probe_l1_beats(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 7, 8, 13, 16, 48, 200):
        q = (rng.standard_normal(dim) * 50).astype(np.float32)
        block = (rng.standard_normal((33, dim)) * 50).astype(np.float32)
        outs.append(backend.l1_beats(q, block, 16))
    return tuple(outs)


def _probe_l1_beats_rowwise(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 8, 16, 48, 200):
        qrows = (rng.standard_normal((29, dim)) * 50).astype(np.float32)
        crows = (rng.standard_normal((29, dim)) * 50).astype(np.float32)
        outs.append(backend.l1_beats_rowwise(qrows, crows, 16))
    return tuple(outs)


def _probe_linf_beats(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 7, 8, 13, 16, 48, 200):
        q = (rng.standard_normal(dim) * 50).astype(np.float32)
        block = (rng.standard_normal((33, dim)) * 50).astype(np.float32)
        outs.append(backend.linf_beats(q, block, 16))
    return tuple(outs)


def _probe_linf_beats_rowwise(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 8, 16, 48, 200):
        qrows = (rng.standard_normal((29, dim)) * 50).astype(np.float32)
        crows = (rng.standard_normal((29, dim)) * 50).astype(np.float32)
        outs.append(backend.linf_beats_rowwise(qrows, crows, 16))
    return tuple(outs)


def _probe_normalize_rows(backend):
    rng = _probe_rng()
    outs = []
    for dim in (1, 3, 8, 16, 48, 200):
        rows = (rng.standard_normal((27, dim)) * 50).astype(np.float32)
        rows[::7] = 0.0  # exercise the zero-row (scale 1.0) branch
        outs.append(backend.normalize_rows(rows))
    return tuple(outs)


def _probe_sq_l2_f32(backend):
    rng = _probe_rng()
    outs = []
    for dim in (2, 7, 8, 16, 64, 100, 128, 129, 333, 1000):
        cand = (rng.standard_normal((21, dim)) * 50).astype(np.float32)
        query = (rng.standard_normal(dim) * 50).astype(np.float32)
        qrows = (rng.standard_normal((21, dim)) * 50).astype(np.float32)
        outs.append(backend.sq_l2_f32(cand, query))
        outs.append(backend.sq_l2_f32(cand, qrows))
    return tuple(outs)


def _probe_aabb(backend):
    rng = _probe_rng()
    centers = rng.uniform(-1.0, 1.0, size=(40, 3))
    half = rng.uniform(0.01, 0.5, size=(40, 3))
    lo_rows = centers - half
    hi_rows = centers + half
    points = rng.uniform(-1.5, 1.5, size=(40, 3))
    points[::5] = centers[::5]  # exercise the inside (distance 0) branch
    return (
        backend.aabb_contains_points(lo_rows, hi_rows, points),
        backend.aabb_distance_sq(lo_rows, hi_rows, points),
    )


def _probe_segmented_gather(backend):
    rng = _probe_rng()
    counts = rng.integers(0, 6, size=25).astype(_INT)
    firsts = rng.integers(0, 90, size=25).astype(_INT)
    indices = rng.integers(0, 1000, size=128).astype(_INT)
    return (backend.segmented_gather(firsts, counts, indices),)


def _probe_kd_plane_step(backend):
    rng = _probe_rng()
    num_nodes = 31
    split_dim = rng.integers(0, 3, size=num_nodes).astype(_INT)
    split_value = (rng.standard_normal(num_nodes)).astype(np.float32)
    left = rng.integers(0, num_nodes, size=num_nodes).astype(_INT)
    right = rng.integers(0, num_nodes, size=num_nodes).astype(_INT)
    queries = rng.standard_normal((17, 3)).astype(np.float32)
    internal = np.flatnonzero(rng.random(17) < 0.8).astype(_INT)
    node = rng.integers(0, num_nodes, size=17).astype(_INT)
    out = backend.kd_plane_step(
        queries, internal, node, split_dim, split_value, left, right
    )
    return out + (node,)  # node is mutated in place: compare it too


def _probe_trees():
    """Two tiny flat BVHs: a binary one (the reference's fast path) and a
    mixed-fanout one (its general path)."""
    # binary: 0 -> (1, 2); 1 -> (3, 4); 2, 3, 4 leaves
    binary = dict(
        is_leaf=np.array([False, False, True, True, True]),
        child_off=np.array([0, 2, 0, 0, 0], dtype=_INT),
        child_cnt=np.array([2, 2, 0, 0, 0], dtype=_INT),
        child_idx=np.array([1, 2, 3, 4], dtype=_INT),
        firsts=np.array([0, 0, 0, 2, 4], dtype=_INT),
        counts=np.array([0, 0, 2, 2, 3], dtype=_INT),
        lo=np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.4, 0.4, 0.4],
             [0.0, 0.0, 0.0], [0.25, 0.25, 0.25]]
        ),
        hi=np.array(
            [[1.0, 1.0, 1.0], [0.6, 0.6, 0.6], [1.0, 1.0, 1.0],
             [0.35, 0.35, 0.35], [0.6, 0.6, 0.6]]
        ),
        prim_indices=np.arange(7, dtype=_INT),
        root=0,
    )
    # mixed: 0 -> (1, 2, 3); 1 -> (4, 5); 2..5 leaves
    mixed = dict(
        is_leaf=np.array([False, False, True, True, True, True]),
        child_off=np.array([0, 3, 0, 0, 0, 0], dtype=_INT),
        child_cnt=np.array([3, 2, 0, 0, 0, 0], dtype=_INT),
        child_idx=np.array([1, 2, 3, 4, 5], dtype=_INT),
        firsts=np.array([0, 0, 0, 2, 4, 6], dtype=_INT),
        counts=np.array([0, 0, 2, 2, 2, 1], dtype=_INT),
        lo=np.array(
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0],
             [0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.2, 0.2, 0.0]]
        ),
        hi=np.array(
            [[1.0, 1.0, 1.0], [0.5, 1.0, 1.0], [1.0, 0.7, 1.0],
             [0.9, 1.0, 1.0], [0.3, 0.4, 1.0], [0.5, 0.6, 1.0]]
        ),
        prim_indices=np.arange(7, dtype=_INT),
        root=0,
    )
    return binary, mixed


def _probe_bvh_point_query(backend):
    rng = _probe_rng()
    queries = rng.uniform(-0.1, 1.1, size=(23, 3))
    outs = []
    for tree in _probe_trees():
        for record_events in (True, False):
            outs.append(
                backend.bvh_point_query(
                    queries,
                    tree["is_leaf"], tree["child_off"], tree["child_cnt"],
                    tree["child_idx"], tree["firsts"], tree["counts"],
                    tree["lo"], tree["hi"], tree["prim_indices"],
                    tree["root"], record_events,
                    box_code=0, stack_code=3,
                )
            )
    return tuple(outs)


def _probe_bvh_radius_query(backend):
    rng = _probe_rng()
    queries = rng.uniform(-0.1, 1.1, size=(23, 3))
    points = rng.uniform(0.0, 1.0, size=(7, 3))
    outs = []
    for tree in _probe_trees():
        for width in (2, 16):
            outs.append(
                backend.bvh_radius_query(
                    queries, points, width,
                    tree["is_leaf"], tree["child_off"], tree["child_cnt"],
                    tree["child_idx"], tree["firsts"], tree["counts"],
                    tree["lo"], tree["hi"], tree["prim_indices"],
                    tree["root"],
                )
            )
    return tuple(outs)


#: kernel name -> single-kernel probe; each probe exercises exactly the
#: one kernel being verified and returns a comparable result tuple.
_PROBES = {
    "euclid_beats": _probe_euclid_beats,
    "euclid_beats_rowwise": _probe_euclid_beats_rowwise,
    "l1_beats": _probe_l1_beats,
    "l1_beats_rowwise": _probe_l1_beats_rowwise,
    "linf_beats": _probe_linf_beats,
    "linf_beats_rowwise": _probe_linf_beats_rowwise,
    "normalize_rows": _probe_normalize_rows,
    "sq_l2_f32": _probe_sq_l2_f32,
    "aabb_contains_points": _probe_aabb,
    "aabb_distance_sq": _probe_aabb,
    "segmented_gather": _probe_segmented_gather,
    "kd_plane_step": _probe_kd_plane_step,
    "bvh_point_query": _probe_bvh_point_query,
    "bvh_radius_query": _probe_bvh_radius_query,
}


def make_jit_backend():
    """Registry factory: a verified :class:`JitBackend`, or ``None``.

    ``None`` (numba missing, or construction/compilation failed outright)
    tells :func:`repro.kernels.registry.get_backend` to degrade to the
    reference backend.
    """
    if not NUMBA_AVAILABLE:
        return None
    try:
        return JitBackend()
    except Exception:  # pragma: no cover - belt and braces around numba
        return None
