"""The online serving layer: batching, admission control, equivalence.

The load-bearing property: the serving layer is a *scheduling policy*,
never a results change.  Every admitted query is answered exactly once,
and its answer is bit-identical to what ``query_batch`` returns for the
same query — under concurrent clients, arbitrary interleavings, and
every batch boundary the policy can produce.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.errors import ConfigError, ReproError
from repro.search import BTreeKvIndex, KdTreeIndex, QuerySpec
from repro.serving import (
    AdmissionError,
    Batcher,
    BatchPolicy,
    Endpoint,
    GpuCostModel,
    LatencyReservoir,
    QueryService,
    ServingMetrics,
    TrafficShape,
    arrival_times,
    canonical_serving_name,
    run_open_loop,
    serve_tcp,
    zipf_ranks,
)

KEYS = np.arange(256, dtype=np.float64) * 2.0


def _kv_endpoint(name: str = "kv_test") -> Endpoint:
    index = BTreeKvIndex(branch=8).build(KEYS)
    return Endpoint(name=name, kind="kv", family="btree", abbr="T",
                    index=index)


def _kv_queries(count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    hits = KEYS[rng.integers(0, KEYS.size, size=count // 2)]
    misses = hits[: count - hits.size] + 1.0  # odd values never match
    return rng.permutation(np.concatenate([hits, misses]))


class TestBatchPolicy:
    def test_defaults_validate(self):
        assert BatchPolicy().validate() is not None

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_wait_s": -1.0},
        {"max_batch": 8, "max_queue": 4},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            BatchPolicy(**kwargs).validate()


class TestBatcherProperties:
    def test_every_query_answered_exactly_once_under_concurrency(self):
        """Many concurrent clients; every query answered exactly once,
        bit-identical to a direct per-query ``query_batch``."""
        endpoint = _kv_endpoint()
        queries = _kv_queries(120, seed=7)
        expected = endpoint.run_batch(list(queries))
        flushed: list[list[float]] = []

        def execute(batch):
            flushed.append(list(batch))
            return endpoint.run_batch(batch)

        async def client(batcher, indices, answers, delay):
            for i in indices:
                await asyncio.sleep(delay)
                answers[i] = await batcher.submit(float(queries[i]))

        async def main():
            batcher = Batcher(
                execute, BatchPolicy(max_batch=8, max_wait_s=0.001)
            )
            answers = [None] * len(queries)
            clients = [
                client(batcher, range(c, len(queries), 6), answers,
                       delay=0.0002 * (c + 1))
                for c in range(6)
            ]
            await asyncio.gather(*clients)
            await batcher.close()
            return answers

        answers = asyncio.run(main())
        assert None not in answers  # exactly once: every future resolved
        assert answers == expected  # bit-identical to direct query_batch
        assert sum(len(b) for b in flushed) == len(queries)  # no dupes
        assert max(len(b) for b in flushed) <= 8

    def test_burst_matches_query_batch_order(self):
        endpoint = _kv_endpoint()
        queries = _kv_queries(40, seed=3)

        async def main():
            batcher = Batcher(
                endpoint.run_batch, BatchPolicy(max_batch=64, max_wait_s=0.0)
            )
            futures = [batcher.submit(float(q)) for q in queries]
            answers = await asyncio.gather(*futures)
            await batcher.close()
            return answers

        assert asyncio.run(main()) == endpoint.run_batch(list(queries))

    def test_max_wait_flushes_a_lone_query(self):
        async def main():
            batcher = Batcher(
                lambda batch: [q * 2 for q in batch],
                BatchPolicy(max_batch=1024, max_wait_s=0.005),
            )
            answer = await asyncio.wait_for(batcher.submit(21.0), timeout=2.0)
            await batcher.close()
            return answer

        assert asyncio.run(main()) == 42.0

    def test_admission_control_rejects_beyond_max_queue(self):
        async def main():
            batcher = Batcher(
                lambda batch: list(batch),
                BatchPolicy(max_batch=4, max_wait_s=1.0, max_queue=4),
            )
            futures = [batcher.submit(float(i)) for i in range(4)]
            with pytest.raises(AdmissionError):
                batcher.submit(99.0)  # fifth submit, queue still unflushed
            answers = await asyncio.gather(*futures)
            await batcher.close()
            return answers

        assert asyncio.run(main()) == [0.0, 1.0, 2.0, 3.0]

    def test_executor_error_forwarded_to_every_future(self):
        async def main():
            def boom(batch):
                raise ValueError("kernel fault")

            batcher = Batcher(boom, BatchPolicy(max_batch=4, max_wait_s=0.0))
            futures = [batcher.submit(i) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.close()
            return results

        results = asyncio.run(main())
        assert all(isinstance(r, ValueError) for r in results)

    def test_wrong_answer_count_is_an_error(self):
        async def main():
            batcher = Batcher(
                lambda batch: [0.0], BatchPolicy(max_batch=8, max_wait_s=0.0)
            )
            futures = [batcher.submit(i) for i in range(3)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            await batcher.close()
            return results

        assert all(isinstance(r, ReproError) for r in asyncio.run(main()))

    def test_submit_after_close_is_rejected(self):
        async def main():
            batcher = Batcher(
                lambda batch: list(batch), BatchPolicy(max_wait_s=0.0)
            )
            await batcher.submit(1.0)
            await batcher.close()
            with pytest.raises(ConfigError):
                batcher.submit(2.0)

        asyncio.run(main())


class TestBTreeKvIndex:
    def test_scalar_and_batch_agree_including_events(self):
        index = BTreeKvIndex(branch=8).build(KEYS)
        probes = _kv_queries(32, seed=11)
        batch = index.query_batch(probes, record_events=True)
        for qi, probe in enumerate(probes):
            scalar = index.query(float(probe), record_events=True)
            assert batch.neighbors[qi] == scalar
            assert batch.events.query_events(qi) == index.last_events

    def test_hits_carry_rank_and_value(self):
        index = BTreeKvIndex(branch=8).build(KEYS)
        [(rank, value)] = index.query(float(KEYS[17]))
        assert rank == 17
        assert value == KEYS[17]
        assert index.query(float(KEYS[17]) + 1.0) == []

    def test_values_default_to_keys_and_custom_values_roundtrip(self):
        values = KEYS * 10.0
        index = BTreeKvIndex(branch=8).build(KEYS, values=values)
        [(_, value)] = index.query(float(KEYS[5]))
        assert value == values[5]

    def test_protocol_surface(self):
        index = BTreeKvIndex(branch=8).build(KEYS)
        stats = index.stats()
        assert stats["structure"] == "btree"
        assert stats["num_keys"] == KEYS.size
        assert index.num_nodes > 0
        assert index.tree.height() >= 1
        empty = index.query_batch(np.empty(0), record_events=True)
        assert empty.neighbors == []
        assert empty.events.num_queries == 0

    def test_query_before_build_raises(self):
        from repro.errors import BuildError

        with pytest.raises(BuildError):
            BTreeKvIndex().query(1.0)


class TestCostModel:
    def test_affine_math(self):
        model = GpuCostModel(cycles_per_query=10.0, base_cycles=100.0,
                             clock_ghz=1.0)
        assert model.cycles(0) == 0.0
        assert model.cycles(4) == 140.0
        assert model.seconds(4) == pytest.approx(140.0 / 1e9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            GpuCostModel(cycles_per_query=-1.0)
        with pytest.raises(ConfigError):
            GpuCostModel(cycles_per_query=1.0, clock_ghz=0.0)

    def test_json_row_is_serializable(self):
        row = GpuCostModel(cycles_per_query=1.5, family="btree").to_json_dict()
        assert json.loads(json.dumps(row)) == row


class TestServingMetrics:
    def test_reservoir_is_deterministic_and_bounded(self):
        a, b = LatencyReservoir(capacity=64), LatencyReservoir(capacity=64)
        for i in range(1000):
            a.observe(float(i))
            b.observe(float(i))
        assert len(a) == 1000
        assert a.percentile(99) == b.percentile(99)
        assert a.percentile(50) <= a.percentile(99)

    def test_canonical_name_folds_endpoint_instances(self):
        assert canonical_serving_name("serving/kv_b10k/qps") == "serving/*/qps"
        assert canonical_serving_name("serving/endpoints") == \
            "serving/endpoints"
        assert canonical_serving_name("sm0/l1/misses") == "sm0/l1/misses"

    def test_endpoint_hooks_drive_the_registry(self):
        metrics = ServingMetrics()
        ep = metrics.endpoint("kv_test")
        ep.on_submit()
        ep.on_batch(1, 0)
        ep.on_answer(0.010)
        ep.on_gpu_cost(1400.0, 1e-6)
        snapshot = metrics.as_dict()
        assert snapshot["serving/kv_test/submitted"] == 1
        assert snapshot["serving/kv_test/answered"] == 1
        assert snapshot["serving/kv_test/latency_p99_ms"] == \
            pytest.approx(10.0)
        assert snapshot["serving/kv_test/gpu_cycles"] == 1400
        assert snapshot["serving/endpoints"] == 1
        assert ep.sustained_qps() >= 0.0


class TestTraffic:
    def test_poisson_arrivals_sorted_and_in_horizon(self):
        shape = TrafficShape(name="p", rate_qps=500.0, duration_s=2.0, seed=1)
        times = arrival_times(shape)
        assert np.all(np.diff(times) >= 0.0)
        assert times.size > 0 and times[-1] < 2.0
        # Mean rate within 5 sigma of the offered rate.
        assert abs(times.size - 1000) < 5 * np.sqrt(1000)

    def test_uniform_arrivals_are_evenly_spaced(self):
        shape = TrafficShape(name="u", rate_qps=100.0, duration_s=1.0,
                             process="uniform")
        times = arrival_times(shape)
        assert times.size == 100
        assert np.allclose(np.diff(times), 0.01)

    def test_diurnal_thinning_modulates_density(self):
        shape = TrafficShape(name="d", rate_qps=2000.0, duration_s=1.0,
                             diurnal_amplitude=0.9, diurnal_period_s=1.0,
                             seed=2)
        times = arrival_times(shape)
        # First half-period carries the positive sine lobe.
        first = np.count_nonzero(times < 0.5)
        assert first > times.size - first

    def test_zipf_ranks_are_head_heavy(self):
        rng = np.random.default_rng(0)
        ranks = zipf_ranks(100, 5000, s=1.1, rng=rng)
        counts = np.bincount(ranks, minlength=100)
        assert counts[0] == counts.max()
        assert counts[:10].sum() > counts[50:].sum()

    @pytest.mark.parametrize("kwargs", [
        {"rate_qps": 0.0},
        {"duration_s": -1.0},
        {"process": "bursty"},
        {"diurnal_amplitude": 1.5},
    ])
    def test_bad_shapes_rejected(self, kwargs):
        base = {"name": "x", "rate_qps": 10.0, "duration_s": 1.0}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            TrafficShape(**base).validate()


class TestQueryService:
    def test_duplicate_and_unknown_endpoints_rejected(self):
        service = QueryService().add_endpoint(_kv_endpoint())
        with pytest.raises(ConfigError):
            service.add_endpoint(_kv_endpoint())
        with pytest.raises(ConfigError):
            service.endpoint("nope")

    def test_submit_many_preserves_order_and_counts(self):
        endpoint = _kv_endpoint()
        queries = _kv_queries(24, seed=5)

        async def main():
            service = QueryService().add_endpoint(
                endpoint, BatchPolicy(max_batch=6, max_wait_s=0.001)
            )
            answers = await service.submit_many(
                endpoint.name, [float(q) for q in queries]
            )
            snapshot = service.snapshot()
            await service.close()
            return answers, snapshot

        answers, snapshot = asyncio.run(main())
        assert answers == endpoint.run_batch(list(queries))
        assert snapshot[f"serving/{endpoint.name}/answered"] == 24
        assert snapshot[f"serving/{endpoint.name}/batches"] >= 4

    def test_cost_model_pacing_accounts_gpu_time(self):
        endpoint = _kv_endpoint()
        cost = GpuCostModel(cycles_per_query=1000.0, base_cycles=14000.0)

        async def main():
            service = QueryService().add_endpoint(
                endpoint, BatchPolicy(max_batch=4, max_wait_s=0.0), cost=cost
            )
            await service.submit_many(endpoint.name, [2.0, 4.0, 6.0, 8.0])
            snapshot = service.snapshot()
            await service.close()
            return snapshot

        snapshot = asyncio.run(main())
        assert snapshot[f"serving/{endpoint.name}/gpu_cycles"] == 18000
        assert snapshot[f"serving/{endpoint.name}/gpu_busy_ms"] > 0.0

    def test_open_loop_run_is_equivalent_to_direct_batch(self):
        endpoint = _kv_endpoint()
        shape = TrafficShape(name="t", rate_qps=800.0, duration_s=0.1, seed=9)
        queries = _kv_queries(200, seed=9)

        async def main():
            service = QueryService().add_endpoint(
                endpoint, BatchPolicy(max_batch=16, max_wait_s=0.001)
            )
            report = await run_open_loop(
                service, endpoint.name, shape, queries=queries
            )
            await service.close()
            return report

        report = asyncio.run(main())
        assert report.offered > 0
        assert report.answered == report.offered
        assert report.rejected == 0 and report.errors == 0
        assert report.qps > 0.0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms <= \
            report.max_ms
        direct = endpoint.run_batch(list(queries[: report.offered]))
        assert report.answers == direct
        row = report.to_json_dict()
        assert json.loads(json.dumps(row))["answered"] == report.answered

    def test_tcp_roundtrip(self):
        dataset = np.asarray(
            np.random.default_rng(0).normal(size=(64, 3)), dtype=np.float64
        )
        endpoint = Endpoint(
            name="knn_tcp", kind="knn", family="flann", abbr="T",
            index=KdTreeIndex().build(dataset), params={"k": 3},
            spec=QuerySpec(k=3),
        )

        async def main():
            service = QueryService().add_endpoint(
                endpoint, BatchPolicy(max_batch=4, max_wait_s=0.001)
            )
            server = await serve_tcp(service)
            host, port = server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps(
                {"endpoint": "knn_tcp", "query": list(dataset[0])}
            ).encode() + b"\n")
            writer.write(json.dumps(
                {"endpoint": "missing", "query": 0.0}
            ).encode() + b"\n")
            await writer.drain()
            good = json.loads(await reader.readline())
            bad = json.loads(await reader.readline())
            writer.close()
            server.close()
            await server.wait_closed()
            await service.close()
            return good, bad

        good, bad = asyncio.run(main())
        direct = endpoint.run_batch([dataset[0]])[0]
        assert good["result"] == [[int(i), float(d)] for i, d in direct]
        assert "ConfigError" in bad["error"]
