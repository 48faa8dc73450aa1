"""The kernel-backend registry: selection, scoping, and the jit contract.

Covers the registry API (``get_backend`` / ``register_backend`` /
``use_backend``), the selection precedence (explicit name > env var >
``config.kernel_backend`` > reference), the ``GpuConfig.kernel_backend``
field (validated, excluded from every hash), and the ``JitBackend``
init-time self-verification — all runnable without numba: without it the
jit decorator is an identity, so the jit kernel *algorithms* are directly
constructible and testable in pure Python, and ``get_backend("jit")``
must degrade to the reference instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.gpusim.config import GpuConfig
from repro.gpusim.observability import config_hash
from repro.kernels import (
    BACKEND_ENV_VAR,
    KERNEL_BACKENDS,
    get_backend,
    jit_available,
    register_backend,
    registered_backends,
    resolve_backend_name,
    use_backend,
)
from repro.kernels.jit import NUMBA_AVAILABLE, JitBackend, make_jit_backend
from repro.kernels.reference import ReferenceBackend


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


class TestResolution:
    def test_default_is_reference(self):
        assert resolve_backend_name() == "reference"
        assert get_backend().name == "reference"

    def test_explicit_name_wins_over_env_and_config(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "jit")
        config = GpuConfig(kernel_backend="jit")
        assert resolve_backend_name("reference", config) == "reference"

    def test_env_var_wins_over_config(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        config = GpuConfig(kernel_backend="jit")
        assert resolve_backend_name(config=config) == "reference"

    def test_config_field_selects(self):
        config = GpuConfig(kernel_backend="jit")
        assert resolve_backend_name(config=config) == "jit"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_get_backend_is_cached(self):
        assert get_backend("reference") is get_backend("reference")

    def test_jit_degrades_to_reference_without_numba(self):
        backend = get_backend("jit")
        if jit_available():
            assert backend.name == "jit"
        else:
            assert backend is get_backend("reference")


class TestUseBackend:
    def test_scopes_and_restores_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        with use_backend("jit"):
            assert resolve_backend_name() == "jit"
        assert resolve_backend_name() == "reference"

    def test_restores_unset_env(self):
        import os

        with use_backend("jit"):
            assert os.environ[BACKEND_ENV_VAR] == "jit"
        assert BACKEND_ENV_VAR not in os.environ

    def test_unknown_backend_raises_before_entering(self):
        with pytest.raises(ConfigError):
            with use_backend("cuda"):
                raise AssertionError("must not enter the context")


class TestRegisterBackend:
    def test_custom_factory_and_override(self):
        probe = ReferenceBackend()
        register_backend("probe", lambda: probe)
        try:
            assert "probe" in registered_backends()
            assert get_backend("probe") is probe
        finally:
            # The registry has no unregister; park a fresh reference
            # factory under the probe name so later lookups stay sane.
            register_backend("probe", ReferenceBackend)

    def test_invalid_names_rejected(self):
        with pytest.raises(ConfigError):
            register_backend("", ReferenceBackend)
        with pytest.raises(ConfigError):
            register_backend(None, ReferenceBackend)  # type: ignore[arg-type]


class TestGpuConfigField:
    def test_validated_against_registry_names(self):
        with pytest.raises(ConfigError, match="kernel backend"):
            GpuConfig(kernel_backend="cuda")
        for name in KERNEL_BACKENDS:
            assert GpuConfig(kernel_backend=name).kernel_backend == name

    def test_with_kernel_backend_helper(self):
        config = GpuConfig().with_kernel_backend("jit")
        assert config.kernel_backend == "jit"

    def test_stable_hash_ignores_backend(self):
        """Backends are bit-identical by contract, so the backend field
        must never bust a cache key or move a manifest config_sha."""
        reference = GpuConfig()
        jit = reference.with_kernel_backend("jit")
        assert reference.stable_hash() == jit.stable_hash()
        assert config_hash(reference) == config_hash(jit)
        changed = reference.with_warp_buffer(4)
        assert changed.stable_hash() != reference.stable_hash()


class TestJitBackendAlgorithms:
    """The jit kernel bodies, run as plain Python (no numba needed)."""

    def test_self_verification_all_green(self):
        backend = JitBackend()
        assert backend.verified, "no probes ran"
        failed = [k for k, ok in backend.verified.items() if not ok]
        assert not failed, (
            f"jit kernels fell back to reference on this numpy: {failed}"
        )

    def test_kernels_match_reference_on_random_inputs(self):
        jit = JitBackend()
        reference = ReferenceBackend()
        rng = np.random.default_rng(77)
        q = rng.random(24, dtype=np.float32)
        block = rng.random((48, 24), dtype=np.float32)
        assert np.array_equal(
            jit.euclid_beats(q, block, 16),
            reference.euclid_beats(q, block, 16),
        )
        rows = rng.random((32, 24), dtype=np.float32)
        assert np.array_equal(
            jit.euclid_beats_rowwise(rows, block[:32], 16),
            reference.euclid_beats_rowwise(rows, block[:32], 16),
        )
        cands = rng.random((96, 17), dtype=np.float32)
        query = rng.random(17, dtype=np.float32)
        assert np.array_equal(
            jit.sq_l2_f32(cands, query), reference.sq_l2_f32(cands, query)
        )
        lo = rng.random((64, 3)) - 0.5
        hi = lo + rng.random((64, 3))
        pts = rng.random((64, 3))
        assert np.array_equal(
            jit.aabb_distance_sq(lo, hi, pts),
            reference.aabb_distance_sq(lo, hi, pts),
        )
        assert np.array_equal(
            jit.aabb_contains_points(lo, hi, pts),
            reference.aabb_contains_points(lo, hi, pts),
        )

    def test_fallback_on_probe_mismatch(self):
        """A kernel whose probe disagrees with the reference must be
        silently replaced by the reference implementation."""

        class Broken(JitBackend):
            def euclid_beats(self, q, block, width):
                return super().euclid_beats(q, block, width) + 1.0

        backend = Broken()
        assert backend.verified["euclid_beats"] is False
        reference = ReferenceBackend()
        rng = np.random.default_rng(5)
        q = rng.random(12, dtype=np.float32)
        block = rng.random((8, 12), dtype=np.float32)
        assert np.array_equal(
            backend.euclid_beats(q, block, 16),
            reference.euclid_beats(q, block, 16),
        )

    def test_make_jit_backend_gates_on_numba(self):
        backend = make_jit_backend()
        if NUMBA_AVAILABLE:
            assert isinstance(backend, JitBackend)
        else:
            assert backend is None


class TestReferenceKernels:
    @pytest.mark.parametrize(
        "rows,dim", [(1, 2), (16, 65), (33, 96), (7, 960), (200, 8)]
    )
    def test_sq_l2_f32_bytes_equal_np_sum(self, rows, dim):
        # The kernel calls ``np.add.reduce`` directly; ``np.sum`` is the
        # form it replaced and must keep giving the same bytes.
        rng = np.random.default_rng(rows * dim)
        cands = rng.normal(size=(rows, dim)).astype(np.float32)
        kernel = ReferenceBackend().sq_l2_f32
        for query in (
            rng.normal(size=dim).astype(np.float32),
            rng.normal(size=(rows, dim)).astype(np.float32),
        ):
            diff = cands - query
            want = np.sum(diff * diff, axis=1, dtype=np.float32)
            got = kernel(cands, query)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()
