"""Kernel-backend registry: one seam for every hot numeric loop.

The hot kernels of the reproduction — beat-structured HSU distances, BVH
lockstep-DFS point and radius queries, k-d plane stepping, HNSW
merged-pool distances, B-tree descent trails, packed-stream warp
grouping, and the simulator's load-coalescing loop — are owned by a
*backend* object rather than inlined at their call sites.  Call sites
resolve the active backend through :func:`get_backend` and invoke kernels
as methods, so a compiled implementation can be swapped in under every
layer at once.  (The simulator's event loop itself is plain Python over
packed columns, :mod:`repro.gpusim.engine`; it calls no backend kernel.)

Two backends ship:

* ``reference`` — the pinned numpy ground truth
  (:class:`repro.kernels.reference.ReferenceBackend`); every golden,
  fingerprint, and cache key is defined by this code.
* ``jit`` — numba ``@njit(cache=True)`` implementations
  (:mod:`repro.kernels.jit`), self-verified against ``reference`` on
  deterministic probes at construction and falling back per kernel on
  any bitwise mismatch.  When numba is not installed (the ``[jit]``
  extra), ``jit`` gracefully degrades to the reference backend.

Selection precedence (first match wins):

1. an explicit ``name`` argument (``get_backend("jit")``),
2. the ``REPRO_KERNEL_BACKEND`` environment variable — the override that
   also propagates into campaign pool workers,
3. the ``GpuConfig.kernel_backend`` field (pass ``config=``),
4. the ``reference`` default.

Backend choice can never change results — the equivalence contract in
``tests/test_batch_equivalence.py`` pins neighbors, event streams, trace
fingerprints, and goldens bit-identical across backends — so the
``kernel_backend`` config field is deliberately excluded from
``GpuConfig.stable_hash()`` and manifest config hashes (cache keys must
not bust when the backend flips).  See docs/KERNELS.md.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.errors import ConfigError

#: Valid backend names, in registration order.  Declared here (like
#: ``SCHEDULER_POLICIES`` in :mod:`repro.gpusim.config`) so config
#: validation needs no kernel imports.
KERNEL_BACKENDS = ("reference", "jit")

#: The environment override; also the mechanism that carries the selected
#: backend into campaign process-pool workers.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

_DEFAULT = "reference"

#: name -> zero-argument factory (lazy: backends construct on first use).
_factories: dict[str, Callable[[], object]] = {}
#: name -> constructed backend instance.
_instances: dict[str, object] = {}


def register_backend(name: str, factory: Callable[[], object]) -> None:
    """Register (or replace) a backend under ``name``.

    ``factory`` is called once, on first :func:`get_backend` resolution of
    ``name``; re-registering drops any cached instance.  Third-party
    backends (a C extension, a GPU build) register here and become
    selectable through every mechanism the built-ins support.
    """
    if not name or not isinstance(name, str):
        raise ConfigError(f"backend name must be a non-empty string, got {name!r}")
    _factories[name] = factory
    _instances.pop(name, None)


def registered_backends() -> tuple[str, ...]:
    """Names currently selectable through :func:`get_backend`."""
    _ensure_builtins()
    return tuple(_factories)


def _ensure_builtins() -> None:
    if "reference" not in _factories:
        from repro.kernels.reference import ReferenceBackend

        _factories["reference"] = ReferenceBackend
    if "jit" not in _factories:
        from repro.kernels.jit import make_jit_backend

        _factories["jit"] = make_jit_backend


def resolve_backend_name(
    name: str | None = None, config: object | None = None
) -> str:
    """The backend name the precedence rules select (no construction)."""
    if name:
        return name
    env = os.environ.get(BACKEND_ENV_VAR)
    if env:
        return env
    configured = getattr(config, "kernel_backend", None)
    if configured:
        return configured
    return _DEFAULT


def get_backend(name: str | None = None, config: object | None = None):
    """Resolve and return the active kernel backend instance.

    ``name`` forces a specific backend; otherwise the
    ``REPRO_KERNEL_BACKEND`` environment variable, then
    ``config.kernel_backend``, then ``"reference"`` decide.  Unknown names
    raise :class:`~repro.errors.ConfigError`.  A ``jit`` request without
    numba installed degrades to the reference instance (the documented
    graceful-degradation contract of the optional ``[jit]`` extra).
    """
    _ensure_builtins()
    resolved = resolve_backend_name(name, config)
    instance = _instances.get(resolved)
    if instance is not None:
        return instance
    factory = _factories.get(resolved)
    if factory is None:
        raise ConfigError(
            f"unknown kernel backend {resolved!r} "
            f"(want one of {registered_backends()})"
        )
    instance = factory()
    if instance is None:  # graceful degradation (jit without numba)
        instance = get_backend("reference")
    _instances[resolved] = instance
    return instance


def jit_available() -> bool:
    """True when numba is importable (the ``[jit]`` extra is installed)."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Scope the env-var backend selection to a ``with`` block.

    Sets ``REPRO_KERNEL_BACKEND`` (validating ``name`` first) so every
    dispatch inside the block — including campaign pool workers spawned
    within it — resolves to ``name``; the prior value is restored on
    exit.  This is what ``repro.api.simulate(backend=...)`` wraps around
    its pipeline.
    """
    get_backend(name)  # validate eagerly: unknown names raise here
    prior = os.environ.get(BACKEND_ENV_VAR)
    os.environ[BACKEND_ENV_VAR] = name
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = prior
