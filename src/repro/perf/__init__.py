"""``repro.perf`` — kernel backends for the alignment hot path.

The package owns the *kernel backend registry* (which implementation of
the TRRS/alignment kernels the pipeline runs), the batched kernels
themselves, and the streaming cross-block row cache:

* :mod:`repro.perf.registry` — backend selection via
  ``RimConfig.kernel_backend`` / the ``RIM_KERNEL`` env var;
* :mod:`repro.perf.kernels` — ``reference`` (the serial oracle) and
  ``batched`` (one einsum per lag across all pairs, with cell reuse);
* :mod:`repro.perf.streamcache` — incremental reuse of the context
  window's TRRS rows across streaming blocks;
* :mod:`repro.perf.threads` — thread ownership: every loaded BLAS is
  pinned to one thread when a backend is built, and the batched
  kernels' job pool (``kernel_threads``) is the in-process parallelism.

All backends are numerically equivalent; ``batched`` is the default.
See ``docs/performance.md``.
"""

from __future__ import annotations

from repro.perf.kernels import (
    BaseRowStore,
    BatchedBackend,
    KernelBackend,
    ReferenceBackend,
)
from repro.perf.dptrack import dp_track_batch, native_available
from repro.perf.registry import (
    DEFAULT_BACKEND,
    DEFAULT_KERNEL_DTYPE,
    RIM_KERNEL_DTYPE_ENV,
    RIM_KERNEL_ENV,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend_name,
    resolve_kernel_dtype,
)
from repro.perf.streamcache import StreamAlignmentCache
from repro.perf.threads import (
    loaded_blas,
    pin_blas_threads,
    resolve_kernel_threads,
    thread_facts,
    usable_cpus,
)


def _reference(config) -> ReferenceBackend:
    # The reference oracle is always float64 — it defines the numbers
    # every other backend is measured against; only batched kernels
    # honour the opt-in precision.
    pin_blas_threads()
    return ReferenceBackend()


def _batched(config) -> BatchedBackend:
    pin_blas_threads()
    return BatchedBackend(
        threads=resolve_kernel_threads(config),
        dtype=resolve_kernel_dtype(config),
    )


register_backend("reference", _reference)
register_backend("batched", _batched)

__all__ = [
    "DEFAULT_BACKEND",
    "DEFAULT_KERNEL_DTYPE",
    "RIM_KERNEL_DTYPE_ENV",
    "RIM_KERNEL_ENV",
    "BaseRowStore",
    "BatchedBackend",
    "KernelBackend",
    "ReferenceBackend",
    "StreamAlignmentCache",
    "available_backends",
    "dp_track_batch",
    "get_backend",
    "loaded_blas",
    "native_available",
    "pin_blas_threads",
    "register_backend",
    "resolve_backend_name",
    "resolve_kernel_dtype",
    "resolve_kernel_threads",
    "thread_facts",
    "usable_cpus",
]
