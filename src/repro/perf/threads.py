"""Thread ownership: single-threaded BLAS, sized kernel job pool.

The estimator's hot path issues many small GEMMs (one per band job in
:func:`repro.perf.kernels._compute_cells`).  A multi-threaded BLAS wakes
its worker threads for each of them and leaves them spin-waiting in
between, which costs several times the useful CPU and oversubscribes a
host that already runs one process per shard.  So every process that
builds an estimator pins each loaded BLAS library to one thread
(:func:`pin_blas_threads`), and the kernel job pool
(``RimConfig.kernel_threads``, resolved by :func:`resolve_kernel_threads`)
is the one source of in-process parallelism.  BLAS results then do not
depend on how many threads the library would otherwise have used.

Libraries are found in ``/proc/self/maps`` (the ``numpy.libs`` /
``scipy.libs`` wheel directories when that file is unreadable) and
driven through the vendor's own ``*set_num_threads*`` entry point, so
pinning works at runtime, after numpy is imported, without environment
variables.
"""

from __future__ import annotations

import ctypes
import os
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

# vendor -> (library file-name pattern, [(set symbol, get symbol), ...]).
# OpenBLAS builds differ in symbol prefix (numpy/scipy wheels vendor it
# as ``scipy_openblas``) and in the ILP64 suffix; the C entry points
# take an ``int`` by value (the ``..._`` Fortran twins take a pointer).
_OPENBLAS_SYMBOLS = [
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "_64", "")
]
_VENDORS = {
    "openblas": (re.compile(r"openblas"), _OPENBLAS_SYMBOLS),
    "mkl": (re.compile(r"mkl_rt"), [("MKL_Set_Num_Threads", "MKL_Get_Max_Threads")]),
    "blis": (
        re.compile(r"libblis"),
        [("bli_thread_set_num_threads", "bli_thread_get_num_threads")],
    ),
}


@dataclass(frozen=True)
class BlasLibrary:
    """One BLAS library loaded in this process."""

    vendor: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]

    def num_threads(self) -> int:
        return int(self.get_threads())


_lock = threading.Lock()
_libraries: Dict[str, Optional[BlasLibrary]] = {}  # path -> handle (None: not BLAS)


def _mapped_paths() -> List[str]:
    """Shared objects mapped into this process, in load order."""
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                fields = line.split(None, 5)
                if len(fields) == 6 and ".so" in fields[5]:
                    paths.append(fields[5].strip())
    except OSError:
        # No procfs: look where the numpy/scipy wheels vendor their BLAS.
        import numpy

        site = Path(numpy.__file__).resolve().parent.parent
        for libdir in ("numpy.libs", "scipy.libs"):
            paths.extend(str(p) for p in sorted((site / libdir).glob("*.so*")))
    return list(dict.fromkeys(paths))


def _open(path: str) -> Optional[BlasLibrary]:
    name = os.path.basename(path)
    for vendor, (pattern, symbols) in _VENDORS.items():
        if not pattern.search(name):
            continue
        try:
            # RTLD_NOLOAD: a handle to a library that is already loaded,
            # never a second copy nobody calls.
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            return None
        for set_name, get_name in symbols:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_fn, get_fn = getattr(lib, set_name), getattr(lib, get_name)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return BlasLibrary(vendor, set_fn, get_fn)
    return None


def loaded_blas() -> List[BlasLibrary]:
    """Every BLAS library loaded in this process that we know how to drive."""
    with _lock:
        for path in _mapped_paths():
            if path not in _libraries:
                _libraries[path] = _open(path)
        return [lib for lib in _libraries.values() if lib is not None]


def pin_blas_threads() -> None:
    """Set every loaded BLAS library to one thread; idempotent.

    Libraries loaded later (scipy's copy, say) are picked up by the next
    call; each estimator build makes one.
    """
    for lib in loaded_blas():
        lib.set_threads(1)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host's)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_kernel_threads(config) -> int:
    """The kernel job-pool width ``config.kernel_threads`` stands for.

    ``0`` (the default) means one thread per usable CPU; ``1`` is serial.
    """
    threads = int(getattr(config, "kernel_threads", 0))
    return threads if threads > 0 else usable_cpus()


def thread_facts(config=None) -> Dict[str, object]:
    """Host threading facts for benchmark and perf records.

    ``kernel_threads`` is the job-pool width ``config`` resolves to (the
    default ``RimConfig``'s when None).
    """
    libs = loaded_blas()
    return {
        "usable_cpus": usable_cpus(),
        "blas_vendor": ",".join(sorted({lib.vendor for lib in libs})) or None,
        "blas_threads": max((lib.num_threads() for lib in libs), default=None),
        "kernel_threads": resolve_kernel_threads(config),
    }
