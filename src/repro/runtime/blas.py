"""One BLAS thread per batch task.

The batch runtime already supplies the parallelism: the worker pool
fans tasks out across processes and the dispatcher runs shards as
forked child processes.  NumPy's bundled OpenBLAS would start its own thread pool
in each of them as well — the per-die calibration ``lstsq`` fits and
``design @ weights`` products are tall-skinny (N x 14) and gain nothing
from extra threads, so on a small machine those threads only
oversubscribe the CPUs.  :class:`~repro.runtime.batch.BatchRunner`
therefore runs every task with one BLAS thread:

* pool workers call :func:`pin_blas_threads` as their initializer;
* the in-process ``workers=1`` path runs inside
  :func:`single_blas_thread`, which restores the caller's count.

The thread count is set through the OpenBLAS library NumPy actually
loaded, via ctypes: environment variables are read once when OpenBLAS
loads, so setting them after ``import numpy`` (or in a forked child)
has no effect.  When no OpenBLAS is found (another BLAS, or an unusual
install) the helpers return ``None`` and tasks run unpinned — reported
as ``"unpinned"``, never as pinned.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import NamedTuple

#: Thread-count setters, most specific first: the symbol-prefixed
#: ``scipy_openblas`` build NumPy wheels bundle, then stock OpenBLAS
#: with and without the 64-bit-integer suffix.  Each getter is the
#: setter's name with ``set`` replaced by ``get``.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

#: What the BLAS report says when no OpenBLAS thread control was found.
UNPINNED = "unpinned"


class BlasLibrary(NamedTuple):
    """Thread-count control of one loaded OpenBLAS library.

    Attributes:
        path: the shared-library file the symbols were found in.
        set_threads: sets the library's thread count.
        get_threads: reads the library's thread count back.
    """

    path: str
    set_threads: Callable[[int], None]
    get_threads: Callable[[], int]


def _candidate_paths() -> Iterator[str]:
    """OpenBLAS files to try: NumPy's bundled copy, then the system's.

    A generator, so the system search (which may run ``ldconfig``) only
    happens when the bundled copy is missing or lacks thread control.
    """
    import glob

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    yield from sorted(glob.glob(os.path.join(site, "numpy.libs", "*openblas*")))
    import ctypes.util

    system = ctypes.util.find_library("openblas")
    if system is not None:
        yield system


def _find_openblas() -> BlasLibrary | None:
    """Thread control of the first candidate exporting a setter/getter pair."""
    import ctypes

    for path in _candidate_paths():
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            getter_name = name.replace("_set_", "_get_")
            if not (hasattr(library, name) and hasattr(library, getter_name)):
                continue
            setter = getattr(library, name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter = getattr(library, getter_name)
            getter.argtypes, getter.restype = [], ctypes.c_int
            return BlasLibrary(path=path, set_threads=setter, get_threads=getter)
    return None


@functools.cache
def blas_library() -> BlasLibrary | None:
    """The loaded OpenBLAS's thread control, resolved once per process."""
    return _find_openblas()


def blas_name() -> str:
    """The BLAS library under thread control, or ``"unpinned"``."""
    library = blas_library()
    return UNPINNED if library is None else os.path.basename(library.path)


def blas_threads() -> int | None:
    """The current BLAS thread count; None when it cannot be controlled."""
    library = blas_library()
    return None if library is None else library.get_threads()


def pin_blas_threads(count: int = 1) -> int | None:
    """Set the BLAS thread count; the count read back, or None if unpinned.

    Also the pool-worker initializer of
    :class:`~repro.runtime.batch.BatchRunner`.
    """
    library = blas_library()
    if library is None:
        return None
    library.set_threads(count)
    return library.get_threads()


@contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the block with one BLAS thread, then restore the caller's count."""
    previous = blas_threads()
    if previous is None:
        yield
        return
    pin_blas_threads(1)
    try:
        yield
    finally:
        pin_blas_threads(previous)
