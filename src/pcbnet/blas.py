"""The loaded OpenBLAS's thread count, read and held through ``ctypes``, as numpy
exposes no control over it. The library is found in the process's memory map,
so on Linux only; where no OpenBLAS thread getter and setter are found,
``info`` reads None and ``one_thread`` does nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache
from typing import Iterator

# The count is process-wide, so every block shares one hold:
# [blocks open, the count the first of them found]
_hold = [0, 0]
_lock = threading.Lock()


@cache
def _find() -> tuple | None:
    """The loaded OpenBLAS's file name, thread getter and setter, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        # numpy's wheels prefix the symbols; builds with 64-bit integers suffix them
        for name in ("scipy_openblas_{}64_", "openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            get, set_ = (getattr(lib, name.format(f"{verb}_num_threads"), None)
                         for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return os.path.basename(path), get, set_
    return None


def info() -> dict:
    """The loaded OpenBLAS's file name and its thread count now; None where unknown."""
    found = _find()
    return {"blas_library": found and found[0], "blas_threads": found and found[1]()}


@contextmanager
def one_thread() -> Iterator[None]:
    """Hold OpenBLAS at one thread for the block, then restore the count it
    found, also on an exception. Nested and concurrent blocks share the hold:
    the last one to leave restores the count that the first one found."""
    if (found := _find()) is None:
        yield
        return
    _, get, set_ = found
    with _lock:
        if _hold[0] == 0:
            _hold[1] = get()
            set_(1)
        _hold[0] += 1
    try:
        yield
    finally:
        with _lock:
            _hold[0] -= 1
            if _hold[0] == 0:
                set_(_hold[1])
