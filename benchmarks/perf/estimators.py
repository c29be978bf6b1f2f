"""Estimators shared by every workload: percentiles, memory, calibration.

Which block of the measured phase a workload reports is its own choice
(see README.md); this module holds what they share.
"""

from __future__ import annotations

import functools
import os
import random
import time
import zlib

import numpy as np

#: Calibration readings further apart than this mark a run ``disturbed``.
DISTURBED_GAP = 0.15

_PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples) -> float:
    """The median as a float."""
    return float(np.median(np.asarray(samples, dtype=float)))


def rss_bytes() -> int:
    """Resident set size of this process, from ``/proc/self/statm``."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE_BYTES


def digest(*arrays: np.ndarray) -> int:
    """CRC-32 chained over the arrays' bytes (the workload digest)."""
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
    return crc


class _Cell:
    __slots__ = ("gain", "state", "meta")

    def __init__(self, index: int) -> None:
        self.gain = index * 0.5
        self.state = float(index)
        self.meta = {"k": index}


@functools.cache
def _cells() -> list[_Cell]:
    cells = [_Cell(index) for index in range(30_000)]
    # Visit order unrelated to allocation order, so no prefetcher helps.
    random.Random(0).shuffle(cells)
    return cells


def kernel() -> float:
    """Seconds one round of the fixed calibration kernel takes (~10 ms).

    Two interpreter sweeps over 30 000 small heap objects (attribute
    loads, a dict lookup, float arithmetic): pointer-chasing through a
    working set larger than the core's private caches, which is what the
    program's per-source hot paths are made of.  Sized that way on
    purpose -- a cache-resident loop slowed down only half as much as
    the engines did when the box got busy.  The kernel never changes, so
    two readings around the measured phase show whether the *machine*
    changed speed while the program ran.
    """
    cells = _cells()
    total = 0.0
    started = time.perf_counter()
    for _ in range(2):
        for cell in cells:
            total += cell.gain * cell.state + cell.meta["k"]
    return time.perf_counter() - started


def calibrate() -> float:
    """One calibration reading in ms: the median of nine kernel rounds."""
    return median([kernel() for _ in range(9)]) * 1000.0


def disturbed(before_ms: float, after_ms: float) -> bool:
    """Whether two calibration readings differ by more than the gap."""
    return abs(after_ms - before_ms) > DISTURBED_GAP * min(before_ms, after_ms)
