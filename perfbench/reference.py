"""A fixed computation that tells how fast the host runs at this moment.

The shared host this benchmark was written on runs the whole CPU up to 1.7x
slower in phases that last from about a second to more than 30 s, so the
wall time of one task list moves with the host's load by far more than a
program change would.  The benchmark therefore times this computation, which
runs no agq code, before and after every task, and reports each task's time
as a multiple of it (`run.py`): a phase that slows both cancels out.

It has three parts, one per kind of work the workloads do, and each takes
about a third of its time:

* an interpreter loop (field tables, the simulator's decode loop);
* many numpy calls on 12-element arrays (row operations on short rows);
* a bulk table gather over 10^5-element arrays (codeword enumeration).

The arrays are built inside the call and freed after it, and stay small
(under 3 MB together), so the measuring process's peak memory is still the
program's.
"""

from __future__ import annotations

import time

import numpy as np

_P = 81
_SMALL = 12
_BULK = 100_000


def reference_s() -> float:
    """Seconds one run of the reference computation takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    table = (np.arange(_P * _P, dtype=np.int64) % _P).reshape(_P, _P)
    x = np.arange(_SMALL, dtype=np.int64)
    for _ in range(3000):
        y = (table[x, x[::-1]] + x) % _P
        acc += y[y > 3].size
    a = np.arange(_BULK, dtype=np.int64) * 7 % _P
    b = np.arange(_BULK, dtype=np.int64) * 13 % _P
    for _ in range(24):
        acc += int(table[a, b].sum())
    seconds = time.perf_counter() - t0
    if acc <= 0:  # keeps every part's result in use
        raise AssertionError("reference computation gave no result")
    return seconds
