"""A fixed reference computation that measures how fast the host runs now.

The host's speed changes by 20-60% over seconds to minutes, because other
tenants share the machine, and that swamps the difference between two
versions of the program.  The benchmark times :func:`reference_ms` in the
workload's process at most REFERENCE_EVERY_S before each operation and
rescales the operation's time to a host on which the reference takes
``REFERENCE_NOMINAL_MS``.  The reference mixes the kinds of work pcmeff
does: interpreter loops over dicts and tuples, scalar indexing of small
arrays, and small-array numpy calls.
"""

from time import perf_counter

import numpy as np

REFERENCE_NOMINAL_MS = 5.0
_A = np.arange(1.0, 65.0).reshape(8, 8)
_COEFFS = np.arange(1.0, 8.0)


def reference_ms() -> float:
    t0 = perf_counter()
    seen: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 13, (i * 7) % 17)
        seen[key] = seen.get(key, 0) + 1
    total = 0.0
    for _ in range(13):
        for i in range(8):
            for j in range(8):
                total += _A[i, j] * _A[j, i]
    w = np.full(8, 1.0 / 8)
    for _ in range(100):
        y = _A @ w
        w = y / y.sum()
        total += float(np.polyval(_COEFFS, w[0])) + float(np.max(np.abs(y - w)))
    return (perf_counter() - t0) * 1e3
