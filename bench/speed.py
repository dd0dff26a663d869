"""Speed probe: times calibration units on request, in its own process.

Started by ``run.py`` as a separate interpreter that imports numpy but
never the library, so nothing the library does to its own process (a
thread it starts, memory it holds, state it caches) can reach these
timings.  Protocol, one line each way: the client writes a unit name
(``quotes``, ``paths`` or ``table``); the probe runs that unit
``UNITS_PER_READING`` times and answers with the median time in
seconds.  It exits when its standard input closes.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

UNITS_PER_READING = 3


def _quotes():
    """Small complex ufunc calls and interpreted float arithmetic, like
    one adaptive quadrature of a pricing integrand."""
    z = np.linspace(0.1, 3.0, 15) + 0.5j
    acc = 0j
    for _ in range(60):
        w = np.sqrt(z * z + 1.0)
        acc += np.sum(np.exp(-w) / (1.0 + w))
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    x = np.linspace(0.0, 50.0, 32768)
    return acc + np.cos(x) @ np.sin(x) + s


def _paths():
    """Normal draws and arithmetic over long path arrays, like an Euler
    Monte Carlo step."""
    gen = np.random.Generator(np.random.Philox(5))
    x = np.zeros(4000)
    v = np.full(4000, 0.04)
    for _ in range(6):
        z = gen.standard_normal((2, 4000))
        vp = np.maximum(v, 0.0)
        sq = np.sqrt(vp) * 0.1
        x += (0.03 - 0.5 * vp) * 0.01 + sq * z[0]
        v += 1.5 * (0.04 - vp) * 0.01 + 0.4 * sq * (-0.6 * z[0] + 0.8 * z[1])
    return x.sum()


_TABLE_L = np.linspace(0.0, 60.0, 1200)
_TABLE_X = np.linspace(-1.0, 1.0, 32)
_TABLE_K = np.exp(-_TABLE_L) * (1.0 + 0.5j)


def _table():
    """A phase matrix and its products with a kernel table, like the
    vectorized density grid."""
    angles = np.outer(_TABLE_X, _TABLE_L)
    return np.cos(angles) @ _TABLE_K.real - np.sin(angles) @ _TABLE_K.imag


UNITS = {"quotes": _quotes, "paths": _paths, "table": _table}


def main():
    for unit in UNITS.values():
        unit()                  # the first call pays numpy's lazy set-up
    clock = time.perf_counter
    for line in sys.stdin:
        unit = UNITS[line.strip()]
        times = []
        for _ in range(UNITS_PER_READING):
            start = clock()
            unit()
            times.append(clock() - start)
        sys.stdout.write("%r\n" % statistics.median(times))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
