"""The machine's speed at the moment of a measurement.

On a shared machine the speed of this benchmark moves between levels
up to 1.5x apart, each lasting seconds to minutes, with the load of
other tenants.  Every timing the benchmark reports is therefore taken
together with a run of a fixed reference kernel: numpy ufuncs over
arrays the size of a benchmark call, then scalar calls through numpy,
in about equal time -- the two kinds of work the evaluator does -- and
no voigtw code, so no change to the program moves it.  A time is
reported at the reference speed: measured time x `factor()`, the
kernel's measured speed over REF_PER_S.  The ratio of the two stays
within a few percent while the machine's speed moves by half.
"""

import time

import numpy as np

#: Kernel runs per second on a 2-vCPU virtual machine (Python 3.11.7,
#: numpy 2.4.6) in its commoner, slower state.
REF_PER_S = 260.0

_RNG = np.random.default_rng(0)
_ARRAYS = _RNG.uniform(0.0, 5.0, (4, 16384))
_SCALARS = _RNG.uniform(0.0, 5.0, 256).tolist()


def kernel():
    s = 0.0
    for x in _ARRAYS:
        s += float((np.exp(-x * x) * np.cos(x) / (1.0 + x)).sum())
    for v in _SCALARS:
        a = np.asarray([v])
        s += float(np.exp(-a * a)[0]) + float(np.hypot(v, 0.5)) + float(np.abs(a).sum())
    return s


def factor(reps=2):
    """Kernel speed now / REF_PER_S: above 1 while the machine runs fast.

    The fastest of `reps` runs, so a run another tenant interrupts is
    not taken for a slow machine.
    """
    best = None
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        kernel()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return 1e9 / best / REF_PER_S
