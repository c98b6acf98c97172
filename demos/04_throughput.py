"""
Batch throughput
================

A million points per domain at y = 1e-8, timed.  The domains split at
z_c(y), as the dispatcher splits them (the sample `voigtw bench` draws).
The batch path folds the per-y series coefficients once for the whole
array, evaluates the internal points with the Taylor series, and
evaluates all external points in one Laplace continued-fraction call with
one depth per point.  Results
are bit-identical to pointwise evaluation.  The printed rate depends on
the machine; perfbench/ holds the benchmark and its measured numbers.
"""

import time

import numpy as np

from voigtw import eval_w, eval_w_batch
from voigtw.cli import bench_points

y = 1e-8
for label in ("internal", "external"):
    xs = bench_points(y, label, 1_000_000, seed=0)
    t0 = time.perf_counter()
    k, l = eval_w_batch(xs, y)
    dt = time.perf_counter() - t0
    print(
        f"{label:>8}: {xs.size} points in {dt:6.3f} s "
        f"({xs.size / dt:12.0f} pts/s), all finite: {bool(np.isfinite(k).all())}"
    )

    # spot-check batch == scalar, bit for bit
    for i in (0, 12345, 999_999):
        ks, ls = eval_w(float(xs[i]), y)
        assert ks == k[i] and ls == l[i]
print("batch results match scalar evaluation bit for bit")
