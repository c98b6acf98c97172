"""Dawson's integral D(x) by a fixed-depth finite continued fraction.

The depth-N truncation reads

    D(x) ~ x / (1 + 2x^2 - 4x^2 / (3 + 2x^2 - 8x^2 / (5 + 2x^2 - ...
                                    - 4N x^2 / (2N + 1 + 2x^2))))

and is evaluated bottom-up (innermost denominator first).  The depth is
fixed by the parameter tables, so the loop is branch-free and vectorizes
over x.  Every partial denominator depends on x only through x^2, hence
the result is exactly odd in x.  Where 4N x^2 would overflow, D(x) is
1/(2x) to double precision (the next term is 1/(4x^3)) and used directly.
"""

import numpy as np


def dawson_cf(x, n_d):
    """Depth-n_d continued fraction approximation of Dawson's integral.

    Accepts a scalar or ndarray abscissa; returns a matching float64 result.
    """
    if n_d < 1:
        raise ValueError(f"n_d must be a positive integer, got {n_d}")
    x = np.asarray(x, dtype=np.float64)
    x_big = 6.3e153 / n_d**0.5  # below it 4 n_d x^2 < 1.6e308 stays finite
    if not (-x_big < x.min(initial=0.0) and x.max(initial=0.0) < x_big):
        if not np.all(np.isfinite(x)):
            raise ValueError("dawson_cf requires finite x")
        big = np.abs(x) >= x_big
        inner = dawson_cf(np.where(big, 0.0, x), n_d)
        out = np.where(big, 0.5 / np.where(big, x, 1.0), inner)
        return out if out.ndim else float(out)
    x2 = x * x
    tx2 = 2.0 * x2
    t = (2 * n_d + 1) + tx2
    for j in range(n_d - 1, -1, -1):
        t = (2 * j + 1) + tx2 - (4 * (j + 1)) * x2 / t
    out = x / t
    return out if out.ndim else float(out)
