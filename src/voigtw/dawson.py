"""Dawson's integral D(x) by a finite continued fraction, one depth per point.

The depth-N truncation reads

    D(x) ~ x / (1 + 2x^2 - 4x^2 / (3 + 2x^2 - 8x^2 / (5 + 2x^2 - ...
                                    - 4N x^2 / (2N + 1 + 2x^2))))

and is evaluated bottom-up (innermost denominator first).  N is one
integer for the whole call or one per point; points are ordered deepest
first, so level k updates the prefix of points whose depth is at least k
and every point sees exactly the arithmetic of its own depth-N fraction.
`deepest_first`, which plans that order, serves the Laplace fraction too.
Every partial denominator depends on x only through x^2, hence the
result is exactly odd in x.  Where 4N x^2 would overflow, D(x) is 1/(2x)
to double precision (the next term is 1/(4x^3)) and used directly.

`dawson_depth` gives the depth each x needs: a step profile in |x|,
calibrated against the multiprecision oracle, that keeps the fraction
within 3 ulp of D(x) while using about 63% of the 61 levels the
parameter tables fix for every x.
"""

import math

import numpy as np

# Oracle-calibrated depth as a step function of |x| in bins of width
# 1/4: (upper x of the step, depth); the last step also holds beyond its
# upper x.  Per bin: the least depth at which every deeper fraction up to
# 61 stays within 3 ulp of ref_dawson on a 0.0025 grid out to x = 90, plus
# one level, rounded up to one of seven values.  Few distinct depths keep
# the prefix changes few, which small calls pay for per call.
_DAWSON_STEPS = (
    (0.5, 12), (1.0, 18), (1.75, 26), (2.5, 36), (3.75, 46), (6.0, 53),
    (6.25, 46), (6.5, 36), (7.5, 26), (10.0, 18), (17.5, 12), (17.75, 8),
)
_BINS_PER_UNIT = 4
# one depth per bin, bin i holding |x| in [i, i + 1) / 4
_BIN_DEPTH = np.repeat(
    np.array([d for _, d in _DAWSON_STEPS], dtype=np.uint8),
    np.diff([0] + [round(_BINS_PER_UNIT * upper) for upper, _ in _DAWSON_STEPS]),
)
_LAST_BIN = _BIN_DEPTH.size - 1


def deepest_first(n, shape, name):
    """Order points deepest first for a bottom-up fraction of depth n.

    n is a positive integer or an integer array of `shape`, one depth per
    point; `name` labels it in error messages.  Returns (order, top, joins):
    order is None when every point has the same depth, else the flat
    permutation putting deeper points first; top is the greatest depth;
    joins maps each depth k present to the number m of points of depth
    >= k, so level k and the levels below it, down to the next join,
    update the first m ordered points.
    """
    depth = np.asarray(n)
    if depth.shape not in ((), shape):
        raise ValueError(f"{name} must be an int or one depth per point, got shape {depth.shape}")
    lo, top = (int(depth.min()), int(depth.max())) if depth.size else (1, 1)
    if lo < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")
    if lo == top:  # one depth, as every scalar call has: no bincount or sort
        return None, top, {top: math.prod(shape)}
    counts = np.bincount(depth.ravel()).tolist()  # counts[d]: points of depth d
    # a small unsigned key, complemented so that ascending is deepest
    # first: numpy's stable sort on it is a radix sort, and the order comes
    # out contiguous, which keeps the gather and the scatter back cheap
    key = ~depth.ravel().astype(np.min_scalar_type(top), copy=False)
    order = np.argsort(key, kind="stable")
    joins, m = {}, 0
    for k in range(top, 0, -1):
        if counts[k]:
            m += counts[k]
            joins[k] = m
    return order, top, joins


def dawson_depth(x):
    """Per-point depth of the Dawson fraction for x, from the step profile.

    Returns an int for a scalar x, else a uint8 array of x's shape.  The
    profile is a function of |x| alone; non-finite x maps to the last step.
    """
    ax = np.fmin(np.abs(np.asarray(x, dtype=np.float64)), _LAST_BIN / _BINS_PER_UNIT)
    out = _BIN_DEPTH.take((ax * _BINS_PER_UNIT).astype(np.intp))
    return out if out.ndim else int(out)


def dawson_cf(x, n_d):
    """Depth-n_d continued fraction approximation of Dawson's integral.

    x is a scalar or ndarray; n_d a positive integer, or an integer array
    of x's shape giving each point its own depth.  Returns a float for a
    scalar x, else a float64 array of x's shape.
    """
    x = np.asarray(x, dtype=np.float64)
    order, top, joins = deepest_first(n_d, x.shape, "n_d")
    x_big = 6.3e153 / math.sqrt(top)  # below it 4 n_d x^2 < 1.6e308 stays finite
    if -x_big < x.min(initial=0.0) and x.max(initial=0.0) < x_big:
        out = _fraction(x, order, top, joins)
    else:
        if not np.all(np.isfinite(x)):
            raise ValueError("dawson_cf requires finite x")
        big = np.abs(x) >= 6.3e153 / np.sqrt(n_d)  # each point's own x_big
        inner = _fraction(np.where(big, 0.0, x), order, top, joins)
        out = np.where(big, 0.5 / np.where(big, x, 1.0), inner)
    return out if out.ndim else float(out)


def _fraction(x, order, top, joins):
    """The fraction at finite x, planned by deepest_first; an array of x's shape."""
    xs = x.ravel() if order is None else x.ravel()[order]
    if xs.size == 1:  # one point: fresh one-element arrays beat out= calls
        x2 = xs * xs
        tx2 = 2.0 * x2
        t = (2 * top + 1) + tx2
        for k in range(top, 0, -1):
            t = (2 * k - 1) + tx2 - (4 * k) * x2 / t
    else:  # in place in one work buffer, s holding each level's partial terms
        x2, tx2, t, s = np.empty((4, xs.size))
        np.multiply(xs, xs, x2)
        np.multiply(2.0, x2, tx2)
        m = 0
        for k in range(top, 0, -1):
            if k in joins:  # points of depth k start from 2k + 1 + 2x^2
                np.add(2 * k + 1, tx2[m : joins[k]], t[m : joins[k]])
                m = joins[k]
                th, sh, x2h, tx2h = t[:m], s[:m], x2[:m], tx2[:m]
            # t = (2k - 1) + 2x^2 - 4k x^2 / t
            np.multiply(4 * k, x2h, sh)
            np.divide(sh, th, th)
            np.add(2 * k - 1, tx2h, sh)
            np.subtract(sh, th, th)
    if order is None:
        return (xs / t).reshape(x.shape)
    xs[order] = xs / t  # one scatter back, into the spent gathered copy
    return xs.reshape(x.shape)
