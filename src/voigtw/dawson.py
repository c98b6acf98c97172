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
parameter tables fix for every x.  `step_table` and `step_depth` hold
and look up such a profile in uniform bins; the Laplace fraction's
radius profile uses them too.
"""

import math

import numpy as np

# Oracle-calibrated depth as a step function of |x| in bins of width
# 1/4: depth i holds below edge i and from edge i - 1 on, the last depth
# beyond the last edge.  Per bin: the least depth at which every deeper
# fraction up to 61 stays within 3 ulp of ref_dawson on a 0.0025 grid
# out to x = 90, plus one level, rounded up to one of seven values.  Few
# distinct depths keep the prefix changes few, which small calls pay for
# per call.
_DAWSON_EDGES = (0.5, 1.0, 1.75, 2.5, 3.75, 6.0, 6.25, 6.5, 7.5, 10.0, 17.5)
_DAWSON_DEPTHS = np.array([12, 18, 26, 36, 46, 53, 46, 36, 26, 18, 12, 8], dtype=np.uint8)
_BINS_PER_UNIT = 4


def step_table(edges, depths, bins_per_unit):
    """One depth per bin for the profile depths[searchsorted(edges, v, "right")].

    Bin i holds v in [i, i + 1) / bins_per_unit, the last bin every v
    from edges[-1] on; every edge must lie on that grid.
    """
    bins = [round(e * bins_per_unit) for e in edges]
    return np.repeat(depths, np.diff([0, *bins, bins[-1] + 1]))


def step_depth(table, bins_per_unit, v):
    """The depth of `step_table`'s profile at v >= 0; NaN takes the last step.

    bins_per_unit is a power of two, so v * bins_per_unit is exact and each
    bin decision is the one searchsorted makes on the edges.  Returns an
    int for a scalar v, else an array of v's shape in the table's dtype.
    """
    v = np.fmin(v, (table.size - 1) / bins_per_unit)
    out = table.take((v * bins_per_unit).astype(np.intp))
    return out if out.ndim else int(out)


_BIN_DEPTH = step_table(_DAWSON_EDGES, _DAWSON_DEPTHS, _BINS_PER_UNIT)


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
    if lo == top:  # one depth: no bincount or sort
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
    return step_depth(_BIN_DEPTH, _BINS_PER_UNIT, np.abs(np.asarray(x, dtype=np.float64)))


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
    # in place in one work buffer, s holding each level's partial terms
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
