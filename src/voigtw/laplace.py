"""Laplace continued fraction for w(z) in the external domain.

    w(z) ~ (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ... - (N/2)/z))))

with partial numerators k/2 for k = 1..N, evaluated bottom-up in complex
arithmetic.  Convergence collapses for tiny Im(z) at moderate |z|; the
dispatcher keeps this branch outside the computing boundary, this module
itself never restricts its domain.

`laplace_w` runs the fraction at one depth for the whole call.  The
evaluator's external branch, `external_branch`, gives each point x + iy
the depth its |x| needs.  Close to z_c(y) the fraction needs more levels
than the paper's N_C = 6 (about 19 at |z| ~ 6.65, falling to 6 by
|z| ~ 20), and far from it fewer (5 from 52 on, down to 1 from 49152).
That profile was calibrated against the high-accuracy oracle on dense
radius grids and is applied per point as a step function of |x|, looked
up in 16-per-octave bins keyed by the bits of the float
(`external_depth`).  |x| <= |z| and the profile never rises, so a point
gets at least the depth its |z| needs, with no hypot per point.  The
points are ordered deepest first, so level k updates, in place, the
prefix of points whose depth is at least k, and every point sees exactly
the levels and arithmetic of its own depth-N fraction: batch and scalar
evaluation agree bit for bit.

`external_branch` takes every temporary but the sort order from one
float64 block of five rows of n points, allocated per call, and writes K
and L straight into the caller's output arrays.  No buffer outlives the
call.  One block matters for page faults more than for bytes: glibc
raises its mmap threshold to the largest mmapped chunk freed and its
trim threshold to twice that, so once one block carries most of a call,
what the call frees stays below the trim threshold and the heap keeps
its pages for the next call.

The level loop takes its operands prebuilt.  Each numerator k/2 is a
complex128 0-d view of one table, which a ufunc takes as it is, where a
Python float is converted and cast to complex on every call; a depth
past the table takes the Python float, which rounds the same.  The plan
reads each level's sort key from a table with one row per top depth.

`laplace_point` is the one-point form, on numpy complex128 scalars: the
same bits as the array loop.  It reads the same numerators as scalars,
as scalar arithmetic with a 0-d array costs six times that with a numpy
scalar.  Python's `complex` division rounds differently on about two of
five random quotients, and a Smith division written in floats, though
it matched numpy's bits, cost more.
`point_depth` is `external_depth` at one float, without a numpy call.
"""

import math
import numbers
from bisect import bisect_right

import numpy as np

_I_SQRT_PI = 1j / np.sqrt(np.pi)

# k/2 at row k.  A Python float costs a ufunc about 0.4 us of a 1.3 us
# divide over 200 points; a numpy scalar is converted again, and a
# (1,)-shaped operand is slower than either.
_HALF_K = 0.5 * np.arange(64, dtype=np.complex128)
_HALF_K_VIEWS = [_HALF_K[k, ...] for k in range(_HALF_K.size)]
_HALF_K_SCALARS = list(_HALF_K)
_I_SQRT_PI_VIEW = np.array(_I_SQRT_PI)
# the plan's sorted keys of each level, ~top, ~(top - 1), ..., ~1, at row
# top: views of one array, for every int8 depth
_NOT_DEPTHS = ~np.arange(127, 0, -1, dtype=np.uint8)
_LEVEL_KEYS = [_NOT_DEPTHS[127 - top :] for top in range(128)]

# Largest call whose level quotients get a buffer of their own.  On small
# arrays numpy's overlap check makes an in-place ufunc call cost more than
# the buffer; on large ones the fresh buffer's page faults cost more (the
# two cross between 2048 and 4096 points on a 2-vCPU x86 VM, numpy 2.4).
_OWN_QUOTIENT_MAX = 2048

# Oracle-calibrated continued-fraction depth reaching the double precision
# floor, as a step function of the radius: depth i below edge i and from
# edge i - 1 on.  The steps up to 22, where the paper's N_C = 6 takes
# over, were calibrated on |z|; a point takes its depth at |x| <= |z|,
# which is at least the depth at |z| as the depth never rises with the
# radius.  The steps from 52 on are `oracle.laplace_depth_steps`: each
# edge is the first grid radius from which the next lower depth keeps the
# fraction's truncation error within 2^-61.  Every edge has at most four
# significand bits, so the profile is looked up in bins of 16 per octave
# keyed by the top 16 bits of a radius >= 0, its exponent and the first
# four bits of its significand: bin j holds the radii whose key is j, the
# last bin every radius from the last edge on.
_EXT_DEPTH_EDGES = np.array(
    [7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 11.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0,
     52.0, 100.0, 288.0, 1536.0, 49152.0]
)
_EXT_DEPTHS = np.array([21, 19, 17, 16, 15, 14, 13, 12, 11, 10, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1])
_ext_keys = (_EXT_DEPTH_EDGES.view(np.int64) >> 48).tolist()
_EXT_BIN_DEPTH = np.repeat(_EXT_DEPTHS, np.diff([0, *_ext_keys, _ext_keys[-1] + 1])).astype(np.int8)
# the step profile as lists, for one point's depth without a numpy call
_EXT_EDGE_LIST = _EXT_DEPTH_EDGES.tolist()
_EXT_DEPTH_LIST = _EXT_DEPTHS.tolist()


def external_depth(r):
    """Per-point Laplace depth reaching the double-precision floor at radius r >= 0.

    Returns an int for a scalar r, else an int8 array of r's shape.  Every
    edge lies on the bin grid, so each bin decision is the one the edges
    make; inf takes the last step and -0.0 counts as 0.  Raises
    ValueError unless every r >= 0 (NaN fails), TypeError for a complex r.
    """
    if np.iscomplexobj(r):
        raise TypeError("r must be real")
    r = np.asarray(r, dtype=np.float64)
    if not (r >= 0.0).all():
        raise ValueError("r must be >= 0")
    key = r.view(np.int64) >> 48
    out = _EXT_BIN_DEPTH.take(key, mode="clip")
    return out if out.ndim else int(out)


def point_depth(ax):
    """external_depth at one float ax >= 0, without a numpy call; rejects inf and NaN.

    `scheme.eval_w` sends here every |x| not below x_c, which is inf at
    y = 0, so this is where it rejects a non-finite x.
    """
    if not ax < math.inf:
        raise ValueError("x must be finite")
    return _EXT_DEPTH_LIST[bisect_right(_EXT_EDGE_LIST, ax)]


def external_branch(ax, y, k, l, at):
    """The fraction at ax + iy, each point at the depth its ax >= 0 needs.

    Evaluates the points ax[at] and writes their K to k[at] and L to
    l[at]; at is a boolean mask or slice(None), and k and l are 1-d
    float64 arrays like ax.  Every temporary but the sort order lives in
    one float64 block of five rows of n: z and the fraction t are complex
    views of rows 0-1 and 2-3, row 4 holds the depth key, the int8
    depths sit in row 0 until z is built and the deepest-first gather in
    row 2 until t is; w is scattered back into the spent z.  ax is never written.
    """
    x = ax[at]
    n = x.size
    block = np.empty(5 * n)  # flat: slices cost fewer numpy calls than rows
    z = block[: 2 * n].view(np.complex128)
    t = block[2 * n : 4 * n].view(np.complex128)
    key = block[4 * n :].view(np.int64)  # the lookup of `external_depth`
    np.right_shift(x.view(np.int64), 48, out=key)
    depth = _EXT_BIN_DEPTH.take(key, out=block.view(np.int8)[:n], mode="clip")
    order, ends = _deepest_first(depth)
    x = x.take(order, out=block[2 * n : 3 * n], mode="clip")
    np.copyto(z.real, x)
    z.imag = y
    z[order] = _run_levels(z, t, ends)
    k[at] = z.real
    l[at] = z.imag


def _deepest_first(depth):
    """Order a non-empty 1-d int8 row of depths 1..127 deepest first.

    Returns (order, ends): order is the stable permutation putting deeper
    points first, and ends[i] the number of points of depth >= top - i,
    for top the greatest depth and i = 0..top - 1, so that level top - i
    updates the first ends[i] ordered points.
    """
    # a one-byte key, complemented so that ascending is deepest first:
    # numpy's stable sort on it is a radix sort, and the order comes out
    # contiguous, which keeps the gather and the scatter back cheap
    key = ~depth.view(np.uint8)
    order = key.argsort(kind="stable")
    top = int(depth[order[0]])
    # the points of depth >= k lead the order: find where they end in the sorted keys
    return order, key.searchsorted(_LEVEL_KEYS[top], "right", order).tolist()


def _numerators(n, table):
    """k/2 for k = n, n - 1, ..., 1, from table if it holds row n, else as Python floats."""
    return table[n:0:-1] if n < len(table) else [0.5 * k for k in range(n, 0, -1)]


def _run_levels(z, t, ends):
    """The fraction at the points z, cut into levels as `_deepest_first` gave.

    t, like z, is the workspace; both are contiguous complex128.  Level
    k = len(ends) - i is t = z - (k/2)/t over the first ends[i] points,
    and ends never falls.  Returns w in z's order, in t.
    """
    np.copyto(t, z)
    u = np.empty_like(t) if t.size <= _OWN_QUOTIENT_MAX else t
    m = -1
    for half_k, end in zip(_numerators(len(ends), _HALF_K_VIEWS), ends):
        if end != m:  # slice again only where the prefix grows
            m = end
            th, uh, zh = t[:m], u[:m], z[:m]
        np.divide(half_k, th, uh)
        np.subtract(zh, uh, th)
    np.divide(_I_SQRT_PI_VIEW, t, t)
    return t


def laplace_point(z, n):
    """laplace_w(z, n) at one complex z != 0, on numpy complex128 scalars."""
    z = t = np.complex128(z)
    for half_k in _numerators(n, _HALF_K_SCALARS):
        t = z - half_k / t
    return _I_SQRT_PI / t


def laplace_w(z, n_c):
    """Truncated Laplace continued fraction for w(z), depth n_c.

    z is a complex scalar or ndarray, finite and nonzero (the leading
    denominator vanishes at 0); n_c is one positive integer for the call.
    """
    if not isinstance(n_c, numbers.Integral) or n_c < 1:
        raise ValueError(f"n_c must be a positive integer, got {n_c!r}")
    z = np.asarray(z, dtype=np.complex128)
    if (z == 0).any():
        raise ValueError("laplace_w is undefined at z = 0")
    if not np.isfinite(z).all():
        raise ValueError("laplace_w requires finite z")
    zs = z.ravel()
    w = _run_levels(zs, np.empty_like(zs), [zs.size] * n_c)
    return w.reshape(z.shape) if z.ndim else complex(w[0])
