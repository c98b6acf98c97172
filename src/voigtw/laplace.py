"""Laplace continued fraction for w(z) in the external domain.

    w(z) ~ (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ... - (N/2)/z))))

It converges slowly for tiny Im(z) at moderate |z|, so the dispatcher
keeps it outside the computing boundary; this module never restricts its
domain.  Below the plain outer level the levels run in pairs: with
b_j = (4j + 1)/2 and c_j = j(2j - 1)/2, the m levels

    T_{m-1} = z^2 - b_{m-1},  T_j = z^2 - (b_j + c_{j+1}/T_{j+1}),  j = m - 2, ..., 1,
    R = 1/2 + (1/2)/T_1 (R = 1/2 at m = 1),  w = (i/sqrt(pi)) / (z - R/z)

are exactly the depth-(2m - 1) fraction, so depth N runs m = N//2 + 1
levels (an even N as N + 1) and N//2 + 2 complex divides, not N + 1.
No complex multiply is made, as numpy's array and scalar products round
differently (its divides do not): z^2 is (x x - y y) + i x (2y), formed
only where m >= 2.  Where x x - y y alone overflows, T is infinite and
R = 1/2, as the exact fraction has it to double precision; where x (2y)
does, |z|^2 > 1.8e308 and the paired levels are skipped for that R = 1/2.
There `laplace_w` takes w as (i/sqrt(pi))/z, its value to double precision
from |z| ~ 1e154 on, divided at z 2^-600 (exact) and scaled back (rounding
once where w is subnormal), so that numpy's Smith denominator stays finite.

`external_branch` gives each point x + iy the oracle-calibrated depth of
its |x| (`external_depth`: about 19 levels at |z| ~ 6.65, 6 from 22, 1
from 49152; |x| <= |z| and the profile never rises).  The points run
deepest first, level j updating in place the prefix of points with more
than j levels, so batch and scalar (`laplace_point`, on numpy complex128
scalars, as Python's `complex` division rounds otherwise) agree bit for
bit.  Every temporary but the sort order lives in one five-row float64
block per call, so what a call frees stays below glibc's trim threshold
and the heap keeps its pages.
"""

import math
import numbers
from bisect import bisect_right
from itertools import repeat

import numpy as np

_I_SQRT_PI = 1j / np.sqrt(np.pi)

# b_j and c_j at row j, as 0-d views for the array levels (a Python float
# costs a ufunc about 0.4 us of a 1.3 us divide over 200 points, a numpy
# scalar more), and per level count m as the one-point form's numpy
# scalars ((c_m, b_{m-1}), ..., (c_2, b_1))
_ROWS = np.arange(64)
_B = (0.5 * (4 * _ROWS + 1)).astype(np.complex128)
_C = (0.5 * (_ROWS * (2 * _ROWS - 1))).astype(np.complex128)
_LEVEL_VIEWS = [(_C[j + 1, ...], _B[j, ...]) for j in _ROWS[:-1]]  # (c_{j+1}, b_j) at row j
_PAIRS = tuple(zip(_C[:1:-1], _B[-2:0:-1]))  # (c_{j+1}, b_j) for j = 62, ..., 1
_POINT_LEVELS = [_PAIRS[63 - m :] for m in _ROWS]
_HALF, _I_SQRT_PI_VIEW = np.array(0.5 + 0j), np.array(_I_SQRT_PI)
_HALF_SCALAR, _NEG_ZERO, _INF = _HALF[()], np.complex128(complex(-0.0, -0.0)), np.complex128(np.inf)
_FAR_SCALE = 2.0**-600  # where x (2y) overflows z's nonzero parts pass 0.5: scaled, they stay normal
# the plan's sorted keys ~top, ~(top - 1), ..., ~1 at row top, views of one array
_NOT_COUNTS = ~np.arange(127, 0, -1, dtype=np.uint8)
_LEVEL_KEYS = [_NOT_COUNTS[127 - top :] for top in range(128)]

# Largest call whose level quotients get a buffer of their own: below it
# numpy's overlap check on in-place calls costs more (a 200-point call
# reads 42-47 us with the buffer, 48-55 without), above it the buffer's
# page faults do (they cross between 2048 and 4096 points)
_OWN_QUOTIENT_MAX = 2048

# Oracle-calibrated depth reaching the double precision floor: depth i
# below edge i and from edge i - 1 on.  The steps up to 22 were calibrated
# on |z|; those from 52 on are `oracle.laplace_depth_steps`, each edge the
# first grid radius from which the next lower depth keeps the truncation
# error within 2^-61.  Every edge has at most four significand bits, so
# bin j of 16 per octave holds the radii whose top 16 bits are j, the last
# bin every radius from the last edge on; the branch reads each bin's
# level count, depth//2 + 1.
_EXT_DEPTH_EDGES = np.array(
    [7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 11.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0,
     52.0, 100.0, 288.0, 1536.0, 49152.0])
_EXT_DEPTHS = np.array([21, 19, 17, 16, 15, 14, 13, 12, 11, 10, 9, 9, 8, 7, 6, 5, 4, 3, 2, 1])
_ext_keys = (_EXT_DEPTH_EDGES.view(np.int64) >> 48).tolist()
_EXT_BIN_DEPTH = np.repeat(_EXT_DEPTHS, np.diff([0, *_ext_keys, _ext_keys[-1] + 1])).astype(np.int8)
_EXT_BIN_LEVELS = _EXT_BIN_DEPTH // 2 + 1
_EXT_EDGE_LIST, _EXT_DEPTH_LIST = _EXT_DEPTH_EDGES.tolist(), _EXT_DEPTHS.tolist()  # no numpy call


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
    out = _EXT_BIN_DEPTH.take(r.view(np.int64) >> 48, mode="clip")
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

    Writes K and L of the points ax[at] to k[at] and l[at] (at a boolean
    mask or slice(None), k and l float64 like ax; ax is never written).
    The block's row 4 holds the depth key, then the gathered x; rows 0-1
    the int8 level counts, then z^2, then z, and last the scattered w;
    rows 2-3 the fraction t.
    """
    x = ax[at]
    n = x.size
    block = np.empty(5 * n)  # flat: slices cost fewer numpy calls than rows
    zz = block[: 2 * n].view(np.complex128)
    t = block[2 * n : 4 * n].view(np.complex128)
    key = np.right_shift(x.view(np.int64), 48, out=block[4 * n :].view(np.int64))  # as `external_depth`
    counts = _EXT_BIN_LEVELS.take(key, out=block.view(np.int8)[:n], mode="clip")
    order, ends = _deepest_first(counts)
    x = x.take(order, out=block[4 * n :], mode="clip")
    _fraction(x, y, zz, t, len(ends), ends)
    zz[order] = t
    k[at] = zz.real
    l[at] = zz.imag


def _deepest_first(counts):
    """Order a non-empty 1-d int8 row of level counts 1..127, deepest first.

    Returns (order, ends): the stable permutation putting more levels
    first, and ends[i] the number of points with at least top - i levels,
    top the greatest count, i = 0..top - 1.
    """
    # a one-byte key, complemented so that ascending is deepest first: a
    # stable sort on it is a radix sort, and the order comes out contiguous
    key = ~counts.view(np.uint8)
    order = key.argsort(kind="stable")
    top = int(counts[order[0]])
    # the points with >= m levels lead the order: where they end in the sorted keys
    return order, key.searchsorted(_LEVEL_KEYS[top], "right", order).tolist()


def _levels(top):
    """(c_{j+1}, b_j) for j = top - 1, ..., 1: table views while it reaches, else Python floats."""
    if top <= len(_LEVEL_VIEWS):
        return _LEVEL_VIEWS[top - 1 : 0 : -1]
    return ((0.5 * ((j + 1) * (2 * j + 1)), 0.5 * (4 * j + 1)) for j in range(top - 1, 0, -1))


def _fraction(x, y, zz, t, top, ends):
    """w at x + iy into t; level j = top - 1 - i updates the first ends[i] points.

    x is a float64 row, y a float, or a row like x when every point has
    the same count; zz and t are contiguous complex128 rows like x, zz
    taking z^2 and then z.  The iterable ends never falls.
    """
    # a point meets its first level as b + 0, and one with m = 1 meets R as 1/2 + 0
    u = np.empty_like(t) if t.size <= _OWN_QUOTIENT_MAX else t
    u.fill(0.0)
    if top > 1:
        p = len(x) if isinstance(y, np.ndarray) else ends[top - 2]  # the points with m >= 2
        zh = zz[:p]
        np.square(x[:p], zh.real)
        np.subtract(zh.real, y * y, zh.real)
        np.multiply(x[:p], 2.0 * y, zh.imag)
        done = None
        for (c, b), end in zip(_levels(top), ends):
            if done:  # c_{j+1}/T_{j+1} at the points that ran level j + 1
                np.divide(c, th, uh)
            if end != done:  # slice again only where the prefix grows
                done = end
                th, uh, zh = t[:done], u[:done], zz[:done]
            np.add(uh, b, uh)
            np.subtract(zh, uh, th)
        np.divide(_HALF, th, uh)
    np.add(u, _HALF, t)
    zz.real, zz.imag = x, y
    np.divide(t, zz, t)
    np.subtract(zz, t, t)
    np.divide(_I_SQRT_PI_VIEW, t, t)


def laplace_point(z, n):
    """laplace_w(z, n) at one complex z != 0, on numpy complex128 scalars.

    Its domain is the external branch's, |Im z| <= 0.1, where x (2y) never
    overflows.  It lacks `laplace_w`'s scaled far divide: near |Re z| =
    |Im z| = 1e308 numpy's Smith denominator overflows and w reads +-0.
    """
    top, r = n // 2 + 1, _HALF_SCALAR
    x, y = z.real, z.imag
    if top > 1 and abs(zi := x * (2.0 * y)) < math.inf:  # else |z|^2 > 1.8e308 and R = 1/2
        # adding -0 - 0i keeps every bit and costs less than np.complex128()
        zz = _NEG_ZERO + complex(x * x - y * y, zi)
        t = _INF  # c_m/inf = 0: the first level is z^2 - (b_{m-1} + 0), as in the array form
        for c, b in _POINT_LEVELS[top] if top < len(_POINT_LEVELS) else _levels(top):
            t = zz - (b + c / t)
        r = r + r / t
    return _I_SQRT_PI / (z - r / z)


def laplace_w(z, n_c):
    """Truncated Laplace continued fraction for w(z), depth n_c.

    z is a complex scalar or ndarray, finite and nonzero (the leading
    denominator vanishes at 0); n_c is one positive integer for the call.
    The fraction runs n_c//2 + 1 paired levels, the depth-(2 (n_c//2) + 1)
    fraction: an even n_c gives bit for bit what n_c + 1 gives.
    """
    if not isinstance(n_c, numbers.Integral) or n_c < 1:
        raise ValueError(f"n_c must be a positive integer, got {n_c!r}")
    z = np.asarray(z, dtype=np.complex128)
    if (z == 0).any():
        raise ValueError("laplace_w is undefined at z = 0")
    if not np.isfinite(z).all():
        raise ValueError("laplace_w requires finite z")
    zs = z.ravel()
    w = np.empty_like(zs)
    with np.errstate(over="ignore", invalid="ignore"):
        _fraction(zs.real, zs.imag, np.empty_like(zs), w, n_c // 2 + 1, repeat(zs.size))
        # where x (2y) overflows, R = 1/2 skips the levels, as in laplace_point, and
        # w = (i/sqrt(pi))/z, divided at z 2^-600 so the Smith denominator stays finite
        far = ~(np.abs(zs.real * (2.0 * zs.imag)) < np.inf)
        if far.any():
            scaled = (zs[far].view(np.float64) * _FAR_SCALE).view(np.complex128)
            w[far] = ((_I_SQRT_PI / scaled).view(np.float64) * _FAR_SCALE).view(np.complex128)
    return w.reshape(z.shape) if z.ndim else complex(w[0])
