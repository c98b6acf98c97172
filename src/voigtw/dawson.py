"""Dawson's integral: bin polynomials for D(x)/x and a finite continued fraction.

The Taylor series needs D(x) only as Q(x) = D(x)/x, an even function
with Q(0) = 1.  On [0, Q_TAIL) `dawson_q` reads Q from one polynomial
per bin of width 1/16,

    Q(x) ~ sum_k c[k, i] t^k,   i = floor(16x),  t = x - (i + 1/2)/16,

of degree 8: the Chebyshev interpolant of Q on the bin, rewritten as
monomials in t and rounded to doubles (after Cody, Paciorek & Thacher,
"Chebyshev approximations for Dawson's integral", Math. Comp. 24, 1970).
The table is package data, `dawson_q.npy`, generated from the
multiprecision oracle by `oracle.dawson_q_table()`; it is stored
degree-major, so each Horner step gathers one contiguous row.  16x is
exact, and so is t from x = 1/64 on; Q stays within 1 ulp of the oracle.
Its 437 bins end at Q_TAIL = 27.3125, the least bin edge where
np.exp(-x*x) is 0; the dispatcher sends no larger x to the series
(`scheme.boundary_x_c`), so the series needs no other evaluator.

The y = 0 axis takes D(x) from the depth-n truncation of the continued
fraction

    D(x) ~ x / (1 + 2x^2 - 4x^2 / (3 + 2x^2 - 8x^2 / (5 + 2x^2 - ...
                                    - 4n x^2 / (2n + 1 + 2x^2))))

evaluated bottom-up (innermost denominator first) at the tabulated
N_D = 61.  Every partial denominator depends on x only through x^2,
hence the fraction is exactly odd in x.  Where 4n x^2 would overflow,
D(x) is 1/(2x) to double precision (the next term is 1/(4x^3)) and used
directly.  `dawson_cf` runs the fraction over arrays and `dawson_point`
at one float, as `q_point` is `dawson_q` at one float: the same
operations in the same order, so the same bits.  The array loop reads
4k and 2k - 1 as float64 0-d views of one table, which a ufunc takes as
they are; a Python number it converts on every call (at 400 points and
depth 61 about a third of the fraction's time).  A depth past the table
takes Python ints, made one level at a time, which convert exactly.
"""

import math
import numbers
import os

import numpy as np

#: Bins per unit of x in the polynomial table, which `oracle.dawson_q_table` builds.
BINS_PER_UNIT = 16
# _Q_COEFFS[k, i]: the t^k coefficient of bin i
_Q_COEFFS = np.load(os.path.join(os.path.dirname(__file__), "dawson_q.npy"))
_Q_CENTRES = (np.arange(_Q_COEFFS.shape[1]) + 0.5) / BINS_PER_UNIT

#: The bin polynomials cover [0, Q_TAIL), which holds x_c(y) at every y > 0.
Q_TAIL = _Q_COEFFS.shape[1] / BINS_PER_UNIT


def dawson_q(x):
    """Q(x) = D(x)/x from the bin polynomials, for 0 <= x < Q_TAIL.

    x is a scalar or an ndarray; returns a fresh float64 array of its
    shape.  Points outside [0, Q_TAIL) get the value of the nearest bin's
    polynomial, which is not Q there.  `q_into`'s three scratch rows are
    one (3, n) float64 block, freed on return.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    t, b, row = np.empty((3, x.size))
    return q_into(x, np.empty_like(t), t, b, row).reshape(shape)


def q_into(x, q, t, b, row):
    """dawson_q of a 1-d float64 x, written into q; returns q.

    t, b and row are contiguous float64 scratch rows of x's length, none
    of them x or q: t holds 16x and then t; b, viewed as intp, the bin
    index; row each gathered coefficient row of the Horner loop.
    """
    b = b.view(np.intp)[: x.size]
    np.multiply(x, BINS_PER_UNIT, out=t)
    np.copyto(b, t, casting="unsafe")  # truncates, as astype(np.intp) does
    _Q_CENTRES.take(b, out=t, mode="clip")
    np.subtract(x, t, out=t)
    # Horner in t, gathering one coefficient row per degree
    _Q_COEFFS[-1].take(b, out=q, mode="clip")
    for c in _Q_COEFFS[-2::-1]:
        q *= t
        c.take(b, out=row, mode="clip")
        q += row
    return q


# per bin, for one point without a numpy call: its coefficients from the
# highest degree down
_Q_ROWS = _Q_COEFFS[::-1].T.tolist()
_Q_CENTRE_LIST = _Q_CENTRES.tolist()


def q_bin(x):
    """The bin of `dawson_q`'s table holding one float 0 <= x < Q_TAIL."""
    return int(x * BINS_PER_UNIT)


def q_point(x):
    """dawson_q at one float 0 <= x < Q_TAIL, in float arithmetic: the same bits."""
    i = int(x * BINS_PER_UNIT)
    t = x - _Q_CENTRE_LIST[i]
    it = iter(_Q_ROWS[i])
    acc = next(it)
    for c in it:
        acc = acc * t + c
    return acc


def dawson_cf(x, n_d):
    """Depth-n_d continued fraction approximation of Dawson's integral.

    x is a scalar or ndarray, n_d a positive integer.  Returns a float for
    a scalar x, else a float64 array of x's shape; a complex x raises TypeError.
    """
    if not isinstance(n_d, numbers.Integral) or n_d < 1:
        raise ValueError(f"n_d must be a positive integer, got {n_d!r}")
    if np.iscomplexobj(x):
        raise TypeError("x must be real")
    x = np.asarray(x, dtype=np.float64)
    x_big = 6.3e153 / math.sqrt(n_d)  # below it 4 n_d x^2 < 1.6e308 stays finite
    if -x_big < x.min(initial=0.0) and x.max(initial=0.0) < x_big:
        out = _fraction_array(x, n_d)
    else:
        if not np.all(np.isfinite(x)):
            raise ValueError("dawson_cf requires finite x")
        big = np.abs(x) >= x_big
        inner = _fraction_array(np.where(big, 0.0, x), n_d)
        out = np.where(big, 0.5 / np.where(big, x, 1.0), inner)
    return out if out.ndim else float(out)


def dawson_point(x, n):
    """dawson_cf(x, n) at one finite float x, in float arithmetic: the same bits."""
    if abs(x) >= 6.3e153 / math.sqrt(n):  # 4 n x^2 would overflow
        return 0.5 / x
    x2 = x * x
    tx2 = 2.0 * x2
    t = (2 * n + 1) + tx2
    for k in range(n, 0, -1):  # t >= 0.6 (1 + 2x^2) > 0 at every level
        t = (2 * k - 1) + tx2 - (4 * k) * x2 / t
    return x / t


# (4k, 2k - 1) at row k, as float64 0-d views of one array
_LEVEL_OPS = [(r[0, ...], r[1, ...]) for r in np.arange(64.0)[:, None] * (4.0, 2.0) - (0.0, 1.0)]


def _fraction_array(x, n):
    """The depth-n fraction over an array x with 4n x^2 finite, in one work buffer.

    `dawson_point`'s operations in the same order, so each point gets the
    same bits as `dawson_point` gives it alone.
    """
    xs = x.ravel()
    x2, tx2, t, s = np.empty((4, xs.size))
    np.multiply(xs, xs, x2)
    np.multiply(2.0, x2, tx2)
    np.add(2 * n + 1, tx2, t)
    if n < len(_LEVEL_OPS):
        levels = _LEVEL_OPS[n:0:-1]
    else:
        levels = ((4 * k, 2 * k - 1) for k in range(n, 0, -1))
    for four_k, odd in levels:
        # t = (2k - 1) + 2x^2 - 4k x^2 / t
        np.multiply(four_k, x2, s)
        np.divide(s, t, t)
        np.add(odd, tx2, s)
        np.subtract(s, t, t)
    return (xs / t).reshape(x.shape)
