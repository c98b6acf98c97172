"""Internal-domain evaluator: the small-y Taylor series for K and L.

For a fixed y the exact P and Q integer tables are folded with powers of
y into four coefficient vectors, alpha (A), h (H), gamma (G) and gamma_p
(G'); an evaluation is four Horner sums in x^2, e^{-x^2} and q(x) =
L(x, 0)/x = (2/sqrt(pi)) D(x)/x, D Dawson's integral:

    K = e^{-x^2} A(x^2) + x^2 H(x^2) q + (1/sqrt(pi)) G'(x^2)
    L = x (q A(x^2) - e^{-x^2} H(x^2) + (1/sqrt(pi)) G(x^2))

A and H are half the paper's, which puts 1/2 on each point instead (an
exact scaling: the same bits), so y = 0 folds to the identity, A = 1 and
H = G = G' = 0.  The paper's e^{-x^2} terms fold the odd Hermite rows; as
w' = -2z w + 2i/sqrt(pi), they are A in K and -H in L/x, and its q A'(x^2)
is x^2 H(x^2) q, up to powers of y past the truncation (exact rationals).

Q is even with Q(0) = 1, so the same sum gives K(0, y) = e^{y^2} erfc y
with no division or special case.  Q comes from the bin polynomials of
`dawson.dawson_q`, which cover every x inside the computing boundary.
Arrays take `series_array`, the expressions above run in place; one
point (`scheme.eval_w`) runs the same operations in the same order on
Python floats, so both give every point the same bits.

`series_array` allocates three arrays per call: one float64 block of
three rows of n, for q, x^2 and e^{-x^2}, and the K and L it returns.
While Q is computed, Dawson's scratch rows are the rows still idle:
128x and s in x^2, the bin index in e^{-x^2}, its float and each
gathered coefficient row in K.  No buffer outlives the call.  As in
`laplace`, one block matters for page faults more than for bytes: glibc
raises its mmap threshold to the largest mmapped chunk freed and its
trim threshold to twice that, so once one block carries the call's
scratch, what the call frees stays below the trim threshold and the heap
keeps its pages for the next call.
The fold is O(N^2) but x-independent; `scheme` keeps it in its one per-y
record, which batch and scalar calls share.  It reads float forms of the
p and q rows, built from the exact tables at import, so a fresh y
converts no big integer.
"""

import math
from typing import NamedTuple

import numpy as np

from .coeffs import DEFAULT_M_MAX, get_tables
from .dawson import Q_TAIL, q_into

ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

Y_MAX = 0.1

# The fold's operands as floats: the p and q rows
_TABLES = get_tables()
_P_ROWS = [list(map(float, row)) for row in _TABLES.p_rows]
_Q_ROWS = [list(map(float, row)) for row in _TABLES.q_rows]


class SeriesParams(NamedTuple):
    """Truncation triple: Taylor order N, Dawson depth N_D, Laplace depth N_C."""

    n: int
    n_d: int
    n_c: int


class VoigtValue(NamedTuple):
    """Real part K (the Voigt function) and imaginary part L of w(z)."""

    k: float
    l: float


class YCoefficientSet(NamedTuple):
    """Per-y folded series coefficients for a fixed truncation order N.

    alpha[n] = sum_m p[m][n] y^(2m)/(2m)!/2, m = n..N; gamma[n] = sum_m
    q[m][n] y^(2m)/(2m)!, m = n+1..N.  h[n - 1] = y alpha[n] - sum_m p[m][n]
    y^(2m-1)/(2m-1)!/4 (n = 1..N); gamma_p[n] = y gamma[n] - sum_m q[m][n]
    y^(2m-1)/(2m-1)!/2.  At y = 0, alpha = (1, 0, ...) and the rest are 0.
    """

    alpha: tuple
    h: tuple
    gamma: tuple
    gamma_p: tuple


def build_y_coefficients(y, params):
    """Fold the integer tables with powers of y into a YCoefficientSet.

    Accumulation runs in descending m (smallest terms first) and the
    scaled powers y^(2m)/(2m)! are formed by iterative multiplication, so
    no large factorial is ever evaluated in floating point.  The m = n
    term, A's and H's alone, comes after the shared loop, and both are
    halved last.  N runs from 0 to DEFAULT_M_MAX, the last band's order.
    """
    if not 0.0 <= y <= Y_MAX:
        raise ValueError(f"y must lie in [0, {Y_MAX}], got {y}")
    n_max = params.n
    if not 0 <= n_max <= DEFAULT_M_MAX:
        raise ValueError(f"N must lie in 0..{DEFAULT_M_MAX}, got {n_max!r}")
    y = float(y)

    # even[m] = y^(2m)/(2m)!,  odd[m] = y^(2m+1)/(2m+1)!; the y-derivative
    # sums behind h and gamma_p read y^(2m-1)/(2m-1)! as odd[m - 1]
    even = [1.0]
    odd = [y]
    for m in range(1, n_max + 1):
        even.append(odd[m - 1] * y / (2 * m))
        odd.append(even[m] * y / (2 * m + 1))

    p, q = _P_ROWS, _Q_ROWS
    alpha, h, gamma, gamma_p = [], [], [], []
    for n in range(n_max + 1):
        a = ap = g = gp = 0.0
        for m in range(n_max, n, -1):
            pmn, qmn = p[m][n], q[m][n]
            a += pmn * even[m]
            ap += pmn * odd[m - 1]
            g += qmn * even[m]
            gp += qmn * odd[m - 1]
        a += p[n][n] * even[n]
        alpha.append(0.5 * a)
        if n >= 1:
            ap += p[n][n] * odd[n - 1]
            h.append(0.5 * (y * a - 0.5 * ap))
        if n <= n_max - 1:
            gamma.append(g)
            gamma_p.append(y * g - 0.5 * gp)
    return YCoefficientSet(tuple(alpha), tuple(h), tuple(gamma), tuple(gamma_p))


def _horner_array(coeffs, x2, out):
    """sum_k coeffs[k] x2^k over an array x2, into `out`; under two coefficients, its float."""
    if len(coeffs) < 2:
        return coeffs[0] if coeffs else 0.0
    np.multiply(coeffs[-1], x2, out=out)
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x2
        out += c
    return out


def series_array(c, x):
    """K and L of the series from the fold c over a 1-d array of
    0 <= x < Q_TAIL, unchecked, with Q from `dawson.q_into`.  Each Horner
    sum runs from the highest degree down, H into K's array and A into
    L's; x^2 H q takes the x^2 row until x^2 is formed again for the G
    sums, which come last.  Every operation runs in place in one (3, n)
    block, rows q, x^2 and e^{-x^2} (taken once), which also lends Q its
    scratch rows with K; x is never written.  The block is one chunk so
    that what the call frees stays below glibc's trim threshold (module
    docstring).  `scheme.eval_w` runs these operations in this order on
    floats, so one point gets the same bits either way.
    """
    q, x2, ex = np.empty((3, x.size))
    k = np.empty_like(x2)
    l = np.empty_like(x2)
    q_into(x, q, x2, ex, k)  # its scratch rows are idle until Q is done
    np.multiply(x, x, out=x2)
    np.exp(np.negative(x2, out=ex), out=ex)
    q *= TWO_OVER_SQRT_PI
    h = _horner_array(c.h, x2, k)
    a = _horner_array(c.alpha, x2, l)
    x2 *= h
    x2 *= q  # K's first term: x^2 is free until the G sums
    q *= a
    q -= np.multiply(ex, h, out=k)  # q holds L/x from here on
    np.multiply(ex, a, out=k)
    k += x2
    np.multiply(x, x, out=x2)
    for g, out in ((c.gamma_p, k), (c.gamma, q)):
        s = _horner_array(g, x2, ex)  # ex, or a float at N <= 1
        s *= ONE_OVER_SQRT_PI
        out += s
    np.multiply(q, x, out=l)
    return k, l


def eval_w_internal(x, y, params):
    """Internal-branch evaluation of (K, L) at x, 0 <= y <= 0.1.

    Folds the coefficients for y on every call and checks x, then runs
    `series_array` at |x|; params.n_d is not used, as Q(x) comes from the
    bin polynomials.  K is even and L odd in x.  Returns floats for a
    scalar x, else arrays of x's shape.  Defined for |x| < Q_TAIL =
    27.3046875, the extent of the bin table, which holds every |x| <
    x_c(y) the dispatcher sends the series; raises ValueError for any
    other x, NaN included, and TypeError for a complex x.
    """
    if np.iscomplexobj(x):
        raise TypeError("x must be real")
    c = build_y_coefficients(y, params)
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x).reshape(-1)
    if not ax.max(initial=0.0) < Q_TAIL:  # NaN fails too
        raise ValueError(f"eval_w_internal requires finite |x| < {Q_TAIL}")
    k, l = series_array(c, ax)
    # L is odd in x; negation is exact, so this is x times the sum
    np.negative(l, out=l, where=np.signbit(x).reshape(-1))
    if not x.ndim:
        return VoigtValue(float(k[0]), float(l[0]))
    return VoigtValue(k.reshape(x.shape), l.reshape(x.shape))
