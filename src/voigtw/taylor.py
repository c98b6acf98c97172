"""Internal-domain evaluator: the small-y Taylor series for K and L.

For a fixed y the exact integer tables are folded with powers of y into
six coefficient vectors (alpha, beta, gamma for L; their primed partners
for K).  Each evaluation is then three even-polynomial Horner sums in x^2
plus Q(x) = D(x)/x, Dawson's integral over x, and one exp(-x^2):

    K = q A'(x^2) + e^{-x^2} B'(x^2) + (1/sqrt(pi)) G'(x^2)
    L = x (q A(x^2) + e^{-x^2} B(x^2) + (1/sqrt(pi)) G(x^2)),   q = Q(x)/sqrt(pi)

Q is even with Q(0) = 1, so the same sum gives K(0, y) = e^{y^2} erfc y
and no point needs a division or a special case.  Q comes from the bin
polynomials of `dawson.dawson_q`, which cover every x inside the
computing boundary.  x^2, q and exp(-x^2) are shared between K and L.
Arrays take `series_array`, the expressions above run in place; one
point (`scheme.eval_w`) runs the same operations in the same order on
Python floats, so both give every point the same bits.

`series_array` allocates three arrays per call: one float64 block of
three rows of n, for q, x^2 and e^{-x^2}, and the K and L it returns.
While Q is computed, Dawson's scratch rows are the rows still idle: 16x
and t in x^2, the bin index in e^{-x^2}, each gathered coefficient row
in K.  No buffer outlives the call.  As in `laplace`, one block matters
for page faults more than for bytes: glibc raises its mmap threshold to
the largest mmapped chunk freed and its trim threshold to twice that,
so once one block carries the call's scratch, what the call frees stays
below the trim threshold and the heap keeps its pages for the next
call.
The fold is O(N^2) but x-independent; `scheme` keeps it in its one per-y
record, which batch and scalar calls share.  It reads float forms of the
p, q and signed h rows, built from the exact tables at import, so a
fresh y converts no big integer and computes no sign.
"""

import math
from typing import NamedTuple

import numpy as np

from .coeffs import DEFAULT_M_MAX, get_tables
from .dawson import Q_TAIL, q_into

ONE_OVER_SQRT_PI = 1.0 / math.sqrt(math.pi)

Y_MAX = 0.1

# The fold's operands as floats: p and q rows, and at row m the h row of
# order 2m + 1 times (-1)^(m+1), an exact sign flip
_TABLES = get_tables()
_P_ROWS = [list(map(float, row)) for row in _TABLES.p_rows]
_Q_ROWS = [list(map(float, row)) for row in _TABLES.q_rows]
_SH_ROWS = [
    [float(c) if m % 2 else -float(c) for c in _TABLES.h_rows[2 * m + 1]]
    for m in range(_TABLES.m_max + 1)
]


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
    """Per-y folded series coefficients for a fixed truncation order N."""

    alpha: tuple
    beta: tuple
    gamma: tuple
    alpha_p: tuple
    beta_p: tuple
    gamma_p: tuple


def build_y_coefficients(y, params):
    """Fold the integer tables with powers of y into a YCoefficientSet.

    Accumulation runs in descending m (smallest terms first) and the
    scaled powers y^(2m)/(2m)! are formed by iterative multiplication, so
    no large factorial is ever evaluated in floating point.  N runs from
    0 to DEFAULT_M_MAX, the order of the last calibrated band.
    """
    if not 0.0 <= y <= Y_MAX:
        raise ValueError(f"y must lie in [0, {Y_MAX}], got {y}")
    n_max = params.n
    if not 0 <= n_max <= DEFAULT_M_MAX:
        raise ValueError(f"N must lie in 0..{DEFAULT_M_MAX}, got {n_max!r}")
    y = float(y)

    # even[m] = y^(2m)/(2m)!,  odd[m] = y^(2m+1)/(2m+1)!; the primed sums
    # read y^(2m-1)/(2m-1)! as odd[m - 1]
    even = [1.0]
    odd = [y]
    for m in range(1, n_max + 1):
        even.append(odd[m - 1] * y / (2 * m))
        odd.append(even[m] * y / (2 * m + 1))

    p, q, sh = _P_ROWS, _Q_ROWS, _SH_ROWS
    alpha, beta, gamma = [], [], []
    alpha_p, beta_p, gamma_p = [], [], []
    for n in range(n_max + 1):
        a = b = ap = bp = 0.0
        g = gp = 0.0
        for m in range(n_max, n - 1, -1):
            pmn = p[m][n]
            shmn = sh[m][n]
            a += pmn * even[m]
            b += shmn * odd[m]
            bp += shmn * even[m]
            if m >= 1:
                ap += pmn * odd[m - 1]
            if m >= n + 1:
                qmn = q[m][n]
                g += qmn * even[m]
                gp += qmn * odd[m - 1]
        alpha.append(a)
        beta.append(b)
        alpha_p.append(y * a - 0.5 * ap)
        beta_p.append(y * b - 0.5 * bp)
        if n <= n_max - 1:
            gamma.append(g)
            gamma_p.append(y * g - 0.5 * gp)
    return YCoefficientSet(
        tuple(alpha), tuple(beta), tuple(gamma),
        tuple(alpha_p), tuple(beta_p), tuple(gamma_p),
    )


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
    sum runs from the highest degree down; the q A terms come first, then
    q's row holds the other four sums.  Every operation runs in place in
    one (3, n) block, rows q, x^2 and e^{-x^2}, which also lends Q its
    scratch rows with K, and x itself is never written.  K and L are
    fresh arrays; the block is freed on return, and is one chunk so that
    what the call frees stays below glibc's trim threshold (see the
    module docstring).  `scheme.eval_w` runs these operations in this
    order on floats, so one point gets the same bits either way.
    """
    q, x2, ex = np.empty((3, x.size))
    k = np.empty_like(x2)
    l = np.empty_like(x2)
    q_into(x, q, x2, ex, k)  # its scratch rows are idle until Q is done
    np.multiply(x, x, out=x2)
    np.exp(np.negative(x2, out=ex), out=ex)
    q *= ONE_OVER_SQRT_PI
    for a, out in ((c.alpha_p, k), (c.alpha, l)):
        np.multiply(q, _horner_array(a, x2, out), out=out)
    acc = q
    for b, g, out in ((c.beta_p, c.gamma_p, k), (c.beta, c.gamma, l)):
        out += np.multiply(ex, _horner_array(b, x2, acc), out=acc)
        g_sum = _horner_array(g, x2, acc)
        if g_sum is acc:
            out += np.multiply(ONE_OVER_SQRT_PI, acc, out=acc)
        else:  # a float, at N <= 1: one scalar, rounded as the float path rounds it
            out += ONE_OVER_SQRT_PI * g_sum
    l *= x
    return k, l


def eval_w_internal(x, y, params):
    """Internal-branch evaluation of (K, L) at x, 0 <= y <= 0.1.

    Folds the coefficients for y on every call and checks x, then runs
    `series_array` at |x|; params.n_d is not used, as Q(x) comes from the
    bin polynomials.  K is even and L odd in x.  Returns floats for a
    scalar x, else arrays of x's shape.  Defined for |x| < Q_TAIL = 27.3125,
    the extent of the bin table, which holds every |x| < x_c(y) the
    dispatcher sends the series; raises ValueError for any other x, NaN
    included, and TypeError for a complex x.
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
