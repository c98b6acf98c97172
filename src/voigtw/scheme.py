"""Public evaluator: boundary model, parameter selection, dispatch, parity.

The evaluation point is reduced to x >= 0 (K is even and L odd in x), the
truncation parameters are selected from the calibrated per-y bands, and
the point is dispatched by |z| against the computing boundary z_c(y): the
Taylor series inside, the Laplace continued fraction outside.  Dispatch
compares x with x_c(y) = sqrt(z_c^2 - y^2) (`boundary_x_c`), z_c(y) the
paper's cubic, or Q_TAIL = 27.3046875, where the Dawson table ends and
e^{-x^2} is 0 so the fraction is the whole answer, if nearer.
The per-y state (parameters, coefficient fold, x_c) is one record of a
128-entry LRU cache keyed by y (`_y_record`), which batch calls,
`eval_w` and `point_branch` all read.  A batch whose points all take one
branch passes its array to that branch's kernel whole; only a mixed
batch gathers each branch's points and scatters the results back.  The
series reads D(x)/x from the bin polynomials of `dawson.dawson_q`; the
tabulated N_D serves the y = 0 axis alone.

`eval_w` evaluates one point in scalar arithmetic, bit for bit what
`eval_w_batch` gives for it.  It reads the per-y record once and picks
the branch inline.  Inside z_c the series is one pass of Python floats:
q = L(x, 0)/x from the Dawson polynomial, x^2, one loop stepping the four
Horner sums together over the fold, then K and L, in `series_array`'s
operations and order (IEEE + - * / round alike on floats and arrays, and
neither side fuses a multiply with an add).  exp(-x^2) is `np.exp`'s
(`math.exp` differs on about 4% of [-745, 0] on an AVX-512 build), made a
float at once.  The axis and external branch call `dawson.dawson_point`
and `laplace.laplace_point`.  Both evaluators build their result as
tuple.__new__(VoigtValue, (k, l)), VoigtValue._make without its frame.

Outside z_c the whole external branch is one call of
`laplace.external_branch`, which writes K and L straight into the output
arrays.  A call with no sign bit set in x takes no |x| copy.

The evaluator runs at the one accuracy level float64 can meet, 1e-16.
The paper's 1e-100 boundary cubic and bands are kept as data:
`boundary_z_c` and `select_params` look up the same two levels.
"""

import math
from functools import lru_cache

import numpy as np

from .dawson import Q_TAIL, dawson_cf, dawson_point, q_bin, q_point
from .laplace import external_branch, external_depth, laplace_point, point_depth
from .taylor import (
    ONE_OVER_SQRT_PI, TWO_OVER_SQRT_PI, SeriesParams, VoigtValue, Y_MAX, build_y_coefficients,
    series_array,
)

# z_c(y) = c0 + c1 u + c2 u^2 + c3 u^3 with u = ln y, per accuracy level
_BOUNDARY_CUBICS = {
    1e-16: (6.4908, -6.9856e-2, -1.8237e-4, -3.0026e-7),
    1e-100: (15.3784, -3.1655e-2, -1.9984e-5, -2.0282e-9),
}

# Per-y parameter bands (lower bound of each half-open band, N, N_D, N_C);
# the last band is closed at y = 0.1.  The lowest band extends down to
# y = 0 since the series truncation error only shrinks as y -> 0.
_PARAM_BANDS = {
    1e-16: (
        (1e-100, 1, 61, 6),
        (1e-7, 2, 61, 6),
        (2.5119e-4, 3, 61, 6),
        (3.9811e-3, 4, 61, 6),
        (0.015849, 5, 61, 6),
        (0.039811, 6, 61, 6),
        (0.063096, 7, 61, 6),
    ),
    1e-100: (
        (1e-100, 1, 344, 65),
        (6.3096e-49, 2, 344, 65),
        (1.5849e-24, 3, 344, 65),
        (1.5849e-16, 4, 344, 65),
        (1.5849e-12, 5, 344, 65),
        (3.9811e-10, 6, 344, 65),
        (1.5849e-8, 7, 344, 65),
        (1.5849e-7, 8, 344, 65),
        (1.5849e-6, 9, 344, 65),
        (6.3096e-6, 10, 344, 65),
        (2.5119e-5, 11, 344, 65),
        (6.3096e-5, 12, 344, 65),
        (1.5849e-4, 13, 254, 43),
        (3.9811e-3, 14, 197, 30),
        (0.025119, 15, 169, 25),
        (0.063096, 16, 154, 22),
    ),
}

def boundary_z_c(y, level=1e-16):
    """Computing boundary z_c(y) at accuracy level 1e-16 or 1e-100; any other level raises."""
    if level not in _BOUNDARY_CUBICS:
        raise ValueError(f"unknown accuracy level {level!r}")
    if not 0.0 < y <= Y_MAX:
        raise ValueError(f"y must lie in (0, {Y_MAX}], got {y}")
    c0, c1, c2, c3 = _BOUNDARY_CUBICS[level]
    u = math.log(y)
    return c0 + u * (c1 + u * (c2 + u * c3))


def boundary_x_c(y):
    """First x >= 0 that the dispatcher sends to the Laplace fraction, for y > 0.

    sqrt(z_c(y)^2 - y^2) in correctly rounded float64 operations, with no
    C library hypot: for x >= 0, x < x_c stands for |x + iy| < z_c(y) but
    at the floats next to the exact root, which lies within 1.07 ulp of
    x_c (within one at all but 95 of 3e5 y checked in rationals).
    Below y = 8.29e-191 that x passes Q_TAIL, where np.exp(-x*x), the one
    term of K the fraction lacks, is 0; x_c is then Q_TAIL.
    """
    y = float(y)  # under NEP 50 a float32 y would make y * y float32
    z_c = boundary_z_c(y)
    return min(math.sqrt(z_c * z_c - y * y), Q_TAIL)


def select_params(y, level=1e-16):
    """Truncation triple (N, N_D, N_C) for y from the bands of level 1e-16 or 1e-100."""
    bands = _PARAM_BANDS.get(level)
    if bands is None:
        raise ValueError(f"no parameter table for accuracy level {level!r}")
    if not 0.0 <= y <= Y_MAX:
        raise ValueError(f"y must lie in [0, {Y_MAX}], got {y}")
    chosen = bands[0]
    for band in bands[1:]:
        if y >= band[0]:
            chosen = band
        else:
            break
    return SeriesParams(n=chosen[1], n_d=chosen[2], n_c=chosen[3])


def eval_w_batch(xs, y):
    """Evaluate w(x + iy) = K + iL over an array of x sharing one y.

    Identical, bit for bit, to mapping eval_w over xs: both read the
    per-y record and every per-point decision (dispatch, fraction depth)
    depends only on that point.  K and L are C-contiguous float64 arrays
    of xs' shape, 0-d for a scalar xs.  xs, never written, must be real.
    """
    if np.iscomplexobj(xs):
        raise TypeError("xs must be real")
    xs = np.asarray(xs, dtype=np.float64)
    y = y if type(y) is float else _real(y, "y")
    params, fold, x_c = _y_record(y)
    x = xs.reshape(-1)
    # a sign bit anywhere, -0.0 included (L keeps its sign), asks for |x|
    signed = x.view(np.int64).min(initial=0) < 0
    ax = np.abs(x) if signed else x
    ax_max = ax.max(initial=0.0)  # NaN propagates
    if not math.isfinite(ax_max):
        raise ValueError("x must be finite")

    if y == 0.0:
        # Analytic collapse of the series: exact at y = 0 for every x.
        # e^{-x^2} is 0 from x ~ 27.3 on; the clamp keeps x^2 finite.
        k = np.exp(-np.square(np.minimum(ax, 30.0)))
        l = TWO_OVER_SQRT_PI * dawson_cf(ax, params.n_d)
    elif ax_max < x_c:
        # a call on one branch takes no mask, gather or scatter
        k, l = series_array(fold, ax)
    else:
        k = np.empty(ax.size)
        l = np.empty(ax.size)
        external = ax >= x_c
        if external.all():  # the mask goes before the kernel takes its block
            external = slice(None)
        else:
            internal = ~external
            k[internal], l[internal] = series_array(fold, ax[internal])
        external_branch(ax, y, k, l, external)
    if signed:  # L is odd in x; negation is exact and keeps the sign of x = -0.0
        np.negative(l, out=l, where=np.signbit(x))
    return tuple.__new__(VoigtValue, (k.reshape(xs.shape), l.reshape(xs.shape)))


def _real(v, name):
    """float(v), or TypeError for a complex v, whose float() drops the imaginary part."""
    if np.iscomplexobj(v):
        raise TypeError(f"{name} must be real")
    return float(v)


@lru_cache(maxsize=128)
def _y_record(y):
    """(params, fold, x_c) at one float y, shared by every batch and scalar call at that y.

    Rejects y outside [0, Y_MAX] as `select_params` does.  At y = 0 the
    fold is None and x_c is inf: the axis path needs neither.
    """
    params = select_params(y)
    if y == 0.0:
        return params, None, math.inf
    return params, build_y_coefficients(y, params), boundary_x_c(y)


def point_branch(x, y):
    """The branch eval_w(x, y) takes, and the evaluator it runs there.

    Returns (branch, evaluator, n), the evaluator named as `voigtw eval`
    prints it: ("axis", "dawson_depth", N_D) at y = 0; inside the
    computing boundary ("internal", "dawson_bin", i), D(x)/x coming from
    bin i of the Dawson polynomials; ("external", "laplace_depth", depth)
    outside it, the depth the fraction runs, `external_depth(|x|)` made odd.
    Rejects what eval_w rejects, with the same errors.
    """
    y = y if type(y) is float else _real(y, "y")
    params, _, x_c = _y_record(y)
    ax = abs(x if type(x) is float else _real(x, "x"))
    if not ax < x_c:
        if not ax < math.inf:  # as eval_w rejects it
            raise ValueError("x must be finite")
        return "external", "laplace_depth", external_depth(ax) | 1
    if y == 0.0:
        return "axis", "dawson_depth", params.n_d
    return "internal", "dawson_bin", q_bin(ax)


def eval_w(x, y):
    """Evaluate w(x + iy) at a single point; returns VoigtValue(k, l) of floats.

    Bit for bit eval_w_batch's result, computed in scalar arithmetic (see
    the module docstring): inside z_c it runs `taylor.series_array`'s
    operations in its order, its four Horner sums in one pass, top down.
    """
    y = y if type(y) is float else _real(y, "y")
    params, fold, x_c = _y_record(y)
    x = x if type(x) is float else _real(x, "x")
    ax = abs(x)
    if not ax < x_c:  # x_c is inf at y = 0: inf and NaN come here
        w = laplace_point(complex(ax, y), point_depth(ax))
        k, l = float(w.real), float(w.imag)
    elif y == 0.0:
        m = min(ax, 30.0)
        k = float(np.exp(-(m * m)))
        l = TWO_OVER_SQRT_PI * dawson_point(ax, params.n_d)
    else:
        x2 = ax * ax
        ex = float(np.exp(-x2))
        q = TWO_OVER_SQRT_PI * q_point(ax)
        c_a, c_h, c_g, c_gp = fold  # alpha, h, gamma, gamma_p
        i = len(c_h) - 1  # N - 1: alpha's extra top coefficient goes first
        a, h, g, g_p = c_a[i + 1] * x2 + c_a[i], c_h[i], c_g[i], c_gp[i]
        while (i := i - 1) >= 0:  # the four sums in one pass, each from its top degree down
            a = a * x2 + c_a[i]
            h = h * x2 + c_h[i]
            g = g * x2 + c_g[i]
            g_p = g_p * x2 + c_gp[i]
        k = ex * a + x2 * h * q + ONE_OVER_SQRT_PI * g_p
        # x factored out: three products fewer, and a subnormal L rounds once
        l = ax * (q * a - ex * h + ONE_OVER_SQRT_PI * g)
    if math.copysign(1.0, x) < 0.0:  # L is odd in x
        l = -l
    return tuple.__new__(VoigtValue, (k, l))  # VoigtValue._make without its Python frame
