"""Public evaluator: boundary model, parameter selection, dispatch, parity.

The evaluation point is reduced to x >= 0 (K is even and L odd in x), the
truncation parameters are selected from the calibrated per-y bands, and
the point is dispatched by |z| against the computing boundary z_c(y): the
Taylor series inside, the Laplace continued fraction outside.  Dispatch
compares x with x_c(y), the first x whose hypot(x, y) reaches z_c(y)
(`boundary_x_c`), so the branch is the one |z| < z_c(y) picks without a
|z| per point.
The per-y state (parameters, coefficient fold, x_c) is one record of a
128-entry LRU cache keyed by y (`_y_record`), which batch calls,
`eval_w` and `point_branch` all read.  A batch whose points all take one
branch passes its array to that branch's kernel whole; only a mixed
batch gathers each branch's points and scatters the results back.  The
series reads D(x)/x from the bin polynomials of `dawson.dawson_q`; the
tabulated N_D serves the y = 0 axis alone.

`eval_w` evaluates one point in scalar arithmetic, bit for bit what
`eval_w_batch` gives for it.  It reads the per-y record once and picks
the branch inline.  Inside z_c the whole series is one pass of Python
floats: the Dawson polynomial, x^2, the six Horner sums and the K and L
sums, as IEEE + - * / round alike on floats and arrays and neither side
fuses a multiply with an add.  exp(-x^2) stays `np.exp`'s (`math.exp`
differs on about 4% of arguments in [-745, 0], an AVX-512 build), taken
as a float at once so no numpy scalar arithmetic follows.  The axis
and the external branch call the fractions' one-point forms,
`dawson.dawson_point` on floats and `laplace.laplace_point` on
complex128 scalars; each lives next to its array form.

The external depth deserves a note.  Close to z_c(y) the fraction needs
more levels than the paper's N_C = 6 (about 19 at |z| ~ 6.65, falling to
6 by |z| ~ 20), and far from it fewer (5 from 52 on, down to 1 from
49152).  That profile was calibrated against the high-accuracy oracle on
dense radius grids and is applied per point as a step function of |x|,
looked up in 16-per-octave bins keyed by the bits of the float
(`external_depth`).  |x| <= |z| and the profile never rises, so a point
gets at least the depth its |z| needs, with no hypot per point.  The
whole external branch is one run of the Laplace levels with one depth
per point, so batch and scalar evaluation agree bit for bit.

That run (`_external`) takes every temporary but the sort order from
one float64 block of five rows of n points, allocated per call, and
writes K and L straight into the output arrays.  No buffer outlives
the call.  One block matters for page faults more than for bytes: glibc
raises its mmap threshold to the largest mmapped chunk freed and its
trim threshold to twice that, so once one block carries most of a
call, what the call frees stays below the trim threshold and the heap
keeps its pages for the next call.  A call with no sign bit set in x
takes no |x| copy.

The evaluator runs at the one accuracy level float64 can meet, 1e-16.
The paper's 1e-100 boundary cubic and bands are kept as data:
`boundary_z_c` and `select_params` look up the same two levels.
"""

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from .dawson import dawson_cf, dawson_point, q_bin, q_point
from .laplace import deepest_first, laplace_point, run_levels
from .taylor import (
    ONE_OVER_SQRT_PI, SeriesParams, VoigtValue, Y_MAX, build_y_coefficients, series_array,
)

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

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

    The least double x_c with hypot(x_c, y) >= z_c(y).  hypot is monotone
    in x, so for x >= 0 the test x < x_c takes the same branch as
    hypot(x, y) < z_c(y) without computing a hypot per point.
    """
    y = float(y)  # a float32 y would step x_c by float64 ulps that its hypot never sees
    z_c = boundary_z_c(y)
    x_c = math.sqrt(z_c * z_c - y * y)
    while np.hypot(x_c, y) < z_c:
        x_c = math.nextafter(x_c, math.inf)
    while np.hypot(x_in := math.nextafter(x_c, 0.0), y) >= z_c:
        x_c = x_in
    return x_c


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


def external_depth(r):
    """Per-point Laplace depth reaching the double-precision floor at radius r >= 0.

    Returns an int for a scalar r, else an int8 array of r's shape.  Every
    edge lies on the bin grid, so each bin decision is the one the edges
    make; inf takes the last step and -0.0 counts as 0.  Raises
    ValueError unless every r >= 0; NaN fails that test.
    """
    r = np.asarray(r, dtype=np.float64)
    if not (r >= 0.0).all():
        raise ValueError("r must be >= 0")
    key = r.view(np.int64) >> 48
    out = _EXT_BIN_DEPTH.take(key, mode="clip")
    return out if out.ndim else int(out)


def eval_w_batch(xs, y):
    """Evaluate w(x + iy) = K + iL over an array of x sharing one y.

    Identical, bit for bit, to mapping eval_w over xs: both read the
    per-y record and every per-point decision (dispatch, fraction depth)
    depends only on that point.  K and L are C-contiguous float64 arrays
    of xs' shape, 0-d for a scalar xs.  xs itself is never written.
    """
    xs = np.asarray(xs, dtype=np.float64)
    y = float(y)
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
        l = _TWO_OVER_SQRT_PI * dawson_cf(ax, params.n_d)
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
        _external(ax, y, k, l, external)
    if signed:  # L is odd in x; negation is exact and keeps the sign of x = -0.0
        np.negative(l, out=l, where=np.signbit(x))
    return VoigtValue(k.reshape(xs.shape), l.reshape(xs.shape))


def _external(ax, y, k, l, at):
    """The Laplace fraction at ax + iy, each point at the depth its ax >= 0 needs.

    Evaluates the points ax[at] and writes their K to k[at] and L to
    l[at]; at is a boolean mask or slice(None), and k and l are 1-d
    float64 arrays like ax.  Every temporary but the sort order lives in
    one float64 block of five rows of n: z and the fraction t are complex
    views of rows 0-1 and 2-3, row 4 holds the depth key, the int8
    depths sit in row 0 until z is built and the deepest-first gather in
    row 2 until t is.  ax is never written.
    """
    x = ax[at]
    n = x.size
    block = np.empty(5 * n)  # flat: slices cost fewer numpy calls than rows
    z = block[: 2 * n].view(np.complex128)
    t = block[2 * n : 4 * n].view(np.complex128)
    key = block[4 * n :].view(np.int64)  # the depth lookup of `external_depth`
    np.right_shift(x.view(np.int64), 48, out=key)
    depth = _EXT_BIN_DEPTH.take(key, out=block.view(np.int8)[:n], mode="clip")
    order, top, joins = deepest_first(depth)
    if order is not None:
        x = x.take(order, out=block[2 * n : 3 * n], mode="clip")
    np.copyto(z.real, x)
    z.imag = y
    w = run_levels(z, t, order, top, joins)
    k[at] = w.real
    l[at] = w.imag


# the step profile as lists, for one point's depth without a numpy call
_EXT_EDGE_LIST = _EXT_DEPTH_EDGES.tolist()
_EXT_DEPTH_LIST = _EXT_DEPTHS.tolist()


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


def _point_depth(ax):
    """external_depth at one float ax >= 0, without a numpy call; rejects inf and NaN.

    eval_w and point_branch send here every |x| not below x_c, which is
    inf at y = 0, so this is where both reject a non-finite x.
    """
    if not ax < math.inf:
        raise ValueError("x must be finite")
    return _EXT_DEPTH_LIST[bisect_right(_EXT_EDGE_LIST, ax)]


def point_branch(x, y):
    """The branch eval_w(x, y) takes, and the evaluator it runs there.

    Returns (branch, evaluator, n), the evaluator named as `voigtw eval`
    prints it: ("axis", "dawson_depth", N_D) at y = 0; inside the
    computing boundary ("internal", "dawson_bin", i), D(x)/x coming from
    bin i of the Dawson polynomials; ("external", "laplace_depth", depth)
    outside it.  Rejects what eval_w rejects, with the same errors.
    """
    y = float(y)
    params, _, x_c = _y_record(y)
    ax = abs(float(x))
    if not ax < x_c:
        return "external", "laplace_depth", _point_depth(ax)
    if y == 0.0:
        return "axis", "dawson_depth", params.n_d
    return "internal", "dawson_bin", q_bin(ax)


def eval_w(x, y):
    """Evaluate w(x + iy) at a single point; returns VoigtValue(k, l) of floats.

    Bit for bit eval_w_batch's result, computed in scalar arithmetic.
    Inside z_c it runs `taylor.series_array`'s operations in its order on
    Python floats: each Horner sum walks its fold tuple from the highest
    degree down, and `np.exp`'s result is taken as a float at once, so no
    numpy scalar arithmetic follows.
    """
    y = float(y)
    params, fold, x_c = _y_record(y)
    x = float(x)
    ax = abs(x)
    if not ax < x_c:  # x_c is inf at y = 0: inf and NaN come here
        w = laplace_point(complex(ax, y), _point_depth(ax))
        k, l = float(w.real), float(w.imag)
    elif y == 0.0:
        m = min(ax, 30.0)
        k = float(np.exp(-(m * m)))
        l = _TWO_OVER_SQRT_PI * dawson_point(ax, params.n_d)
    else:
        x2 = ax * ax
        ex = float(np.exp(-x2))
        q = ONE_OVER_SQRT_PI * q_point(ax)
        sums = []
        for coeffs in fold:  # alpha, beta, gamma, then their primed partners
            it = reversed(coeffs)
            acc = next(it, 0.0)
            for c in it:
                acc = acc * x2 + c
            sums.append(acc)
        a, b, g, a_p, b_p, g_p = sums
        k = q * a_p + ex * b_p + ONE_OVER_SQRT_PI * g_p
        # x factored out: three products fewer, and a subnormal L rounds once
        l = ax * (q * a + ex * b + ONE_OVER_SQRT_PI * g)
    if math.copysign(1.0, x) < 0.0:  # L is odd in x
        l = -l
    return VoigtValue(k, l)
