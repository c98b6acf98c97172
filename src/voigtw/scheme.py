"""Public evaluator: boundary model, parameter selection, dispatch, parity.

The evaluation point is reduced to x >= 0 (K is even and L odd in x), the
truncation parameters are selected from the calibrated per-y bands, and
the point is dispatched by |z| against the computing boundary z_c(y): the
Taylor series inside, the Laplace continued fraction outside.

The external depth deserves a note.  The tabulated N_C values are tuned
for the fixed |z| >= 22 split; close to z_c(y) the fraction needs more
levels (about 19 at |z| ~ 6.65, falling to 6 by |z| ~ 20).  That profile
was calibrated against the high-accuracy oracle on a dense radius grid
and is applied per point as a step function of |z|.  Its last step is
the tabulated N_C = 6, so no floor is needed.  The whole external branch
is one Laplace fraction call with one depth per point, so batch and
scalar evaluation agree bit for bit.

The evaluator runs at the one accuracy level float64 can meet, 1e-16.
The paper's tables for the other levels are kept as data: `boundary_z_c`
and `select_params` still look them up by level.
"""

import math

import numpy as np

from .dawson import dawson_cf
from .laplace import laplace_w
from .taylor import SeriesParams, VoigtValue, Y_MAX, eval_w_internal

_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)

# z_c(y) = c0 + c1 u + c2 u^2 + c3 u^3 with u = ln y, per accuracy level
_BOUNDARY_CUBICS = {
    1e-16: (6.4908, -6.9856e-2, -1.8237e-4, -3.0026e-7),
    1e-20: (7.1461, -6.5589e-2, -1.6308e-4, -2.6500e-7),
    1e-40: (9.8625, -5.0156e-2, -9.3640e-5, -1.3861e-7),
    1e-60: (11.9611, -4.2288e-2, -6.5582e-5, -9.4912e-8),
    1e-80: (13.7687, -3.6042e-2, -3.6111e-5, -3.1788e-8),
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

# Oracle-calibrated continued-fraction depth needed to reach the double
# precision floor, as a step function of |z| (upper radius, depth).
_EXT_DEPTH_EDGES = np.array(
    [7.0, 7.5, 8.0, 8.5, 9.0, 9.5, 10.0, 11.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0]
)
_EXT_DEPTHS = np.array([21, 19, 17, 16, 15, 14, 13, 12, 11, 10, 9, 9, 8, 7, 6])


def boundary_z_c(y, level=1e-16):
    """Computing boundary z_c(y) for the selected accuracy level."""
    if level not in _BOUNDARY_CUBICS:
        raise ValueError(f"unknown accuracy level {level!r}")
    if not 0.0 < y <= Y_MAX:
        raise ValueError(f"y must lie in (0, {Y_MAX}], got {y}")
    c0, c1, c2, c3 = _BOUNDARY_CUBICS[level]
    u = math.log(y)
    return c0 + u * (c1 + u * (c2 + u * c3))


def select_params(y, level=1e-16):
    """Truncation triple (N, N_D, N_C) for y from the calibrated band table."""
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
    """Per-point Laplace depth reaching the double-precision floor at radius r."""
    r = np.asarray(r, dtype=np.float64)
    idx = np.searchsorted(_EXT_DEPTH_EDGES, r, side="right")
    out = _EXT_DEPTHS[idx]
    return out if out.ndim else int(out)


def eval_w_batch(xs, y):
    """Evaluate w(x + iy) = K + iL over an array of x sharing one y.

    Identical, bit for bit, to mapping eval_w over xs: the per-y
    coefficient fold is shared and every per-point decision (dispatch,
    fraction depth) depends only on that point.
    """
    xs = np.asarray(xs, dtype=np.float64)
    params = select_params(y)  # also rejects y outside [0, Y_MAX]
    if not np.all(np.isfinite(xs)):
        raise ValueError("x must be finite")
    ax = np.abs(xs)

    if y == 0.0:
        # Analytic collapse of the series: exact at y = 0 for every x.
        # e^{-x^2} is 0 from x ~ 27.3 on; the clamp keeps x^2 finite.
        k = np.exp(-np.square(np.minimum(ax, 30.0)))
        l = _TWO_OVER_SQRT_PI * dawson_cf(ax, params.n_d)
    else:
        k = np.empty_like(ax)
        l = np.empty_like(ax)
        r = np.hypot(ax, y)
        internal = r < boundary_z_c(y)
        if internal.any():
            ki, li = eval_w_internal(ax[internal], y, params)
            k[internal] = ki
            l[internal] = li
        external = ~internal
        if external.any():
            w = laplace_w(ax[external] + 1j * y, external_depth(r[external]))
            k[external] = w.real
            l[external] = w.imag
    # L is odd in x; negation is exact and keeps the sign of x = -0.0
    np.negative(l, out=l, where=np.signbit(xs))
    return VoigtValue(k, l)


def eval_w(x, y):
    """Evaluate w(x + iy) at a single point; returns VoigtValue(k, l)."""
    k, l = eval_w_batch(np.asarray([x], dtype=np.float64), y)
    return VoigtValue(float(k[0]), float(l[0]))
