"""Independent high-accuracy reference for w(z), test use only.

Two mutually independent routes are provided:

* ``ref_w`` -- the closed form w(z) = exp(-z^2) erfc(-iz) in adaptive
  multiprecision arithmetic.  For small y the real and imaginary parts of
  w differ by up to ~100 orders of magnitude and emerge from cancellation
  in the product, and exp(-z^2) loses 2 log10|z| digits to the rounding
  of z^2, so the working precision is raised until the smaller component
  carries at least ~35 correct digits.
* ``quad_w`` -- direct quadrature of the defining damped-oscillatory
  integrals over t, split at oscillation half-periods.

Axis cases use analytic closed forms (K(x,0) = exp(-x^2), L(x,0) =
2 D(x)/sqrt(pi), K(0,y) = exp(y^2) erfc(y), L(0,y) = 0).

`rel_errors` is the one measure of error against the reference: per
component |approx - ref| / max(|ref|, 2^-1022) at 40 digits.  The
reference is not rounded to a double first, so a correctly rounded
approx reads its rounding error, not 0; a zero or subnormal reference
component needs no special case, and one subnormal ulp reads 2^-52.

`dawson_q_table` and `laplace_depth_steps` derive the evaluator's Dawson
polynomials and its far-field Laplace depths from the reference.

Nothing in here is ever used on the production evaluation path.
"""

import math
from typing import NamedTuple

import mpmath as mp

_BASE_DPS = 40
_QUAD_DPS = 35  # quad_w's working precision
# Hard ceiling on the escalated working precision: enough for every point
# the evaluator accepts, where exp(-z^2) costs up to 617 digits at
# |z| = 1.8e308 and the small component lies up to 632 orders of
# magnitude below the large one.
_MAX_DPS = 1400


class OracleError(Exception):
    """Raised when a reference computation fails to converge."""


def ref_dawson(x, dps=_BASE_DPS):
    """High-precision Dawson integral D(x) = sqrt(pi)/2 exp(-x^2) erfi(x)."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        return mp.sqrt(mp.pi) / 2 * mp.exp(-xm * xm) * mp.erfi(xm)


# dawson_q_table: the degree of each bin's polynomial, and the working
# precision of its solve
_Q_DEGREE = 8
_Q_DPS = 60


def dawson_q_table(bins=range(437)):
    """Bin polynomials for Q(x) = D(x)/x, as `voigtw.dawson` stores them.

    Bin i covers [i, i + 1) / 16, the bin layout `voigtw.dawson` reads;
    the default 437 bins cover [0, 27.3125), the series' reach.  Each bin
    is solved alone, so a subset of bins gives the same columns.
    Its polynomial interpolates Q at the 9 Chebyshev nodes of the bin,
    solved for the degree-8 monomials in t = x - (i + 1/2) / 16 in
    multiprecision and only then rounded to doubles.  The Vandermonde
    system is ill-conditioned: at 40 digits the t^6 to t^8 coefficients
    of many bins still round differently, from 60 on the table no longer
    changes (checked at 80 and 100).
    Returns a float64 array of shape (9, len(bins)), degree-major: row k
    holds the t^k coefficient of each bin.
    """
    import numpy as np

    from .dawson import BINS_PER_UNIT

    n = _Q_DEGREE + 1
    table = np.empty((n, len(bins)))
    with mp.workdps(_Q_DPS):
        h = 1 / mp.mpf(2 * BINS_PER_UNIT)
        t = [h * mp.cos(mp.pi * (j + mp.mpf(1) / 2) / n) for j in range(n)]
        vandermonde = mp.matrix([[tj**k for k in range(n)] for tj in t])
        for col, i in enumerate(bins):
            x = [(2 * i + 1) * h + tj for tj in t]
            q = mp.matrix([ref_dawson(xj, _Q_DPS) / xj for xj in x])
            table[:, col] = [float(c) for c in mp.lu_solve(vandermonde, q)]
    return table


# laplace_depth_steps: the truncation error a step's depth may leave, a
# 256th of the half ulp its double result is rounded to; the y at which
# it is measured (below about 1e-3 that error no longer depends on y, so
# 1e-8 stands for every smaller y); and the radii per step
_STEP_ERROR = mp.mpf(2) ** -61
_STEP_YS = (1e-8, 0.1)
_STEP_RADII = 32
# the deepest fraction the paper tabulates (N_C at 1e-100)
_STEP_MAX_DEPTH = 65


def laplace_depth_steps(edges):
    """Least Laplace depth for each step of a far-field depth profile.

    Step i covers |x| in [edges[i], edges[i + 1]).  Its depth is the least
    n at which the depth-n Laplace fraction, evaluated in multiprecision,
    is within 2^-61 of `ref_w` in each component relative to that
    component, at every x of a log-spaced grid over the step (the left
    edge included) and at y = 1e-8 and 0.1.  Meant for the far field:
    nearer z_c(y) the depth a point needs depends on y, and those steps
    were calibrated on |z|.  Returns a list of len(edges) - 1 depths.
    """
    depths = []
    for lo, hi in zip(edges, edges[1:]):
        xs = [float(lo * (hi / lo) ** (j / _STEP_RADII)) for j in range(_STEP_RADII)]
        points = [(x, y, ref_w(x, y)) for x in xs for y in _STEP_YS]
        n = 1
        while any(_laplace_error(x, y, n, ref) > _STEP_ERROR for x, y, ref in points):
            n += 1
            if n > _STEP_MAX_DEPTH:
                raise OracleError(f"no depth up to {_STEP_MAX_DEPTH} meets the step [{lo}, {hi})")
        depths.append(n)
    return depths


def _laplace_error(x, y, n, ref):
    """The larger `rel_errors` component of the depth-n fraction at x + iy vs ref."""
    with mp.workdps(_BASE_DPS):
        z = mp.mpc(x, y)
        t = z
        for k in range(n, 0, -1):
            t = z - mp.mpf(k) / 2 / t
        return max(rel_errors(mp.mpc(0, 1) / (mp.sqrt(mp.pi) * t), ref))


def ref_erfcx(y):
    """High-precision scaled complementary error function exp(y^2) erfc(y)."""
    with mp.workdps(_BASE_DPS):
        ym = mp.mpf(y)
        return mp.exp(ym * ym) * mp.erfc(ym)


def _w_closed_form(x, y, dps):
    with mp.workdps(dps):
        z = mp.mpc(x, y)
        return mp.exp(-z * z) * mp.erfc(-1j * z)


def ref_w(x, y):
    """Reference w(x + iy) as an mpmath complex, >= ~35 digits per component.

    x may have either sign (K is even, L odd); y must lie in [0, 0.1].
    """
    if not 0.0 <= y <= 0.1:
        raise ValueError(f"y must lie in [0, 0.1], got {y}")
    ax = abs(x)
    sign = -1 if x < 0 else 1
    if y == 0.0:
        with mp.workdps(_BASE_DPS):
            k = mp.exp(-mp.mpf(ax) ** 2)
            return mp.mpc(k, sign * 2 / mp.sqrt(mp.pi) * ref_dawson(ax))
    if ax == 0.0:
        with mp.workdps(_BASE_DPS):
            return mp.mpc(ref_erfcx(y), 0)

    # exp(-z^2) turns the absolute rounding error of z^2, |z|^2 10^-dps,
    # into a relative error of both components: 2 log10|z| digits are lost
    # before any cancellation between them.
    lost = 2 * math.log10(max(math.hypot(ax, y), 1.0))
    # Each round either certifies >= _BASE_DPS digits in the small
    # component or raises dps past the measured deficit, so dps grows
    # strictly until the small component is resolved or the ceiling hit.
    dps = int(_BASE_DPS + lost)
    while dps <= _MAX_DPS:
        w = _w_closed_form(ax, y, dps)
        with mp.workdps(dps):
            small = min(abs(w.real), abs(w.imag))
            big = abs(w)
            if small == 0:
                dps = 2 * dps + 60
                continue
            deficit = mp.log10(big / small) + lost
            if dps >= _BASE_DPS + deficit:
                return mp.mpc(w.real, sign * w.imag)
            dps = int(_BASE_DPS + 10 + deficit)
    raise OracleError(
        f"ref_w failed to stabilize at x={x}, y={y} within {_MAX_DPS} digits"
    )


def quad_w(x, y, maxdegree=6):
    """w(x + iy) by quadrature of the defining integrals, x >= 0, at 35 digits.

    The t range is cut where the Gaussian damping underflows the target
    and split into oscillation half-periods of cos(xt)/sin(xt) so each
    panel is smooth.  Raises OracleError if the quadrature error estimate
    exceeds 1e-27 relative to the larger component.
    """
    if x < 0:
        raise ValueError("quad_w requires x >= 0")
    if not 0.0 <= y <= 0.1:
        raise ValueError(f"y must lie in [0, 0.1], got {y}")
    if maxdegree < 2:
        # a single refinement level yields no error estimate at all
        raise ValueError("maxdegree must be >= 2")
    with mp.workdps(_QUAD_DPS):
        xm, ym = mp.mpf(x), mp.mpf(y)
        # exp(-T^2/4) below the target precision with margin
        t_max = 2 * mp.sqrt((_QUAD_DPS + 10) * mp.log(10))
        points = [mp.mpf(0)]
        if x > 0:
            half = mp.pi / xm
            k = 1
            while k * half < t_max:
                points.append(k * half)
                k += 1
        points.append(t_max)

        def integrand_k(t):
            return mp.exp(-t * t / 4 - ym * t) * mp.cos(xm * t)

        def integrand_l(t):
            return mp.exp(-t * t / 4 - ym * t) * mp.sin(xm * t)

        inv_sqrt_pi = 1 / mp.sqrt(mp.pi)
        k_val, k_err = mp.quad(
            integrand_k, points, maxdegree=maxdegree, error=True
        )
        l_val, l_err = mp.quad(
            integrand_l, points, maxdegree=maxdegree, error=True
        )
        k_val *= inv_sqrt_pi
        l_val *= inv_sqrt_pi
        tol = mp.mpf(10) ** (-(_QUAD_DPS - 8))
        scale = max(abs(k_val), abs(l_val), mp.mpf(10) ** -50)
        if k_err > tol * scale or l_err > tol * scale:
            raise OracleError(
                f"quadrature did not converge at x={x}, y={y}: "
                f"errs=({k_err}, {l_err})"
            )
        return mp.mpc(k_val, l_val)


class ErrorReport(NamedTuple):
    """Componentwise relative errors of an approximation at one point."""

    delta_re: float
    delta_im: float


_TINY = mp.mpf(2) ** -1022  # the smallest normal double


def rel_errors(approx, ref):
    """Componentwise |approx - ref| / max(|ref|, 2^-1022), at 40 digits."""
    with mp.workdps(_BASE_DPS):
        approx, ref = mp.mpc(approx), mp.mpc(ref)
        return ErrorReport(
            delta_re=float(abs(approx.real - ref.real) / max(abs(ref.real), _TINY)),
            delta_im=float(abs(approx.imag - ref.imag) / max(abs(ref.imag), _TINY)),
        )
