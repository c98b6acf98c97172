"""Independent high-accuracy reference for w(z), test use only.

Two mutually independent routes are provided:

* ``ref_w`` -- the closed form w(z) = exp(-z^2) erfc(-iz) in adaptive
  multiprecision arithmetic.  For small y the real and imaginary parts of
  w differ by up to ~100 orders of magnitude and emerge from cancellation
  in the product, so the working precision is raised until the smaller
  component carries at least ~35 correct digits.
* ``quad_w`` -- direct quadrature of the defining damped-oscillatory
  integrals over t, split at oscillation half-periods.

Axis cases use analytic closed forms (K(x,0) = exp(-x^2), L(x,0) =
2 D(x)/sqrt(pi), K(0,y) = exp(y^2) erfc(y), L(0,y) = 0).

Nothing in here is ever used on the production evaluation path.
"""

from typing import NamedTuple

import mpmath as mp

_BASE_DPS = 40
# Hard ceiling on the escalated working precision: enough for a small
# component ~950 orders of magnitude below the large one.
_MAX_DPS = 1000


class OracleError(Exception):
    """Raised when a reference computation fails to converge."""


def ref_dawson(x, dps=_BASE_DPS):
    """High-precision Dawson integral D(x) = sqrt(pi)/2 exp(-x^2) erfi(x)."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        return mp.sqrt(mp.pi) / 2 * mp.exp(-xm * xm) * mp.erfi(xm)


def ref_erfcx(y, dps=_BASE_DPS):
    """High-precision scaled complementary error function exp(y^2) erfc(y)."""
    with mp.workdps(dps):
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

    # Each round either certifies >= _BASE_DPS digits in the small
    # component or raises dps past the measured deficit, so dps grows
    # strictly until the small component is resolved or the ceiling hit.
    dps = _BASE_DPS
    while dps <= _MAX_DPS:
        w = _w_closed_form(ax, y, dps)
        with mp.workdps(dps):
            small = min(abs(w.real), abs(w.imag))
            big = abs(w)
            if small == 0:
                dps = 2 * dps + 60
                continue
            deficit = mp.log10(big / small)
            if dps >= _BASE_DPS + deficit:
                return mp.mpc(w.real, sign * w.imag)
            dps = int(_BASE_DPS + 10 + deficit)
    raise OracleError(
        f"ref_w failed to stabilize at x={x}, y={y} within {_MAX_DPS} digits"
    )


def quad_w(x, y, dps=35, maxdegree=6, t_max=None):
    """w(x + iy) by quadrature of the defining integrals, x >= 0.

    The t range is cut where the Gaussian damping underflows the target
    and split into oscillation half-periods of cos(xt)/sin(xt) so each
    panel is smooth.  Raises OracleError if the quadrature error estimate
    exceeds the requested accuracy.
    """
    if x < 0:
        raise ValueError("quad_w requires x >= 0")
    if not 0.0 <= y <= 0.1:
        raise ValueError(f"y must lie in [0, 0.1], got {y}")
    if maxdegree < 2:
        # a single refinement level yields no error estimate at all
        raise ValueError("maxdegree must be >= 2")
    with mp.workdps(dps):
        xm, ym = mp.mpf(x), mp.mpf(y)
        if t_max is None:
            # exp(-T^2/4) below the target precision with margin
            t_max = 2 * mp.sqrt((dps + 10) * mp.log(10))
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
        tol = mp.mpf(10) ** (-(dps - 8))
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
    point: tuple


def rel_errors(approx, ref, point=(None, None)):
    """Componentwise |approx - ref| / |ref|, computed in multiprecision."""
    ref = mp.mpc(ref)
    if ref.real == 0 or ref.imag == 0:
        raise ValueError("relative error undefined: reference component is zero")
    approx = mp.mpc(approx)
    return ErrorReport(
        delta_re=float(abs(approx.real - ref.real) / abs(ref.real)),
        delta_im=float(abs(approx.imag - ref.imag) / abs(ref.imag)),
        point=tuple(point),
    )
