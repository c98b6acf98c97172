"""Laplace continued fraction for w(z) in the external domain.

    w(z) ~ (i/sqrt(pi)) / (z - (1/2)/(z - 1/(z - (3/2)/(z - ... - (N/2)/z))))

with partial numerators k/2 for k = 1..N, evaluated bottom-up in complex
arithmetic.  Convergence collapses for tiny Im(z) at moderate |z|; the
dispatcher keeps this branch outside the computing boundary, this module
itself never restricts its domain.

The depth N is one integer for the whole call or one per point.  Points
are ordered deepest first (`deepest_first`), so level k updates, in
place, the prefix of points whose depth is at least k; every point sees
exactly the levels and arithmetic of its own depth-N fraction.
"""

import math

import numpy as np

_I_SQRT_PI = 1j / np.sqrt(np.pi)

# Largest call whose level quotients get a buffer of their own.  On small
# arrays numpy's overlap check makes an in-place ufunc call cost more than
# the buffer; on large ones the fresh buffer's page faults cost more (the
# two cross between 2048 and 4096 points on a 2-vCPU x86 VM, numpy 2.4).
_OWN_QUOTIENT_MAX = 2048


def deepest_first(n, shape):
    """Order points deepest first for a bottom-up fraction of depth n.

    n, laplace_w's n_c, is a positive integer or an integer array of
    `shape`, one depth per point.  Returns (order, top, joins): order is
    None when every point has the same depth, else the flat permutation
    putting deeper points first; top is the greatest depth; joins maps
    each depth k present to the number m of points of depth >= k, so
    level k and the levels below it, down to the next join, update the
    first m ordered points.
    """
    depth = np.asarray(n)
    if depth.shape not in ((), shape):
        raise ValueError(f"n_c must be an int or one depth per point, got shape {depth.shape}")
    lo, top = (int(depth.min()), int(depth.max())) if depth.size else (1, 1)
    if lo < 1:
        raise ValueError(f"n_c must be a positive integer, got {n}")
    if lo == top:  # one depth: no sort
        return None, top, {top: math.prod(shape)}
    # a small unsigned key, complemented so that ascending is deepest
    # first: numpy's stable sort on it is a radix sort, and the order comes
    # out contiguous, which keeps the gather and the scatter back cheap
    key = ~depth.ravel().astype(np.min_scalar_type(top), copy=False)
    order = np.argsort(key, kind="stable")
    # the points of depth >= k lead the order: find where they end in the sorted keys
    ends = np.searchsorted(key, ~np.arange(top, 0, -1, dtype=key.dtype), "right", order).tolist()
    joins, m = {}, 0
    for k, end in zip(range(top, 0, -1), ends):
        if end > m:
            joins[k] = m = end
    return order, top, joins


def laplace_w(z, n_c):
    """Truncated Laplace continued fraction for w(z), depth n_c.

    z may be a complex scalar or ndarray; n_c is a positive integer, or an
    integer array of z's shape giving each point its own depth.  z = 0 is
    rejected (the leading denominator vanishes).
    """
    z = np.asarray(z, dtype=np.complex128)
    order, top, joins = deepest_first(n_c, z.shape)
    if (z == 0).any():
        raise ValueError("laplace_w is undefined at z = 0")
    zs = z.ravel() if order is None else z.ravel()[order]
    # t = z - (k/2)/t level by level, the quotient going to u
    t = zs.copy()
    u = np.empty_like(t) if t.size <= _OWN_QUOTIENT_MAX else t
    for k in range(top, 0, -1):
        if k in joins:
            m = joins[k]
            th, uh, zh = t[:m], u[:m], zs[:m]
        np.divide(0.5 * k, th, out=uh)
        np.subtract(zh, uh, out=th)
    np.divide(_I_SQRT_PI, t, out=u)
    if order is not None:  # one scatter back, into the spent gathered copy
        zs[order] = u
        u = zs
    return u.reshape(z.shape) if z.ndim else complex(u[0])


def laplace_rel_error(z, n_c, ref):
    """Componentwise worst relative error of the depth-n_c fraction vs ref.

    max(|Re - Re_ref|/|Re_ref|, |Im - Im_ref|/|Im_ref|); undefined (raises)
    when either reference component is zero.
    """
    ref = complex(ref)
    if ref.real == 0.0 or ref.imag == 0.0:
        raise ValueError("reference components must both be nonzero")
    approx = laplace_w(z, n_c)
    return max(
        abs(approx.real - ref.real) / abs(ref.real),
        abs(approx.imag - ref.imag) / abs(ref.imag),
    )
