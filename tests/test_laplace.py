import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conftest import rel_err
from voigtw.laplace import (
    _EXT_DEPTH_EDGES, _LEVEL_VIEWS, _deepest_first, external_depth, laplace_point, laplace_w,
)
from voigtw.oracle import ref_w, rel_errors
from voigtw.scheme import boundary_x_c, boundary_z_c, eval_w, eval_w_batch


def test_large_z_leading_term():
    z = complex(1000, 0.1)
    w = laplace_w(z, 6)
    assert type(w) is complex
    leading = 1j / (np.sqrt(np.pi) * z)
    assert abs(w - leading) / abs(w) <= 1e-5
    ref = ref_w(1000, 0.1)
    assert rel_err(w.real, ref.real) <= 2.5e-16
    assert rel_err(w.imag, ref.imag) <= 2.5e-16


def test_pure_imaginary_matches_erfcx():
    # w(iy) = exp(y^2) erfc(y); frozen from the multiprecision oracle
    w = laplace_w(10j, 65)
    assert w.imag == 0.0
    assert rel_err(w.real, 0.05614099274382259) <= 2.5e-16


def test_conjugate_parity_exact():
    zs = np.array([3 + 0.1j, 8 + 1e-5j, 100 + 1e-20j, 17.2 + 0.03j])
    assert np.array_equal(laplace_w(-zs.conj(), 16), laplace_w(zs, 16).conj())


def test_vectorized_matches_scalar():
    zs = np.array([25 + 0.1j, 300 + 1e-8j])
    vec = laplace_w(zs, 6)
    assert all(vec[i] == laplace_w(complex(zs[i]), 6) == laplace_point(zs[i], 6) for i in range(2))


def test_rejects_zero_and_bad_depth():
    zs = np.array([10 + 0.1j, 20 + 0.1j, 30 + 0.1j])
    # z = 0, and z with an inf or NaN part, alone and inside an array
    nan, inf = float("nan"), float("inf")
    for bad in (0j, complex(nan, 0.1), complex(10, nan), complex(inf, inf), complex(inf, 0),
                complex(-inf, 0.1), complex(10, inf)):
        with pytest.raises(ValueError):
            laplace_w(bad, 6)
        with pytest.raises(ValueError):
            laplace_w(np.r_[zs[:2], bad, zs[2:]], 6)
    # the fraction takes one positive integer depth for the whole call
    for bad in (6.5, 6.0, 0, -3, np.array([6, 7, 8])):
        with pytest.raises(ValueError, match="n_c"):
            laplace_w(zs, bad)
    assert np.array_equal(laplace_w(zs, np.int64(6)), laplace_w(zs, 6))


def test_per_point_depth_matches_scalar_depth_bitwise():
    rng = np.random.default_rng(5)
    depths = rng.permutation(np.repeat(np.arange(1, 66), 40))
    zs = rng.uniform(-300, 300, depths.size) + 1j * np.exp(
        rng.uniform(np.log(1e-30), np.log(0.1), depths.size)
    )
    # far out and close to the real axis: |z| up to 1e300, Im z down to 5e-324
    far = rng.choice([-1.0, 1.0], 400) * np.exp(rng.uniform(np.log(300), np.log(1e300), 400))
    tiny = np.exp(rng.uniform(np.log(5e-324), np.log(0.1), 400))
    zs = np.r_[zs, far + 1j * tiny, [1e300 + 5e-324j, -7.0 + 5e-324j]]
    depths = np.r_[depths, rng.integers(1, 66, 400), 65, 21]
    # one depth per call, the array kernel against the scalar evaluator's
    # complex128 loop at the points drawn for that depth
    for d in range(1, 66):
        w = laplace_w(zs, d)
        for i in np.flatnonzero(depths == d):
            assert w[i] == laplace_point(complex(zs[i]), d), (zs[i], d)
        # a short call takes its quotients in a buffer of their own, a long
        # one in place; a one-element call gives the batch's value
        assert np.array_equal(laplace_w(zs[:200], d), w[:200])
        for i in range(d, zs.size, 97):
            assert laplace_w(complex(zs[i]), d) == w[i]
    assert laplace_w(np.empty(0, dtype=complex), 6).shape == (0,)
    # b_j and c_j come from a table while it reaches, then as Python floats:
    # on both sides of its end and well past it, against the paired levels
    # with every b_j and c_j formed as they go
    end = 2 * len(_LEVEL_VIEWS)  # the least depth past the table
    for d in (1, 2, 63, 64, 65, end - 1, end, end + 1, 128, 200, 344):
        want = []
        for z in zs[:300].tolist():
            x, y = z.real, z.imag
            r = np.complex128(0.5)
            if d > 1:
                zz = np.complex128(complex(x * x - y * y, x * (2 * y)))
                t = zz - (4 * (d // 2) + 1) / 2
                for j in range(d // 2 - 1, 0, -1):
                    t = zz - ((4 * j + 1) / 2 + (j + 1) * (2 * j + 1) / 2 / t)
                r = 0.5 + 0.5 / t
            want.append(1j / np.sqrt(np.pi) / (z - r / z))
        assert laplace_w(zs[:300], d).tolist() == want, d
        assert [laplace_point(z, d) for z in zs[:300].tolist()] == want, d


def _cdiv(p, q):
    """p / q for complex numbers held as pairs of Fractions, exactly."""
    (a, b), (c, d) = p, q
    den = c * c + d * d
    return (a * c + b * d) / den, (b * c - a * d) / den


@pytest.mark.parametrize("seed", range(3))
def test_paired_levels_are_the_odd_depth_fraction(seed):
    # in exact rationals, m paired levels behind the plain outer level equal
    # the plain fraction's depth-(2m - 1) convergent, for m = 1..33
    rng = np.random.default_rng(seed)
    z = (Fraction(int(rng.integers(-400, 400)), int(rng.integers(1, 40))),
         Fraction(int(rng.integers(-40, 40)), int(rng.integers(1, 400))))
    x, y = z
    zz = (x * x - y * y, 2 * x * y)
    for m in range(1, 34):
        plain = z
        for k in range(2 * m - 1, 0, -1):
            q = _cdiv((Fraction(k, 2), 0), plain)
            plain = (z[0] - q[0], z[1] - q[1])
        r = (Fraction(1, 2), 0)
        if m > 1:
            t = (zz[0] - Fraction(4 * (m - 1) + 1, 2), zz[1])
            for j in range(m - 2, 0, -1):
                q = _cdiv((Fraction((j + 1) * (2 * j + 1), 2), 0), t)
                t = (zz[0] - Fraction(4 * j + 1, 2) - q[0], zz[1] - q[1])
            q = _cdiv((Fraction(1, 2), 0), t)
            r = (Fraction(1, 2) + q[0], q[1])
        q = _cdiv(r, z)
        assert (z[0] - q[0], z[1] - q[1]) == plain, m


def test_even_depth_runs_the_next_odd_depth():
    rng = np.random.default_rng(11)
    zs = rng.uniform(-300, 300, 500) + 1j * np.exp(rng.uniform(np.log(1e-30), np.log(0.1), 500))
    for k in range(1, 40):
        assert np.array_equal(laplace_w(zs, 2 * k), laplace_w(zs, 2 * k + 1)), k
    assert laplace_w(30 + 0.05j, 6) == laplace_w(30 + 0.05j, 7)


def test_overflowing_z_squared():
    # where x x - y y overflows T is infinite, and where x (2y) does the
    # paired levels are skipped: either way R = 1/2, at every depth, with
    # no warning and the same bits from the scalar form
    zs = [1.79e308 + 0.1j, -1e300 + 5e-324j, 1e200 - 0.3j, 1e5 + 1e300j, 1e154 + 1e154j,
          1e5 + 1e304j, 1e200 + 1e200j, -1e160 + 1e155j, 1e308j, -1e308j, 1.79e308 + 1e300j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1, 2, 6, 21, 65, 200):
            w = laplace_w(np.array(zs), d)
            assert np.isfinite(w).all() and np.array_equal(w, laplace_w(np.array(zs), 1)), d
            assert w.tolist() == [laplace_point(z, d) for z in zs], d
            assert laplace_w(np.array([30 + 0.1j, *zs]), d)[1:].tolist() == w.tolist(), d


def _points_at_every_step(y, rng, per_step):
    """Seeded x outside x_c(y) in every step of the depth profile it reaches, and the step's edges."""
    edges = [boundary_x_c(y), *_EXT_DEPTH_EDGES[_EXT_DEPTH_EDGES > boundary_x_c(y)], 1e6]
    xs = [edges[:-1]]
    for lo, hi in zip(edges, edges[1:]):
        xs.append(np.exp(rng.uniform(np.log(lo), np.log(hi), per_step)))
    return np.concatenate(xs)


@pytest.mark.parametrize("y", [1e-8, 1e-3, 0.05, 0.1, 5e-324])
def test_external_branch_matches_pointwise_at_every_level_count(y):
    # every level count from x_c(y) on in one call (1..11 from y = 0.05
    # up), mixed with series points, shuffled and signed, out to |x| =
    # 1.79e308, through calls of 1, 200, 2047-2049 and 16384 points
    rng = np.random.default_rng(int(-np.log10(y)))
    xs = _points_at_every_step(y, rng, 900)
    xs = np.r_[xs, np.exp(rng.uniform(np.log(1e6), np.log(1.79e308), 400)), 1.79e308,
               rng.uniform(0.0, boundary_x_c(y), 1000)]
    xs = rng.permutation(np.resize(xs, 16384)) * rng.choice([-1.0, 1.0], 16384)
    outside = np.abs(xs)[np.abs(xs) >= boundary_x_c(y)]
    counts = external_depth(outside) // 2 + 1
    assert set(counts.tolist()) == set(range(1, external_depth(boundary_x_c(y)) // 2 + 2))
    out = eval_w_batch(xs, y)
    for i in range(xs.size):
        assert tuple(eval_w(float(xs[i]), y)) == (out.k[i], out.l[i]), (xs[i], y)
    for n in (1, 200, 2047, 2048, 2049):
        part = eval_w_batch(xs[:n], y)
        assert np.array_equal(part.k, out.k[:n]) and np.array_equal(part.l, out.l[:n]), n


@pytest.mark.parametrize("y", [1e-8, 1e-3, 0.1])
def test_accurate_at_every_depth_step(y):
    # the calibrated depths, rounded up to odd, keep the fraction within
    # the bound of test_accurate_beyond_boundary_with_calibrated_depth over
    # every step of the profile
    xs = _points_at_every_step(y, np.random.default_rng(3), 3)
    for x in xs.tolist():
        ref = complex(ref_w(x, y))
        assert max(rel_errors(complex(*eval_w(x, y)), ref)) <= 1.5e-15, x


@pytest.mark.parametrize("fraction", [laplace_w, laplace_point])
def test_deep_fraction_memory_stays_bounded(fraction):
    # past the numerator table the levels are made one at a time, and
    # laplace_w's prefixes are one repeated size, so one point at depth
    # 20000 holds no per-level object
    fraction(3 + 0.1j, 20000)
    tracemalloc.start()
    try:
        fraction(3 + 0.1j, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_far_divide_near_the_largest_floats():
    # with both parts of z near 1e308 a plain divide's Smith denominator
    # overflows and w read +-0; the scaled divide gives (i/sqrt(pi))/z,
    # w to double precision there, within half a subnormal step (2^-1075,
    # which rel_errors' 2^-1022 floor reads as 2^-53) at every depth
    zs = [1.2e308 - 1.2e308j, 9e307 + 9e307j, -1.7e308 + 1.7e308j]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (1, 6, 65):
            w = laplace_w(np.array(zs), d)
            for z, v in zip(zs, w.tolist()):
                ref = mp.mpc(0, 1) / mp.sqrt(mp.pi) / mp.mpc(z)
                assert v.real != 0.0 and v.imag != 0.0, (z, d)
                assert max(rel_errors(v, ref)) <= 2.0**-53, (z, d)
                assert laplace_w(z, d) == v, (z, d)


def test_deepest_first_prefixes_match_bincount():
    # the external branch's rows: int8, depths 1..21, never empty
    rng = np.random.default_rng(8)
    rows = [np.full(1, 7, np.int8), np.full(50, 21, np.int8),
            rng.integers(1, 22, 16384).astype(np.int8)]
    for _ in range(200):
        size = int(rng.integers(1, 60))
        rows.append(rng.choice(rng.integers(1, 22, rng.integers(1, 6)), size).astype(np.int8))
    for depth in rows:
        order, ends = _deepest_first(depth)
        # ends[i] counts the points of depth >= top - i, top the greatest depth
        assert ends == np.cumsum(np.bincount(depth)[:0:-1]).tolist()
        assert np.array_equal(order, np.argsort(~depth.astype(np.uint8), kind="stable"))


def test_tiny_y_convergence_stalls():
    # the small-y pathology: at |z| = 8, y = 1e-20 the fraction cannot get
    # below 1e-6 no matter the depth
    ref = complex(ref_w(8, 1e-20))
    assert max(rel_errors(laplace_w(complex(8, 1e-20), 1000), ref)) > 1e-6


def test_error_nonincreasing_in_depth():
    floor = 3e-16
    for z in [complex(8, 0.05), complex(12, 0.05), complex(40, 0.05)]:
        ref = complex(ref_w(z.real, z.imag))
        errs = [max(rel_errors(laplace_w(z, n), ref)) for n in (2, 4, 8, 16, 32, 64)]
        for prev, nxt in zip(errs, errs[1:]):
            assert nxt <= prev + floor


def test_accurate_beyond_boundary_with_calibrated_depth():
    # the dispatch premise: outside z_c(y) the fraction reaches the double
    # precision floor once given the calibrated depth for its radius
    y = 0.05
    z_c = boundary_z_c(y, 1e-16)
    for r in np.linspace(z_c, 30, 25):
        x = np.sqrt(r * r - y * y)
        ref = complex(ref_w(x, y))
        assert max(rel_errors(laplace_w(complex(x, y), external_depth(r)), ref)) <= 1.5e-15
