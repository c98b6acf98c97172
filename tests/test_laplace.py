import tracemalloc

import numpy as np
import pytest

from conftest import rel_err
from voigtw.laplace import _HALF_K_VIEWS, _deepest_first, external_depth, laplace_point, laplace_w
from voigtw.oracle import ref_w, rel_errors
from voigtw.scheme import boundary_z_c


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
    # the numerators k/2 come from a table while it reaches, then as Python
    # floats: on both sides of its end and well past it, against the loop
    # that forms every k/2 as it goes
    end = len(_HALF_K_VIEWS)
    for d in (1, 2, end - 1, end, end + 1, 128, 200, 344):
        want = []
        for z in zs[:300].tolist():
            z = t = np.complex128(z)
            for k in range(d, 0, -1):
                t = z - (0.5 * k) / t
            want.append(1j / np.sqrt(np.pi) / t)
        assert laplace_w(zs[:300], d).tolist() == want, d
        assert [laplace_point(z, d) for z in zs[:300]] == want, d


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
