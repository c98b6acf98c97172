import numpy as np
import pytest

from conftest import rel_err
from voigtw.laplace import deepest_first, laplace_rel_error, laplace_w
from voigtw.oracle import ref_w
from voigtw.scheme import _laplace_point, boundary_z_c, external_depth


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
    assert all(vec[i] == laplace_w(complex(zs[i]), 6) == _laplace_point(zs[i], 6) for i in range(2))


def test_rejects_zero_and_bad_depth():
    zs = np.array([10 + 0.1j, 20 + 0.1j, 30 + 0.1j])
    with pytest.raises(ValueError):
        laplace_w(0j, 6)
    with pytest.raises(ValueError):
        laplace_w(zs * [1, 0, 1], np.array([6, 7, 8]))
    with pytest.raises(ValueError):
        laplace_w(1 + 1j, 0)
    for bad in ([6, 0, 6], [6, -3, 9]):
        with pytest.raises(ValueError):
            laplace_w(zs, np.array(bad))


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
    # the array kernel against the scalar evaluator's complex128 loop
    w = laplace_w(zs, depths)
    for z, d, got in zip(zs, depths, w):
        assert got == _laplace_point(complex(z), int(d)), (z, d)
    # a short call takes its quotients in a buffer of their own, a long one
    # in place; a one-element call gives the batch's value
    assert np.array_equal(laplace_w(zs[:200], depths[:200]), w[:200])
    for i in range(0, zs.size, 97):
        assert laplace_w(complex(zs[i]), int(depths[i])) == w[i]
    assert laplace_w(np.empty(0, dtype=complex), np.empty(0, dtype=int)).shape == (0,)


def test_deepest_first_joins_match_bincount():
    rng = np.random.default_rng(8)
    for _ in range(200):
        top = int(rng.integers(1, 300))
        size = int(rng.integers(1, 60))
        depth = rng.choice(rng.integers(1, top + 1, rng.integers(1, 6)), size)
        order, deepest, joins = deepest_first(depth, depth.shape)
        counts, want, m = np.bincount(depth), {}, 0
        for k in range(depth.max(), 0, -1):
            if counts[k]:
                m += counts[k]
                want[k] = m
        assert deepest == depth.max() and joins == want
        if order is not None:
            assert np.all(np.diff(depth[order]) <= 0)


class TestRelError:
    def test_exact_match_is_zero(self):
        ref = laplace_w(30 + 0.05j, 30)
        assert laplace_rel_error(30 + 0.05j, 30, ref) == 0.0

    def test_definition(self):
        ref = laplace_w(30 + 0.05j, 30)
        n = 30
        # perturb only the real part of the reference by 1e-10
        skew = complex(ref.real / (1 + 1e-10), ref.imag)
        assert laplace_rel_error(30 + 0.05j, n, skew) == pytest.approx(1e-10, rel=1e-4)

    def test_rejects_zero_component(self):
        with pytest.raises(ValueError):
            laplace_rel_error(10 + 0.1j, 6, complex(1.0, 0.0))


def test_tiny_y_convergence_stalls():
    # the small-y pathology: at |z| = 8, y = 1e-20 the fraction cannot get
    # below 1e-6 no matter the depth
    ref = complex(ref_w(8, 1e-20))
    assert laplace_rel_error(complex(8, 1e-20), 1000, ref) > 1e-6


def test_error_nonincreasing_in_depth():
    floor = 3e-16
    for z in [complex(8, 0.05), complex(12, 0.05), complex(40, 0.05)]:
        ref = complex(ref_w(z.real, z.imag))
        errs = [laplace_rel_error(z, n, ref) for n in (2, 4, 8, 16, 32, 64)]
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
        assert laplace_rel_error(complex(x, y), external_depth(r), ref) <= 1.5e-15
