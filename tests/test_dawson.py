import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dawson_maclaurin, rel_err, ulps
from voigtw.dawson import _BIN_DEPTH, _BINS_PER_UNIT, dawson_cf, dawson_depth
from voigtw.oracle import ref_dawson
from voigtw.scheme import _dawson_point


def test_zero():
    assert dawson_cf(0.0, 61) == 0.0


def test_at_one():
    # frozen from the Maclaurin/ODE oracle (also matched by erfi)
    assert rel_err(dawson_cf(1.0, 61), 0.5380795069127684) <= ulps(2)


def test_at_ten():
    assert rel_err(dawson_cf(10.0, 61), 0.05025384718759853) <= ulps(2)


def test_odd_symmetry_exact():
    xs = np.linspace(-22, 22, 401)
    assert np.array_equal(dawson_cf(-xs, 61), -dawson_cf(xs, 61))


@given(st.floats(min_value=1e-8, max_value=22), st.sampled_from([8, 61]))
@settings(max_examples=50, deadline=None)
def test_odd_symmetry_property(x, n_d):
    assert dawson_cf(-x, n_d) == -dawson_cf(x, n_d)


def test_two_dawson_oracles_agree():
    for x in [0.25, 1.0, 3.0, 10.0, 22.0]:
        a = dawson_maclaurin(x)
        b = ref_dawson(x)
        assert float(abs(a - b) / abs(b)) < 1e-35


def test_accuracy_grid_n61():
    xs = np.concatenate(
        [np.linspace(0.01, 22, 150), np.logspace(-6, np.log10(22), 150)]
    )
    vals = dawson_cf(xs, 61)
    worst = max(rel_err(v, ref_dawson(x)) for x, v in zip(xs, vals))
    assert worst <= ulps(2)


def test_monotone_refinement():
    xs = np.linspace(0.05, 22, 120)
    errs = []
    for n_d in (8, 16, 32, 64):
        vals = dawson_cf(xs, n_d)
        errs.append(max(rel_err(v, ref_dawson(x)) for x, v in zip(xs, vals)))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + ulps(1)


def test_vectorized_matches_scalar():
    xs = np.array([0.3, 1.7, 9.2])
    vec = dawson_cf(xs, 61)
    for i, x in enumerate(xs.tolist()):
        assert vec[i] == dawson_cf(x, 61) == _dawson_point(x, 61)


@pytest.mark.parametrize("n_d", [1, 61, 344])
def test_huge_x_finite_and_asymptotic(n_d):
    # far out 4 n_d x^2 overflows; there D(x) = 1/(2x) in double precision
    xs = np.array([1e100, 4e152, 1e153, 1e200, 1e300, np.finfo(float).max])
    xs = np.concatenate([xs, -xs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = dawson_cf(np.r_[xs, 0.0, 1.0], n_d)
        for i, x in enumerate(xs):
            d = dawson_cf(float(x), n_d)
            assert d == vec[i] == _dawson_point(float(x), n_d)
            assert rel_err(d, 0.5 / x) <= ulps(1)
    assert vec[-2] == 0.0 and vec[-1] == dawson_cf(1.0, n_d)


@pytest.mark.parametrize("bad", [0, -1])
def test_rejects_bad_depth(bad):
    with pytest.raises(ValueError):
        dawson_cf(1.0, bad)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        dawson_cf(bad, 61)


def test_per_point_depth_matches_scalar_depth_bitwise():
    # the array kernel against the scalar evaluator's float loop, at every
    # depth up to the 1e-100 tables' 344
    rng = np.random.default_rng(7)
    depths = rng.permutation(np.repeat(np.arange(1, 345), 8))
    xs = rng.uniform(-25, 25, depths.size)
    d = dawson_cf(xs, depths)
    for x, n, got in zip(xs, depths, d):
        assert got == _dawson_point(float(x), int(n)), (x, n)
    # a one-element call, a shorter one and a 2-D one give the batch's values
    for i in range(0, depths.size, 97):
        assert dawson_cf(xs[i : i + 1], depths[i : i + 1])[0] == d[i]
        assert dawson_cf(float(xs[i]), int(depths[i])) == d[i]
    assert np.array_equal(dawson_cf(xs[:200], depths[:200]), d[:200])
    assert np.array_equal(dawson_cf(xs.reshape(8, -1), depths.reshape(8, -1)).ravel(), d)
    assert np.array_equal(dawson_cf(xs, 61), [_dawson_point(float(x), 61) for x in xs])
    assert dawson_cf(np.empty(0), np.empty(0, dtype=int)).shape == (0,)
    assert dawson_cf(np.empty(0), 61).shape == (0,)
    # every profile bin edge and its neighbours at the profile's depth, and
    # x past x_big, where the fraction gives way to 1/(2x), with each
    # depth's own x_big and its neighbours
    edges = np.arange(1, _BIN_DEPTH.size + 1) / _BINS_PER_UNIT
    xs = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    xs = np.concatenate([xs, -xs, [3e153, -8.1e152, 1e200, np.finfo(float).max]])
    depths = np.concatenate([dawson_depth(xs[:-4]), [8, 61, 1, 344]])
    big_n = np.array([1, 2, 61, 150, 344])
    x_big = 6.3e153 / np.sqrt(big_n)
    for near in (x_big, np.nextafter(x_big, 0), np.nextafter(x_big, np.inf)):
        xs = np.concatenate([xs, near, -near])
        depths = np.concatenate([depths, big_n, big_n])
    d = dawson_cf(xs, depths)
    for x, n, got in zip(xs, depths, d):
        assert got == _dawson_point(float(x), int(n)), (x, n)


def test_rejects_bad_per_point_depth():
    xs = np.array([0.5, 1.0, 2.0])
    for bad in ([6, 0, 6], [6, -3, 9]):
        with pytest.raises(ValueError, match="positive"):
            dawson_cf(xs, np.array(bad))
    for shape in ((2,), (3, 1), (1, 3)):
        with pytest.raises(ValueError, match="one depth per point"):
            dawson_cf(xs, np.full(shape, 8))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            dawson_cf(np.array([1.0, bad, 2.0]), np.array([8, 9, 10]))


def test_huge_x_per_point_depths():
    xs = np.array([1e300, -4e152, 1.0, 1e153, 5.0, -np.finfo(float).max, 0.0, 22.0])
    depths = np.array([1, 61, 17, 344, 54, 2, 9, 61])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vec = dawson_cf(xs, depths)
        for x, n, got in zip(xs, depths, vec):
            assert got == dawson_cf(float(x), int(n)) == _dawson_point(float(x), int(n)), (x, n)


def test_depth_profile_lookup():
    edges = np.arange(1, _BIN_DEPTH.size) / _BINS_PER_UNIT
    # every bin edge starts the next bin; below it the previous one holds
    assert np.array_equal(dawson_depth(edges), _BIN_DEPTH[1:])
    assert np.array_equal(dawson_depth(np.nextafter(edges, 0)), _BIN_DEPTH[:-1])
    assert np.array_equal(dawson_depth(-edges), dawson_depth(edges))
    assert type(dawson_depth(5.0)) is int and dawson_depth(0.0) == _BIN_DEPTH[0]
    tail = [81.3, 1e6, 1e300, np.finfo(float).max, np.inf, np.nan]
    assert np.all(dawson_depth(tail) == _BIN_DEPTH[-1])
    assert dawson_depth(np.zeros((2, 3))).shape == (2, 3)
    assert dawson_depth(np.empty(0)).shape == (0,)
    # the internal branch uses fewer levels than the tabulated 61 everywhere
    assert _BIN_DEPTH.max() < 61


def test_depth_profile_within_3_ulp():
    # every bin edge and its neighbours, then a grid out past x = 81, where
    # z_c(y) extrapolates for the smallest subnormal y
    edges = np.arange(1, _BIN_DEPTH.size + 1) / _BINS_PER_UNIT
    xs = np.concatenate(
        [edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), np.linspace(1e-3, 90, 700)]
    )
    vals = dawson_cf(xs, dawson_depth(xs))
    worst = max(rel_err(v, ref_dawson(x)) for x, v in zip(xs, vals))
    assert worst <= ulps(3)
