import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dawson_maclaurin, rel_err, ulps
from voigtw.dawson import dawson_cf
from voigtw.oracle import ref_dawson


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
    assert all(vec[i] == dawson_cf(float(xs[i]), 61) for i in range(3))


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
            assert d == vec[i]
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
