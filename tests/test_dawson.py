import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dawson_maclaurin, rel_err, ulps
from voigtw.dawson import Q_TAIL, _LEVEL_OPS, _Q_COEFFS, dawson_cf, dawson_point, dawson_q, q_bin, q_point
from voigtw.oracle import dawson_q_table, ref_dawson
from voigtw.scheme import boundary_x_c, eval_w, select_params
from voigtw.taylor import eval_w_internal


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
        assert vec[i] == dawson_cf(x, 61) == dawson_point(x, 61)


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
            assert d == vec[i] == dawson_point(float(x), n_d)
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
    # the array fraction, one depth per call, against the scalar evaluator's
    # float loop point by point, at every depth up to the 1e-100 tables' 344:
    # both sides of the end of the array form's operand table, and well past it
    rng = np.random.default_rng(7)
    xs = rng.uniform(-25, 25, 8)
    assert len(_LEVEL_OPS) < 128
    for n in range(1, 345):
        d = dawson_cf(xs, n)
        assert [dawson_point(float(x), n) for x in xs] == d.tolist(), n
        assert dawson_cf(float(xs[n % 8]), n) == d[n % 8]
    # a 2-D and an empty call
    assert np.array_equal(dawson_cf(xs.reshape(2, 4), 61).ravel(), dawson_cf(xs, 61))
    assert dawson_cf(np.empty(0), 61).shape == (0,)


def test_huge_x_per_point_depths():
    # x past x_big, where the fraction gives way to 1/(2x), with each
    # depth's own x_big and its neighbours, next to points that stay inside
    for n in [1, 2, 9, 17, 54, 61, 150, 344]:
        x_big = 6.3e153 / np.sqrt(n)
        xs = np.array([x_big, np.nextafter(x_big, 0), np.nextafter(x_big, np.inf),
                       3e153, 4e152, 1e153, 1e300, np.finfo(float).max, 1.0, 5.0, 22.0, 0.0])
        xs = np.concatenate([xs, -xs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = dawson_cf(xs, n)
            for x, got in zip(xs.tolist(), d.tolist()):
                assert got == dawson_cf(x, n) == dawson_point(x, n), (x, n)


def test_rejects_bad_per_point_depth():
    # the fraction takes one depth for the whole call
    xs = np.array([0.5, 1.0, 2.0])
    for bad in ([6, 8, 6], [6, 0, 6], [8]):
        with pytest.raises(ValueError, match="positive integer"):
            dawson_cf(xs, np.array(bad))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            dawson_cf(np.array([1.0, bad, 2.0]), 8)


def _q_ulps(xs, q):
    """Worst error of q against the oracle's D(x)/x, in units of 2^-52."""
    worst = 0.0
    for x, v in zip(xs.tolist(), q.tolist()):
        ref = ref_dawson(x) / mp.mpf(x) if x else mp.mpf(1)
        worst = max(worst, rel_err(v, ref))
    return worst / ulps(1)


def test_q_within_3_ulp():
    # over the whole table, [0, Q_TAIL): a 0.0025 grid up to 17.5 and a
    # 0.01 grid beyond, random x, every bin edge and its neighbours, and
    # subnormal x
    rng = np.random.default_rng(12)
    edges = np.arange(_Q_COEFFS.shape[1] + 1) / 4
    xs = np.concatenate([
        np.arange(7000) * 0.0025,
        np.arange(1750, 8150) * 0.01,
        rng.uniform(0.0, Q_TAIL, 4000),
        edges[:-1], np.nextafter(edges[1:], 0), np.nextafter(edges[:-1], np.inf),
        [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308],
    ])
    assert xs.max() < Q_TAIL
    assert _q_ulps(xs, dawson_q(xs)) <= 3


def test_q_at_zero_is_one():
    assert dawson_q(0.0) == 1.0
    assert dawson_q(np.zeros(3)).tolist() == [1.0] * 3
    assert q_point(0.0) == 1.0
    # the series reads that Q: at x = 0 both paths give its sums with Q = 1
    k, l = eval_w_internal(np.zeros(3), 0.05, select_params(0.05))
    k0, l0 = eval_w(0.0, 0.05)
    assert k.tolist() == [k0] * 3 and l.tolist() == [l0] * 3 == [0.0] * 3


def test_q_point_matches_array():
    rng = np.random.default_rng(3)
    edges = np.arange(_Q_COEFFS.shape[1]) / 4
    xs = np.concatenate([edges, np.nextafter(edges[1:], 0), np.nextafter(edges, np.inf),
                         rng.uniform(0.0, Q_TAIL, 2000), [5e-324, np.nextafter(Q_TAIL, 0)]])
    q = dawson_q(xs)
    assert [q_point(x) for x in xs.tolist()] == q.tolist()
    assert np.array_equal(dawson_q(xs[:2000].reshape(40, 50)).ravel(), q[:2000])
    assert dawson_q(np.empty(0)).shape == (0,)
    # the last x below Q_TAIL reads the last bin
    assert q_bin(np.nextafter(Q_TAIL, 0)) == _Q_COEFFS.shape[1] - 1


def test_q_table_regenerates():
    # every bin from the multiprecision generator, bit for bit the package data
    assert np.array_equal(dawson_q_table(), _Q_COEFFS)
    assert _Q_COEFFS.shape == (12, 326) and _Q_COEFFS.flags.c_contiguous


def test_q_table_reaches_past_every_x_c():
    # the series' widest domain is |x| < x_c(5e-324), the smallest y > 0;
    # the table holds it and ends within one bin of it
    x_c = boundary_x_c(5e-324)
    assert x_c < Q_TAIL <= x_c + 0.25
