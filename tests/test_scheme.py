import inspect
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rel_err
from voigtw.laplace import laplace_w
from voigtw.scheme import (
    _EXT_DEPTH_EDGES,
    _EXT_DEPTHS,
    _PARAM_BANDS,
    boundary_z_c,
    eval_w,
    eval_w_batch,
    external_depth,
    select_params,
)
from voigtw.oracle import ref_w
from voigtw.taylor import SeriesParams, eval_w_internal


class TestBoundary:
    def test_spot_value_y01(self):
        assert boundary_z_c(0.1, 1e-16) == pytest.approx(6.6507, abs=0.01)

    def test_spot_value_1e100(self):
        # corroborates the calibration: 1e-100 accuracy needs |z| > 16.8
        assert boundary_z_c(1e-20, 1e-100) == pytest.approx(16.79, abs=0.01)

    def test_monotone_in_y(self):
        assert (
            boundary_z_c(1e-30, 1e-16)
            > boundary_z_c(1e-10, 1e-16)
            > boundary_z_c(0.1, 1e-16)
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.2])
    def test_rejects_bad_y(self, bad):
        with pytest.raises(ValueError):
            boundary_z_c(bad, 1e-16)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            boundary_z_c(0.05, 1e-30)


class TestSelectParams:
    @pytest.mark.parametrize(
        "y,level,want",
        [
            (1e-5, 1e-16, (2, 61, 6)),
            (0.05, 1e-16, (6, 61, 6)),
            (1e-3, 1e-100, (13, 254, 43)),
            (0.0, 1e-16, (1, 61, 6)),
            (0.1, 1e-16, (7, 61, 6)),
            (0.1, 1e-100, (16, 154, 22)),
        ],
    )
    def test_rows(self, y, level, want):
        assert select_params(y, level) == SeriesParams(*want)

    def test_every_band_boundary_both_tables(self):
        for level, bands in _PARAM_BANDS.items():
            for i, band in enumerate(bands[1:], start=1):
                lower = band[0]
                assert select_params(lower, level) == SeriesParams(*band[1:])
                below = np.nextafter(lower, 0)
                assert select_params(below, level) == SeriesParams(*bands[i - 1][1:])

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            select_params(0.11, 1e-16)
        with pytest.raises(ValueError):
            select_params(-1e-9, 1e-16)

    def test_rejects_level_without_table(self):
        with pytest.raises(ValueError):
            select_params(0.05, 1e-40)


def test_external_depth_steps():
    assert external_depth(6.7) == 21
    assert external_depth(25.0) == 6
    assert np.all(np.diff(external_depth(np.linspace(6.7, 40, 50))) <= 0)
    # the profile never falls below the tabulated N_C, so it needs no floor
    assert all(n_c <= _EXT_DEPTHS.min() for *_, n_c in _PARAM_BANDS[1e-16])


def test_evaluators_take_only_x_and_y():
    assert list(inspect.signature(eval_w_batch).parameters) == ["xs", "y"]
    assert list(inspect.signature(eval_w).parameters) == ["x", "y"]


class TestEvalW:
    def test_parity_exact(self):
        for x, y in [(1.3, 0.05), (40.0, 1e-8), (0.0, 0.02), (6.7, 1e-4)]:
            kp, lp = eval_w(x, y)
            km, lm = eval_w(-x, y)
            assert km == kp
            assert lm == -lp
        # x = -0.0 keeps its sign in L, on the axis and off it
        for y in (0.0, 1e-8, 0.05):
            kp, lp = eval_w(0.0, y)
            km, lm = eval_w(-0.0, y)
            assert km == kp
            assert np.signbit(lm) and not np.signbit(lp)

    @given(
        st.floats(min_value=1e-3, max_value=4000),
        st.sampled_from([1e-30, 1e-8, 1e-3, 0.1]),
    )
    @settings(max_examples=40, deadline=None)
    def test_parity_property(self, x, y):
        kp, lp = eval_w(x, y)
        km, lm = eval_w(-x, y)
        assert km == kp and lm == -lp

    def test_external_point_vs_oracle(self):
        ref = ref_w(100, 1e-10)
        k, l = eval_w(100, 1e-10)
        assert rel_err(k, ref.real) <= 1e-15
        assert rel_err(l, ref.imag) <= 1e-15

    def test_rejects_y_outside(self):
        with pytest.raises(ValueError):
            eval_w(1.0, 0.2)
        with pytest.raises(ValueError):
            eval_w(1.0, -1e-3)

    def test_rejects_nonfinite_x(self):
        with pytest.raises(ValueError):
            eval_w(np.inf, 0.05)

    def test_y0_uses_analytic_collapse(self):
        xs = np.linspace(0, 100, 50)
        k, l = eval_w_batch(xs, 0.0)
        assert np.array_equal(k, np.exp(-xs * xs))
        assert np.all(np.isfinite(l))

    @pytest.mark.parametrize("x", [1e153, 1e200, 1e300, 1.7976931348623157e308])
    def test_y0_huge_x(self, x):
        # D(x) = 1/(2x) in double precision, so L = 1/(sqrt(pi) |x|) to 1 ulp
        ref = 1 / (mp.sqrt(mp.pi) * x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sign in (1.0, -1.0):
                k, l = eval_w(sign * x, 0.0)
                assert k == 0.0
                assert abs(sign * l - ref) <= np.spacing(float(ref))


class TestBatch:
    def test_batch_matches_pointwise_bitwise(self):
        xs = np.array([-50.0, -1.0, 0.0, 0.5, 3.0, 6.6, 6.7, 8.0, 30.0, 4000.0])
        for y in (1e-30, 1e-8, 0.05, 0.1):
            kb, lb = eval_w_batch(xs, y)
            for i, x in enumerate(xs):
                ks, ls = eval_w(float(x), y)
                assert ks == kb[i] and ls == lb[i], (x, y)
        # one x in the middle of every external depth band, all in one
        # batch, so the radius profile sets a different depth per point;
        # the lowest band starts at z_c(0.1)
        edges = np.r_[boundary_z_c(0.1, 1e-16), _EXT_DEPTH_EDGES, 30.0]
        xs = (edges[:-1] + edges[1:]) / 2
        assert np.array_equal(external_depth(xs), _EXT_DEPTHS)
        for y in (1e-8, 0.05, 0.1):
            kb, lb = eval_w_batch(xs, y)
            for i, x in enumerate(xs):
                ks, ls = eval_w(float(x), y)
                assert ks == kb[i] and ls == lb[i], (x, y)

    def test_empty(self):
        k, l = eval_w_batch([], 0.05)
        assert k.size == 0 and l.size == 0

    def test_large_batch_finite_positive(self):
        rng = np.random.default_rng(11)
        xs = np.exp(rng.uniform(np.log(1e-3), np.log(4000), 10_000))
        k, l = eval_w_batch(xs, 1e-8)
        assert np.all(np.isfinite(k)) and np.all(np.isfinite(l))
        assert np.all(k > 0)
        # subsample against the oracle
        for i in range(0, 10_000, 997):
            ref = ref_w(float(xs[i]), 1e-8)
            assert rel_err(k[i], ref.real) <= 5e-13
            assert rel_err(l[i], ref.imag) <= 2e-15


def test_dispatch_continuity_subset():
    for y in (1e-4, 1e-10):
        z_c = boundary_z_c(y, 1e-16)
        params = select_params(y, 1e-16)
        for dr in np.linspace(-1e-6, 1e-6, 10):
            r = z_c + dr
            x = float(np.sqrt(r * r - y * y))
            ki, li = eval_w_internal(x, y, params)
            we = laplace_w(complex(x, y), max(external_depth(r), params.n_c))
            assert abs(ki - we.real) / abs(we.real) <= 1e-13
            assert abs(li - we.imag) / abs(we.imag) <= 1e-15


def test_fixed_22_split_equivalent():
    # dispatching at the constant radius 22 instead of z_c(y) stays within
    # the oracle-agreement tolerances on both branches
    for y in (1e-4, 0.05):
        z_c = boundary_z_c(y, 1e-16)
        params = select_params(y, 1e-16)
        for r in np.linspace(z_c + 0.05, 21.9, 12):
            x = float(np.sqrt(r * r - y * y))
            ki, li = eval_w_internal(x, y, params)
            we = laplace_w(complex(x, y), max(external_depth(r), params.n_c))
            assert abs(ki - we.real) / abs(we.real) <= 5e-13
            assert abs(li - we.imag) / abs(we.imag) <= 2e-15


def _bits(v):
    return np.asarray(v, dtype=np.float64).view(np.uint64)


# The whole accepted input contract: y = 0 or log-uniform down to the
# smallest subnormal, |x| = 0, the smallest subnormal, or log-uniform up
# to 1.7e308, either sign.
_Y = st.one_of(
    st.just(0.0),
    st.floats(math.log(5e-324), math.log(0.1)).map(
        lambda u: min(max(math.exp(u), 5e-324), 0.1)
    ),
)
_AX = st.one_of(
    st.sampled_from([0.0, 5e-324]),
    st.floats(math.log(1e-300), math.log(1.7e308)).map(math.exp),
)
_X = st.tuples(_AX, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@given(st.lists(_X, min_size=1, max_size=6), _Y)
@settings(max_examples=200, deadline=None)
def test_input_contract_property(xs, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kb, lb = eval_w_batch(xs, y)
        assert np.all(np.isfinite(kb)) and np.all(np.isfinite(lb))
        for i, x in enumerate(xs):
            k, l = eval_w(x, y)
            km, lm = eval_w(-x, y)
            assert _bits(k) == _bits(kb[i]) and _bits(l) == _bits(lb[i]), (x, y)
            assert _bits(km) == _bits(k) and _bits(lm) == _bits(-l), (x, y)
