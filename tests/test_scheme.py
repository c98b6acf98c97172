import inspect
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rel_err
from voigtw.laplace import _EXT_DEPTH_EDGES, _EXT_DEPTHS, laplace_w
from voigtw.scheme import (
    _BOUNDARY_CUBICS,
    _PARAM_BANDS,
    _y_record,
    boundary_x_c,
    boundary_z_c,
    eval_w,
    eval_w_batch,
    external_depth,
    point_branch,
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


def test_both_level_lookups_accept_the_same_levels():
    # a level either has a cubic and bands or neither: both lookups agree
    for level in {*_BOUNDARY_CUBICS, *_PARAM_BANDS}:
        assert boundary_z_c(0.05, level) > 0.0
        assert select_params(0.05, level).n >= 1
    for level in (1e-20, 1e-30, 1e-40, 1e-60, 1e-80, 1e-15, 1e-17, 0.0):
        with pytest.raises(ValueError):
            boundary_z_c(0.05, level)
        with pytest.raises(ValueError):
            select_params(0.05, level)


@pytest.mark.parametrize("y", [5e-324, 1e-300, 1e-100, 1e-8, 0.05, 0.1])
def test_split_at_x_c_is_the_hypot_rule(y):
    # dispatch tests x < x_c(y); around x_c it must send every point where
    # hypot(x, y) < z_c(y) sends it, and evaluate it on that branch
    z_c, x_c = boundary_z_c(y), boundary_x_c(y)
    below, above = [x_c], [x_c]
    for _ in range(3):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], np.inf))
    xs = np.array(below[:0:-1] + above)
    params = select_params(y)
    k, l = eval_w_batch(xs, y)
    for x, kb, lb in zip(xs, k, l):
        inside = np.hypot(x, y) < z_c
        assert inside == (x < x_c)
        assert point_branch(x, y)[0] == ("internal" if inside else "external")
        if inside:
            want = eval_w_internal(float(x), y, params)
        else:
            w = laplace_w(complex(x, y), external_depth(x))
            want = (w.real, w.imag)
        assert (kb, lb) == tuple(want), (x, y)


def test_x_c_is_the_hypot_rule_at_dense_y():
    # x_c is the least x with np.hypot(x, y) >= z_c(y), the rule the tests
    # above check point by point.  At the last five y a search on
    # math.hypot, correctly rounded where glibc 2.36's hypot is not always,
    # ends one step higher
    ys = np.exp(np.random.default_rng(13).uniform(np.log(5e-324), np.log(0.1), 2000)).tolist()
    ys += [0.07615185995053753, 0.08332003705372187, 0.09988637816653, 0.07576568776628242,
           0.0322730460053709]
    for y in ys:
        z_c, x_c = boundary_z_c(y), boundary_x_c(y)
        assert np.hypot(x_c, y) >= z_c > np.hypot(np.nextafter(x_c, 0), y), y


def test_point_branch_reports_the_depth_used():
    assert point_branch(-3.0, 0.0) == ("axis", "dawson_depth", 61)
    # inside z_c: the Dawson polynomial's bin, out to the last x inside
    # z_c at the smallest y
    assert point_branch(-1.0, 0.05) == ("internal", "dawson_bin", 4)
    assert point_branch(0.0, 0.05) == ("internal", "dawson_bin", 0)
    assert point_branch(np.nextafter(17.5, 0), 1e-300) == ("internal", "dawson_bin", 69)
    assert point_branch(17.5, 1e-300) == ("internal", "dawson_bin", 70)
    assert point_branch(np.nextafter(boundary_x_c(5e-324), 0), 5e-324) == ("internal", "dawson_bin", 325)
    # outside it, the depth at |x|
    assert point_branch(30.0, 0.01) == ("external", "laplace_depth", 6)
    assert point_branch(-1e300, 1e-300) == ("external", "laplace_depth", 1)


@pytest.mark.parametrize("y", [0.0, 1e-3])
@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
def test_point_branch_rejects_what_eval_w_rejects(x, y):
    for f in (point_branch, eval_w):
        with pytest.raises(ValueError, match="x must be finite"):
            f(x, y)
    # y is checked before x
    for bad_y in (-1e-3, 0.2, np.nan):
        for f in (point_branch, eval_w):
            with pytest.raises(ValueError, match=r"y must lie in \[0, 0.1\]"):
                f(x, bad_y)


@pytest.mark.parametrize(
    "y",
    [np.float32(0.05), np.float32(1e-8), np.float32(0.0), np.float16(0.05), np.float16(1e-3),
     np.array(0.05), np.array(1e-30)],
)
def test_narrow_or_0d_y_acts_as_its_float(y):
    # a float32 y once stalled the x_c search: the hypot ran in float32
    fy = float(y)
    xs = np.r_[0.0, -1.0, 2.5, 30.0, -4000.0]
    if fy > 0.0:
        x_c = boundary_x_c(fy)
        assert boundary_x_c(y) == x_c
        xs = np.r_[xs, x_c, np.nextafter(x_c, 0), -np.nextafter(x_c, np.inf)]
    got, want = eval_w_batch(xs, y), eval_w_batch(xs, fy)
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    for x, k, l in zip(xs, *want):
        assert _bits(eval_w(x, y)).tolist() == _bits((k, l)).tolist(), (x, y)
        assert point_branch(x, y) == point_branch(x, fy)


def test_y_record_is_bounded():
    _y_record.cache_clear()
    for y in np.linspace(1e-4, 0.1, 1000):
        eval_w(1.0, float(y))
    info = _y_record.cache_info()
    assert info.misses == 1000
    assert info.currsize <= 128
    eval_w(2.0, 0.1)
    assert _y_record.cache_info().hits == info.hits + 1


def test_repeated_y_batch_neither_folds_nor_searches(monkeypatch):
    import voigtw.scheme as scheme

    calls = {"build_y_coefficients": 0, "boundary_x_c": 0}

    def counted(name):
        f = getattr(scheme, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(scheme, name, wrapper)

    counted("build_y_coefficients")
    counted("boundary_x_c")
    xs = np.array([0.5, -3.0, 30.0])  # both branches: the mixed path
    _y_record.cache_clear()
    try:
        first = eval_w_batch(xs, 0.05)
        assert calls == {"build_y_coefficients": 1, "boundary_x_c": 1}
        calls.update(dict.fromkeys(calls, 0))
        for x in (xs, xs[:1], xs[2:]):  # mixed, all internal, all external
            eval_w_batch(x, 0.05)
        again = eval_w_batch(xs, 0.05)
        assert calls == {"build_y_coefficients": 0, "boundary_x_c": 0}
        assert _bits(again).tolist() == _bits(first).tolist()
    finally:
        _y_record.cache_clear()


def test_external_depth_steps():
    assert external_depth(6.7) == 21
    assert external_depth(25.0) == 6
    assert external_depth(60.0) == 5
    # the log-bin lookup takes the step searchsorted takes on the edges,
    # at every edge and its neighbours and beyond the last one; -0.0 counts as 0
    e = _EXT_DEPTH_EDGES
    r = np.concatenate(
        [e, np.nextafter(e, 0), np.nextafter(e, np.inf),
         [0.0, -0.0, 5e-324, 6.6, 40.0, 1e5, 1e300, np.inf]]
    )
    assert np.array_equal(external_depth(r), _EXT_DEPTHS[np.searchsorted(e, r, side="right")])
    assert [external_depth(float(v)) for v in r] == external_depth(r).tolist()
    # the profile never rises, so the depth at |x| is at least the depth at |z|
    xs = np.r_[0.0, np.geomspace(1e-300, 1e300, 20001)]
    depth = external_depth(xs)
    assert np.all(np.diff(depth) <= 0)
    for y in (5e-324, 1e-8, 1e-3, 0.1):
        assert np.all(depth >= external_depth(np.hypot(xs, y)))


@pytest.mark.parametrize("bad", [-1.0, -1e300, np.nan, np.array([3.0, -2.0, 40.0])])
def test_external_depth_rejects_what_is_not_a_radius(bad):
    with pytest.raises(ValueError):
        external_depth(bad)


@pytest.mark.parametrize("step", range(15, len(_EXT_DEPTHS)))
def test_far_field_step_is_as_accurate_as_n_c(step):
    # seeded external points over one far-field step, y log-uniform on
    # [1e-300, 0.1]: at the step's depth their worst and mean K and L errors
    # against the oracle are no worse than at the paper's N_C = 6
    lo = _EXT_DEPTH_EDGES[step - 1]
    hi = _EXT_DEPTH_EDGES[step] if step < _EXT_DEPTH_EDGES.size else 1e300
    rng = np.random.default_rng(step)
    errors = []
    for _ in range(30):
        y = math.exp(rng.uniform(math.log(1e-300), math.log(0.1)))
        x = math.exp(rng.uniform(math.log(max(lo, boundary_x_c(y))), math.log(hi)))
        assert point_branch(x, y) == ("external", "laplace_depth", _EXT_DEPTHS[step])
        k, l = eval_w(x, y)
        w = laplace_w(complex(x, y), 6)
        ref = ref_w(x, y)
        # far out at tiny y, K underflows to 0 at either depth
        errors.append([rel_err(k, ref.real), rel_err(l, ref.imag), rel_err(w.real, ref.real), rel_err(w.imag, ref.imag)])
    worst, mean = np.max(errors, axis=0), np.mean(errors, axis=0)
    assert np.all(worst[:2] <= worst[2:]) and np.all(mean[:2] <= mean[2:])


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

    @pytest.mark.parametrize(
        "x, y, branch",
        [(2.0, 0.05, "internal"), (2.0, 5e-324, "internal"), (0.0, 0.05, "internal"),
         (30.0, 0.05, "external"), (100.0, 5e-324, "external"), (3.0, 0.0, "axis"), (0.0, 0.0, "axis")],
    )
    def test_returns_python_floats(self, x, y, branch):
        # the scalar path runs on floats to the end: np.float64 is a float
        # subclass, so only the exact type tells it apart
        for sx in (x, -x):
            assert point_branch(sx, y)[0] == branch
            k, l = eval_w(sx, y)
            assert type(k) is float and type(l) is float, (sx, y)

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
        # the lowest band starts at z_c(0.1), the last one is closed at 1e5
        edges = np.r_[boundary_z_c(0.1, 1e-16), _EXT_DEPTH_EDGES, 1e5]
        xs = (edges[:-1] + edges[1:]) / 2
        assert np.array_equal(external_depth(xs), _EXT_DEPTHS)
        # then every edge and its neighbours, where the batch's bins and the
        # scalar's bisection of the edges must take the same step
        e = _EXT_DEPTH_EDGES
        for xs in (xs, np.r_[e, np.nextafter(e, 0), np.nextafter(e, np.inf)]):
            for y in (1e-300, 1e-8, 0.05, 0.1):
                kb, lb = eval_w_batch(np.r_[xs, -xs], y)
                for i, x in enumerate(np.r_[xs, -xs]):
                    ks, ls = eval_w(float(x), y)
                    assert ks == kb[i] and ls == lb[i], (x, y)
        # x_c(y) and its neighbours in a mixed batch, then one batch all
        # inside and one all outside, which skip the gather and scatter
        for y in (5e-324, 1e-30, 1e-8, 0.05, 0.1):
            x_c = boundary_x_c(y)
            near = np.array([x_c, np.nextafter(x_c, 0), np.nextafter(x_c, np.inf)])
            inside = np.r_[np.linspace(0.0, near[1], 40), 5e-324, near[1]]
            outside = np.r_[near[0], near[2], 30.0, 4000.0, 1e300, np.finfo(float).max]
            for xs in (np.r_[near, -near, 1.0, 30.0], np.r_[inside, -inside], np.r_[outside, -outside]):
                kb, lb = eval_w_batch(xs, y)
                for i, x in enumerate(xs):
                    ks, ls = eval_w(float(x), y)
                    assert ks == kb[i] and ls == lb[i], (x, y)

    @pytest.mark.parametrize("i", range(len(_PARAM_BANDS[1e-16])))
    def test_batch_matches_pointwise_at_band_edges(self, i):
        # N changes at a band's lower edge, so the edge and the y just below
        # it give the Horner loops every fold length they see
        edge = _PARAM_BANDS[1e-16][i][0]
        below = float(np.nextafter(edge, 0))
        assert select_params(edge).n == i + 1 and select_params(below).n == max(i, 1)
        for y in (edge, below):
            x_c = boundary_x_c(y)
            xs = np.r_[0.0, 5e-324, np.arange(0.0, x_c, 0.25), np.nextafter(x_c, 0)]
            xs = np.r_[xs, -xs]
            k, l = eval_w_batch(xs, y)
            point = [eval_w(float(x), y) for x in xs]
            assert _bits(point).tolist() == _bits(np.c_[k, l]).tolist(), y

    @pytest.mark.parametrize("y, x", [(0.0, 2.0), (0.05, 2.0), (0.05, 30.0), (1e-8, 0.0)])
    def test_outputs_are_contiguous_arrays_of_xs_shape(self, y, x):
        # on the axis, internal and external branches; a 0-d x gives 0-d arrays
        for xs in (x, -x, np.full((2, 3), x), np.full(4, -x)[::2], np.full((3, 2), x).T):
            k, l = eval_w_batch(xs, y)
            ks, ls = eval_w(-x if np.signbit(np.ravel(xs)[0]) else x, y)
            for a, want in ((k, ks), (l, ls)):
                assert type(a) is np.ndarray and a.dtype == np.float64
                assert a.shape == np.shape(xs) and a.flags.c_contiguous
                assert np.all(a.view(np.uint64) == np.float64(want).view(np.uint64))

    @pytest.mark.parametrize("y, lo, hi", [(0.05, 0.0, 6.0), (0.05, 10.0, 80.0),
                                           (0.05, 0.0, 80.0), (0.0, 0.0, 80.0)])
    def test_inputs_are_never_written(self, y, lo, hi):
        # internal, external, mixed and axis calls, on a read-only array, a
        # strided view and float32; |x| < 80 lies in eval_w_internal's domain
        rng = np.random.default_rng(5)
        base = rng.uniform(lo, hi, 96) * rng.choice([-1.0, 1.0], 96)
        readonly = base.copy()
        readonly.setflags(write=False)
        for xs in (readonly, base[::3], base.reshape(8, 12).T, base.astype(np.float32)):
            owner = xs if xs.base is None else xs.base
            before = owner.tobytes()
            k, l = eval_w_batch(xs, y)
            assert k.shape == xs.shape and np.all(np.isfinite(k))
            k, l = eval_w_internal(xs, y, select_params(y))
            assert k.shape == xs.shape and np.all(np.isfinite(l))
            assert owner.tobytes() == before

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


class TestExternalKernel:
    """The external branch of eval_w_batch, byte for byte against scalar eval_w."""

    YS = (5e-324, 1e-300, 1e-8, 0.1)

    @staticmethod
    def _check(xs, y):
        k, l = eval_w_batch(xs, y)
        point = [eval_w(float(x), y) for x in xs]
        assert _bits(point).tolist() == _bits(np.c_[k, l]).tolist(), y

    @pytest.mark.parametrize("y", YS)
    def test_depth_edges_x_c_and_huge_x(self, y):
        # every depth edge and the x just below it, x_c(y) and the x just
        # above it, up to |x| = 1e300; all outside x_c, then mixed with
        # points inside it and signed zeros
        e = _EXT_DEPTH_EDGES
        x_c = boundary_x_c(y)
        xs = np.r_[e, np.nextafter(e, 0), x_c, np.nextafter(x_c, np.inf), 1e5, 1e150, 1e300]
        outside = xs[xs >= x_c]
        for signed in (outside, np.r_[outside, -outside], -outside):
            self._check(signed, y)
        self._check(np.r_[xs, -xs, 0.0, -0.0, np.nextafter(x_c, 0), 1.0], y)

    @pytest.mark.parametrize("m", [2047, 2048, 2049])
    @pytest.mark.parametrize("y", YS)
    def test_own_quotient_edge_sorted_and_one_depth(self, y, m):
        # m points outside x_c(y), at the most points whose level quotients
        # get a buffer of their own and either side of it; spread over the
        # depth steps, or all at depth 4, where every level runs over all m
        # points; each alone, with random signs, and mixed with points
        # inside x_c
        rng = np.random.default_rng(m)
        x_c = boundary_x_c(y)
        spread = np.exp(rng.uniform(np.log(x_c), np.log(1e5), m))
        one_depth = rng.uniform(100.0, 288.0, m)
        assert np.all(external_depth(one_depth) == 4)
        inside = rng.uniform(0.0, x_c, 50)
        for ext in (spread, one_depth):
            signed = ext * rng.choice([-1.0, 1.0], m)
            self._check(ext, y)
            self._check(signed, y)
            self._check(np.r_[inside[:25], signed, -inside[25:]], y)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_inputs_are_never_written(self, sign):
        # every x outside x_c, so no |x| copy stands between the input and
        # the kernel when no sign bit is set
        rng = np.random.default_rng(8)
        base = sign * np.exp(rng.uniform(np.log(10.0), np.log(4000.0), 96))
        readonly = base.copy()
        readonly.setflags(write=False)
        for xs in (readonly, base[::3], base.reshape(8, 12).T, base.astype(np.float32)):
            owner = xs if xs.base is None else xs.base
            before = owner.tobytes()
            k, l = eval_w_batch(xs, 0.05)
            assert owner.tobytes() == before
            point = [eval_w(float(x), 0.05) for x in np.ravel(xs)]
            assert _bits(point).tolist() == _bits(np.c_[k.ravel(), l.ravel()]).tolist()

    def test_peak_memory_of_one_call(self):
        # tracemalloc peak of one 16384-point call outside x_c: 1084192 B
        # before the external branch kept its temporaries in one block
        # (numpy 2.4.6); this keeps it from growing back, for points over
        # the depth steps and for points all at depth 4
        y = 1e-3
        rng = np.random.default_rng(3)
        spread = np.exp(rng.uniform(np.log(boundary_x_c(y)), np.log(4000.0), 16384))
        one_depth = rng.uniform(100.0, 288.0, 16384)
        for xs in (spread, one_depth):
            eval_w_batch(xs, y)
            tracemalloc.start()
            try:
                eval_w_batch(xs, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1_084_192, xs[0]


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


# Oracle bounds across the verified domain: y log-uniform in [1e-100, 0.1],
# |x| <= 4000, weighted towards the line core where the series and the
# per-x Dawson depth do the work.
_X_VERIFIED = st.one_of(
    st.floats(-25.0, 25.0),
    st.tuples(st.floats(math.log(1e-6), math.log(4000.0)), st.booleans()).map(
        lambda t: math.copysign(math.exp(t[0]), -1.0 if t[1] else 1.0)
    ),
)


@given(_X_VERIFIED, st.floats(math.log(1e-100), math.log(0.1)).map(math.exp))
@settings(max_examples=40, deadline=None)
def test_oracle_bounds_property(x, y):
    y = min(y, 0.1)
    k, l = eval_w(x, y)
    ref = ref_w(x, y)
    assert rel_err(k, ref.real) <= 5e-13, (x, y)
    # L's contract: where it is subnormal, one subnormal ulp
    assert abs(l - ref.imag) <= max(2e-15 * abs(ref.imag), 2.0**-1074), (x, y)


def test_oracle_bounds_l_below_1e_100():
    # the Dawson bins past 17.5, which only y below about 1e-110 take
    # inside z_c(y): y log-uniform in [5e-324, 1e-110] and x in
    # [17.5, x_c(y)), redrawn where x_c(y) <= 17.5.  L keeps its contract
    rng = np.random.default_rng(110)
    checked = 0
    while checked < 200:
        y = max(math.exp(rng.uniform(math.log(5e-324), math.log(1e-110))), 5e-324)
        x_c = boundary_x_c(y)
        if x_c <= 17.5:
            continue
        x = rng.uniform(17.5, x_c)
        l = eval_w(x, y).l
        ref = ref_w(x, y).imag
        assert abs(l - ref) <= max(2e-15 * abs(ref), 2.0**-1074), (x, y)
        checked += 1
