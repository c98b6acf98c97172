"""Seeded inputs for the four benchmark workloads.

A workload is a source of passes.  A pass is a fixed list of calls, each
call a pair (x, y): x an array for `eval_w_batch`, or a float for the
scalar `eval_w` in the pointwise workload.  The benchmark times passes
until its time is up, so every per-pass number (throughput, layer
times, counts) compares across runs and commits.

Why each workload exists is its `why` in BENCHMARK.json.
"""

import numpy as np

X_MAX = 4000.0

#: One y in each of three parameter bands (series order N = 1, 3, 6).
BAND_YS = (1e-8, 1e-3, 0.05)

#: The handful of lines a pointwise caller evaluates.
POINT_YS = (1e-8, 1e-5, 1e-3, 0.02, 0.05)

#: Spectrum line widths: y log-uniform in [Y_LO, Y_HI], plus a share at y = 0.
Y_LO, Y_HI = 1e-10, 0.1
ZERO_Y_SHARE = 0.03

#: Default pass sizes.  Core and wings calls hold 16384 points each, so a
#: run makes well over a thousand calls, enough for a p99 with ten calls
#: beyond it.
SIZES = {
    "core": {"calls_per_y": 8, "chunk": 16384},
    "wings": {"calls_per_y": 8, "chunk": 16384},
    "spectrum": {"lines": 250, "points_per_line": 400},
    "pointwise": {"calls": 1000},
}

NAMES = tuple(SIZES)


class Workload:
    """Pass source for one workload: `next_pass()` returns a list of calls."""

    def __init__(self, name, seed, z_c, sizes=None):
        if name not in SIZES:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.scalar = name == "pointwise"
        self._sizes = {**SIZES[name], **(sizes or {})}
        self._z_c = z_c
        self._rng = np.random.default_rng([seed, NAMES.index(name)])
        self._fixed = None if name == "spectrum" else self._draw()

    def next_pass(self):
        """The calls of the next pass; only spectrum draws new ones each time."""
        return self._fixed if self._fixed is not None else self._draw()

    def _draw(self):
        return getattr(self, "_draw_" + self.name)(**self._sizes)

    def _inner_x(self, y):
        """Largest x with |x + iy| below z_c(y), so the point takes the series."""
        return np.sqrt(self._z_c(y) ** 2 - y * y)

    def _draw_core(self, calls_per_y, chunk):
        rng = self._rng
        return [
            (rng.uniform(0.0, self._inner_x(y), chunk), y)
            for _ in range(calls_per_y)
            for y in BAND_YS
        ]

    def _draw_wings(self, calls_per_y, chunk):
        rng = self._rng
        return [
            (np.exp(rng.uniform(np.log(self._z_c(y)), np.log(X_MAX), chunk)), y)
            for _ in range(calls_per_y)
            for y in BAND_YS
        ]

    def _draw_spectrum(self, lines, points_per_line):
        rng = self._rng
        ys = np.exp(rng.uniform(np.log(Y_LO), np.log(Y_HI), lines))
        ys[rng.random(lines) < ZERO_Y_SHARE] = 0.0
        half = points_per_line // 2
        calls = []
        for y in ys.tolist():
            z_c = self._z_c(y if y > 0.0 else Y_LO)
            inner = self._inner_x(y if y > 0.0 else Y_LO)
            core = rng.uniform(-inner, inner, half)
            wing = np.exp(rng.uniform(np.log(z_c), np.log(X_MAX), points_per_line - half))
            wing *= rng.choice((-1.0, 1.0), wing.size)
            calls.append((np.concatenate((core, wing)), y))
        return calls

    def _draw_pointwise(self, calls):
        rng = self._rng
        ys = rng.choice(POINT_YS, calls)
        # four points in five fall inside the line core, as near a line centre
        reach = 1.25 * np.array([self._z_c(y) for y in ys])
        xs = rng.uniform(-reach, reach)
        return list(zip(xs.tolist(), ys.tolist()))


def pass_points(calls):
    """Number of points evaluated by one pass."""
    return sum(np.size(x) for x, _ in calls)
