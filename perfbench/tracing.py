"""Span tracing of the voigtw layers from outside the program.

The tracer replaces, for the duration of a `with` block, the module
attributes through which the evaluator calls from one layer into the
next.  Each wrapped call records a span (name, start, end, parent) in
memory and adds to counters derived from its arguments, such as the
continued-fraction levels it evaluates.  The original attributes are
restored on exit.  A name that no longer exists, or a counter whose
arguments no longer fit, is reported as absent instead of failing the run.

Layers are the modules under src/voigtw: `scheme` (dispatch), `taylor`
(fold, Horner sums, exp, K/L assembly), `dawson`, `laplace` and
`coeffs` (table set-up, measured in the set-up probe).
"""

import time

import numpy as np

# (module, attribute, span name, layer); the api.* entries are the public
# names the benchmark itself calls, so every call has a root span.
WRAPPED = (
    ("voigtw", "eval_w_batch", "api.eval_w_batch", "scheme"),
    ("voigtw", "eval_w", "api.eval_w", "scheme"),
    ("voigtw.scheme", "eval_w_batch", "scheme.eval_w_batch", "scheme"),
    ("voigtw.scheme", "eval_w_internal", "scheme.eval_w_internal", "taylor"),
    ("voigtw.scheme", "laplace_w", "scheme.laplace_w", "laplace"),
    ("voigtw.scheme", "dawson_cf", "scheme.dawson_cf", "dawson"),
    ("voigtw.taylor", "dawson_cf", "taylor.dawson_cf", "dawson"),
    ("voigtw.taylor", "build_y_coefficients", "taylor.build_y_coefficients", "taylor"),
    ("voigtw.taylor", "cached_y_coefficients", "taylor.cached_y_coefficients", "taylor"),
)

LAYER = {span: layer for _, _, span, layer in WRAPPED}

_BATCH_SPANS = ("api.eval_w_batch", "scheme.eval_w_batch")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_levels(key, x_name, depth_name):
    def count(counts, args, kwargs):
        x = _arg(args, kwargs, 0, x_name)
        depth = _arg(args, kwargs, 1, depth_name)
        # a depth per point or one for the whole call
        counts[key] += int(np.sum(np.broadcast_to(depth, np.shape(x))))

    return count


def _count_internal(counts, args, kwargs):
    counts["internal_pts"] += np.size(_arg(args, kwargs, 0, "x"))


COUNTERS = {
    "scheme.dawson_cf": _count_levels("dawson_levels", "x", "n_d"),
    "taylor.dawson_cf": _count_levels("dawson_levels", "x", "n_d"),
    "scheme.laplace_w": _count_levels("laplace_levels", "z", "n_c"),
    "scheme.eval_w_internal": _count_internal,
}


class Tracer:
    """Records spans and counters while active; see the module docstring."""

    def __init__(self, modules):
        self._modules = modules
        self.spans = []
        self.counts = dict.fromkeys(("dawson_levels", "laplace_levels", "internal_pts"), 0)
        self.absent = []
        self._stack = []
        self._patched = []

    def __enter__(self):
        for module_name, attr, span, _ in WRAPPED:
            module = self._modules.get(module_name)
            orig = getattr(module, attr, None)
            if orig is None:
                if span not in self.absent:
                    self.absent.append(span)
                continue
            setattr(module, attr, self._wrap(orig, span, COUNTERS.get(span)))
            self._patched.append((module, attr, orig))
        return self

    def __exit__(self, *exc):
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)
        return False

    def _wrap(self, orig, name, counter):
        spans, stack, counts, absent = self.spans, self._stack, self.counts, self.absent
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                try:
                    counter(counts, args, kwargs)
                except Exception:  # a changed signature: report the count absent
                    if name + " count" not in absent:
                        absent.append(name + " count")
            return result

        return traced

    def write(self, path):
        """Write every recorded span as CSV: name, start_ns, end_ns, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")


def pass_profile(spans, first, counts_before, counts_after, points, scale=1.0):
    """Per-layer numbers for the spans spans[first:] and counter deltas of one pass.

    Times are in seconds multiplied by `scale`.
    """
    child = [0] * (len(spans) - first)
    for name, start, end, parent in spans[first:]:
        if parent >= first:
            child[parent - first] += end - start
    self_ns = dict.fromkeys(LAYER.values(), 0)
    calls = dict.fromkeys(LAYER, 0)
    fold_ns = 0
    for i, (name, start, end, _) in enumerate(spans[first:]):
        self_ns[LAYER[name]] += end - start - child[i]
        calls[name] += 1
        if name == "taylor.build_y_coefficients":
            fold_ns += end - start
    delta = {k: counts_after[k] - counts_before[k] for k in counts_after}
    to_s = scale * 1e-9
    batch_calls = sum(calls[s] for s in _BATCH_SPANS)
    lookups = calls["taylor.cached_y_coefficients"]
    builds = calls["taylor.build_y_coefficients"]
    return {
        "scheme.self_s": self_ns["scheme"] * to_s,
        "scheme.calls": batch_calls,
        "scheme.internal_frac": delta["internal_pts"] / points,
        "taylor.self_s": self_ns["taylor"] * to_s,
        "taylor.fold_s": fold_ns * to_s,
        "taylor.fold_calls": builds,
        # base: fold lookups (cached_y_coefficients calls) in the pass
        "taylor.fold_hit_ratio": 1.0 - builds / lookups if lookups else 0.0,
        "dawson.s": self_ns["dawson"] * to_s,
        "dawson.levels_per_pt": delta["dawson_levels"] / points,
        "laplace.s": self_ns["laplace"] * to_s,
        "laplace.levels_per_pt": delta["laplace_levels"] / points,
        "laplace.calls_per_batch": calls["scheme.laplace_w"] / batch_calls if batch_calls else 0.0,
    }
