"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "core": {"calls_per_y": 1, "chunk": 64},
    "wings": {"calls_per_y": 1, "chunk": 64},
    "spectrum": {"lines": 40, "points_per_line": 20},
    "pointwise": {"calls": 30},
}


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def traced_pass(program, name, seed=7, warm=False):
    """One tiny pass of `name` under the tracer, optionally after a warm-up pass."""
    api, modules = program
    workload = workloads.Workload(name, seed, api.boundary_z_c, TINY[name])
    if warm:
        run.run_pass(api, workload.next_pass(), workload.scalar)
    calls = workload.next_pass()
    with tracing.Tracer(modules) as tracer:
        before = dict(tracer.counts)
        outputs, _, bad = run.run_pass(api, calls, workload.scalar, keep=True)
        profile = tracing.pass_profile(
            tracer.spans, 0, before, tracer.counts, workloads.pass_points(calls)
        )
    return workload, calls, outputs, bad, profile, tracer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_is_correct_and_tracer_restores_names(program, name):
    api, modules = program
    originals = {(m, a): getattr(modules[m], a) for m, a, _, _ in tracing.WRAPPED}
    workload, calls, outputs, bad, _, tracer = traced_pass(program, name)
    assert bad == 0
    assert tracer.absent == []
    assert all(getattr(modules[m], a) is f for (m, a), f in originals.items())

    sample = checks.sample_points(calls, outputs, seed=7, size=12)
    check = checks.check_sample(api, *sample, workload.scalar)
    assert check["failed"] == 0
    assert check["bit_mismatches"] == 0


def test_each_workload_loads_its_layer(program):
    core = traced_pass(program, "core")[4]
    assert core["laplace.s"] == 0.0
    assert core["dawson.levels_per_pt"] == 61
    assert core["scheme.internal_frac"] == 1.0

    wings = traced_pass(program, "wings")[4]
    assert wings["dawson.s"] == 0.0
    assert wings["scheme.internal_frac"] == 0.0
    assert wings["laplace.calls_per_batch"] > 1

    # a seed no other test uses, so none of its y is in the coefficient cache yet
    _, calls, _, _, spectrum, _ = traced_pass(program, "spectrum", seed=8)
    assert spectrum["taylor.fold_calls"] == len({y for _, y in calls if y > 0.0})
    assert spectrum["taylor.fold_hit_ratio"] == 0.0

    pointwise = traced_pass(program, "pointwise", warm=True)[4]
    assert pointwise["taylor.fold_hit_ratio"] == 1.0
    assert pointwise["scheme.calls"] == TINY["pointwise"]["calls"]


def test_counters_take_per_point_depths_and_survive_a_changed_signature():
    scheme = types.SimpleNamespace(
        dawson_cf=lambda x, n_d: x,
        laplace_w=lambda z, depth: z,  # no longer named n_c
    )
    with tracing.Tracer({"voigtw.scheme": scheme}) as tracer:
        assert scheme.dawson_cf(np.ones(3), np.array([2, 3, 4])) is not None
        assert scheme.laplace_w(np.ones(2), depth=5) is not None
    assert tracer.counts["dawson_levels"] == 9
    assert "scheme.laplace_w count" in tracer.absent
    assert "scheme.dawson_cf count" not in tracer.absent


def test_absent_name_is_reported_not_fatal(program):
    api, modules = program
    stub = {**modules, "voigtw.taylor": object()}
    with tracing.Tracer(stub) as tracer:
        api.eval_w_batch([1.0, 30.0], 1e-3)
    assert "taylor.dawson_cf" in tracer.absent
    assert "scheme.eval_w_batch" not in tracer.absent


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_then_json(trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "pointwise",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.rstrip().endswith(unit) for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "core", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
