import ast
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import voigtw
from voigtw.oracle import ErrorReport
from voigtw.scheme import point_branch


def test_every_exported_name_resolves():
    missing = [name for name in voigtw.__all__ if not hasattr(voigtw, name)]
    assert missing == []


def test_every_record_is_a_named_tuple():
    records = (
        voigtw.CoeffTables,
        voigtw.SeriesParams,
        voigtw.VoigtValue,
        voigtw.YCoefficientSet,
        ErrorReport,
    )
    for cls in records:
        assert issubclass(cls, tuple) and hasattr(cls, "_fields"), cls


def test_evaluation_stays_off_mpmath_and_dataclasses():
    # the oracle (mpmath) is never on the production path, and no record
    # needs dataclasses; checked in a fresh interpreter
    code = (
        "import sys, voigtw\n"
        "voigtw.eval_w(1.0, 0.05)\n"  # internal
        "voigtw.eval_w(30.0, 0.05)\n"  # external
        "voigtw.eval_w(3.0, 0.0)\n"  # y = 0
        "voigtw.eval_w_batch([0.0, 1.0, 8.0, 30.0, 4000.0], 1e-8)\n"
        "print(sorted({'mpmath', 'dataclasses'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(voigtw.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert run.stdout.strip() == "[]"


def test_no_private_name_crosses_modules():
    # a module's _names are its own: no `from .module import _name` in the package
    src = os.path.dirname(voigtw.__file__)
    crossing = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("voigtw")):
                crossing += [
                    f"{os.path.basename(path)}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert crossing == []


def test_no_module_imports_a_name_it_never_uses():
    # every name a module imports is loaded somewhere in it; __init__
    # imports to re-export, so it is left out
    src = os.path.dirname(voigtw.__file__)
    unused = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = node.lineno
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{os.path.basename(path)}:{line}: {name}"
            for name, line in sorted(imported.items())
            if name not in loaded
        ]
    assert unused == []


def test_modules_import_only_their_lower_layers():
    # the fractions and the tables stand alone, the series builds on them,
    # and scheme dispatches over all three; apart from __init__ only cli
    # imports scheme, so each branch's code stays in its own module
    allowed = {
        "coeffs": set(),
        "dawson": set(),
        "laplace": set(),
        "taylor": {"coeffs", "dawson"},
        "scheme": {"dawson", "laplace", "taylor"},
    }
    src = os.path.dirname(voigtw.__file__)
    imports = {}
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path) as f:
            tree = ast.parse(f.read(), path)
        imports[module] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.level:
                # siblings come in one form, `from .module import name`
                assert node.level == 1 and node.module, f"{module}:{node.lineno}"
                imports[module].add(node.module)
            elif isinstance(node, ast.ImportFrom):  # an absolute import would dodge the check
                assert not node.module.startswith("voigtw"), module
            else:
                assert not any(a.name.startswith("voigtw") for a in node.names), module
    crossing = {m: sorted(imports[m] - ok) for m, ok in allowed.items() if imports[m] - ok}
    assert crossing == {}
    assert sorted(m for m, found in imports.items() if "scheme" in found) == ["__init__", "cli"]


@pytest.mark.parametrize(
    "call",
    [
        lambda x: voigtw.eval_w_batch(x, 0.05),
        lambda x: voigtw.eval_w_internal(x, 0.05, voigtw.select_params(0.05)),
        lambda x: voigtw.dawson_cf(x, 61),
        voigtw.external_depth,
        lambda y: voigtw.eval_w_batch([1.0], y),
        lambda x: voigtw.eval_w(x, 0.05),
        lambda y: voigtw.eval_w(1.0, y),
        lambda x: point_branch(x, 0.05),
        lambda y: point_branch(1.0, y),
    ],
    ids=["eval_w_batch", "eval_w_internal", "dawson_cf", "external_depth", "eval_w_batch-y",
         "eval_w-x", "eval_w-y", "point_branch-x", "point_branch-y"],
)
def test_complex_input_is_rejected(call):
    # a cast to float64, or float() of a numpy complex, would drop the
    # imaginary part with only a warning
    for x in (np.array([1 + 2j]), np.array([3 + 0j, 8 + 0j]), np.complex128(1 + 2j), 1 + 2j, [1 + 2j],
              np.array(0.05 + 0j), np.complex64(0.05)):
        with pytest.raises(TypeError):
            call(x)
