import ast
import glob
import os
import subprocess
import sys

import voigtw
from voigtw.oracle import ErrorReport


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
