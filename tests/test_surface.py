"""The package surface: every exported name exists, every traced function and every
name and test the README gives resolves, every function the package defines is used in
it or kept on purpose, and the config layer imports without the heavy layers."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import quadtrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(quadtrack.__path__))
LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = pathlib.Path(quadtrack.__file__).resolve().parent

# Defined in the package although no package code calls them: the oracles,
# reference implementations and paper formulas the tests and the traced
# benchmark run read (see the north star of ROADMAP.md).
KEEP = {"closed_loop_error_tf", "h2_norm_sq_exact", "h2_norm_sq_freq", "hinf_norm",
        "hinf_synthesize", "initial_state", "is_internally_stable", "mismatch_curve",
        "mu_star_from_density", "simulate_minimizer", "tracker_step"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"quadtrack.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_traced_function_resolves():
    # the traced benchmark run looks each name up with getattr, so a
    # missing one breaks it
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"{layer}.{fn}" for layer, names in layers.TRACED.items() for fn in names
               if not callable(getattr(importlib.import_module(f"quadtrack.{layer}"), fn,
                                       None))]
    assert missing == []


def test_every_defined_function_is_used_or_kept():
    # a helper that only the tests call belongs in the tests: every function
    # and class the package defines is read by name in the package's own code
    # (a call, a reference or an attribute), or is on the keep list
    defined, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert defined - used - KEEP == set()
    assert KEEP - defined == set()


def test_every_name_the_readme_gives_resolves():
    # the README documents the library by qualified name and by its
    # example's imports, so removing or renaming a function must update it
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"\bquadtrack\.(\w+)\.(\w+)", text)
    for module, imported in re.findall(r"^from quadtrack\.(\w+) import (.+)$", text, re.M):
        names += [(module, name.strip()) for name in imported.split(",")]
    assert names
    missing = [f"quadtrack.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"quadtrack.{module}"), name)]
    assert missing == []


def test_every_test_the_readme_gives_exists():
    # a test the README cites as evidence must be one the suite runs
    tests = pathlib.Path(__file__).resolve().parent
    defined = {node.name for path in tests.glob("test_*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    cited = set(re.findall(r"\b(test_\w+)\b(?!\.py)", README.read_text(encoding="utf-8")))
    assert cited - defined == set()


def test_config_import_stays_light():
    # the benchmark's set-up probe times `import quadtrack.config`; the
    # optimizers and the tracker and synthesis layers belong to the
    # commands that need them
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    heavy = ("scipy.optimize", "quadtrack.trackers", "quadtrack.synthesis")
    code = ("import sys, quadtrack.config; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == ""


def test_no_module_loads_scipy_optimize(tmp_path):
    # every `tracker` command imports the whole CLI; the two searches are
    # in-house ports and the DARE and H2 kernels are numpy only, so no
    # command loads any part of scipy, on import or while it runs
    run = {"scenario": {"n": 1, "lambda_max": 2.0, "sigma": 1.0, "d_stable": [-0.5, 1.0],
                        "j": 0.5, "seed": 2},
           "trackers": {"use": ["gd", "kalman"]},
           "run": {"horizon": 100, "window": 5},
           "output": {"dir": str(tmp_path), "name": "t.csv"}}
    synth = {"scenario": {"n": 2, "lambda_min": 1.0, "lambda_max": 1.5, "sigma": 1.0,
                          "d_stable": [0.25, -1.0, 1.0], "j": 0.0, "seed": 4},
             "trackers": {"hinf_grid": 5, "synthesis_starts": 1, "synthesis_max_evals": 20},
             "run": {"horizon": 100}}
    (tmp_path / "run.json").write_text(json.dumps(run), encoding="utf-8")
    (tmp_path / "synth.json").write_text(json.dumps(synth), encoding="utf-8")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    loaded = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
    code = ("import sys, quadtrack.cli; "
            + "".join(f"import quadtrack.{name}; " for name in MODULES)
            + "print('scipy.optimize' in sys.modules); " + loaded
            + "assert quadtrack.cli.main(['run', '--config', 'run.json']) == 0; "
            + "assert quadtrack.cli.main(['synthesize', '--config', 'synth.json', "
            + "'--out', 'c.json']) == 0; " + loaded)
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1] == "[]" and lines[-1] == "[]"
