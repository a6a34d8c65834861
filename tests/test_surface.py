"""The package surface: every exported name exists and every traced function resolves."""

import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import quadtrack

MODULES = sorted(info.name for info in pkgutil.iter_modules(quadtrack.__path__))
LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


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
