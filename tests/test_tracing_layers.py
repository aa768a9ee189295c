"""The benchmark's traced layers name functions that exist.

`perfbench/tracing.py` wraps the package's functions by name, so renaming
one of them would break `perfbench/run.py --trace 1` without any test of
the package failing. This loads the tracer by path and resolves every
name in its LAYERS against the package under `src/`.
"""

import importlib.util
import inspect
import pathlib

import homlie

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_src():
    tracing = _tracing()
    assert len(tracing.LAYERS) == len(set(tracing.LAYERS)) == 22
    src = ROOT / "src" / "homlie"
    assert pathlib.Path(homlie.__file__).resolve().parent == src
    for name in tracing.LAYERS:
        owner, attr, function = tracing._resolve(name)
        assert callable(function) and function.__name__ == attr, name
        assert pathlib.Path(inspect.getfile(function)).resolve().parent == src, name
