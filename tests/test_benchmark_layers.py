"""The benchmark's per-layer tracer wraps package attributes by name; a name
that no longer resolves stops `benchmark/run.py --trace 1` at that layer.
A method is looked up as the tracer does, in its class body with a
classmethod unwrapped, so one that only a base class binds does not
resolve."""

import importlib
from pathlib import Path


def test_every_traced_layer_resolves():
    # read the file and run it in a namespace of its own: nothing is written
    # beside it, and the benchmark package is not put on the import path
    path = Path(__file__).resolve().parents[1] / "benchmark" / "layers.py"
    namespace = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    layers = namespace["LAYERS"]
    missing = []
    for layer in layers:
        module_name, _, attr = layer.partition(".")
        target = importlib.import_module(f"flagstone.{module_name}")
        if "." in attr:  # a method is wrapped where its class body binds it
            cls_name, attr = attr.split(".")
            target = vars(getattr(target, cls_name, object)).get(attr)
            if isinstance(target, classmethod):
                target = target.__func__
        else:
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(layer)
    assert len(layers) >= 22 and missing == []
