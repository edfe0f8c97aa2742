"""The benchmark's span tracer names package functions by module and
qualified name; every such name must still resolve on the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for layer, funcs in tracer.LAYERS.items():
        module = importlib.import_module(f"infalg.{layer}")
        for name in funcs:
            owner, _, attr = name.rpartition(".")
            holder = getattr(module, owner) if owner else module
            target = vars(holder)[attr] if owner else getattr(module, attr)
            assert inspect.isfunction(target), f"{layer}.{name}"
            assert target.__module__ == f"infalg.{layer}", f"{layer}.{name}"
