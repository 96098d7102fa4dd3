"""The benchmark's per-layer metrics name functions that exist.

`perfbench/run.py --trace 1` looks up every per-layer metric that
`BENCHMARK.json` declares, so removing a function it names breaks the
traced run.  This test reads the declaration (it never edits it) and
resolves each name here instead.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Per-layer metrics that the tracer computes rather than reads off a function.
NON_FUNCTION = {"rational.max_den_bits"}
NON_FUNCTION_PREFIXES = ("trace.",)


def declared_function_metrics():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    return [name for name in names
            if name not in NON_FUNCTION and not name.startswith(NON_FUNCTION_PREFIXES)]


def resolve(metric):
    """The function a `<layer>.<function>[.<site>].<stat>` metric is traced on.

    A class name in the function position resolves through the class, as
    for `basis.Process.jump`.
    """
    layer, attr, *rest = metric.split(".")
    module = importlib.import_module(f"driftlab.{layer}")
    obj = getattr(module, attr, None)
    if inspect.isclass(obj):
        obj = getattr(obj, rest[0], None)
    return module, obj


def test_per_layer_metrics_name_engine_functions():
    metrics = declared_function_metrics()
    assert metrics
    unresolved = []
    for metric in metrics:
        module, fn = resolve(metric)
        if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
            unresolved.append(metric)
    assert unresolved == []
