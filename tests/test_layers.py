"""Every function the benchmark's layer tracer wraps still resolves by name.

perfbench/tracer.py rebinds each `module.function` of perfbench/layers.json
on `dbarlab.<module>`; a renamed or deleted function would break the traced
benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

LAYERS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "layers.json").read_text(
        encoding="utf-8"
    )
)


@pytest.mark.parametrize(
    "target", [f"{module}.{fn}" for module, spec in LAYERS.items() for fn in spec["functions"]]
)
def test_traced_layer_function_resolves(target):
    module, fn = target.split(".")
    assert callable(getattr(importlib.import_module(f"dbarlab.{module}"), fn, None))
