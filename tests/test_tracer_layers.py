"""The benchmark's traced run (``perfbench/run.py --trace 1``) wraps
forcing_lab functions by module and name; a layer it names must exist."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_exists():
    layers = _load_tracer().LAYERS
    missing = [
        f"forcing_lab.{module}.{attribute}"
        for module, attribute, _span in layers
        if not hasattr(importlib.import_module("forcing_lab." + module), attribute)
    ]
    assert len(layers) > 20 and missing == []
