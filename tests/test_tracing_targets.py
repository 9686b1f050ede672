"""The traced benchmark wraps package functions by name: each one it names
must still exist, or `perfbench/run.py --trace 1` breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, function",
    sorted(set(tracing.LAYER_TARGETS) | set(tracing.STAGE_TARGETS)),
    ids=lambda x: x,
)
def test_traced_target_exists(module, function):
    target = importlib.import_module(f"evcsmarket.{module}")
    assert callable(getattr(target, function, None)), f"evcsmarket.{module}.{function}"
