"""perfbench/tracing.py wraps library functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TARGETS = sorted({(t[1], t[2]) for t in _tracing.PUBLIC_TARGETS + _tracing.LOCAL_TARGETS})


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_function_exists(module, attr):
    mod = importlib.import_module(f"{_tracing.PACKAGE}.{module}")
    assert callable(getattr(mod, attr, None)), f"{_tracing.PACKAGE}.{module}.{attr} is gone"
