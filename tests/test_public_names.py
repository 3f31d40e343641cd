"""Names other code reaches by string: the benchmark's trace targets and the
package's `__all__`.  A deletion that breaks either fails here, not only in
a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import gcff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = [(module, attr) for targets in tracing.TARGETS.values() for module, attr, _ in targets]


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    importlib.import_module(module)
    _, name, original = tracing._resolve(module, attr)
    assert name == attr.rsplit(".", 1)[-1]
    # classmethods are wrapped through their function
    assert callable(getattr(original, "__func__", original))


def test_every_name_in_all_exists():
    missing = [name for name in gcff.__all__ if not hasattr(gcff, name)]
    assert missing == []
