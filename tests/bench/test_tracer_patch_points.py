"""Every layer entry point the benchmark tracer wraps must still exist.

``perfbench/tracer.py`` patches module attributes by name and silently
skips an entry that no longer resolves, so renaming a layer function
would blank its ledger row without failing anything.  This test loads
the tracer module from its file (read-only; it is not a package) and
checks each ``PATCHES`` entry.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()


@pytest.mark.parametrize(
    "module,attr,span", _tracer.PATCHES, ids=[f"{m}:{a}" for m, a, _ in _tracer.PATCHES]
)
def test_patch_point_resolves(module, attr, span):
    owner, key = _tracer._resolve(module, attr)
    assert owner is not None, f"{module}.{attr} ({span}) no longer resolves"
    assert span in _tracer.SPAN_LAYERS or span == "engine"
