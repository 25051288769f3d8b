"""The benchmark's tracer against the names it patches.

`perfbench/tracing.py` wraps public hirsch3 functions and methods by name
for `perfbench/run.py --trace 1`.  Installing it here makes a renamed or
removed step fail in this suite, and uninstalling it must leave every
patched attribute as it was.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from hirsch3 import cli, classify, families, rationals, simplify, verify, words  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict[str, dict]:
    """A copy of every hirsch3 module's globals and of the attributes of the
    two classes whose methods the tracer wraps."""
    spaces = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and name.startswith("hirsch3")
    }
    for cls in (families.GroupOps, rationals.Mat2Q):
        spaces[cls.__qualname__] = dict(vars(cls))
    return spaces


def test_install_then_uninstall_restores_every_patched_attribute():
    tracing = _load_tracing()
    before = _namespaces()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = list(tracer._undo)
        still_original = [key for owner, key, original in patched if vars(owner)[key] is original]
    finally:
        tracer.uninstall()
    assert patched and not still_original
    names = {key for _, key, _ in patched}
    assert set(tracing.CLASSIFY_STEPS) | {"classify", "run_harness", "of_word"} <= names
    after = _namespaces()
    assert after.keys() == before.keys()
    for space, attrs in before.items():
        changed = sorted(k for k, v in attrs.items() if after[space].get(k) is not v)
        assert not changed, f"{space} still has wrapped {changed}"
