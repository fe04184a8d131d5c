"""The benchmark tracer rebinds package functions by name; each must exist.

A renamed or deleted function would otherwise surface only as a missing
span in the benchmark's smoke run.  The targets are read from the tracer's
source, which is not imported.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def trace_targets():
    """(module, name) of every ``Target(...)`` in the ``TARGETS`` tuple."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [tuple(ast.literal_eval(arg) for arg in call.args[:2])
                    for call in node.value.elts]
    raise AssertionError(f"no TARGETS tuple in {SPANS}")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert len(targets) > 10
    missing = [f"{module}.{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"delaydirac.{module}"), name, None))]
    assert not missing, f"traced names missing from delaydirac: {missing}"
