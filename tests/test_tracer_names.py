"""Every name perfbench's tracer wraps exists in the ris_select module it names.

The tracer (perfbench/tracing.py) replaces these names by looking them up
with getattr, so a renamed or moved function would otherwise surface only
when a traced benchmark run crashes.  The tables are read from the source
as literals, so nothing of perfbench runs here.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literals(*names):
    tree = ast.parse(TRACING.read_text())
    found = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in names
    }
    return [found[name] for name in names]


BOUNDARIES, POOL = _literals("BOUNDARIES", "POOL")


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _ in BOUNDARIES] + [POOL])
def test_traced_name_resolves(module, attr):
    assert hasattr(importlib.import_module(f"ris_select.{module}"), attr)
