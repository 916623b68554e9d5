"""Every name the benchmark's tracer wraps must exist in the package.

perfbench/spans.py skips a traced name that no longer resolves, so a refactor
that deletes or renames one would silently zero a per-layer metric.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


@pytest.mark.parametrize("owner_path,attr,span", _patches())
def test_traced_name_resolves(owner_path, attr, span):
    module, *classes = owner_path.split(".")
    owner = importlib.import_module(f"hcslab.{module}")
    for name in classes:
        owner = getattr(owner, name)
    # the tracer replaces the attribute where it is defined, so it must be the owner's own
    assert attr in vars(owner), f"{span}: hcslab.{owner_path}.{attr} is gone"
