"""Every call the benchmark tracer wraps must exist under its recorded name.

``perfbench/tracer.py`` patches package functions and methods by name; a
rename in the package would otherwise only surface as a failing traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return tracer.SPANS + tracer.COUNTERS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t.module}.{t.attr}")
def test_tracer_target_resolves(target):
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        # The tracer reads methods from the class body, not from a base class.
        assert meth in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, target.attr))
