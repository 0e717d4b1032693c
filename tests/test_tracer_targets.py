"""Every function the benchmark's tracer wraps still exists in ``fedtrust``.

``perfbench/tracer.py`` skips a target the program no longer defines, and
that layer's metrics then read 0; this test turns such a rename into a
failure. The tracer module is only imported, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The tracer's counters and its cache hook name these outside SPAN_TARGETS.
COUNTED = [
    ("seeding", "rng_from"),
    ("metrics", "evaluate"),
    ("valuation", "coalition_utility"),
    ("valuation", "CoalitionCache"),
]


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in load_tracer().SPAN_TARGETS] + COUNTED,
)
def test_tracer_target_exists(module, attr):
    owner = importlib.import_module(f"fedtrust.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
