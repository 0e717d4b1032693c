"""The scripts import only names the package still defines, and run.

A script does not run its ``main`` at import, so importing one checks every
``fedtrust`` name it uses without doing its work; one seed of
``scheme_agreement`` then checks the methods it calls.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["scheme_agreement"])
def test_script_imports(name):
    assert callable(load(name).main)


def test_scheme_agreement_one_seed():
    result, gtg_requested, exact_requested = load("scheme_agreement").one_seed(0, 0.05)
    assert not result.degenerate
    assert result.phi == pytest.approx(1.0)
    # distinct coalitions requested: exact asks for all 2^4 in each of 10 rounds
    assert (gtg_requested, exact_requested) == (105, 160)
