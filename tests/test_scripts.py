"""The scripts import only names the package still defines.

Neither script runs its ``main`` at import, so importing one checks every
``fedtrust`` name it uses without doing its work.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["bench_layers", "scheme_agreement"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
