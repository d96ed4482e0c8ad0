"""The public surface: the top-level names, each module's __all__, the README example."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import mldp

README = Path(__file__).parent.parent / "README.md"

MODULES = ["mldp"] + [f"mldp.{info.name}" for info in pkgutil.iter_modules(mldp.__path__)]


def test_the_top_level_holds_what_publishing_and_answering_need():
    assert sorted(mldp.__all__) == sorted(
        [
            "__version__",
            "Histogram",
            "PrivacyBudget",
            "MldpConfig",
            "mldp_publish",
            "predict",
            "all_range_queries",
            "random_range_workload",
            "save_workload_csv",
        ]
    )


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    home = importlib.import_module(module)
    exported = getattr(home, "__all__", [])
    assert [name for name in exported if not hasattr(home, name)] == []
    assert len(set(exported)) == len(exported)


def test_the_readme_library_example_prints_its_ledger(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "(('laplace batch m=4', 1.0),)\n"
