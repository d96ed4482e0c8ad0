"""The traced benchmark run names functions and parameters that exist.

``perfbench/tracing.py`` wraps library functions by name from outside
the package; a rename in ``mldp`` would otherwise only show up as a
failed traced run.  The recorder module is loaded from its file as is.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from functools import reduce
from pathlib import Path

import pytest

from mldp.learning import SELECTION_STRATEGIES
from mldp.mechanisms import STRATEGIES

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(module: str, attr: str):
    home = importlib.import_module(f"mldp.{module}")
    return reduce(getattr, attr.split("."), home)


@pytest.mark.parametrize(
    "module, function, split", tracing.SPANNED, ids=[f"{m}.{f}" for m, f, _ in tracing.SPANNED]
)
def test_spanned_functions_and_split_arguments_exist(module, function, split):
    original = _resolve(module, function)
    assert callable(original)
    if split is not None:
        assert split in inspect.signature(original).parameters


@pytest.mark.parametrize(
    "module, attr", tracing.COUNTED, ids=[f"{m}.{a}" for m, a in tracing.COUNTED]
)
def test_counted_functions_exist(module, attr):
    assert callable(_resolve(module, attr))


def test_split_values_are_the_library_choices():
    assert set(tracing.SPLITS["select_training_set"]) == set(SELECTION_STRATEGIES)
    assert set(tracing.SPLITS["strategy_mechanism"]) == set(STRATEGIES)
