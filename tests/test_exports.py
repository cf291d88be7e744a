import ast
import copy
import dataclasses
import importlib
import pickle
import sys
from dataclasses import FrozenInstanceError
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import povmrank
from povmrank import (
    BinLayout,
    BinnedHomodyne,
    DensityMatrix,
    DisplacedCounting,
    SupportSet,
    build_binned_quadrature_povm,
    default_x_max,
    ml_reconstruct,
    rank_for,
    simulate_dataset,
)

MODULES = ("cli", "completeness", "fock", "povm", "tomo")


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"povmrank.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_are_module_exports():
    # the package exports every library module's names (cli's stay in cli)
    exported = {
        name
        for module in ("completeness", "fock", "povm", "tomo")
        for name in importlib.import_module(f"povmrank.{module}").__all__
    }
    assert [name for name in povmrank.__all__ if not hasattr(povmrank, name)] == []
    assert set(povmrank.__all__) == exported
    assert len(set(povmrank.__all__)) == len(povmrank.__all__)
    # tomo reads measurements through their fields and names no measurement type
    assert not hasattr(povmrank.tomo, "BinnedHomodyne")


def test_runtime_imports_are_stdlib_or_numpy():
    # pyproject's only runtime dependency is numpy; scipy is for tests only
    src = Path(povmrank.__file__).parent
    foreign = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.add(f"{path.name}: {name}")
    assert sorted(foreign) == []


def test_every_dataclass_is_frozen():
    src = Path(povmrank.__file__).parent
    seen, thawed = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                seen.append(node.name)
                keywords = dec.keywords if isinstance(dec, ast.Call) else []
                if not any(kw.arg == "frozen" and getattr(kw.value, "value", None) is True
                           for kw in keywords):
                    thawed.append(f"{path.name}: {node.name}")
    assert len(seen) >= 9
    assert thawed == []


def _value_objects():
    layout = BinLayout(default_x_max(2), 3)
    single = build_binned_quadrature_povm(0.3, layout, 2)
    measurement = BinnedHomodyne([0.3], layout, 2)
    data = simulate_dataset(DensityMatrix.pure([1.0, 1.0j]), measurement, 500, seed=4)
    result = ml_reconstruct(data, max_iters=5)
    report = rank_for(SupportSet.contiguous(2), 1)
    displaced = DisplacedCounting([0.0, 0.7j], 3, 2)
    # [label-]type name -> (object, one of its fields, the array it stores or None)
    return {
        "DensityMatrix": (result.estimate, "entries", result.estimate.entries),
        "one-phase-BinnedHomodyne": (single, "deficit", single.elements),
        "BinLayout": (layout, "n_bins", None),
        "BinnedHomodyne": (measurement, "elements", measurement.elements),
        "MeasurementData": (data, "counts", data.counts),
        "ReconstructionResult": (result, "log_likelihood_trace", None),
        "RankReport": (report, "singular_values", report.singular_values),
        "DisplacedCounting": (displaced, "elements", displaced.elements),
    }


@pytest.mark.parametrize(
    "kind",
    ["DensityMatrix", "one-phase-BinnedHomodyne", "BinLayout", "BinnedHomodyne",
     "MeasurementData", "ReconstructionResult", "RankReport", "DisplacedCounting"],
)
def test_value_types_are_immutable_after_validation(kind):
    obj, name, array = _value_objects()[kind]
    assert type(obj).__name__ == kind.rpartition("-")[2]
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))
    if array is not None:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize(
    "kind, equal",
    [("DensityMatrix", False), ("one-phase-BinnedHomodyne", False), ("BinnedHomodyne", False),
     ("MeasurementData", False), ("RankReport", False), ("DisplacedCounting", False),
     ("BinLayout", True)],
)
def test_array_holding_values_compare_by_identity(kind, equal):
    obj = _value_objects()[kind][0]
    rebuilt = _value_objects()[kind][0]  # same inputs, distinct instance
    assert obj == obj
    assert (obj == rebuilt) is equal


def _stored_arrays(obj, path=""):
    """(attribute path, array) for every array a value stores, through the values it holds."""
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            yield path + name, value
        elif dataclasses.is_dataclass(value):
            yield from _stored_arrays(value, f"{path}{name}.")


@pytest.mark.parametrize(
    "clone",
    [lambda value: pickle.loads(pickle.dumps(value)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_and_pickles_store_read_only_equal_arrays(clone):
    for kind, (obj, _, array) in _value_objects().items():
        getattr(obj, "born", None)  # a measurement's cached born is stored too
        arrays = dict(_stored_arrays(obj))
        assert array is None or any(stored is array for stored in arrays.values()), kind
        other = clone(obj)
        assert type(other) is type(obj)
        for path, stored in arrays.items():
            copied = attrgetter(path)(other)
            assert not copied.flags.writeable, (kind, path)
            assert np.array_equal(copied, stored), (kind, path)
