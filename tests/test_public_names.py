"""Names that code outside the library reaches for by string exist."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import adelicdyn

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_exported_names_exist():
    # the tracer looks its functions up by name, so a renamed or deleted one
    # would otherwise break only traced benchmark runs
    tracer = _load_tracer()
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"adelicdyn.{layer}")
        for name in names:
            if layer == "moebius" and name in tracer.MOEBIUS_METHODS:
                assert callable(adelicdyn.MoebiusMap.__dict__.get(name)), name
            else:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name in adelicdyn.__all__:
        assert hasattr(adelicdyn, name), name


def test_records_are_named_tuples_and_only_value_types_are_dataclasses():
    # records that only carry data are NamedTuples, like Step; the value
    # types that validate their fields keep a constructor check
    classes = [
        obj
        for name in dir(adelicdyn)
        for obj in [getattr(adelicdyn, name)]
        if isinstance(obj, type) and obj.__module__.startswith("adelicdyn.")
    ]
    validated = {adelicdyn.MoebiusMap, adelicdyn.Place, adelicdyn.AdelePoint}
    assert {cls for cls in classes if dataclasses.is_dataclass(cls)} == validated
    records = {
        "Factorization", "PAdicExpansion", "FixedPoints", "PlaceClassification",
        "ExceptionalSets", "AdelicFixedPointReport", "IndifferenceAudit", "Step",
        "TrajectoryRecord", "BehaviorEvidence", "BehaviorVerdict", "BasinPoint",
        "ProductFormulaReport",
    }
    for name in records:
        cls = getattr(adelicdyn, name)
        assert issubclass(cls, tuple) and cls._fields, name
