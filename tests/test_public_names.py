"""Names that code outside the library reaches for by string exist."""

import copy
import dataclasses
import importlib
import importlib.util
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import adelicdyn
from adelicdyn import errors

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


def test_each_public_name_is_declared_once_where_it_is_defined():
    # the package republishes its modules' `__all__` lists, so a name is
    # declared in the module that defines it and nowhere else
    layers = ("classification", "dynamics", "exact", "moebius", "padic")
    modules = [importlib.import_module(f"adelicdyn.{layer}") for layer in layers]
    declared = [name for module in modules for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert adelicdyn.__all__ == sorted(declared)
    for module in modules:
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):  # a class or a function, not REAL or INFINITE
                assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"
    tracer = _load_tracer()
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"adelicdyn.{layer}")
        for name in names:
            assert name in module.__all__ or name in tracer.MOEBIUS_METHODS, f"{layer}.{name}"


def test_records_are_named_tuples_and_value_types_are_validated_values():
    # records that only carry data are NamedTuples, like Step; the value
    # types check their fields in the constructor, are immutable and are
    # no tuples, so no tuple method can build one unchecked
    classes = [
        obj
        for name in dir(adelicdyn)
        for obj in [getattr(adelicdyn, name)]
        if isinstance(obj, type) and obj.__module__.startswith("adelicdyn.")
    ]
    assert not [cls for cls in classes if dataclasses.is_dataclass(cls)]
    records = {
        "Factorization", "PAdicExpansion", "FixedPoints", "PlaceClassification",
        "ExceptionalSets", "AdelicFixedPointReport", "IndifferenceAudit", "Step",
        "TrajectoryRecord", "BehaviorEvidence", "BehaviorVerdict", "BasinPoint",
        "ProductFormulaReport",
    }
    for name in records:
        cls = getattr(adelicdyn, name)
        assert issubclass(cls, tuple) and cls._fields, name
    m = adelicdyn.MoebiusMap(1, 2, 3, 4)
    uncached_bytes, uncached_repr = pickle.dumps(m), repr(m)
    values = [
        m, adelicdyn.Place(3), adelicdyn.principal_adele(Fraction(1, 6)),
        # built unchecked: the closed-form power, with distinct and fused
        # eigenvalues, a power by repeated squaring (discriminant 5) and a step
        adelicdyn.MoebiusMap(2, 0, 1, 1).power(5),
        adelicdyn.MoebiusMap(3, 2, -2, -1).power(5),
        adelicdyn.MoebiusMap(2, 1, 1, 1).power(5),
        adelicdyn.step_adele(m, adelicdyn.principal_adele(Fraction(1, 6))),
    ]
    for value in values:
        assert not isinstance(value, tuple), value
        for name in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        rebuilt = pickle.loads(pickle.dumps(value))
        assert rebuilt == value and hash(rebuilt) == hash(value)
        if isinstance(value, adelicdyn.AdelePoint):  # both read-only
            for point in (value, rebuilt):
                with pytest.raises(TypeError):
                    point.finite[4] = Fraction(1)
                assert point.listed_primes() == (2, 3)
    # the slot `_cleared` is a cache, not a field: once `_matrix` has filled
    # it, the map compares, hashes, prints, pickles and copies as before,
    # and the cache still refuses writes
    assert m._matrix() is m._cleared
    uncached = adelicdyn.MoebiusMap(*m.coefficients())
    assert m == uncached and hash(m) == hash(uncached)
    assert repr(m) == uncached_repr and pickle.dumps(m) == uncached_bytes
    assert copy.copy(m) == m and copy.deepcopy(m) == m
    with pytest.raises(AttributeError):
        setattr(m, "_cleared", (1, 2, 3, 4))
    with pytest.raises(AttributeError):
        delattr(m, "_cleared")
    for build, error in [
        (lambda: adelicdyn.MoebiusMap(1, 2, 2, 4), errors.SingularMap),
        (lambda: adelicdyn.Place(4), errors.NotPrime),
        (lambda: adelicdyn.AdelePoint(0, {2: 0}, Fraction(1, 3)), errors.NonIntegralTail),
        (lambda: adelicdyn.AdelePoint(0, {4: 0}, 0), errors.NotPrime),
    ]:
        with pytest.raises(error):
            build()
    assert adelicdyn.Place(3) == adelicdyn.Place(3)
    assert hash(adelicdyn.Place(3)) == hash(adelicdyn.Place(3))
    assert adelicdyn.Place(3) != (3,)
    assert m.compose(m) == adelicdyn.MoebiusMap(*m.compose(m).coefficients())
