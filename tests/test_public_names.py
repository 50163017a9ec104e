"""Names that code outside the library reaches for by string exist."""

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
