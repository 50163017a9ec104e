"""The library's modules import one another in layers, lowest first."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "adelicdyn"

#: Each layered module and the package modules it may import from.
LAYERS = {
    "errors": set(),
    "exact": {"errors"},
    "padic": {"errors", "exact"},
    "moebius": {"errors", "exact"},
    "classification": {"errors", "exact", "padic", "moebius"},
    "dynamics": {"errors", "exact", "padic", "moebius"},
}


def package_imports(path: Path) -> set[str]:
    """The package modules that the source at `path` imports anywhere in it;
    the package itself counts as "adelicdyn"."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            # `from .x import y` imports x; `from . import x` imports x
            names = [f"adelicdyn.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            if name == "adelicdyn" or name.startswith("adelicdyn."):
                found.add(name.split(".")[1] if "." in name else name)
    return found


@pytest.mark.parametrize("module", LAYERS)
def test_a_module_imports_only_from_the_layers_below_it(module):
    assert package_imports(SRC / f"{module}.py") <= LAYERS[module]


def test_the_oracle_imports_nothing_from_the_package():
    # the definitions the tests check the library against stay independent of it
    assert package_imports(Path(__file__).resolve().parent / "oracle.py") == set()


def test_the_layer_check_reads_every_import_form(tmp_path):
    source = (
        "import math\nimport adelicdyn.padic\nfrom . import moebius\n"
        "from .exact import rational\nfrom adelicdyn import classification\n"
        "def late():\n    from adelicdyn.dynamics import step_adele\n"
    )
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert package_imports(probe) == {"padic", "moebius", "exact", "adelicdyn", "dynamics"}
