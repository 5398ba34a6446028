"""The package's import graph is one-way: each module imports only from
modules in lower layers, so no helper is borrowed from a module above it."""
import ast
from pathlib import Path

import attndistill

LAYERS = [
    {"__init__", "tensor"},
    {"encoder", "data", "synfile", "losses", "augment"},
    {"distill", "evaluation"},
    {"benchmark", "cli"},
    {"__main__"},
]
LAYER = {name: i for i, names in enumerate(LAYERS) for name in names}
PACKAGE = Path(attndistill.__file__).parent


def _imports(path):
    """The package modules that the module at ``path`` imports."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found |= {n[1] if len(n) > 1 else "__init__"
                      for n in names if n[0] == "attndistill"}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "attndistill":
                continue
            sub = parts[1:] if node.level == 0 else [p for p in parts if p]
            if sub:
                found.add(sub[0])
            else:  # from . import x: a submodule, or a name of the package itself
                found |= {a.name if a.name in modules else "__init__" for a in node.names}
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYER)


def test_modules_import_only_from_lower_layers():
    upward = [(path.stem, dep) for path in sorted(PACKAGE.glob("*.py"))
              for dep in sorted(_imports(path)) if LAYER[dep] >= LAYER[path.stem]]
    assert upward == []


def test_import_parser_sees_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import attndistill.cli\nfrom attndistill.data import x\n"
                   "from . import __version__, tensor as T\nfrom .losses import y\n"
                   "import numpy\nfrom numpy import z\n")
    assert _imports(src) == {"cli", "data", "__init__", "tensor", "losses"}
