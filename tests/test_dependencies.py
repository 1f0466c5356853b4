"""The runtime dependencies the package declares are the ones it imports."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import araki_mi

PACKAGE = Path(araki_mi.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
TESTS = Path(__file__).resolve().parent


def module_trees(directory: Path = PACKAGE) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def third_party_imports() -> set[str]:
    names = set()
    for tree in module_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "araki_mi"}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports but never reads (the base of `np.linalg` is an ast.Name too)."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return imported - read


def test_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in declared}
    assert third_party_imports() <= names
    assert names == {"numpy"}


def test_modules_import_no_unused_names():
    trees = {**module_trees(), **{f"tests/{name}": tree for name, tree in module_trees(TESTS).items()}}
    unused = {name: sorted(unused_imports(tree)) for name, tree in trees.items() if name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_tau_integrals_load_no_scipy():
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import numpy as np; "
            "from araki_mi import tau; from araki_mi.rand import random_psd, random_block_projection; "
            "rng = np.random.default_rng(0); a = random_psd(rng, 6); p = random_block_projection(rng, 6); "
            "tau.tau_integral(a, p); tau.key_trace_bound(a, p, 0.01); tau.tail_integral_identity_gap(a, p); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
