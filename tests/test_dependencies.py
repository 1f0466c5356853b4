"""The runtime dependencies the package declares are the ones it imports, and every public name is used."""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import araki_mi

PACKAGE = Path(araki_mi.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
README = PACKAGE.parents[1] / "README.md"
BENCH = PACKAGE.parents[1] / "bench"
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


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """The module's top-level functions, classes and assigned names without a leading underscore."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
    return {name: node for name, node in defined.items() if not name.startswith("_")}


def package_reads(node: ast.AST, module: str | None = None) -> set[tuple[str, str]]:
    """(module, name) pairs that `node` reads: `from .m import name`, `m.name`, and, inside
    `module` itself, a bare `name`."""
    reads = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and (sub.level == 1 or (sub.module or "").startswith("araki_mi.")):
            if sub.module:
                reads.update((sub.module.rsplit(".", 1)[-1], alias.name) for alias in sub.names)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            reads.add((sub.value.id, sub.attr))
        elif module is not None and isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads.add((module, sub.id))
    return reads


def readme_library_api() -> set[tuple[str, str]]:
    """The `module.name` entries of the README's "Library API" section."""
    section = README.read_text(encoding="utf-8").split("## Library API", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)\.(\w+)`", section))


def test_every_public_name_is_read_or_listed():
    # A public name must be read by the package outside its own definition, or by the benchmark's
    # scripts, or be listed as library API in the README; `cli.cmd_*` is read through main's
    # dispatch by name.  A name that only the tests read belongs in the tests.
    trees = {Path(name).stem: tree for name, tree in module_trees().items()}
    tops = [(top, package_reads(top, module)) for module, tree in trees.items() for top in tree.body]
    bench = set().union(*(package_reads(tree) for tree in module_trees(BENCH).values()))
    defined = {(module, name): node for module, tree in trees.items()
               for name, node in public_definitions(tree).items()}
    listed = readme_library_api()
    unread = sorted(f"{module}.{name}" for (module, name), node in defined.items()
                    if not (module == "cli" and name.startswith("cmd_")) and (module, name) not in listed
                    and (module, name) not in bench and not any((module, name) in reads
                                                                 for top, reads in tops if top is not node))
    assert unread == []
    assert listed <= defined.keys()


# Receivers that hold no instance of a package class although the package reads attributes on them
# that a package class also defines: the CLI's argparse namespace (`args.k`, `args.gram`).
FOREIGN_RECEIVERS = {"cli": {"args"}}


def attribute_reads(node: ast.AST, module: str = "", tree: ast.AST | None = None) -> Counter:
    """How often `node` reads each attribute name `x.name` where x may be an instance or class of the
    package: not where x is rooted at a module that `tree` (node's module) imports, such as
    `np.trace`, nor at a receiver FOREIGN_RECEIVERS lists for `module`."""
    foreign = set(FOREIGN_RECEIVERS.get(module, ()))
    for sub in ast.walk(node if tree is None else tree):
        if isinstance(sub, ast.Import):
            foreign.update((alias.asname or alias.name).split(".")[0] for alias in sub.names)
        elif isinstance(sub, ast.ImportFrom) and sub.module is None:        # from . import module
            foreign.update(alias.asname or alias.name for alias in sub.names)
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            root = sub.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                reads[sub.attr] += 1
    return reads


def test_every_public_method_is_read():
    # The methods and properties of the public classes are held to the same rule, by name: one is
    # read where the package reads `.name` outside the method's own definition, on a receiver that
    # is not a module or a known foreign object, or the benchmark's scripts read it.
    trees = {Path(name).stem: tree for name, tree in module_trees().items()}
    package = sum((attribute_reads(tree, module) for module, tree in trees.items()), Counter())
    bench = sum((attribute_reads(tree) for tree in module_trees(BENCH).values()), Counter())
    unread = sorted(f"{module}.{cls.name}.{fn.name}" for module, tree in trees.items()
                    for cls in public_definitions(tree).values() if isinstance(cls, ast.ClassDef)
                    for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and not bench[fn.name] and package[fn.name] == attribute_reads(fn, module, tree)[fn.name])
    assert unread == []


def test_oracles_read_only_input_checks_and_draws():
    # An oracle that reached into the construction under test would judge the package by itself.
    reads = set()
    for node in ast.walk(ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            reads.update((alias.name, None) for alias in node.names if alias.name.split(".")[0] == "araki_mi")
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "araki_mi"):
            reads.update((node.module, alias.name) for alias in node.names)
    assert reads <= {("araki_mi.fermion", "_checked_intervals"), ("araki_mi.rand", "gaussian_matrix")}
