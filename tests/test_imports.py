"""Import hygiene of the package modules, read from their syntax trees.

Every module-level import is used, every private module-level name is
read somewhere in the package (so a deletion leaves no orphaned helper), no
function imports anything (so no import cycle is dodged at call time), and
the leaf modules `graphs` and `lyapunov` import nothing from the package.
`__init__.py` only re-exports and is not checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "consensus_lab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
LEAVES = {"graphs", "lyapunov"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _private_names(tree: ast.Module) -> dict[str, int]:
    """Single-underscore name bound by each module-level def, class or
    assignment -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update(
            (name, node.lineno)
            for name in bound
            if name.startswith("_") and not name.startswith("__")
        )
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return used


def test_modules_found():
    assert {p.stem for p in MODULES} >= LEAVES | {"cli", "dynamics", "simulator"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = sorted(
        (line, name) for name, line in _imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_private_module_name_is_read_in_the_package():
    # 0.1 s
    used = set().union(*(_used_names(_tree(p)) for p in PACKAGE.glob("*.py")))
    defined = {p.name: _private_names(_tree(p)) for p in MODULES}
    assert "_exact_cross" in defined["lyapunov.py"]  # the walk sees defs
    unread = sorted(
        (module, line, name)
        for module, names in defined.items()
        for name, line in names.items()
        if name not in used
    )
    assert not unread, f"private names read nowhere in the package: {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    inner = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner += [
                (node.lineno, fn.name if hasattr(fn, "name") else "<lambda>")
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert not inner, f"{path.name}: imports inside functions {sorted(set(inner))}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem in LEAVES], ids=lambda p: p.name)
def test_leaf_modules_import_nothing_from_the_package(path):
    internal = [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "consensus_lab")
        or isinstance(node, ast.Import)
        and any(a.name.split(".")[0] == "consensus_lab" for a in node.names)
    ]
    assert not internal, f"{path.name} imports from the package at lines {internal}"
