"""Every name a module exports is really there, and the package uses it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import mixdih


def test_all_names_exist():
    declaring = 0
    for info in pkgutil.iter_modules(mixdih.__path__):
        module = importlib.import_module(f"mixdih.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        declaring += 1
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"mixdih.{info.name}.__all__ names missing attributes: {missing}"
    assert declaring >= 4


def _public_definitions(tree):
    """The public top-level defs and classes of a module, and the public
    methods of every class in it, as (name, label, is_method) with
    Class.method labels for the methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, f"{node.name}.{item.name}", True


def test_public_names_are_used_in_src():
    # a name counts as used when src/mixdih reads it as a variable or an
    # attribute, and a method or property only when src/mixdih reads it
    # as an attribute (a local variable of the same name is not a use);
    # its def or class line and its __all__ string are neither, so API
    # that only its own unit tests call fails here.  Checked: every
    # __all__ entry, every public top-level def and class, and every
    # public method, of every module
    src = Path(mixdih.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    used = names | attrs
    for info in pkgutil.iter_modules(mixdih.__path__):
        module = importlib.import_module(f"mixdih.{info.name}")
        unused = [name for name in getattr(module, "__all__", ()) if name not in used]
        unused += [
            label
            for name, label, is_method in _public_definitions(trees[info.name])
            if name not in (attrs if is_method else used)
        ]
        assert not unused, f"mixdih.{info.name} public names unused in src/mixdih: {unused}"


def test_benchmark_tracer_finds_the_names_it_wraps(monkeypatch, p59):
    # perfbench/traced.py wraps engine names it looks up by attribute;
    # building its patch lists (without applying them) fails here when
    # one of those names is deleted or renamed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    traced = importlib.import_module("traced")
    assert traced.descent_layers(traced.Tracer(), p59)
    assert traced.battery_layers(traced.Tracer())
    assert traced.search.SearchConfig().worker_count() == 1


def _imported_names(tree):
    """(name, line) for each name an import in the module binds, at the
    line of its alias; __future__ imports bind none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno


def test_imported_names_are_read():
    # no linter is installed, so this is pyflakes' F401 on src/mixdih: a
    # name a module imports must be read in that module (a loaded Name,
    # which includes annotations and attribute bases), unless its import
    # line says "# noqa: F401", as a deliberate re-export does
    src = Path(mixdih.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        tree = ast.parse("\n".join(lines))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree)
            if name not in read and "# noqa: F401" not in lines[line - 1]
        ]
    assert not unread, f"imported names never read: {unread}"
