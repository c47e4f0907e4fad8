"""The package surface: every name the package defines is used by the package,
and every dataclass field it declares is read."""

import ast
from pathlib import Path

import intersection_game

PACKAGE = Path(intersection_game.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


def _defined_and_loaded():
    """Names defined at module level or as non-dunder methods, each with the
    node defining it, and every name the package loads outside __init__.py."""
    defined = []
    loaded = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        defined.append((f"{path.stem}.{node.name}.{item.name}", item))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.append((node.id, node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                loaded.extend((alias.name, node) for alias in node.names)
    return defined, loaded


def test_every_definition_is_used_by_the_package():
    """Code that only tests reach goes; the CLI, scripts and benchmark reach
    the package through names it also uses itself.

    Matching is by bare name, so the check is coarse: a method passes when
    any attribute of that name is loaded anywhere in the package, whatever
    its owner (a method `point_at` on any class would pass because
    `Route.point_at` loads `.point_at`)."""
    defined, loaded = _defined_and_loaded()
    unused = []
    for qualname, definition in defined:
        inside = {id(n) for n in ast.walk(definition)}
        name = qualname.rsplit(".", 1)[1]
        if not any(n == name and id(node) not in inside for n, node in loaded):
            unused.append(qualname)
    assert unused == []


def _dataclass_fields():
    """(qualified name, field name) of every annotated field of a
    @dataclass defined in the package."""
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    fields.append((f"{path.stem}.{node.name}.{item.target.id}", item.target.id))
    return fields


def test_every_dataclass_field_is_read():
    """A field that is only ever written stores a value nothing uses.  The
    scripts and the benchmark count as readers: they read fields of the run
    results and vehicle specs.

    Matching is by bare attribute name, as above."""
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [qualname for qualname, name in _dataclass_fields() if name not in read] == []


def test_package_root_exports_the_entry_points():
    assert sorted(intersection_game.__all__) == ["emit", "load_scenario", "metrics", "run"]
