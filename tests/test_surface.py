"""The package surface: every name the package defines is used by the package,
every name a module of the package, the scripts or the tests imports is
used by it, every dataclass field it declares is read, and every script
starts as a file."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_import_is_used():
    """A name a module imports is loaded in that module, or, in __init__.py,
    exported through __all__; a deletion leaves no import behind.  The
    scripts and the tests are held to the same rule."""
    unused = []
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("scripts/*.py")), *sorted(ROOT.glob("tests/*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                imported.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused.extend(f"{path.relative_to(ROOT)}: {name}" for name in imported if name not in used)
    assert unused == []


@pytest.mark.parametrize("cwd", ["root", "elsewhere"])
@pytest.mark.parametrize("script", ["identity_matrix.py", "matrix_diff.py", "bench.py"])
def test_every_script_starts_as_a_file(script, cwd, tmp_path):
    """pytest puts `scripts/` on the path, which would hide an import that
    works only under pytest; run as a file with only `src/` on the path,
    from the repository or from elsewhere, each script prints its help."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--help"],
        cwd=ROOT if cwd == "root" else tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


def test_package_root_exports_the_entry_points():
    assert sorted(intersection_game.__all__) == ["emit", "load_scenario", "metrics", "run"]
