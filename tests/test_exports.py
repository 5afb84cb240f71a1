"""Every name the package defines is read by code outside its own definition.

The names checked are the ones src/ellspec/__init__.py imports, every
module-level def, class and assignment of the other package modules, and
every method and property their classes define, private ones included and
dunder methods aside; a member is read by its attribute name.  Each must
be read by code in a module of the package, a script, the benchmark, or
the acceptance tests: loaded as a name or an attribute, outside the def,
class or assignment that defines it, or imported by a file outside the
package.  Being imported by __init__.py does not count, nor does a word
in a docstring or a comment.  Unit tests do not count either: a name
that only its own tests call has no consumer.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ellspec"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def module_level_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def class_members() -> dict[str, str]:
    """Each method and property of a package class, dunders aside, as
    "Class.name" keyed to the attribute name code reads it by."""
    members = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        members[f"{node.name}.{item.name}"] = item.name
    return members


# Kept for the planned `ellspec replay` command (ROADMAP item 5), which
# decodes the verdict of a stored reply; until then only tests read it.
AWAITING_CONSUMER = {"decode_verdict"}


def consumer_files() -> list[Path]:
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    return files + [ROOT / "tests" / "test_acceptance.py"]


def definition_lines(tree: ast.Module) -> dict[str, set[int]]:
    """Line numbers of each def, class (decorators included) and assignment, by name."""
    lines: dict[str, set[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            start = node.lineno
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            lines.setdefault(name, set()).update(range(start, node.end_lineno + 1))
    return lines


def references(path: Path) -> set[str]:
    """The names code in the file reads, each outside its own definition."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = definition_lines(tree)
    outside = PACKAGE not in path.parents
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif outside and isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if node.lineno not in defined.get(name, ()):
            found.add(name)
    return found


def unreferenced(names: set[str]) -> set[str]:
    missing = set(names)
    for path in consumer_files():
        missing -= references(path)
    return missing


def test_every_export_is_referenced():
    assert sorted(unreferenced(exported_names())) == []


def test_every_module_level_definition_is_referenced():
    assert sorted(unreferenced(module_level_names())) == sorted(AWAITING_CONSUMER)


def test_every_class_member_is_referenced():
    members = class_members()
    missing = unreferenced(set(members.values()))
    assert sorted(qualified for qualified, name in members.items() if name in missing) == []


# Base numbers are compared, filed and drawn in surface alone; bundles
# builds its fibre plan and modification check on the index.
SURFACE_ONLY = {"_same_base_number", "_base_tau", "_candidate", "_first_uniforms", "_CLEARANCE"}


def identifiers(path: Path) -> set[str]:
    """Every name, attribute, import and definition in the file's code."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_base_numbers_stay_in_surface():
    crossings = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "surface.py":
            continue
        private = SURFACE_ONLY if path.name == "bundles.py" else SURFACE_ONLY | {"_BaseIndex"}
        if named := identifiers(path) & private:
            crossings[path.name] = sorted(named)
    assert crossings == {}


# A bisection's internals are read in jacobian alone, and in the codec that
# writes and reads them; bundles works with whole bisections, and leaves
# testing, building and dualising an irreducible one to jacobian.
COVER_ONLY = {
    "DoubleCoverData",
    "RationalMap",
    "branch_points_numeric",
    "trace",
    "norm",
    "branch_points",
    "declared_self_intersection",
}


def test_cover_fields_stay_in_jacobian():
    crossings = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in {"jacobian.py", "schemas.py", "__init__.py"}:
            continue
        private = COVER_ONLY
        if path.name == "bundles.py":
            private = COVER_ONLY | {"is_invariant_bisection", "irreducible_bisection", "group_inv"}
        if named := identifiers(path) & private:
            crossings[path.name] = sorted(named)
    assert crossings == {}
