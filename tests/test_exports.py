"""Every name the package exports is referenced outside its own definition.

The exported names are the ones src/ellspec/__init__.py imports.  Each
must occur as a word, outside the def, class or assignment that defines
it, in another module of the package, a script, the benchmark, or the
acceptance tests.  Unit tests do not count: a name that only its own
tests call has no consumer.
"""

from __future__ import annotations

import ast
import re
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


def unreferenced(names: set[str]) -> set[str]:
    missing = set(names)
    for path in consumer_files():
        text = path.read_text(encoding="utf-8")
        defined = definition_lines(ast.parse(text, filename=str(path)))
        for lineno, line in enumerate(text.splitlines(), start=1):
            missing -= {
                name
                for name in missing
                if lineno not in defined.get(name, ()) and re.search(rf"\b{name}\b", line)
            }
    return missing


def test_every_export_is_referenced():
    assert sorted(unreferenced(exported_names())) == []
