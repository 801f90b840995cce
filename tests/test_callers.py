"""Every top-level function and class of the package has a caller: its name
appears somewhere in src/, tests/, scripts/ or perfbench/ outside its own
definition and the exports of cycloper/__init__.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycloper"


def sources():
    """{path: lines} of every Python file that may call into the package."""
    out = {}
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                out[path] = path.read_text().splitlines()
    return out


def test_every_top_level_definition_has_a_caller():
    files = sources()
    uncalled = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            used = any(
                word.search(line)
                for other, lines in files.items()
                for i, line in enumerate(lines)
                if not (other == path and first <= i < node.end_lineno)
            )
            if not used:
                uncalled.append(f"{path.name}:{node.lineno} {node.name}")
    assert not uncalled, "no caller: " + ", ".join(uncalled)
