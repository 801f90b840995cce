"""Every top-level function and class of the package, and every non-dunder
method of its classes, has a caller: its name appears somewhere in src/,
tests/, scripts/ or perfbench/ outside its own definition and the exports
of cycloper/__init__.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycloper"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def sources():
    """{path: lines} of every Python file that may call into the package."""
    out = {}
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                out[path] = path.read_text().splitlines()
    return out


def top_level(tree):
    return [node for node in tree.body if isinstance(node, DEFS)]


def methods(tree):
    return [
        node
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCS) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def uncalled(select):
    """Definitions picked by select(tree) whose name no line outside them
    mentions as a whole word."""
    files = sources()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in select(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            used = any(
                word.search(line)
                for other, lines in files.items()
                for i, line in enumerate(lines)
                if not (other == path and first <= i < node.end_lineno)
            )
            if not used:
                out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_top_level_definition_has_a_caller():
    missing = uncalled(top_level)
    assert not missing, "no caller: " + ", ".join(missing)


def test_every_method_has_a_caller():
    missing = uncalled(methods)
    assert not missing, "no caller: " + ", ".join(missing)
