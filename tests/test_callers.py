"""Every top-level function and class of the package, and every non-dunder
method of its classes, has a caller in src/, tests/, scripts/ or
perfbench/, outside its own definition and the exports of
cycloper/__init__.py.  Only code counts, not strings or comments: a
top-level name must occur as a name token, and a method as a `.name`
attribute access."""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cycloper"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def name_tokens():
    """{path: [(line index, name, follows a dot)]} of the name tokens of
    every Python file that may call into the package."""
    out = {}
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            toks = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
            out[path] = [
                (tok.start[0] - 1, tok.string, i > 0 and toks[i - 1].string == ".")
                for i, tok in enumerate(toks) if tok.type == tokenize.NAME
            ]
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


def uncalled(select, attribute):
    """Definitions picked by select(tree) whose name no code outside them
    uses: as a name token, or only as an attribute for attribute=True."""
    files = name_tokens()
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in select(ast.parse(path.read_text())):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            used = any(
                name == node.name and (dotted or not attribute)
                for other, toks in files.items()
                for i, name, dotted in toks
                if not (other == path and first <= i < node.end_lineno)
            )
            if not used:
                out.append(f"{path.name}:{node.lineno} {node.name}")
    return out


def test_every_top_level_definition_has_a_caller():
    missing = uncalled(top_level, attribute=False)
    assert not missing, "no caller: " + ", ".join(missing)


def test_every_method_has_a_caller():
    missing = uncalled(methods, attribute=True)
    assert not missing, "no caller: " + ", ".join(missing)
