"""Source rules for src/lemmakit: modules share only public names, and every
import sits at module level, where a reader of the module sees it."""

import ast
from pathlib import Path

import pytest

import lemmakit

SRC = Path(lemmakit.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
PACKAGE = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def rule_violations(source: str) -> list[str]:
    """Line-tagged violations in one lemmakit module's source: a private name
    taken from another lemmakit module, or an import inside a function."""
    tree = ast.parse(source)
    out = []
    aliases = set()  # local names bound to lemmakit modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "lemmakit"
        ):
            parts = (node.module or "").split(".")
            out += [f"{node.lineno}: from {node.module}" for p in parts if _private(p)]
            for a in node.names:
                if _private(a.name):
                    out.append(f"{node.lineno}: imports {a.name}")
                elif not node.module or node.module == "lemmakit":
                    if a.name in PACKAGE:
                        aliases.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "lemmakit" and any(_private(p) for p in parts):
                    out.append(f"{node.lineno}: imports {a.name}")
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                out.append(f"{node.lineno}: uses {node.value.id}.{node.attr}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    out.append(f"{inner.lineno}: import inside {node.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_follows_source_rules(path):
    assert rule_violations(path.read_text(encoding="utf-8")) == []


def test_rules_catch_each_violation():
    source = '''
from .terms import _unify, parse_term
from . import instantiation as inst
from lemmakit.terms import _BASE


def f():
    import os
    return inst._FreshNames, inst.__name__
'''
    assert rule_violations(source) == [
        "2: imports _unify",
        "4: imports _BASE",
        "8: import inside f",
        "9: uses inst._FreshNames",
    ]
