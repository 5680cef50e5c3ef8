"""Source rules for src/lemmakit: modules share only public names, every
import sits at module level, where a reader of the module sees it, nothing
outside the standard library is imported, so lemmakit has no runtime
dependency, no nested function is recursive, so no call leaves a
reference cycle for the collector, and no module-level name starts out as an
empty container, so every cache lives in a call, a suite group or an
object instead of growing for the life of the process, and every
module-level private function or class is referenced outside its own body,
so there is no helper that nothing calls.  A public module-level function or
class is either referenced outside its own body, in its own module or in
another, or named in `lemmakit.__all__`, the API that the package declares.
Only `abstract` and `parse_template` in `templates.py` call `Template(`, so
every template was either built by abstraction's walk or passed the gate."""

import ast
import sys
from pathlib import Path

import pytest

import lemmakit

SRC = Path(lemmakit.__file__).parent
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
MODULES = sorted(SRC.glob("*.py"))
PACKAGE = {p.stem for p in MODULES}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def rule_violations(source: str) -> list[str]:
    """Line-tagged violations in one lemmakit module's source: a private name
    taken from another lemmakit module, an import inside a function, an
    import of a module outside the standard library, or a recursive
    function nested in a function."""
    tree = ast.parse(source)
    out = []
    aliases = set()  # local names bound to lemmakit modules
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops = [node.module.split(".")[0]]
        else:
            tops = []
        out += [
            f"{node.lineno}: imports third-party {top}"
            for top in tops
            if top != "lemmakit" and top not in sys.stdlib_module_names
        ]
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
            out += [
                f"{f.lineno}: recursive closure {f.name} in {node.name}"
                for f in _recursive_closures(node)
            ]
    return out


def _recursive_closures(fn: ast.AST) -> list[ast.AST]:
    """The functions nested in `fn` that refer to themselves, directly or
    through other functions nested in `fn`.  Each such closure holds itself
    through its cell, so every call of `fn` leaves a reference cycle."""
    nested = {
        f.name: f
        for f in ast.walk(fn)
        if f is not fn and isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    refers = {
        name: {n.id for n in ast.walk(f) if isinstance(n, ast.Name)} & nested.keys()
        for name, f in nested.items()
    }
    out = []
    for name, f in nested.items():
        seen, todo = set(), list(refers[name])
        while todo:
            g = todo.pop()
            if g not in seen:
                seen.add(g)
                todo += refers[g]
        if name in seen:
            out.append(f)
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


import json, requests.adapters
from urllib.request import urlopen


def parity(n):
    def even(k):
        return k == 0 or odd(k - 1)

    def odd(k):
        return k != 0 and even(k - 1)

    def show(k):
        return str(even(k))

    return show(n)
'''
    assert rule_violations(source) == [
        "2: imports _unify",
        "4: imports _BASE",
        "8: import inside f",
        "12: imports third-party requests",
        "17: recursive closure even in parity",
        "20: recursive closure odd in parity",
        "9: uses inst._FreshNames",
    ]


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


def _empty_container(node: ast.AST) -> bool:
    """Whether `node` is `{}`, `[]`, `dict()` or `set()`."""
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "set")
        and not node.args
        and not node.keywords
    )


def _unbounded_cache(decorator: ast.expr) -> bool:
    """Whether `decorator` is functools' `cache` or `lru_cache(maxsize=None)`,
    by bare or dotted name."""
    call = decorator if isinstance(decorator, ast.Call) else None
    fn = call.func if call else decorator
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
    if name == "cache":
        return call is None
    if name != "lru_cache" or call is None:
        return False
    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def module_memos(source: str) -> list[str]:
    """Line-tagged module-level names bound to an empty container, and
    module-level functions behind an unbounded functools cache: such a name
    is a memo or registry that outlives every call."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            if any(_unbounded_cache(d) for d in node.decorator_list):
                out.append(f"{node.lineno}: module-level memo {node.name}")
            continue
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if _empty_container(value):
            out += [
                f"{node.lineno}: module-level memo {ast.unparse(t)}" for t in targets
            ]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_no_module_level_memo(path):
    assert module_memos(path.read_text(encoding="utf-8")) == []


def test_memo_rule_catches_each_form():
    source = '''
_CACHE = {}
SEEN: list[str] = []
a = b = dict()
_NAMES = set()
TABLE = {"x": 1}
ORDER = ["x"]
PAIRS = dict(x=1)
LETTERS = set("ab")
EMPTY = frozenset()


def f():
    local = {}
    return local


class Holder:
    slots = {}

    @functools.cache
    def method(self):
        return 1


@lru_cache(maxsize=None)
def phi(n):
    return n


@functools.cache
def fib(n):
    return n


@functools.lru_cache(None)
def square(n):
    return n * n


@lru_cache(maxsize=64)
def bounded(n):
    return n


@lru_cache
def default_size(n):
    return n
'''
    assert module_memos(source) == [
        "2: module-level memo _CACHE",
        "3: module-level memo SEEN",
        "4: module-level memo a",
        "4: module-level memo b",
        "5: module-level memo _NAMES",
        "27: module-level memo phi",
        "32: module-level memo fib",
        "37: module-level memo square",
    ]


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """The module-level functions and classes of `tree`."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds)]


def _referenced_outside(node: ast.AST, tree: ast.Module) -> bool:
    """Whether a name in `tree` outside `node`'s own definition refers to it."""
    inside = {id(n) for n in ast.walk(node)}
    return any(
        isinstance(n, ast.Name) and n.id == node.name and id(n) not in inside
        for n in ast.walk(tree)
    )


def unreferenced_helpers(source: str) -> list[str]:
    """Line-tagged module-level private functions and classes that no name
    outside their own definition refers to."""
    tree = ast.parse(source)
    return [
        f"{node.lineno}: unreferenced {node.name}"
        for node in _definitions(tree)
        if _private(node.name) and not _referenced_outside(node, tree)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unreferenced_helper(path):
    assert unreferenced_helpers(path.read_text(encoding="utf-8")) == []


def test_helper_rule_catches_each_form():
    source = '''
def _helper(x):
    return x


def _walk(node):
    return [_walk(c) for c in node]


class _Unused:
    def method(self):
        return _Unused()


def _called(x):
    return x


class _Annotated:
    pass


def _decorator(f):
    return f


@_decorator
def _registered():
    pass


def public(x: _Annotated):
    return _called(x)
'''
    assert unreferenced_helpers(source) == [
        "2: unreferenced _helper",
        "6: unreferenced _walk",
        "10: unreferenced _Unused",
        "28: unreferenced _registered",
    ]


def _module_of(node: ast.ImportFrom) -> str | None:
    """The package module that `node` imports from, without the package:
    "corpus" for `from .corpus import ...` and `from lemmakit.corpus import
    ...`, "" for `from . import ...` and `from lemmakit import ...`, and None
    for an import from outside the package."""
    module = node.module or ""
    if node.level == 1:
        return module
    if node.level == 0 and module.split(".")[0] == "lemmakit":
        return module[len("lemmakit.") :]
    return None


def unreferenced_public(sources: dict[str, str]) -> list[str]:
    """Module- and line-tagged public module-level functions and classes of a
    package, given as module name -> source, that no name refers to outside
    their own definition, no other module imports (`from .m import f`) or
    reaches through a module alias (`alias.f` after `from . import m as
    alias`), and that the package's `__init__` does not name in `__all__`.
    The imports of `__init__` do not count: `__all__` is what declares the
    API."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    used = set()  # (module, name) reached from another module
    exported = set()
    for module, tree in trees.items():
        if module == "__init__":
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    exported |= {e.value for e in node.value.elts}
            continue
        aliases = {}  # local name -> package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = _module_of(node)
                for a in node.names if source is not None else ():
                    if source:
                        used.add((source, a.name))
                    elif a.name in trees:
                        aliases[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.add((aliases[node.value.id], node.attr))
    return [
        f"{module}:{node.lineno}: unreferenced {node.name}"
        for module, tree in trees.items()
        for node in _definitions(tree)
        if not _private(node.name)
        and node.name not in exported
        and (module, node.name) not in used
        and not _referenced_outside(node, tree)
    ]


@pytest.fixture(scope="module")
def package_unreferenced():
    return unreferenced_public({p.stem: p.read_text(encoding="utf-8") for p in MODULES})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_public_names_are_api_or_referenced(path, package_unreferenced):
    assert [v for v in package_unreferenced if v.startswith(f"{path.stem}:")] == []


def test_public_rule_catches_each_form():
    sources = {
        "__init__": '''
from .a import exported, unused

__all__ = ["exported"]
''',
        "a": '''
def unused():
    return 1


def exported():
    return 2


def imported():
    return 3


def through_alias():
    return 4


def recursive(n):
    return recursive(n - 1) if n else 0


class Local:
    pass


def _private():
    return Local()
''',
        "b": '''
from . import a as a_mod
from .a import imported


def _user():
    return imported() + a_mod.through_alias()
''',
    }
    assert unreferenced_public(sources) == [
        "a:2: unreferenced unused",
        "a:18: unreferenced recursive",
    ]


def template_calls(source: str) -> list[str]:
    """Line-tagged calls of `Template`, by bare, aliased or dotted name, each
    with the module-level function or class that holds it."""
    tree = ast.parse(source)
    names = {"Template"} | {
        a.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.name == "Template" and a.asname
    }
    out = []
    for top in tree.body:
        for n in ast.walk(top):
            if isinstance(n, ast.Call) and (
                (isinstance(n.func, ast.Name) and n.func.id in names)
                or (isinstance(n.func, ast.Attribute) and n.func.attr == "Template")
            ):
                where = getattr(top, "name", "module level")
                out.append(f"{n.lineno}: calls {ast.unparse(n.func)} in {where}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_gate_and_abstract_make_a_template(path):
    found = template_calls(path.read_text(encoding="utf-8"))
    if path.name == "templates.py":
        assert [f.rsplit(" in ", 1)[1] for f in found] == ["abstract", "parse_template"]
    else:
        assert found == []


def test_template_rule_catches_each_form():
    source = '''
from .templates import Template, parse_template
from .templates import Template as T
from . import templates as tm


def build(body):
    return Template(body, 0, {}, "")


class Holder:
    def make(self, body):
        return T(body, 0, {}, "")


DEFAULT = tm.Template(None, 0, {}, "")
CHECKED = parse_template(TEXT)
'''
    assert template_calls(source) == [
        "8: calls Template in build",
        "13: calls T in Holder",
        "16: calls tm.Template in module level",
    ]
