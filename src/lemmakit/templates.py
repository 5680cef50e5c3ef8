"""Template abstraction: lemma terms with theory symbols replaced by typed holes.

A template is a canonicalized hole-bearing term.  Constants outside a
whitelist of generic logical symbols become indexed holes (one index per
constant name), type annotations are generalized by replacing maximal
non-function subtrees with shared type variables, and free variables /
binders / type variables get canonical names (x1.., y0.., a0..).

`parse_template` is the one gate that checks a template.  `abstract` builds
one in a walk that keeps every invariant and returns it unchecked; only a
hole met at several types (a polymorphic constant) costs it a merge, and
the merged body passes the gate.  Equal annotations are one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Abs,
    App,
    Bound,
    Const,
    Free,
    Hole,
    LemmakitError,
    Signature,
    TCon,
    TVar,
    Term,
    TypeExpr,
    TypecheckError,
    UnificationError,
    is_fun,
    map_types,
    parse_term,
    render_term,
    resolve,
    strip_spine,
    type_vars,
    typecheck,
    unify_into,
)


class IllTyped(LemmakitError):
    pass


class NonCanonical(LemmakitError):
    pass


BOOL = TCon("HOL.bool")


@dataclass(frozen=True)
class Whitelist:
    """Constants retained verbatim in templates.

    A name is retained iff it starts with one of `prefixes` or equals one of
    `exact`.
    """

    prefixes: frozenset[str]
    exact: frozenset[str]

    def contains(self, name: str) -> bool:
        return name in self.exact or any(name.startswith(p) for p in self.prefixes)


def default_whitelist() -> Whitelist:
    return Whitelist(
        prefixes=frozenset({"HOL.", "Pure."}),
        exact=frozenset(
            {
                "Set.member",
                "Set.Ball",
                "Set.Bex",
                "Product_Type.Pair",
                "Product_Type.prod",
                "Orderings.ord_class.less",
                "Orderings.ord_class.less_eq",
            }
        ),
    )


def load_whitelist(path) -> Whitelist:
    """Whitelist file: UTF-8, one entry per line, '#' comments.

    Entries ending in '.' are prefixes; others are exact names.
    """
    prefixes: set[str] = set()
    exact: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = line.split("#", 1)[0].strip()
            if not entry:
                continue
            if entry.endswith("."):
                prefixes.add(entry)
            else:
                exact.add(entry)
    return Whitelist(prefixes=frozenset(prefixes), exact=frozenset(exact))


@dataclass(frozen=True, eq=False)
class Template:
    """A canonical hole-bearing term plus hole metadata.

    Two templates are "the same" iff their canonical strings are byte-equal.
    """

    body: Term
    hole_count: int
    hole_types: dict[int, TypeExpr]
    canonical: str

    def __eq__(self, other):
        return isinstance(other, Template) and self.canonical == other.canonical

    def __hash__(self):
        return hash(self.canonical)


# ---------------------------------------------------------------------------
# Validation


def _validate_template(body: Term, w: Whitelist) -> dict[int, TypeExpr]:
    """The hole types of a template body, by index.

    One preorder walk notes the first offence of each kind.  NonCanonical
    names the first kind broken, in this order: a non-whitelist constant, a
    hole at two types, hole indices not 1..n by first occurrence, free names
    not x1..xn, a binder not y<depth>, type variables not a0..
    `parse_template` then checks typing.
    """
    foreign = clash = binder = None
    hole_types: dict[int, TypeExpr] = {}
    frees: dict[str, None] = {}
    tvars: list[str] = []
    stack = [(body, 0)]
    while stack:
        node, depth = stack.pop()
        cls = node.__class__
        if cls is App:
            stack.append((node.arg, depth))
            stack.append((node.fn, depth))
        elif cls is Abs:
            if binder is None and node.binder != f"y{depth}":
                binder = f"binder {node.binder!r} at nesting depth {depth} should be y{depth}"
            type_vars(node.binder_type, tvars)
            stack.append((node.body, depth + 1))
        elif cls is not Bound:
            if cls is Const:
                if foreign is None and not w.contains(node.name):
                    foreign = f"non-whitelist constant {node.name!r} in template"
            elif cls is Free:
                frees[node.name] = None
            else:
                seen = hole_types.setdefault(node.index, node.type)
                if clash is None and seen is not node.type and seen != node.type:
                    clash = f"hole {node.index} occurs with differing type annotations"
            type_vars(node.type, tvars)

    if foreign or clash:
        raise NonCanonical(foreign or clash)
    holes = list(hole_types)
    if holes != list(range(1, len(holes) + 1)):
        raise NonCanonical(f"hole indices {holes} are not 1..n by first occurrence")
    names = list(frees)
    if names != [f"x{i}" for i in range(1, len(names) + 1)]:
        raise NonCanonical(f"free variables {names} are not x1..xn by first occurrence")
    if binder:
        raise NonCanonical(binder)
    if tvars != [f"a{i}" for i in range(len(tvars))]:
        raise NonCanonical(f"type variables {tvars} are not a0.. by first occurrence")
    return hole_types


# ---------------------------------------------------------------------------
# Abstraction


class _Abstraction:
    """`abstract`'s walk over one term: the maps it fills as it goes."""

    def __init__(self, w: Whitelist) -> None:
        self.w = w
        self.types: dict[TypeExpr, TypeExpr] = {}
        self.tvars = 0
        self.holes: dict[str, int] = {}
        self.occ_types: dict[int, list[TypeExpr]] = {}
        self.fmap: dict[str, str] = {}

    def gen(self, ty: TypeExpr) -> TypeExpr:
        """`ty` with each maximal non-function subtree replaced by a type
        variable, named a0, a1, ... as first met.  Equal types give one
        object."""
        got = self.types.get(ty)
        if got is None:
            if is_fun(ty):
                got = TCon(ty.name, tuple(map(self.gen, ty.args)))
            else:
                got = TVar(f"a{self.tvars}")
                self.tvars += 1
            self.types[ty] = got
        return got

    def go(self, node: Term, depth: int) -> Term:
        if isinstance(node, Const):
            if self.w.contains(node.name):
                return Const(node.name, self.gen(node.type))
            idx = self.holes.setdefault(node.name, len(self.holes) + 1)
            ty = self.gen(node.type)
            self.occ_types.setdefault(idx, []).append(ty)
            return Hole(idx, ty)
        if isinstance(node, Free):
            name = self.fmap.setdefault(node.name, f"x{len(self.fmap) + 1}")
            return Free(name, self.gen(node.type))
        if isinstance(node, Bound):
            return node
        if isinstance(node, Abs):
            return Abs(
                f"y{depth}", self.gen(node.binder_type), self.go(node.body, depth + 1)
            )
        if isinstance(node, App):
            return App(self.go(node.fn, depth), self.go(node.arg, depth))
        raise IllTyped("input term already contains holes")

    def merge_hole_types(self, body: Term) -> Term:
        """`body` with each hole's occurrence types unified, and its type
        variables named a0, a1, ... by first occurrence again."""
        # The unifier starts by binding gen's variables to ?g0, ?g1, ..., the
        # names that its errors show.
        s: dict[str, TypeExpr] = {f"a{i}": TVar(f"?g{i}") for i in range(self.tvars)}
        try:
            for ts in self.occ_types.values():
                for other in ts[1:]:
                    unify_into(s, ts[0], other)
        except UnificationError as e:
            raise IllTyped(f"cannot reconcile hole occurrence types: {e}") from e
        # Resolved types are built of function types and variables alone, so
        # a fresh gen renames them; map_types meets annotations in preorder.
        rename = _Abstraction(self.w).gen
        return map_types(body, lambda ty: rename(resolve(s, ty)))


def abstract(t: Term, w: Whitelist | None = None, sig: Signature | None = None) -> Template:
    """Abstract a hole-free lemma term into a canonical template.

    Constants outside the whitelist become holes (one index per name, in
    first-occurrence order); all type annotations are generalized by mapping
    each maximal non-function type subtree to a type variable, identical
    subtrees sharing one variable; frees, binders and type variables are
    canonically renamed.  Equal annotations in the template are one object.

    IllTyped if `t` does not typecheck under `sig`, or if a hole's types do
    not unify.  An unmerged body needs no check: its annotations hold only
    `fun` and type variables, so its typing cannot clash, and an occurs
    cycle in it would be one in `t`'s.  A merge can break typing, so a
    merged body passes `parse_template` and may fail there.
    """
    if w is None:
        w = default_whitelist()
    walk = _Abstraction(w)
    body = walk.go(t, 0)
    try:
        typecheck(t, sig)
    except TypecheckError as e:
        raise IllTyped(str(e)) from e
    if any(ty is not ts[0] for ts in walk.occ_types.values() for ty in ts):
        return parse_template(render_term(walk.merge_hole_types(body)), w)
    hole_types = {i: ts[0] for i, ts in walk.occ_types.items()}
    return Template(body, len(hole_types), hole_types, render_term(body))


def parse_template(text: str, w: Whitelist | None = None) -> Template:
    """Parse and check a canonical template string: the one gate, passed by
    every template lemmakit reads and by each body that `abstract` merged.

    The text must parse as a term, satisfy every template invariant and
    typecheck, otherwise NonCanonical (or a syntax error) is raised.  Equal
    annotations in the template are one object, as the parser returns them.
    """
    if w is None:
        w = default_whitelist()
    body = parse_term(text)
    hole_types = _validate_template(body, w)
    try:
        typecheck(body, None)
    except TypecheckError as e:
        raise NonCanonical(f"template does not typecheck: {e}") from e
    return Template(body, len(hole_types), hole_types, render_term(body))


# ---------------------------------------------------------------------------
# Best-effort pretty printing (display only, no equality contract)

_INFIX = {
    "HOL.eq": "=",
    "HOL.conj": "∧",
    "HOL.disj": "∨",
    "HOL.implies": "⟶",
    "Pure.imp": "⟹",
    "Pure.eq": "≡",
    "Orderings.ord_class.less": "<",
    "Orderings.ord_class.less_eq": "≤",
}

_QUANT = {"HOL.All": "∀", "HOL.Ex": "∃", "Pure.all": "⋀"}


def pretty_term(t: Term) -> str:
    return _pretty(t, [])[0]


def _wrap(s: str, atomic: bool) -> str:
    return s if atomic else f"({s})"


def _pretty(node: Term, bs: list[str]) -> tuple[str, bool]:
    """node's text under the binder names `bs` (innermost last), and whether
    the text is atomic."""
    if isinstance(node, Free):
        return node.name, True
    if isinstance(node, Bound):
        if node.index < len(bs):
            return bs[-1 - node.index], True
        return f"_{node.index}", True
    if isinstance(node, Hole):
        return f"?H{node.index}", True
    if isinstance(node, Const):
        name = node.name.rsplit(".", 1)[-1]
        return name, True
    if isinstance(node, Abs):
        body, _ = _pretty(node.body, bs + [node.binder])
        return f"λ{node.binder}. {body}", False
    head, args = strip_spine(node)
    if isinstance(head, Const) and head.name in _INFIX and len(args) == 2:
        l, la = _pretty(args[0], bs)
        r, ra = _pretty(args[1], bs)
        return f"{_wrap(l, la)} {_INFIX[head.name]} {_wrap(r, ra)}", False
    if (
        isinstance(head, Const)
        and head.name in _QUANT
        and len(args) == 1
        and isinstance(args[0], Abs)
    ):
        lam = args[0]
        body, _ = _pretty(lam.body, bs + [lam.binder])
        return f"{_QUANT[head.name]}{lam.binder}. {body}", False
    if isinstance(head, Const) and head.name == "HOL.Not" and len(args) == 1:
        s, atomic = _pretty(args[0], bs)
        return f"¬{_wrap(s, atomic)}", True
    hs, ha = _pretty(head, bs)
    parts = [_wrap(hs, ha)]
    for a in args:
        s, atomic = _pretty(a, bs)
        parts.append(_wrap(s, atomic))
    return " ".join(parts), False


def pretty_template(tpl: Template) -> str:
    return pretty_term(tpl.body)
