"""Template abstraction: lemma terms with theory symbols replaced by typed holes.

A template is a canonicalized hole-bearing term.  Constants outside a
whitelist of generic logical symbols become indexed holes (one index per
constant name), type annotations are generalized by replacing maximal
non-function subtrees with shared type variables, and free variables /
binders / type variables get canonical names (x1.., y0.., a0..).
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
    _unify,
    annotations,
    apply_type_subst,
    fun,
    is_fun,
    map_types,
    parse_term,
    render_term,
    resolve,
    strip_spine,
    subterms,
    type_vars,
    typecheck,
)


class IllTyped(LemmakitError):
    pass


class NonCanonical(LemmakitError):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


BOOL = TCon("HOL.bool")
PROP = TCon("Pure.prop")


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
# Validation shared by abstract() and parse_template()


def _abs_depths(t: Term, depth: int = 0):
    if isinstance(t, Abs):
        yield t, depth
        yield from _abs_depths(t.body, depth + 1)
    elif isinstance(t, App):
        yield from _abs_depths(t.fn, depth)
        yield from _abs_depths(t.arg, depth)


def _validate_template(body: Term, w: Whitelist) -> tuple[int, dict[int, TypeExpr]]:
    for s in subterms(body):
        if isinstance(s, Const) and not w.contains(s.name):
            raise NonCanonical(f"non-whitelist constant {s.name!r} in template")

    hole_order: list[int] = []
    hole_types: dict[int, TypeExpr] = {}
    for s in subterms(body):
        if isinstance(s, Hole):
            if s.index not in hole_order:
                hole_order.append(s.index)
                hole_types[s.index] = s.type
            elif hole_types[s.index] != s.type:
                raise NonCanonical(
                    f"hole {s.index} occurs with differing type annotations"
                )
    if hole_order != list(range(1, len(hole_order) + 1)):
        raise NonCanonical(f"hole indices {hole_order} are not 1..n by first occurrence")

    frees: list[str] = []
    for s in subterms(body):
        if isinstance(s, Free) and s.name not in frees:
            frees.append(s.name)
    if frees != [f"x{i}" for i in range(1, len(frees) + 1)]:
        raise NonCanonical(f"free variables {frees} are not x1..xn by first occurrence")

    for node, depth in _abs_depths(body):
        if node.binder != f"y{depth}":
            raise NonCanonical(
                f"binder {node.binder!r} at nesting depth {depth} should be y{depth}"
            )

    tvars: list[str] = []
    for ann in annotations(body):
        type_vars(ann, tvars)
    if tvars != [f"a{i}" for i in range(len(tvars))]:
        raise NonCanonical(f"type variables {tvars} are not a0.. by first occurrence")

    try:
        typecheck(body, None)
    except TypecheckError as e:
        raise NonCanonical(f"template does not typecheck: {e}") from e

    return len(hole_order), hole_types


def _make_template(body: Term, w: Whitelist) -> Template:
    count, types = _validate_template(body, w)
    return Template(
        body=body, hole_count=count, hole_types=types, canonical=render_term(body)
    )


# ---------------------------------------------------------------------------
# Abstraction


def abstract(t: Term, w: Whitelist | None = None, sig: Signature | None = None) -> Template:
    """Abstract a hole-free lemma term into a canonical template.

    Constants outside the whitelist become holes (one index per name, in
    first-occurrence order); all type annotations are generalized by mapping
    each maximal non-function type subtree to a type variable, identical
    subtrees sharing one variable; frees, binders and type variables are
    canonically renamed.
    """
    if w is None:
        w = default_whitelist()
    if any(isinstance(s, Hole) for s in subterms(t)):
        raise IllTyped("input term already contains holes")
    try:
        typecheck(t, sig)
    except TypecheckError as e:
        raise IllTyped(str(e)) from e

    gmap: dict[TypeExpr, TVar] = {}

    def gen(ty: TypeExpr) -> TypeExpr:
        if is_fun(ty):
            return fun(gen(ty.args[0]), gen(ty.args[1]))
        got = gmap.get(ty)
        if got is None:
            got = TVar(f"?g{len(gmap)}")
            gmap[ty] = got
        return got

    holes: dict[str, int] = {}
    occ_types: dict[int, list[TypeExpr]] = {}
    fmap: dict[str, str] = {}

    def go(node: Term, depth: int) -> Term:
        if isinstance(node, Const):
            if w.contains(node.name):
                return Const(node.name, gen(node.type))
            idx = holes.setdefault(node.name, len(holes) + 1)
            ty = gen(node.type)
            occ_types.setdefault(idx, []).append(ty)
            return Hole(idx, ty)
        if isinstance(node, Free):
            name = fmap.setdefault(node.name, f"x{len(fmap) + 1}")
            return Free(name, gen(node.type))
        if isinstance(node, Bound):
            return node
        if isinstance(node, Abs):
            return Abs(f"y{depth}", gen(node.binder_type), go(node.body, depth + 1))
        return App(go(node.fn, depth), go(node.arg, depth))

    body = go(t, 0)

    # A polymorphic constant may occur at several generalized types; the
    # template invariant requires one annotation per hole, so unify them.
    need_merge = any(len(set(ts)) > 1 for ts in occ_types.values())
    if need_merge:
        s: dict[str, TypeExpr] = {}
        try:
            for ts in occ_types.values():
                for other in ts[1:]:
                    _unify(s, ts[0], other)
        except UnificationError as e:
            raise IllTyped(f"cannot reconcile hole occurrence types: {e}") from e
        body = map_types(body, lambda ty: resolve(s, ty))

    # Canonical type-variable names by first occurrence.
    order: list[str] = []
    for ann in annotations(body):
        type_vars(ann, order)
    ren = {name: TVar(f"a{i}") for i, name in enumerate(order)}
    body = map_types(body, lambda ty: apply_type_subst(ren, ty))

    return _make_template(body, w)


def parse_template(text: str, w: Whitelist | None = None) -> Template:
    """Parse and validate a canonical template string.

    This is the gate applied to proposer completions: the text must parse as
    a term and satisfy every template invariant, otherwise NonCanonical (or a
    syntax error) is raised.
    """
    if w is None:
        w = default_whitelist()
    body = parse_term(text)
    return _make_template(body, w)


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


def pretty_term(t: Term, binders: list[str] | None = None) -> str:
    if binders is None:
        binders = []

    def wrap(s: str, atomic: bool) -> str:
        return s if atomic else f"({s})"

    def pp(node: Term, bs: list[str]) -> tuple[str, bool]:
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
            body, _ = pp(node.body, bs + [node.binder])
            return f"λ{node.binder}. {body}", False
        head, args = strip_spine(node)
        if isinstance(head, Const) and head.name in _INFIX and len(args) == 2:
            l, la = pp(args[0], bs)
            r, ra = pp(args[1], bs)
            return f"{wrap(l, la)} {_INFIX[head.name]} {wrap(r, ra)}", False
        if (
            isinstance(head, Const)
            and head.name in _QUANT
            and len(args) == 1
            and isinstance(args[0], Abs)
        ):
            lam = args[0]
            body, _ = pp(lam.body, bs + [lam.binder])
            return f"{_QUANT[head.name]}{lam.binder}. {body}", False
        if isinstance(head, Const) and head.name == "HOL.Not" and len(args) == 1:
            s, atomic = pp(args[0], bs)
            return f"¬{wrap(s, atomic)}", True
        hs, ha = pp(head, bs)
        parts = [wrap(hs, ha)]
        for a in args:
            s, atomic = pp(a, bs)
            parts.append(wrap(s, atomic))
        return " ".join(parts), False

    s, _ = pp(t, binders)
    return s


def pretty_template(tpl: Template) -> str:
    return pretty_term(tpl.body)
