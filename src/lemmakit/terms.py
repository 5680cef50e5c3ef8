"""Typed lambda terms: S-expression syntax, typechecking, unification, alpha equivalence.

Types are simple: type variables and applied type constructors, with the
function arrow encoded as the binary constructor "fun".  Terms use de Bruijn
indices for bound variables; binder names are kept only for rendering.
Constants, free variables and holes carry a full type annotation per
occurrence, so polymorphic constants may appear at several types in one term.
"""

from __future__ import annotations

from dataclasses import dataclass


FUN = "fun"


class LemmakitError(Exception):
    pass


class TermSyntaxError(LemmakitError):
    """Malformed S-expression input; `offset` is a byte offset into the text."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class TypecheckError(LemmakitError):
    pass


class UnknownConstant(TypecheckError):
    def __init__(self, name: str):
        super().__init__(f"constant {name!r} not in signature")
        self.name = name


class TypeMismatch(TypecheckError):
    def __init__(self, path: tuple[int, ...], expected: "TypeExpr", found: "TypeExpr"):
        super().__init__(
            f"type mismatch at path {path}: expected {render_type(expected)}, "
            f"found {render_type(found)}"
        )
        self.path = path
        self.expected = expected
        self.found = found


class UnboundIndex(TypecheckError):
    def __init__(self, index: int):
        super().__init__(f"bound variable index {index} exceeds binder depth")
        self.index = index


class UnificationError(LemmakitError):
    pass


class Clash(UnificationError):
    def __init__(self, a: str, b: str):
        super().__init__(f"cannot unify constructor {a!r} with {b!r}")
        self.con1 = a
        self.con2 = b


class OccursCheck(UnificationError):
    def __init__(self, var: str, ty: "TypeExpr"):
        super().__init__(f"occurs check: {var!r} in {render_type(ty)}")
        self.var = var
        self.type = ty


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TCon:
    name: str
    args: tuple["TypeExpr", ...] = ()


TypeExpr = TVar | TCon


def fun(a: TypeExpr, b: TypeExpr) -> TCon:
    return TCon(FUN, (a, b))


def is_fun(t: TypeExpr) -> bool:
    return isinstance(t, TCon) and t.name == FUN


def type_size(t: TypeExpr) -> int:
    if isinstance(t, TVar):
        return 1
    return 1 + sum(type_size(a) for a in t.args)


def type_vars(t: TypeExpr, acc: list[str] | None = None) -> list[str]:
    """Type variable names in preorder, first occurrence only."""
    if acc is None:
        acc = []
    if isinstance(t, TVar):
        if t.name not in acc:
            acc.append(t.name)
    else:
        for a in t.args:
            type_vars(a, acc)
    return acc


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Const:
    name: str
    type: TypeExpr


@dataclass(frozen=True)
class Free:
    name: str
    type: TypeExpr


@dataclass(frozen=True)
class Bound:
    index: int


@dataclass(frozen=True)
class Abs:
    binder: str
    binder_type: TypeExpr
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Hole:
    index: int
    type: TypeExpr


Term = Const | Free | Bound | Abs | App | Hole


def subterms(t: Term):
    """All subterms in preorder (leftmost-outermost)."""
    yield t
    if isinstance(t, Abs):
        yield from subterms(t.body)
    elif isinstance(t, App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)


def annotations(t: Term):
    """All type annotations in term preorder (Abs binder types included)."""
    for s in subterms(t):
        if isinstance(s, (Const, Free, Hole)):
            yield s.type
        elif isinstance(s, Abs):
            yield s.binder_type


def map_types(t: Term, f) -> Term:
    if isinstance(t, Const):
        return Const(t.name, f(t.type))
    if isinstance(t, Free):
        return Free(t.name, f(t.type))
    if isinstance(t, Bound):
        return t
    if isinstance(t, Abs):
        return Abs(t.binder, f(t.binder_type), map_types(t.body, f))
    if isinstance(t, App):
        return App(map_types(t.fn, f), map_types(t.arg, f))
    return Hole(t.index, f(t.type))


def free_names(t: Term) -> list[str]:
    """Free variable names in first-occurrence (preorder) order."""
    out: list[str] = []
    for s in subterms(t):
        if isinstance(s, Free) and s.name not in out:
            out.append(s.name)
    return out


def const_names(t: Term) -> list[str]:
    """Constant names in first-occurrence (preorder) order."""
    out: list[str] = []
    for s in subterms(t):
        if isinstance(s, Const) and s.name not in out:
            out.append(s.name)
    return out


def hole_indices(t: Term) -> list[int]:
    out: list[int] = []
    for s in subterms(t):
        if isinstance(s, Hole) and s.index not in out:
            out.append(s.index)
    return out


def strip_spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose nested applications into (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class SignatureEntry:
    name: str
    type: TypeExpr
    definition: str | None = None


class Signature:
    """An ordered collection of uniquely-named symbols with type schemes."""

    def __init__(self, entries=()):
        self._entries: list[SignatureEntry] = []
        self._by_name: dict[str, SignatureEntry] = {}
        for e in entries:
            self.add(e)

    def add(self, entry: SignatureEntry) -> None:
        if entry.name in self._by_name:
            raise ValueError(f"duplicate signature entry {entry.name!r}")
        self._entries.append(entry)
        self._by_name[entry.name] = entry

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> SignatureEntry:
        return self._by_name[name]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def base_signature() -> Signature:
    """Type schemes for the built-in logical constants.

    These are always in scope when typechecking lemma statements and are used
    to re-concretize retained constants during template instantiation.
    """
    bool_t = TCon("HOL.bool")
    prop = TCon("Pure.prop")
    a, b = TVar("a"), TVar("b")
    aset = TCon("Set.set", (a,))
    return Signature(
        [
            SignatureEntry("HOL.eq", fun(a, fun(a, bool_t))),
            SignatureEntry("HOL.Not", fun(bool_t, bool_t)),
            SignatureEntry("HOL.conj", fun(bool_t, fun(bool_t, bool_t))),
            SignatureEntry("HOL.disj", fun(bool_t, fun(bool_t, bool_t))),
            SignatureEntry("HOL.implies", fun(bool_t, fun(bool_t, bool_t))),
            SignatureEntry("HOL.All", fun(fun(a, bool_t), bool_t)),
            SignatureEntry("HOL.Ex", fun(fun(a, bool_t), bool_t)),
            SignatureEntry("HOL.True", bool_t),
            SignatureEntry("HOL.False", bool_t),
            SignatureEntry("Pure.imp", fun(prop, fun(prop, prop))),
            SignatureEntry("Pure.eq", fun(a, fun(a, prop))),
            SignatureEntry("Pure.all", fun(fun(a, prop), prop)),
            SignatureEntry("Orderings.ord_class.less", fun(a, fun(a, bool_t))),
            SignatureEntry("Orderings.ord_class.less_eq", fun(a, fun(a, bool_t))),
            SignatureEntry("Set.member", fun(a, fun(aset, bool_t))),
            SignatureEntry("Set.Ball", fun(aset, fun(fun(a, bool_t), bool_t))),
            SignatureEntry("Set.Bex", fun(aset, fun(fun(a, bool_t), bool_t))),
            SignatureEntry(
                "Product_Type.Pair",
                fun(a, fun(b, TCon("Product_Type.prod", (a, b)))),
            ),
        ]
    )


# ---------------------------------------------------------------------------
# S-expression parsing and rendering
#
#   type ::= "(" "tv" STR ")" | "(" "tc" STR type* ")"
#   term ::= "(" "const" STR type ")" | "(" "free" STR type ")"
#          | "(" "bound" NAT ")"      | "(" "abs" STR type term ")"
#          | "(" "app" term term ")"  | "(" "hole" NAT type ")"


def _escape(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _tokenize(text: str):
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c in "()":
            tokens.append((c, c, i))
            i += 1
        elif c == '"':
            start = i
            i += 1
            buf: list[str] = []
            while True:
                if i >= n:
                    raise TermSyntaxError("unterminated string", start)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in '"\\':
                        raise TermSyntaxError("bad escape", i)
                    buf.append(text[i + 1])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    buf.append(c)
                    i += 1
            tokens.append(("str", "".join(buf), start))
        elif c.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            tokens.append(("nat", int(text[start:i]), start))
        elif c.isalpha():
            start = i
            while i < n and text[i].isalpha():
                i += 1
            tokens.append(("atom", text[start:i], start))
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.end = len(text)

    def peek(self):
        if self.pos >= len(self.tokens):
            raise TermSyntaxError("unexpected end of input", self.end)
        return self.tokens[self.pos]

    def next(self, kind: str | None = None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise TermSyntaxError(f"expected {kind}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def at_close(self) -> bool:
        return self.pos < len(self.tokens) and self.tokens[self.pos][0] == ")"

    def finish(self):
        if self.pos != len(self.tokens):
            tok = self.tokens[self.pos]
            raise TermSyntaxError("trailing input after expression", tok[2])

    def type_expr(self) -> TypeExpr:
        self.next("(")
        kind, head, off = self.next("atom")
        if head == "tv":
            name = self.next("str")[1]
            self.next(")")
            return TVar(name)
        if head == "tc":
            name = self.next("str")[1]
            args: list[TypeExpr] = []
            while not self.at_close():
                args.append(self.type_expr())
            self.next(")")
            return TCon(name, tuple(args))
        raise TermSyntaxError(f"expected type constructor, got {head!r}", off)

    def term(self) -> Term:
        self.next("(")
        kind, head, off = self.next("atom")
        if head == "const":
            name = self.next("str")[1]
            ty = self.type_expr()
            self.next(")")
            return Const(name, ty)
        if head == "free":
            name = self.next("str")[1]
            ty = self.type_expr()
            self.next(")")
            return Free(name, ty)
        if head == "bound":
            idx = self.next("nat")[1]
            self.next(")")
            return Bound(idx)
        if head == "abs":
            binder = self.next("str")[1]
            ty = self.type_expr()
            body = self.term()
            self.next(")")
            return Abs(binder, ty, body)
        if head == "app":
            fn = self.term()
            arg = self.term()
            self.next(")")
            return App(fn, arg)
        if head == "hole":
            tok = self.next("nat")
            if tok[1] < 1:
                raise TermSyntaxError("hole index must be positive", tok[2])
            ty = self.type_expr()
            self.next(")")
            return Hole(tok[1], ty)
        raise TermSyntaxError(f"unknown term head {head!r}", off)


def parse_type(text: str) -> TypeExpr:
    p = _Parser(text)
    t = p.type_expr()
    p.finish()
    return t


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    p.finish()
    return t


def render_type(t: TypeExpr) -> str:
    if isinstance(t, TVar):
        return f"(tv {_escape(t.name)})"
    parts = [f"(tc {_escape(t.name)}"]
    for a in t.args:
        parts.append(render_type(a))
    return " ".join(parts) + ")"


def render_term(t: Term) -> str:
    if isinstance(t, Const):
        return f"(const {_escape(t.name)} {render_type(t.type)})"
    if isinstance(t, Free):
        return f"(free {_escape(t.name)} {render_type(t.type)})"
    if isinstance(t, Bound):
        return f"(bound {t.index})"
    if isinstance(t, Abs):
        return (
            f"(abs {_escape(t.binder)} {render_type(t.binder_type)} "
            f"{render_term(t.body)})"
        )
    if isinstance(t, App):
        return f"(app {render_term(t.fn)} {render_term(t.arg)})"
    return f"(hole {t.index} {render_type(t.type)})"


# ---------------------------------------------------------------------------
# Unification

TypeSubstitution = dict[str, TypeExpr]


def _walk(s: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    while isinstance(t, TVar) and t.name in s:
        t = s[t.name]
    return t


def _occurs(s: TypeSubstitution, name: str, t: TypeExpr) -> bool:
    t = _walk(s, t)
    if isinstance(t, TVar):
        return t.name == name
    return any(_occurs(s, name, a) for a in t.args)


def _unify(s: TypeSubstitution, a: TypeExpr, b: TypeExpr) -> None:
    """Extend binding map `s` in place so that a and b become equal."""
    a = _walk(s, a)
    b = _walk(s, b)
    if isinstance(a, TVar):
        if isinstance(b, TVar) and a.name == b.name:
            return
        if _occurs(s, a.name, b):
            raise OccursCheck(a.name, resolve(s, b))
        s[a.name] = b
        return
    if isinstance(b, TVar):
        _unify(s, b, a)
        return
    if a.name != b.name or len(a.args) != len(b.args):
        raise Clash(a.name, b.name)
    for x, y in zip(a.args, b.args):
        _unify(s, x, y)


def resolve(s: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    t = _walk(s, t)
    if isinstance(t, TVar):
        return t
    return TCon(t.name, tuple(resolve(s, a) for a in t.args))


def unify_types(a: TypeExpr, b: TypeExpr) -> TypeSubstitution:
    """Most general unifier of a and b as an idempotent substitution.

    Raises Clash or OccursCheck when no unifier exists.
    """
    s: TypeSubstitution = {}
    _unify(s, a, b)
    return {v: resolve(s, t) for v, t in s.items()}


def apply_type_subst(s: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    if isinstance(t, TVar):
        got = s.get(t.name)
        return got if got is not None else t
    return TCon(t.name, tuple(apply_type_subst(s, a) for a in t.args))


# ---------------------------------------------------------------------------
# Typechecking


class _Infer:
    def __init__(self, sig: Signature | None):
        self.sig = sig
        self.base = base_signature() if sig is not None else None
        self.subst: TypeSubstitution = {}
        self.counter = 0
        self.free_env: dict[str, TypeExpr] = {}
        self.hole_env: dict[int, TypeExpr] = {}

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar(f"?t{self.counter}")

    def rename_scheme(self, t: TypeExpr) -> TypeExpr:
        ren = {v: self.fresh() for v in type_vars(t)}
        return apply_type_subst(ren, t)

    def unify_at(self, path, expected: TypeExpr, found: TypeExpr) -> None:
        try:
            _unify(self.subst, expected, found)
        except UnificationError:
            raise TypeMismatch(
                tuple(path), resolve(self.subst, expected), resolve(self.subst, found)
            ) from None

    def infer(self, t: Term, bound: list[TypeExpr], path: list[int]) -> TypeExpr:
        if isinstance(t, Const):
            if self.sig is not None:
                if t.name in self.sig:
                    scheme = self.sig[t.name].type
                elif t.name in self.base:
                    scheme = self.base[t.name].type
                else:
                    raise UnknownConstant(t.name)
                self.unify_at(path, self.rename_scheme(scheme), t.type)
            return t.type
        if isinstance(t, Free):
            seen = self.free_env.get(t.name)
            if seen is None:
                self.free_env[t.name] = t.type
            else:
                self.unify_at(path, seen, t.type)
            return t.type
        if isinstance(t, Hole):
            seen = self.hole_env.get(t.index)
            if seen is None:
                self.hole_env[t.index] = t.type
            else:
                self.unify_at(path, seen, t.type)
            return t.type
        if isinstance(t, Bound):
            if t.index >= len(bound):
                raise UnboundIndex(t.index)
            return bound[-1 - t.index]
        if isinstance(t, Abs):
            path.append(0)
            body_ty = self.infer(t.body, bound + [t.binder_type], path)
            path.pop()
            return fun(t.binder_type, body_ty)
        path.append(0)
        fn_ty = self.infer(t.fn, bound, path)
        path.pop()
        path.append(1)
        arg_ty = self.infer(t.arg, bound, path)
        path.pop()
        res = self.fresh()
        self.unify_at(path, fun(arg_ty, res), fn_ty)
        return res


def typecheck(t: Term, sig: Signature | None = None) -> TypeExpr:
    """Principal type of t.

    With a signature, every Const must be declared and its per-occurrence
    annotation must unify with a fresh renaming of the declared scheme.
    Without one, annotations are trusted as given.  Hole nodes are typed by
    their annotations.
    """
    inf = _Infer(sig)
    ty = inf.infer(t, [], [])
    return resolve(inf.subst, ty)


# ---------------------------------------------------------------------------
# Alpha equivalence


def alpha_equal(a: Term, b: Term) -> bool:
    """Equality up to binder names, bijective Free renaming and bijective
    TypeVar renaming.  Const and TCon names (and Hole indices) must match.

    The free-variable bijection must be the identity on names the two terms
    share: `a + b` and `b + a` are NOT alpha-equal (a cannot map to b while b
    occurs in both terms), whereas `x1 + x2` matches `a + b`.
    """
    fmap: dict[str, str] = {}
    frev: dict[str, str] = {}
    tmap: dict[str, str] = {}
    trev: dict[str, str] = {}
    frees_a = set(free_names(a))
    frees_b = set(free_names(b))

    def types(x: TypeExpr, y: TypeExpr) -> bool:
        if isinstance(x, TVar) and isinstance(y, TVar):
            if tmap.get(x.name, y.name) != y.name:
                return False
            if trev.get(y.name, x.name) != x.name:
                return False
            tmap[x.name] = y.name
            trev[y.name] = x.name
            return True
        if isinstance(x, TCon) and isinstance(y, TCon):
            return (
                x.name == y.name
                and len(x.args) == len(y.args)
                and all(types(p, q) for p, q in zip(x.args, y.args))
            )
        return False

    def go(x: Term, y: Term) -> bool:
        if isinstance(x, Const) and isinstance(y, Const):
            return x.name == y.name and types(x.type, y.type)
        if isinstance(x, Free) and isinstance(y, Free):
            if x.name != y.name and (x.name in frees_b or y.name in frees_a):
                return False
            if fmap.get(x.name, y.name) != y.name:
                return False
            if frev.get(y.name, x.name) != x.name:
                return False
            fmap[x.name] = y.name
            frev[y.name] = x.name
            return types(x.type, y.type)
        if isinstance(x, Bound) and isinstance(y, Bound):
            return x.index == y.index
        if isinstance(x, Abs) and isinstance(y, Abs):
            return types(x.binder_type, y.binder_type) and go(x.body, y.body)
        if isinstance(x, App) and isinstance(y, App):
            return go(x.fn, y.fn) and go(x.arg, y.arg)
        if isinstance(x, Hole) and isinstance(y, Hole):
            return x.index == y.index and types(x.type, y.type)
        return False

    return go(a, b)
