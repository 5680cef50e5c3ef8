"""Typed lambda terms: S-expression syntax, typechecking, unification, alpha equivalence.

Types are simple: type variables and applied type constructors, with the
function arrow encoded as the binary constructor "fun".  Terms use de Bruijn
indices for bound variables; binder names are kept only for rendering.
Constants, free variables and holes carry a full type annotation per
occurrence, so polymorphic constants may appear at several types in one term.

A symbol list is one `Signature`: the only class that holds one, and the
only check that no name repeats.  `typecheck` looks its schemes up by name,
and instantiation's search asks it which entries can fit a hole's type.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import zip_longest
from operator import is_


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


class TypeMismatch(TypecheckError):
    def __init__(self, path: tuple[int, ...], expected: "TypeExpr", found: "TypeExpr"):
        super().__init__(
            f"type mismatch at path {path}: expected {render_type(expected)}, "
            f"found {render_type(found)}"
        )


class UnboundIndex(TypecheckError):
    def __init__(self, index: int):
        super().__init__(f"bound variable index {index} exceeds binder depth")


class UnificationError(LemmakitError):
    pass


class Clash(UnificationError):
    def __init__(self, a: str, b: str):
        super().__init__(f"cannot unify constructor {a!r} with {b!r}")


class OccursCheck(UnificationError):
    def __init__(self, var: str, ty: "TypeExpr"):
        super().__init__(f"occurs check: {var!r} in {render_type(ty)}")


class DuplicateSymbols(LemmakitError, ValueError):
    """Two entries of one symbol list share a name, so a lookup, or an
    assignment of a symbol to a hole, could not say which one it means."""


# ---------------------------------------------------------------------------
# Types


def _structural_eq(self, other):
    """`==` of the term and type classes below: equal classes and fields, all
    the way down.  It walks both sides with an explicit stack, because a
    recursive comparison takes about three frames per level and would hit
    the interpreter's recursion limit below MAX_DEPTH.  `hash` stays the
    generated structural one."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    stack = [(self, other)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        cls = a.__class__
        if cls is not b.__class__:
            return False
        if cls is App:
            stack.append((a.arg, b.arg))
            stack.append((a.fn, b.fn))
        elif cls is TCon:
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            stack.extend(zip(a.args, b.args))
        elif cls is Const or cls is Free:
            if a.name != b.name:
                return False
            stack.append((a.type, b.type))
        elif cls is TVar:
            if a.name != b.name:
                return False
        elif cls is Abs:
            if a.binder != b.binder:
                return False
            stack.append((a.body, b.body))
            stack.append((a.binder_type, b.binder_type))
        elif cls is Hole:
            if a.index != b.index:
                return False
            stack.append((a.type, b.type))
        elif cls is Bound:
            if a.index != b.index:
                return False
        elif a != b:
            return False
    return True


@dataclass(frozen=True)
class TVar:
    name: str

    __eq__ = _structural_eq


@dataclass(frozen=True)
class TCon:
    name: str
    args: tuple["TypeExpr", ...] = ()

    __eq__ = _structural_eq


TypeExpr = TVar | TCon


def fun(a: TypeExpr, b: TypeExpr) -> TCon:
    return TCon(FUN, (a, b))


def is_fun(t: TypeExpr) -> bool:
    return isinstance(t, TCon) and t.name == FUN


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

    __eq__ = _structural_eq


@dataclass(frozen=True)
class Free:
    name: str
    type: TypeExpr

    __eq__ = _structural_eq


@dataclass(frozen=True)
class Bound:
    index: int

    __eq__ = _structural_eq


@dataclass(frozen=True)
class Abs:
    binder: str
    binder_type: TypeExpr
    body: "Term"

    __eq__ = _structural_eq


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"

    __eq__ = _structural_eq


@dataclass(frozen=True)
class Hole:
    index: int
    type: TypeExpr

    __eq__ = _structural_eq


Term = Const | Free | Bound | Abs | App | Hole


def subterms(t: Term):
    """All subterms in preorder (leftmost-outermost).  The walk keeps its own
    stack, so it costs no generator per level and holds at any depth."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        cls = t.__class__
        if cls is App:
            stack.append(t.arg)
            stack.append(t.fn)
        elif cls is Abs:
            stack.append(t.body)


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


def const_names(t: Term) -> list[str]:
    """Constant names in first-occurrence (preorder) order."""
    out: list[str] = []
    for s in subterms(t):
        if isinstance(s, Const) and s.name not in out:
            out.append(s.name)
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
# S-expression parsing and rendering
#
#   type ::= "(" "tv" STR ")" | "(" "tc" STR type* ")"
#   term ::= "(" "const" STR type ")" | "(" "free" STR type ")"
#          | "(" "bound" NAT ")"      | "(" "abs" STR type term ")"
#          | "(" "app" term term ")"  | "(" "hole" NAT type ")"
#
# Tokens are "(", ")", STR (a double-quoted string in which a backslash
# escapes only '"' and itself), NAT (a run of decimal digits, of any script)
# and atoms (runs of letters); " \t\r\n" separate them.  Any other character
# is an error.  The scanner is one regex, `_TOKEN`: `findall` splits a text
# into token strings, and the parser walks that list by index, telling a
# token's kind by its first character.  A text that fails to parse is
# scanned again with `finditer`, which gives each token its offset; that
# walk reports the first lexical error in text order (an unterminated string,
# a bad escape, an unexpected character, nesting deeper than MAX_DEPTH), and
# failing one, the parser's own error at its token's offset.


# The deepest parenthesis nesting the parser accepts.  Terms and types are
# walked recursively (parsing, rendering, typechecking, abstraction,
# instantiation), one Python frame or more per level, so this stays well under
# the interpreter's default recursion limit of 1000.  Deeper input raises
# TermSyntaxError at the offset of the first parenthesis past the limit.
MAX_DEPTH = 400

# One match per token: a parenthesis, a whole string, a decimal run, a run of
# word characters that are neither decimal digits nor "_" (letters, and
# numerals such as "²", which `_lexical_error` rejects), and else any one
# character but whitespace: a lone '"' (a string that does not close or has
# a bad escape, which the parser never takes for a string) or a character no
# token may hold.
_TOKEN = re.compile(r'[()]|"[^"\\]*(?:\\["\\][^"\\]*)*"|\d+|[^\W\d_]+|[^ \t\r\n]')


def _escape(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


class _Stop(Exception):
    """Where a parse stopped: the token index `pos`, and what the parser
    expected there: a token kind ("(", ")", "str", "nat"), "type" or "term"
    (a head atom), "hole" (a positive index), "end" (no more tokens) or
    "more" (at the end of the tokens)."""

    def __init__(self, expected: str, pos: int):
        self.expected = expected
        self.pos = pos


def _unquote(tok: str) -> str:
    """The string that a string token spells."""
    s = tok[1:-1]
    if "\\" in s:
        # Each run of backslashes holds escaped backslashes, then, before a
        # '"', that quote's own backslash; replace pairs them left to right.
        s = s.replace("\\\\", "\\").replace('\\"', '"')
    return s


def _type_at(toks: list[str], i: int, types: dict) -> tuple[TypeExpr, int]:
    """The type whose "(" is token i, and the index of the token after it.

    `types` holds the types of this parse, so that equal types are one
    object.  Its keys are name tokens as written: a leaf constructor's is
    the token, a variable's is ("tv", token) and an applied constructor's is
    (token, *argument ids), since equal arguments are one object already.
    Only a type not met before decodes its name.
    """
    if toks[i] != "(":
        raise _Stop("(", i)
    head = toks[i + 1]
    if head != "tc" and head != "tv":
        raise _Stop("type", i + 1)
    name = toks[i + 2]
    if name[0] != '"' or name == '"':
        raise _Stop("str", i + 2)
    i += 3
    args: list[TypeExpr] = []
    if head == "tv":
        if toks[i] != ")":
            raise _Stop(")", i)
        key = ("tv", name)
    elif toks[i] == ")":
        key = name
    else:
        while toks[i] != ")":
            ty, i = _type_at(toks, i, types)
            args.append(ty)
        key = (name, *map(id, args))
    ty = types.get(key)
    if ty is None:
        name = _unquote(name)
        ty = types[key] = TVar(name) if head == "tv" else TCon(name, tuple(args))
    return ty, i + 1


def _name_at(toks: list[str], i: int) -> str:
    """The string that token i spells."""
    tok = toks[i]
    if tok[0] != '"' or tok == '"':
        raise _Stop("str", i)
    return _unquote(tok)


def _term_at(toks: list[str], i: int, types: dict) -> tuple[Term, int]:
    """The term whose "(" is token i, and the index of the token after it."""
    if toks[i] != "(":
        raise _Stop("(", i)
    head = toks[i + 1]
    if head == "app":
        fn, i = _term_at(toks, i + 2, types)
        arg, i = _term_at(toks, i, types)
        t = App(fn, arg)
    elif head == "const" or head == "free":
        name = _name_at(toks, i + 2)
        ty, i = _type_at(toks, i + 3, types)
        t = Const(name, ty) if head == "const" else Free(name, ty)
    elif head == "abs":
        binder = _name_at(toks, i + 2)
        ty, i = _type_at(toks, i + 3, types)
        body, i = _term_at(toks, i, types)
        t = Abs(binder, ty, body)
    elif head == "bound" or head == "hole":
        tok = toks[i + 2]
        if not tok[0].isdecimal() or _too_long(tok):
            raise _Stop("nat", i + 2)
        index = int(tok)
        if head == "bound":
            t = Bound(index)
            i += 3
        else:
            if index < 1:
                raise _Stop("hole", i + 2)
            ty, i = _type_at(toks, i + 3, types)
            t = Hole(index, ty)
    else:
        raise _Stop("term", i + 1)
    if toks[i] != ")":
        raise _Stop(")", i)
    return t, i + 1


def _parse(text: str, at):
    """`at(toks, 0, types)` over the tokens of `text`, which it must use up."""
    toks = _TOKEN.findall(text)
    # Only a text with more "(" than MAX_DEPTH can nest deeper; the walk in
    # text order then meets that parenthesis, or an earlier error.
    if text.count("(") > MAX_DEPTH and _too_deep(toks):
        raise _lexical_error(text)
    try:
        got, end = at(toks, 0, {})
        if end == len(toks):
            return got
        expected, pos = "end", end
    except _Stop as e:
        # Only its fields outlive the handler: the exception's traceback
        # holds this frame, so keeping it would make a reference cycle.
        expected, pos = e.expected, e.pos
    except IndexError:
        expected, pos = "more", len(toks)
    raise _error(text, toks, expected, pos)


def _too_deep(toks: list[str]) -> bool:
    """Whether the parentheses of `toks` nest deeper than MAX_DEPTH."""
    depth = 0
    for tok in toks:
        if tok == "(":
            depth += 1
            if depth > MAX_DEPTH:
                return True
        elif tok == ")":
            depth -= 1
    return False


def _error(text: str, toks: list[str], expected: str, i: int) -> TermSyntaxError:
    """The error of a text whose parse stopped at token i, expecting
    `expected` there (see `_Stop`): its first lexical error, or else the
    parser's.  `toks` is the text's `findall`."""
    found = _lexical_error(text)
    if found is not None:
        return found
    if i == len(toks):
        return TermSyntaxError("unexpected end of input", len(text))
    tok = toks[i]
    offset = [m.start() for m in _TOKEN.finditer(text)][i]
    if expected == "end":
        return TermSyntaxError("trailing input after expression", offset)
    if expected == "hole":
        return TermSyntaxError("hole index must be positive", offset)
    c = tok[0]
    kind = (
        c if c in "()" else "str" if c == '"' else "nat" if c.isdecimal() else "atom"
    )
    if expected == "type" and kind == "atom":
        return TermSyntaxError(f"expected type constructor, got {tok!r}", offset)
    if expected == "term" and kind == "atom":
        return TermSyntaxError(f"unknown term head {tok!r}", offset)
    if expected in ("type", "term"):
        expected = "atom"
    if kind == "nat" and _too_long(tok):
        return TermSyntaxError(f"number longer than {_max_digits()} digits", offset)
    value = _unquote(tok) if kind == "str" else int(tok) if kind == "nat" else tok
    return TermSyntaxError(f"expected {expected}, got {value!r}", offset)


# How many digits `int` converts at most; 0, as before Python 3.10.7: no limit.
_max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _too_long(run: str) -> bool:
    """Whether the decimal run `run` has more digits than `int` converts."""
    return 0 < _max_digits() < len(run)


def _lexical_error(text: str) -> TermSyntaxError | None:
    """The first lexical error of `text` in text order, or None."""
    depth = 0
    for m in _TOKEN.finditer(text):
        tok, start = m.group(), m.start()
        if tok == "(" or tok == ")":
            depth += 1 if tok == "(" else -1
            if depth > MAX_DEPTH:
                return TermSyntaxError(f"nesting deeper than {MAX_DEPTH}", start)
        elif tok == '"':
            i = start + 1
            while i < len(text) and text[i] != '"':
                if text[i] == "\\":
                    if text[i + 1 : i + 2] not in ('"', "\\"):
                        return TermSyntaxError("bad escape", i)
                    i += 1
                i += 1
            return TermSyntaxError("unterminated string", start)
        elif tok[0] != '"' and not tok.isdecimal() and not tok.isalpha():
            bad = next(k for k, c in enumerate(tok) if not c.isalpha())
            return TermSyntaxError(f"unexpected character {tok[bad]!r}", start + bad)
    return None


def parse_type(text: str) -> TypeExpr:
    """The type an s-expression denotes; equal subtypes are one object."""
    return _parse(text, _type_at)


def parse_term(text: str) -> Term:
    """The term an s-expression denotes; equal types in it are one object."""
    return _parse(text, _term_at)


def render_type(t: TypeExpr) -> str:
    if isinstance(t, TVar):
        return f"(tv {_escape(t.name)})"
    parts = [f"(tc {_escape(t.name)}"]
    for a in t.args:
        parts.append(render_type(a))
    return " ".join(parts) + ")"


def render_term(t: Term) -> str:
    """`t`'s s-expression.  Nodes often share one type object, so each
    distinct one is rendered once; `t` keeps every memo key alive."""
    return _render(t, {})


def render_terms(terms: list[Term]) -> list[str]:
    """Each term's s-expression, all rendered through one memo.

    Conjectures of one template share type objects and leaf nodes, so each
    distinct one is rendered once per call.  The memo is keyed by id(), and
    an id stays valid only while the caller holds the terms: `terms` keeps
    every key alive until the call returns.
    """
    memo: dict[int, str] = {}
    return [_render(t, memo) for t in terms]


def _render(t: Term, memo: dict[int, str]) -> str:
    """`t` rendered; `memo` maps the id of each type and leaf node rendered
    so far to its text."""
    if isinstance(t, App):
        return f"(app {_render(t.fn, memo)} {_render(t.arg, memo)})"
    if isinstance(t, Abs):
        ty = _type_text(t.binder_type, memo)
        return f"(abs {_escape(t.binder)} {ty} {_render(t.body, memo)})"
    s = memo.get(id(t))
    if s is None:
        if isinstance(t, Bound):
            s = f"(bound {t.index})"
        elif isinstance(t, Const):
            s = f"(const {_escape(t.name)} {_type_text(t.type, memo)})"
        elif isinstance(t, Free):
            s = f"(free {_escape(t.name)} {_type_text(t.type, memo)})"
        else:
            s = f"(hole {t.index} {_type_text(t.type, memo)})"
        memo[id(t)] = s
    return s


def _type_text(ty: TypeExpr, memo: dict[int, str]) -> str:
    s = memo.get(id(ty))
    if s is None:
        s = memo[id(ty)] = render_type(ty)
    return s


def render_parts(t: Term) -> list:
    """`t`'s s-expression in parts, in order: literal text, each annotation
    as its type object, and each hole as its node.  Joining the parts, with
    each type rendered by `render_type` and each hole by `render_term`,
    gives `render_term(t)`.  Adjacent literal text is one part."""
    out: list = [""]
    _parts(t, out)
    return [p for p in out if p.__class__ is not str or p]


def _parts(t: Term, out: list) -> None:
    """Append `t`'s parts to `out`, which ends in a literal part."""
    if isinstance(t, App):
        out[-1] += "(app "
        _parts(t.fn, out)
        out[-1] += " "
        _parts(t.arg, out)
        out[-1] += ")"
    elif isinstance(t, Abs):
        out[-1] += f"(abs {_escape(t.binder)} "
        out += (t.binder_type, " ")
        _parts(t.body, out)
        out[-1] += ")"
    elif isinstance(t, Bound):
        out[-1] += f"(bound {t.index})"
    elif isinstance(t, Hole):
        out += (t, "")
    else:
        kind = "const" if isinstance(t, Const) else "free"
        out[-1] += f"({kind} {_escape(t.name)} "
        out += (t.type, ")")


# ---------------------------------------------------------------------------
# Unification

TypeSubstitution = dict[str, TypeExpr]


def walk(s: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    """`t`, or what its variable is bound to in `s`, followed until it is a
    constructor or an unbound variable."""
    while isinstance(t, TVar) and t.name in s:
        t = s[t.name]
    return t


def _occurs(s: TypeSubstitution, name: str, t: TypeExpr) -> bool:
    t = walk(s, t)
    if isinstance(t, TVar):
        return t.name == name
    return any(_occurs(s, name, a) for a in t.args)


def unify_into(s: TypeSubstitution, a: TypeExpr, b: TypeExpr) -> None:
    """Extend binding map `s` in place so that a and b become equal.  On
    Clash or OccursCheck `s` may keep partial bindings, so callers that
    backtrack unify into a copy."""
    a = walk(s, a)
    b = walk(s, b)
    if isinstance(a, TVar):
        if isinstance(b, TVar) and a.name == b.name:
            return
        if _occurs(s, a.name, b):
            raise OccursCheck(a.name, resolve(s, b))
        s[a.name] = b
        return
    if isinstance(b, TVar):
        unify_into(s, b, a)
        return
    if a.name != b.name or len(a.args) != len(b.args):
        raise Clash(a.name, b.name)
    for x, y in zip(a.args, b.args):
        unify_into(s, x, y)


def resolve(s: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    """`t` with every variable bound in `s` replaced, all the way down.  A
    subtree that no binding changes comes back as the same object, so resolved
    types share structure with the types they were resolved from."""
    t = walk(s, t)
    if isinstance(t, TVar) or not t.args:
        return t
    args = tuple([resolve(s, a) for a in t.args])
    if all(map(is_, args, t.args)):
        return t
    return TCon(t.name, args)


def unify_types(a: TypeExpr, b: TypeExpr) -> TypeSubstitution:
    """Most general unifier of a and b as an idempotent substitution.

    Raises Clash or OccursCheck when no unifier exists.
    """
    s: TypeSubstitution = {}
    unify_into(s, a, b)
    return {v: resolve(s, t) for v, t in s.items()}


def apply_type_subst(s: TypeSubstitution, t: TypeExpr) -> TypeExpr:
    if isinstance(t, TVar):
        got = s.get(t.name)
        return got if got is not None else t
    return TCon(t.name, tuple(apply_type_subst(s, a) for a in t.args))


class FreshNames:
    """Type variables `{prefix}1`, `{prefix}2`, ... in the order asked for."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.n = 0

    def var(self) -> TVar:
        self.n += 1
        return TVar(f"{self.prefix}{self.n}")

    def rename(self, scheme: TypeExpr, tvars: list[str] | None = None) -> TypeExpr:
        """`scheme` with each type variable replaced by a fresh one, in
        first-occurrence order.  `tvars` is `type_vars(scheme)` when the
        caller has it already.  A scheme without type variables comes back as
        the same object and uses up no names.
        """
        if tvars is None:
            tvars = type_vars(scheme)
        if not tvars:
            return scheme
        return apply_type_subst({v: self.var() for v in tvars}, scheme)


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class SignatureEntry:
    name: str
    type: TypeExpr
    definition: str | None = None


class Signature:
    """An ordered list of uniquely named symbols: the one form a symbol list
    takes, from where it is read to every typecheck and search over it.  It
    is immutable.  Iterating it gives its entries in order, and two are equal
    when their entries are, in order.

    It is also the type index that instantiation's search reads.  It finds
    each scheme's type variables once, and groups the monomorphic entries by
    `_skeleton` key.  `fitting` lists, for a hole's type, the entries a
    search must try there, in list order: every polymorphic one, since each
    renaming uses up fresh names whether it unifies or not, and the
    monomorphic ones whose key `_fits` the hole's.  Those are a superset of
    the entries that unify, so `unify_into` stays the test.  The lists are
    memoized by key; two threads that miss at once store equal lists.
    """

    def __init__(self, entries=()):
        self._entries = tuple(entries)
        self._by_name = {e.name: e for e in self._entries}
        if len(self._by_name) != len(self._entries):
            raise DuplicateSymbols("duplicate symbol names")
        self._pool = [(e, type_vars(e.type)) for e in self._entries]
        self._poly: list[int] = []
        self._groups: dict[tuple, list[int]] = {}
        for i, (e, tvars) in enumerate(self._pool):
            if tvars:
                self._poly.append(i)
            else:
                self._groups.setdefault(_skeleton({}, e.type), []).append(i)
        self._memo: dict[tuple, list[tuple[SignatureEntry, list[str]]]] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> SignatureEntry:
        return self._by_name[name]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other):
        if other.__class__ is not Signature:
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"Signature({list(self._entries)!r})"

    def fitting(self, subst: TypeSubstitution, ty: TypeExpr) -> list[tuple]:
        """The (entry, its type variables) pairs to try at a hole of type
        `ty` under `subst`, in list order."""
        key = _skeleton(subst, ty)
        got = self._memo.get(key)
        if got is None:
            keep = self._poly + [
                i for k, group in self._groups.items() if _fits(key, k) for i in group
            ]
            keep.sort()
            got = self._memo[key] = [self._pool[i] for i in keep]
        return got


def _skeleton(subst: TypeSubstitution, ty: TypeExpr) -> tuple:
    """The key a type is indexed by, under `subst`: the head of each argument
    along its arrow spine, then the head of its result, where the head of a
    constructor is its name and that of a variable is None."""
    heads = []
    ty = walk(subst, ty)
    while ty.__class__ is TCon and ty.name == FUN and len(ty.args) == 2:
        arg = walk(subst, ty.args[0])
        heads.append(arg.name if arg.__class__ is TCon else None)
        ty = walk(subst, ty.args[1])
    heads.append(ty.name if ty.__class__ is TCon else None)
    return tuple(heads)


def _fits(hole: tuple, mono: tuple) -> bool:
    """Whether a monomorphic type with skeleton `mono` may unify with a hole
    type with skeleton `hole`: at each place both have, the hole's head is a
    variable or the same name.  A hole whose spine ends first fits only if
    its result is a variable, which can take the further arrows; a
    monomorphic result never can."""
    n = len(hole)
    if n > len(mono):
        return False
    for h, m in zip(hole, mono):
        if h is not None and h != m:
            return False
    return n == len(mono) or hole[-1] is None


def base_signature() -> Signature:
    """Type schemes for the built-in logical constants.

    These are always in scope when typechecking lemma statements and are used
    to re-concretize retained constants during template instantiation.  Each
    call builds a fresh Signature.
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


# Only read, never handed out: typecheck and instantiate consult it on
# every call through base_scheme.
_BASE_SCHEMES = {e.name: e.type for e in base_signature()}


def base_scheme(name: str) -> TypeExpr | None:
    """The built-in type scheme of a logical constant, or None."""
    return _BASE_SCHEMES.get(name)


# ---------------------------------------------------------------------------
# Typechecking


class _Infer:
    def __init__(self, sig: Signature | None):
        self.sig = sig
        self.subst: TypeSubstitution = {}
        self.fresh = FreshNames("?t")
        self.free_env: dict[str, TypeExpr] = {}
        self.hole_env: dict[int, TypeExpr] = {}

    def unify_at(self, path, expected: TypeExpr, found: TypeExpr) -> None:
        try:
            unify_into(self.subst, expected, found)
        except UnificationError:
            raise TypeMismatch(
                tuple(path), resolve(self.subst, expected), resolve(self.subst, found)
            ) from None

    def infer(self, t: Term, bound: list[TypeExpr], path: list[int]) -> TypeExpr:
        if isinstance(t, Const):
            sig = self.sig
            if sig is not None:
                scheme = sig[t.name].type if t.name in sig else base_scheme(t.name)
                if scheme is None:
                    raise UnknownConstant(t.name)
                self.unify_at(path, self.fresh.rename(scheme), t.type)
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
        res = self.fresh.var()
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


def _alpha_tokens(t: Term, frees: dict[str, int]):
    """The tokens that define alpha equivalence, one at a time.

    The walk visits the term's nodes and types in preorder.  It yields node
    kinds, constant names, type constructor names and arities, hole indices
    and bound indices.  Each free-variable name and each type-variable name
    becomes its first-occurrence number, and binder names are dropped.
    `frees` receives each free name with its number.
    """
    tvars: dict[str, int] = {}
    # Terms and types still to visit, on an explicit stack: a recursive walk
    # would hit the interpreter's recursion limit below MAX_DEPTH.
    stack: list = [t]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is TCon:
            yield "tc"
            yield x.name
            yield len(x.args)
            if x.args:
                stack.extend(reversed(x.args))
        elif cls is App:
            yield "app"
            stack.append(x.arg)
            stack.append(x.fn)
        elif cls is TVar:
            yield "tv"
            yield tvars.setdefault(x.name, len(tvars))
        elif cls is Const:
            yield "const"
            yield x.name
            stack.append(x.type)
        elif cls is Free:
            yield "free"
            yield frees.setdefault(x.name, len(frees))
            stack.append(x.type)
        elif cls is Bound:
            yield "bound"
            yield x.index
        elif cls is Abs:
            yield "abs"
            stack.append(x.body)
            stack.append(x.binder_type)
        else:
            yield "hole"
            yield x.index
            stack.append(x.type)


def alpha_equal(a: Term, b: Term) -> bool:
    """Equality up to binder names, bijective Free renaming and bijective
    TypeVar renaming.  Const and TCon names (and Hole indices) must match.

    The free-variable bijection must be the identity on names the two terms
    share: `a + b` and `b + a` are NOT alpha-equal (a cannot map to b while b
    occurs in both terms), whereas `x1 + x2` matches `a + b`.  It is not
    transitive, and the package compares lemmas by `alpha_key` instead.

    The two terms' token streams, the ones `alpha_key` lists, are compared
    as they are produced, up to the first mismatch.  Equal streams pair the
    n-th free name of `a` with the n-th of `b`; the rule on shared names is
    then the one check a key cannot make.
    """
    frees_a: dict[str, int] = {}
    frees_b: dict[str, int] = {}
    for x, y in zip_longest(_alpha_tokens(a, frees_a), _alpha_tokens(b, frees_b)):
        if x != y:
            return False
    return all(
        x == y or (x not in frees_b and y not in frees_a)
        for x, y in zip(frees_a, frees_b)
    )


def alpha_key(t: Term) -> tuple:
    """A lemma's identity, the token stream of `_alpha_tokens` as a tuple:
    keys are equal iff a bijection of free names and one of type-variable
    names make two terms equal up to binder names.  Free variables are
    universally quantified, so the package scores, matches and dedupes
    lemmas by this key alone.  `alpha_equal` implies equal keys; equal keys
    imply it when both terms name their frees `x1..xn` by first occurrence,
    as a canonical template's conjectures do."""
    return tuple(_alpha_tokens(t, {}))
