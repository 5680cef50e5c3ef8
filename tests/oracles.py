"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: brute-force bijection search for alpha
equivalence, substitution-enumeration for unifiability, textbook Robinson
unification for typability, a character-by-character tokenizer and a
peek/next parser for s-expressions, exhaustive product enumeration for
instantiation, a search that tries every candidate at every node, saturation
to a fixpoint for congruence over a term universe, one-sided matching for law
instances, and plain recursive evaluation for testing-based partitions, and
template abstraction that typechecks every body it builds.  None of it shares
code with the package internals it checks.
"""

from __future__ import annotations

import itertools
import random

from lemmakit.terms import (
    Abs,
    App,
    Bound,
    Const,
    Free,
    FreshNames,
    Hole,
    MAX_DEPTH,
    TCon,
    Term,
    TermSyntaxError,
    TVar,
    TypeExpr,
    TypecheckError,
    UnificationError,
    apply_type_subst,
    base_scheme,
    fun,
    render_term,
    resolve,
    typecheck,
    unify_into,
)
from lemmakit.templates import IllTyped, NonCanonical, Template, default_whitelist

# ---------------------------------------------------------------------------
# Alpha equivalence by brute-force bijection


def _free_names(t, acc):
    if isinstance(t, Free):
        acc.add(t.name)
    elif isinstance(t, Abs):
        _free_names(t.body, acc)
    elif isinstance(t, App):
        _free_names(t.fn, acc)
        _free_names(t.arg, acc)


def free_name_set(t) -> set[str]:
    """The names of t's free variables."""
    acc: set[str] = set()
    _free_names(t, acc)
    return acc


def _tvar_names(t, acc):
    def ty(x):
        if isinstance(x, TVar):
            acc.add(x.name)
        else:
            for a in x.args:
                ty(a)

    if isinstance(t, (Const, Free, Hole)):
        ty(t.type)
    elif isinstance(t, Abs):
        ty(t.binder_type)
        _tvar_names(t.body, acc)
    elif isinstance(t, App):
        _tvar_names(t.fn, acc)
        _tvar_names(t.arg, acc)


def _rename(t, fmap, tmap):
    def ty(x):
        if isinstance(x, TVar):
            return TVar(tmap.get(x.name, x.name))
        return TCon(x.name, tuple(ty(a) for a in x.args))

    if isinstance(t, Free):
        return Free(fmap.get(t.name, t.name), ty(t.type))
    if isinstance(t, Const):
        return Const(t.name, ty(t.type))
    if isinstance(t, Hole):
        return Hole(t.index, ty(t.type))
    if isinstance(t, Bound):
        return t
    if isinstance(t, Abs):
        return Abs("_", ty(t.binder_type), _rename(t.body, fmap, tmap))
    return App(_rename(t.fn, fmap, tmap), _rename(t.arg, fmap, tmap))


def _strict_equal(a, b):
    """Structural equality ignoring binder names."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Abs):
        return a.binder_type == b.binder_type and _strict_equal(a.body, b.body)
    if isinstance(a, App):
        return _strict_equal(a.fn, b.fn) and _strict_equal(a.arg, b.arg)
    return a == b


def alpha_oracle(a, b) -> bool:
    """Try every admissible bijection of free names and every bijection of
    type-variable names.  A free-name bijection is admissible when it is the
    identity on names occurring in both terms (matching the package's
    contract that `a + b` is not alpha-equal to `b + a`)."""
    fa_set, fb_set = set(), set()
    _free_names(a, fa_set)
    _free_names(b, fb_set)
    if len(fa_set) != len(fb_set):
        return False
    ta, tb = set(), set()
    _tvar_names(a, ta)
    _tvar_names(b, tb)
    if len(ta) != len(tb):
        return False
    fa, fb = sorted(fa_set), sorted(fb_set)
    ta, tb = sorted(ta), sorted(tb)
    for fperm in itertools.permutations(fb):
        fmap = dict(zip(fa, fperm))
        if any(
            k != v and (k in fb_set or v in fa_set) for k, v in fmap.items()
        ):
            continue
        for tperm in itertools.permutations(tb):
            tmap = dict(zip(ta, tperm))
            if _strict_equal(_rename(a, fmap, tmap), _rename(b, {}, {})):
                return True
    return False


def lemma_oracle(a, b) -> bool:
    """Whether a and b are one lemma: some bijection of free names and some
    bijection of type-variable names make them equal.  This is `alpha_oracle`
    without its rule on shared names, got by first setting the two terms'
    free names apart, so every bijection of them is admissible (`a + b` and
    `b + a` are one lemma)."""

    def apart(t, tag):
        return _rename(t, {n: f"{tag}.{n}" for n in free_name_set(t)}, {})

    return alpha_oracle(apart(a, "a"), apart(b, "b"))


def dedupe_pairwise(conjectures, same=alpha_oracle):
    """The quadratic reference for dedupe: keep each conjecture unless
    `same` holds between its term and an earlier survivor's."""
    kept = []
    removed = 0
    for conj in conjectures:
        if any(same(conj.term, k.term) for k in kept):
            removed += 1
            continue
        kept.append(conj)
    return kept, removed


# ---------------------------------------------------------------------------
# Unifiability by substitution enumeration (triangle property)


def _type_subterms(t, acc):
    acc.append(t)
    if isinstance(t, TCon):
        for a in t.args:
            _type_subterms(a, acc)


def _vars_of(t, acc):
    if isinstance(t, TVar):
        acc.add(t.name)
    else:
        for a in t.args:
            _vars_of(a, acc)


def _apply(sub, t):
    if isinstance(t, TVar):
        return sub.get(t.name, t)
    return TCon(t.name, tuple(_apply(sub, a) for a in t.args))


def unifiable_oracle(a, b) -> bool:
    """Complete for any variable count, practical for <= 3: if a and b unify,
    some triangle substitution maps each variable to a subterm of the inputs;
    iterating it |vars|+1 times yields the unifier."""
    variables = set()
    _vars_of(a, variables)
    _vars_of(b, variables)
    if not variables:
        return a == b
    pool = []
    _type_subterms(a, pool)
    _type_subterms(b, pool)
    seen = set()
    unique_pool = []
    for t in pool:
        key = repr(t)
        if key not in seen:
            seen.add(key)
            unique_pool.append(t)
    names = sorted(variables)
    rounds = len(names) + 1
    for choice in itertools.product(unique_pool, repeat=len(names)):
        sub = dict(zip(names, choice))
        x, y = a, b
        for _ in range(rounds):
            x, y = _apply(sub, x), _apply(sub, y)
        if x == y:
            return True
    return False


# ---------------------------------------------------------------------------
# Robinson unification (for the independent typability check)


class RobinsonFail(Exception):
    pass


def robinson(a, b, sub=None):
    """Classic substitution-composition unification; returns a map or raises."""
    if sub is None:
        sub = {}
    a, b = _apply_deep(sub, a), _apply_deep(sub, b)
    if isinstance(a, TVar):
        if a == b:
            return sub
        if _occurs(a.name, b):
            raise RobinsonFail(f"occurs: {a.name}")
        return _compose(sub, {a.name: b})
    if isinstance(b, TVar):
        return robinson(b, a, sub)
    if a.name != b.name or len(a.args) != len(b.args):
        raise RobinsonFail(f"clash: {a.name} vs {b.name}")
    for x, y in zip(a.args, b.args):
        sub = robinson(x, y, sub)
    return sub


def _apply_deep(sub, t):
    if isinstance(t, TVar):
        got = sub.get(t.name)
        return _apply_deep(sub, got) if got is not None else t
    return TCon(t.name, tuple(_apply_deep(sub, a) for a in t.args))


def _occurs(name, t):
    if isinstance(t, TVar):
        return t.name == name
    return any(_occurs(name, a) for a in t.args)


def _compose(sub, extra):
    out = {k: _apply_deep(extra, v) for k, v in sub.items()}
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Exhaustive instantiation oracle


def exhaustive_instantiations(template, candidates, base_schemes):
    """All hole assignments (as name tuples, hole-index order) that admit a
    consistent typing, found by brute force over the full product.

    base_schemes maps retained-constant names to their type schemes; those
    constraints are included so the oracle matches the engine's refinement of
    generalized logical types.
    """
    hole_order = sorted(template.hole_types)
    counter = itertools.count()

    def freshen(scheme):
        names = set()
        _vars_of(scheme, names)
        ren = {n: TVar(f"?o{next(counter)}") for n in names}
        return _apply_deep(ren, scheme)

    constraints_base = []
    seen_consts = {}
    for node in _walk_terms(template.body):
        if isinstance(node, Const) and node.name in base_schemes:
            constraints_base.append((freshen(base_schemes[node.name]), node.type))

    results = []
    for combo in itertools.product(candidates, repeat=len(hole_order)):
        sub = {}
        try:
            for scheme, annot in constraints_base:
                sub = robinson(scheme, annot, sub)
            for idx, cand in zip(hole_order, combo):
                sub = robinson(
                    template.hole_types[idx], freshen(cand.type), sub
                )
        except RobinsonFail:
            continue
        results.append(tuple(c.name for c in combo))
    return results


def _walk_terms(t):
    yield t
    if isinstance(t, Abs):
        yield from _walk_terms(t.body)
    elif isinstance(t, App):
        yield from _walk_terms(t.fn)
        yield from _walk_terms(t.arg)


def unindexed_solutions(template, candidates, distinct=False):
    """Every solution of `instantiate`'s search, in its order, as (leaf
    substitution, symbol names in hole order): the search as it ran before
    candidates were indexed by type, which tries every candidate at every
    node.  With `distinct`, no symbol fills two holes.  There is no deadline
    and no cap; callers cut the list.

    Unlike the rest of this module it uses the package's renaming and
    unifier: the substitutions it pins hold their fresh `?fN` names, and
    those depend on every renaming the search makes, in order.
    """
    fresh = FreshNames("?f")
    root = {}
    for node in _walk_terms(template.body):
        scheme = base_scheme(node.name) if isinstance(node, Const) else None
        if scheme is not None:
            try:
                unify_into(root, fresh.rename(scheme), node.type)
            except UnificationError:
                return []
    order = sorted(template.hole_types)
    out = []

    def search(pos, subst, chosen):
        if pos == len(order):
            out.append((subst, chosen))
            return
        for cand in candidates:
            if distinct and cand.name in chosen:
                continue
            attempt = dict(subst)
            try:
                unify_into(attempt, template.hole_types[order[pos]], fresh.rename(cand.type))
            except UnificationError:
                continue
            search(pos + 1, attempt, chosen + (cand.name,))

    search(0, root, ())
    return out


# ---------------------------------------------------------------------------
# Congruence by naive saturation


def _first_order_match(pattern, target, sub) -> bool:
    """Matching where a variable binds only terms of its own type."""
    if isinstance(pattern, Free):
        head, args = _head_args(target)
        ty = head.type
        for _ in args:
            ty = ty.args[1]
        return ty == pattern.type and sub.setdefault(pattern.name, target) == target
    if isinstance(pattern, App):
        return (
            isinstance(target, App)
            and _first_order_match(pattern.fn, target.fn, sub)
            and _first_order_match(pattern.arg, target.arg, sub)
        )
    return pattern == target


def _substitute(t, sub):
    if isinstance(t, Free):
        return sub.get(t.name, t)
    if isinstance(t, App):
        return App(_substitute(t.fn, sub), _substitute(t.arg, sub))
    return t


def _head_args(t):
    args = []
    while isinstance(t, App):
        args.insert(0, t.arg)
        t = t.fn
    return t, args


def term_size(t) -> int:
    """Atom count of a first-order term: applications are free, and each
    head symbol and variable counts once.  A law's size is the sum over its
    two sides."""
    return 1 + sum(term_size(a) for a in _head_args(t)[1])


def type_size(t) -> int:
    """Node count of a type: each constructor and variable counts once."""
    if isinstance(t, TVar):
        return 1
    return 1 + sum(type_size(a) for a in t.args)


def _components(n, edges):
    """Component number of each of n nodes under an undirected edge set,
    by depth-first search."""
    adjacent = [[] for _ in range(n)]
    for i, j in edges:
        adjacent[i].append(j)
        adjacent[j].append(i)
    comp = [None] * n
    for start in range(n):
        if comp[start] is None:
            comp[start] = start
            stack = [start]
            while stack:
                for j in adjacent[stack.pop()]:
                    if comp[j] is None:
                        comp[j] = start
                        stack.append(j)
    return comp


def congruence_oracle(universe, laws):
    """Component of each universe term under the least equivalence relation
    on the universe that is closed under congruence and contains every
    instance of `laws` (pairs (lhs, rhs), either orientation) inside it.

    The universe must hold the arguments of each of its terms.  An instance
    joins a universe term u = s(l) to s(r).  When s(r) is not a universe term
    itself, it joins u to a universe term with s(r)'s head whose arguments
    lie, one by one, in the components of s(r)'s arguments (recursively).
    Saturated by repeated passes over every law and term, each pass starting
    from the components of the relation so far: no union-find, and nothing
    but the relation kept between passes.
    """
    index = {t: i for i, t in enumerate(universe)}
    by_id = {id(t): i for i, t in enumerate(universe)}
    shapes = []
    for t in universe:
        head, args = _head_args(t)
        shapes.append((head, [index[a] for a in args]))
    edges = set()
    while True:
        comp = _components(len(universe), edges)
        new = set()
        # Congruence: two applications of one head to arguments in the same
        # components join.
        signatures = {}
        for i, (head, args) in enumerate(shapes):
            if args:
                key = (head, tuple(comp[a] for a in args))
                j = signatures.setdefault(key, i)
                if comp[j] != comp[i]:
                    new.add((i, j))

        def component_of(t):
            i = by_id.get(id(t))
            if i is None:
                head, args = _head_args(t)
                if not args:
                    i = index.get(t)
                else:
                    arg_comps = tuple(component_of(a) for a in args)
                    i = None if None in arg_comps else signatures.get((head, arg_comps))
            return None if i is None else comp[i]

        for lhs, rhs in laws:
            for pattern, other in ((lhs, rhs), (rhs, lhs)):
                for i, u in enumerate(universe):
                    sub = {}
                    if _first_order_match(pattern, u, sub):
                        c = component_of(_substitute(other, sub))
                        if c is not None and c != comp[i]:
                            new.add((i, c))
        if not new:
            return comp
        edges |= new


# ---------------------------------------------------------------------------
# Law instances by one-sided matching


def _match(pattern, target, sub) -> bool:
    """Untyped one-sided first-order matching; pattern variables bind terms."""
    if isinstance(pattern, Free):
        return sub.setdefault(pattern.name, target) == target
    if isinstance(pattern, Const):
        return isinstance(target, Const) and pattern.name == target.name
    if isinstance(pattern, App):
        return (
            isinstance(target, App)
            and _match(pattern.fn, target.fn, sub)
            and _match(pattern.arg, target.arg, sub)
        )
    return pattern == target


def is_instance_of(law, general) -> bool:
    """True when `law` (anything with .lhs and .rhs) is a substitution
    instance of `general`, in either orientation of `general`'s equation."""
    for gl, gr in ((general.lhs, general.rhs), (general.rhs, general.lhs)):
        sub = {}
        if _match(gl, law.lhs, sub) and _match(gr, law.rhs, sub):
            return True
    return False


# ---------------------------------------------------------------------------
# Testing-based partition by naive evaluation


_NAIVE_LOGIC = {
    "HOL.eq": lambda a, b: a == b,
    "HOL.Not": lambda a: not a,
    "HOL.conj": lambda a, b: a and b,
    "HOL.disj": lambda a, b: a or b,
    "HOL.implies": lambda a, b: (not a) or b,
    "HOL.True": True,
    "HOL.False": False,
}


def naive_functions(sig):
    """Name -> function, or value for a constant, of the signature's symbols
    and of the equality and connectives (a symbol wins over a connective of
    the same name)."""
    return {**_NAIVE_LOGIC, **{s.name: sig.meanings[s.name][2] for s in sig.symbols}}


def naive_value(t, fns, valuation):
    """Value of a first-order term under one valuation, by plain recursion:
    a variable's value from the valuation, a head's entry in `fns` applied
    to its arguments' values."""
    head, args = _head_args(t)
    if isinstance(head, Free):
        assert not args
        return valuation[head.name]
    fn = fns[head.name]
    return fn(*(naive_value(a, fns, valuation) for a in args)) if args else fn


def partition_oracle(terms, sig, valuations):
    """Terms grouped by (sort, tuple of values over the valuations), the sort
    read off each term's own type annotation: classes in order of first
    member, members in input order."""
    fns = naive_functions(sig)
    classes = {}
    for t in terms:
        head, args = _head_args(t)
        sort = head.type
        for _ in args:
            sort = sort.args[1]
        values = tuple(naive_value(t, fns, v) for v in valuations)
        classes.setdefault((sort, values), []).append(t)
    return list(classes.values())


# ---------------------------------------------------------------------------
# S-expression parsing, character by character
#
# The package's first tokenizer and parser, kept as the reference that the
# regex scanner and the index-walking parser in `lemmakit.terms` must agree
# with: the same term or type, or the same TermSyntaxError message and offset.


def _tokenize(text: str):
    """(kind, value, offset) per token, by stepping through the characters."""
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    depth = 0
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c in "()":
            depth += 1 if c == "(" else -1
            if depth > MAX_DEPTH:
                raise TermSyntaxError(f"nesting deeper than {MAX_DEPTH}", i)
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
        elif c.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
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
    """Recursive descent over `_tokenize`'s list, one peek/next call per token."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.end = len(text)
        self.types: dict[tuple, TypeExpr] = {}

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
        if head != "tv" and head != "tc":
            raise TermSyntaxError(f"expected type constructor, got {head!r}", off)
        name = self.next("str")[1]
        args: list[TypeExpr] = []
        while head == "tc" and not self.at_close():
            args.append(self.type_expr())
        self.next(")")
        # Equal types in one parse are one object, so arguments compare by id.
        key = (head, name, *map(id, args))
        ty = self.types.get(key)
        if ty is None:
            ty = self.types[key] = TVar(name) if head == "tv" else TCon(name, tuple(args))
        return ty

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


def reference_parse_type(text: str):
    p = _Parser(text)
    t = p.type_expr()
    p.finish()
    return t


def reference_parse_term(text: str):
    p = _Parser(text)
    t = p.term()
    p.finish()
    return t


# ---------------------------------------------------------------------------
# Template abstraction, checked twice
#
# `lemmakit.templates.abstract` as it was when every template it built passed
# the template check: the body is typechecked again on every path.  It shares
# the package's typechecker and unifier, whose messages its errors carry, but
# not its walk.


class _Generalize:
    """Each maximal non-function subtree of a type to a type variable, a0,
    a1, ... as first met; equal types to one object."""

    def __init__(self):
        self.seen: dict[TypeExpr, TypeExpr] = {}
        self.n = 0

    def __call__(self, ty: TypeExpr) -> TypeExpr:
        if ty not in self.seen:
            if isinstance(ty, TCon) and ty.name == "fun":
                got = TCon("fun", tuple(self(a) for a in ty.args))
            else:
                got = TVar(f"a{self.n}")
                self.n += 1
            self.seen[ty] = got
        return self.seen[ty]


class _AbstractWalk:
    """The walk over one lemma: its holes by constant name, each hole's
    generalized types in preorder, and its free names."""

    def __init__(self, w):
        self.w = w
        self.gen = _Generalize()
        self.holes: dict[str, int] = {}
        self.occurrences: dict[int, list[TypeExpr]] = {}
        self.frees: dict[str, str] = {}

    def __call__(self, t, depth=0):
        if isinstance(t, Hole):
            raise IllTyped("input term already contains holes")
        if isinstance(t, Const):
            ty = self.gen(t.type)
            if self.w.contains(t.name):
                return Const(t.name, ty)
            idx = self.holes.setdefault(t.name, len(self.holes) + 1)
            self.occurrences.setdefault(idx, []).append(ty)
            return Hole(idx, ty)
        if isinstance(t, Free):
            name = self.frees.setdefault(t.name, f"x{len(self.frees) + 1}")
            return Free(name, self.gen(t.type))
        if isinstance(t, Bound):
            return t
        if isinstance(t, Abs):
            binder_type = self.gen(t.binder_type)
            return Abs(f"y{depth}", binder_type, self(t.body, depth + 1))
        fn = self(t.fn, depth)
        return App(fn, self(t.arg, depth))


def _retype(t, f, hole_types):
    """`t` with `f` applied to each annotation, in preorder; `hole_types`
    receives each hole's first new type."""
    if isinstance(t, Bound):
        return t
    if isinstance(t, Abs):
        binder_type = f(t.binder_type)
        return Abs(t.binder, binder_type, _retype(t.body, f, hole_types))
    if isinstance(t, App):
        fn = _retype(t.fn, f, hole_types)
        return App(fn, _retype(t.arg, f, hole_types))
    if isinstance(t, Hole):
        ty = f(t.type)
        hole_types.setdefault(t.index, ty)
        return Hole(t.index, ty)
    return type(t)(t.name, f(t.type))


def reference_abstract(t: Term, w=None, sig=None) -> Template:
    """The template of the lemma `t`, or IllTyped or NonCanonical with the
    messages of `lemmakit.templates.abstract`.

    A constant met at several generalized types has its hole's types
    unified, with the walk's variables seen as ?g0, ?g1, ...  The walk
    keeps every other template invariant, and a merge keeps them too, so of
    the template check only typing is left to run."""
    if w is None:
        w = default_whitelist()
    walk = _AbstractWalk(w)
    body = walk(t)
    occurrences = walk.occurrences
    try:
        typecheck(t, sig)
    except TypecheckError as e:
        raise IllTyped(str(e)) from e
    hole_types = {i: ts[0] for i, ts in occurrences.items()}
    if any(ty != ts[0] for ts in occurrences.values() for ty in ts):
        pre = {f"a{i}": TVar(f"?g{i}") for i in range(walk.gen.n)}
        s: dict[str, TypeExpr] = {}
        try:
            for ts in occurrences.values():
                for other in ts[1:]:
                    unify_into(s, apply_type_subst(pre, ts[0]), apply_type_subst(pre, other))
        except UnificationError as e:
            raise IllTyped(f"cannot reconcile hole occurrence types: {e}") from e
        rename = _Generalize()
        retype = lambda ty: rename(resolve(s, apply_type_subst(pre, ty)))
        hole_types = {}
        body = _retype(body, retype, hole_types)
    try:
        typecheck(body, None)
    except TypecheckError as e:
        raise NonCanonical(f"template does not typecheck: {e}") from e
    return Template(body, len(hole_types), hole_types, render_term(body))


# ---------------------------------------------------------------------------
# Random generators


TYPE_CONS = ("O1.alpha", "O2.beta", "O3.gamma")


def random_type(rng: random.Random, depth: int, var_names=("v1", "v2")):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        if roll < 0.2 and var_names:
            return TVar(rng.choice(var_names))
        return TCon(rng.choice(TYPE_CONS))
    if roll < 0.7:
        return fun(
            random_type(rng, depth - 1, var_names),
            random_type(rng, depth - 1, var_names),
        )
    return TCon(
        rng.choice(TYPE_CONS),
        tuple(
            random_type(rng, depth - 1, var_names)
            for _ in range(rng.randint(1, 2))
        ),
    )


def random_ground_type(rng: random.Random):
    return TCon(rng.choice(TYPE_CONS))


def random_signature(rng: random.Random, max_symbols: int = 4):
    """Monomorphic symbols with arity 0-2 over the ground constructors."""
    n = rng.randint(1, max_symbols)
    out = []
    for i in range(n):
        arity = rng.randint(0, 2)
        ty = random_ground_type(rng)
        for _ in range(arity):
            ty = fun(random_ground_type(rng), ty)
        out.append((f"Gen.sym{i}", ty))
    return out


def random_term_of_type(rng, symbols, frees, target, depth, force_symbol=False):
    """A random well-typed term of the requested ground type.

    With force_symbol the root is a symbol application, which guarantees the
    term's type is pinned by a symbol occurrence (needed so abstraction
    followed by instantiation can recover concrete types).
    """
    producers = [
        (name, ty) for name, ty in symbols if _result_type(ty) == target
    ]
    use_symbol = producers and (
        force_symbol or (depth > 0 and rng.random() < 0.6)
    )
    if not use_symbol:
        existing = [f for f in frees if frees[f] == target]
        if existing and rng.random() < 0.7:
            return Free(rng.choice(existing), target)
        name = f"fv{len(frees)}"
        frees[name] = target
        return Free(name, target)
    name, ty = rng.choice(producers)
    args = _arg_types(ty)
    term = Const(name, ty)
    for at in args:
        term = App(term, random_term_of_type(rng, symbols, frees, at, depth - 1))
    return term


def _result_type(ty):
    while isinstance(ty, TCon) and ty.name == "fun":
        ty = ty.args[1]
    return ty


def _arg_types(ty):
    out = []
    while isinstance(ty, TCon) and ty.name == "fun":
        out.append(ty.args[0])
        ty = ty.args[1]
    return out


def random_lemma_term(rng: random.Random):
    """A random equational lemma over a random monomorphic signature.

    Shape: eq lhs rhs, both sides built from <= 4 generated symbols and free
    variables, depth <= 6.
    """
    symbols = random_signature(rng)
    target = _result_type(symbols[0][1])
    frees: dict[str, TCon] = {}
    lhs = random_term_of_type(
        rng, symbols, frees, target, rng.randint(1, 5), force_symbol=True
    )
    rhs = random_term_of_type(
        rng, symbols, frees, target, rng.randint(1, 5), force_symbol=True
    )
    eq = Const("HOL.eq", fun(target, fun(target, TCon("HOL.bool"))))
    term = App(App(eq, lhs), rhs)
    entries = [(name, ty) for name, ty in symbols]
    return term, entries
