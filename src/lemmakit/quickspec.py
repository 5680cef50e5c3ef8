"""Desk-scale enumerative conjecturing: term enumeration over an interpreted
signature, testing-based equivalence classes, law emission pruned by
congruence closure, and the counterexample tester used for categorizing
conjectures.

Laws are pruned as in QuickSpec (Claessen, Smallbone & Hughes, 2010).  The
candidates equate each class member to the class's smallest member, and are
taken smallest first; within a size, those with more distinct variables
first, then those naming their variables in ascending reading order (see
`candidate_laws`).  A candidate is dropped when the laws kept before it make
its sides congruent over the enumerated universe: a union-find over the
universe's hash-consed term nodes, joined by every instance of a kept law
inside the universe and closed under congruence.  Laws are matched and
instantiated on those nodes alone, through an index keyed by sort and head.
A kept law may still follow from earlier ones through terms larger than the
universe, a known artifact of this pruning.

One evaluator, `evaluate_columns`, serves partitioning, re-verification and
counterexample search: it maps each term to its column of values over a list
of valuations.  It resolves every head with one lookup in one table, the
signature's `meanings`: each symbol and each logical constant (equality and
the connectives) maps to its argument sorts, result sort and function, and a
name not in it has no interpretation.  Equal columns of one sort are one
interned object, and a symbol is applied once per tuple of argument columns,
so a term whose arguments fall in classes already seen costs no symbol
calls, and the partition groups terms by column object.

Value domains are deliberately small and closed (integers mod M, bounded
ranges, booleans, short integer lists) so everything is executable and
reproducible from a seed.  A signature's symbols are one `terms.Signature`,
the table that instantiation reads, with their functions kept beside them
by name.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

from .corpus import check_fields, load_json, read_symbols
from .templates import BOOL
from .terms import (
    App,
    Const,
    DuplicateSymbols,
    Free,
    LemmakitError,
    Signature,
    SignatureEntry,
    TCon,
    Term,
    alpha_key,
    base_scheme,
    fun,
    render_terms,
    render_type,
    strip_spine,
    subterms,
)


class NotTestable(LemmakitError):
    pass


# ---------------------------------------------------------------------------
# Sorts (samplable value domains)


@dataclass(frozen=True)
class IntModSort:
    name: str
    mod: int

    def sample(self, rng: random.Random):
        return rng.randrange(self.mod)


@dataclass(frozen=True)
class IntRangeSort:
    name: str
    lo: int
    hi: int

    def sample(self, rng: random.Random):
        return rng.randint(self.lo, self.hi)


@dataclass(frozen=True)
class BoolSort:
    name: str

    def sample(self, rng: random.Random):
        return rng.random() < 0.5


@dataclass(frozen=True)
class IntListSort:
    name: str
    max_len: int
    elem_mod: int

    def sample(self, rng: random.Random):
        n = rng.randint(0, self.max_len)
        return tuple(rng.randrange(self.elem_mod) for _ in range(n))


Sort = IntModSort | IntRangeSort | BoolSort | IntListSort


class InterpretedSignature:
    """Symbols over samplable sorts.  `functions` maps each symbol's name to
    its function, called on argument values (a constant's is its value), and
    `infix` a name to the operator it prints as.  A function must be pure and
    return hashable values: the evaluator applies it once per tuple of
    distinct argument columns and interns its results, and raises NotTestable
    naming the symbol on an unhashable value, or when the function raises
    ArithmeticError or ValueError.

    `meanings`, the one table the evaluator reads, maps each symbol and each
    logical constant of `_LOGIC` to (argument sorts, result sort, function).
    A logical constant works at any sort, so its sorts are None.  A symbol
    named like one or with no function, or a negative `vars_per_sort`, raises
    ValueError; so does a repeated name, as `Signature`'s DuplicateSymbols."""

    def __init__(self, sorts: list[Sort], symbols: list[SignatureEntry], functions: dict,
                 vars_per_sort: int = 3, infix: dict[str, str] | None = None):
        self.sorts: dict[str, Sort] = {}
        for s in sorts:
            if s.name in self.sorts:
                raise ValueError(f"duplicate sort {s.name!r}")
            self.sorts[s.name] = s
        self.symbols = Signature(symbols)
        if vars_per_sort < 0:
            raise ValueError("vars_per_sort must be at least 0")
        self.vars_per_sort = vars_per_sort
        self.infix = dict(infix or {})
        self.meanings: dict[str, tuple[tuple, str | None, object]] = dict(_LOGIC_MEANINGS)
        for sym in self.symbols:
            if sym.name in _LOGIC_MEANINGS:
                raise ValueError(f"symbol {sym.name!r} shadows a logical constant")
            if sym.name not in functions:
                raise ValueError(f"symbol {sym.name!r} has no function")
            parts = _arrow_parts(sym.type)
            for t in parts:
                if not (isinstance(t, TCon) and t.name in self.sorts):
                    raise ValueError(
                        f"symbol {sym.name!r} mentions undeclared sort {render_type(t)}"
                    )
            *args, res = (t.name for t in parts)
            self.meanings[sym.name] = (tuple(args), res, functions[sym.name])

    def variables(self) -> list[Free]:
        """x1, x2, ... — vars_per_sort variables per sort, in sort order."""
        out = []
        n = 0
        for name in self.sorts:
            for _ in range(self.vars_per_sort):
                n += 1
                out.append(Free(f"x{n}", TCon(name)))
        return out


def _arrow_parts(ty) -> list:
    """A curried function type's argument types, then its result type.  A
    "fun" type without exactly two arguments is not an arrow."""
    parts = []
    while isinstance(ty, TCon) and ty.name == "fun" and len(ty.args) == 2:
        parts.append(ty.args[0])
        ty = ty.args[1]
    return parts + [ty]


@dataclass(frozen=True)
class Law:
    lhs: Term
    rhs: Term
    size: int


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_terms(sig: InterpretedSignature, max_size: int) -> list[Term]:
    """All well-typed fully-applied terms of size <= max_size, smallest first.

    Size counts atoms (head symbols and variables).  Within one size the
    order is deterministic: sorts in declaration order, then variables,
    nullary symbols, and composite spines in symbol/argument order.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    by_sort_size: dict[tuple[str, int], list[Term]] = {}
    variables = sig.variables()

    for sort in sig.sorts:
        atoms: list[Term] = [v for v in variables if v.type.name == sort]
        for sym in sig.symbols:
            if sig.meanings[sym.name][:2] == ((), sort):
                atoms.append(Const(sym.name, sym.type))
        by_sort_size[(sort, 1)] = atoms

    for size in range(2, max_size + 1):
        for sort in sig.sorts:
            terms: list[Term] = []
            for sym in sig.symbols:
                args, res, _ = sig.meanings[sym.name]
                if not args or res != sort:
                    continue
                for sizes in _compositions(size - 1, len(args)):
                    pools = [
                        by_sort_size.get((a, s), []) for a, s in zip(args, sizes)
                    ]
                    _product_apply(Const(sym.name, sym.type), pools, terms)
            by_sort_size[(sort, size)] = terms

    out: list[Term] = []
    for size in range(1, max_size + 1):
        for sort in sig.sorts:
            out.extend(by_sort_size.get((sort, size), []))
    return out


def _compositions(total: int, parts: int):
    """Tuples of `parts` positive sizes summing to `total`, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _product_apply(head: Term, pools: list[list[Term]], out: list[Term]) -> None:
    """Append head applied to each tuple of the pools' product, in order.  A
    partial application is built once and shared by all its extensions."""
    partials = [head]
    for pool in pools:
        partials = [App(p, arg) for p in partials for arg in pool]
    out.extend(partials)


# ---------------------------------------------------------------------------
# Evaluation

# The logical constants every signature interprets (a constant's function is
# its value), and their rows of `meanings`.
_LOGIC = {
    "HOL.eq": lambda a, b: a == b,
    "HOL.Not": lambda a: not a,
    "HOL.conj": lambda a, b: a and b,
    "HOL.disj": lambda a, b: a or b,
    "HOL.implies": lambda a, b: (not a) or b,
    "HOL.True": True,
    "HOL.False": False,
}
_LOGIC_MEANINGS = {
    name: ((None,) * (len(_arrow_parts(base_scheme(name))) - 1), None, fn)
    for name, fn in _LOGIC.items()
}


def evaluate_columns(
    terms: list[Term], sig: InterpretedSignature, valuations: list[dict[str, object]]
) -> dict[int, list]:
    """Value columns of testable terms over a list of valuations.

    Maps `id(t)` of every term and of every spine argument below it to the
    list of its values, one per valuation in order.  Columns are shared
    objects and must not be mutated: equal columns of one sort are interned
    to one list, so two terms get the same column object exactly when they
    have the same sort and equal values.  The sort is a variable's type name
    or a symbol's result sort; the generic logical constants (equality,
    connectives), which work at any sort, share one sort of their own.
    Interning is per sort because an int column [1, 0] equals a bool column
    [True, False].

    Each term is evaluated once per object, and each symbol once per tuple of
    argument column objects: symbols are assumed pure, so a term whose
    arguments have columns already seen reuses the symbol's column and makes
    no symbol calls.  Values must be hashable; an unhashable one raises
    NotTestable naming its variable or symbol.
    """
    cols: dict[int, list] = {}
    interned: dict[tuple, list] = {}  # (sort, values) -> column
    applied: dict[tuple, list] = {}  # (head name, *argument column ids) -> column
    for t in terms:
        _column(t, sig, valuations, cols, interned, applied)
    return cols


def _column(
    t: Term,
    sig: InterpretedSignature,
    valuations: list[dict],
    cols: dict[int, list],
    interned: dict[tuple, list],
    applied: dict[tuple, list],
) -> list:
    col = cols.get(id(t))
    if col is not None:
        return col
    head, args = strip_spine(t)
    if isinstance(head, Free):
        if args:
            raise NotTestable(f"variable {head.name!r} applied to arguments")
        try:
            col = [val[head.name] for val in valuations]
        except KeyError:
            raise NotTestable(f"no value for variable {head.name!r}") from None
        col = _intern(col, head.type.name, interned, f"variable {head.name!r}")
    elif isinstance(head, Const):
        arg_cols = [_column(a, sig, valuations, cols, interned, applied) for a in args]
        key = (head.name, *map(id, arg_cols))
        col = applied.get(key)
        if col is None:
            meaning = sig.meanings.get(head.name)
            if meaning is None:
                raise NotTestable(f"symbol {head.name!r} has no interpretation")
            arg_sorts, sort, fn = meaning
            if len(arg_sorts) != len(args):
                raise NotTestable(f"symbol {head.name!r} applied to {len(args)} arguments")
            try:
                col = list(map(fn, *arg_cols)) if args else [fn] * len(valuations)
            except (ArithmeticError, ValueError) as e:
                raise NotTestable(
                    f"symbol {head.name!r} raised {type(e).__name__}: {e}"
                ) from None
            col = applied[key] = _intern(col, sort, interned, f"symbol {head.name!r}")
    else:
        raise NotTestable(f"untestable head node {type(head).__name__}")
    cols[id(t)] = col
    return col


def _intern(col: list, sort: str | None, interned: dict[tuple, list], what: str) -> list:
    """The one column of `sort` equal to col, col itself if it is the first."""
    try:
        return interned.setdefault((sort, tuple(col)), col)
    except TypeError:
        raise NotTestable(f"{what} has an unhashable value") from None


def make_valuations(
    sig: InterpretedSignature, variables: list[Free], num_tests: int, seed: int
) -> list[dict[str, object]]:
    """num_tests valuations from one sequential stream, so a longer run's
    prefix equals a shorter run with the same seed.  A variable whose type is
    not one of the signature's sorts raises NotTestable."""
    samplers = []
    for v in variables:
        sort = sig.sorts.get(v.type.name) if isinstance(v.type, TCon) else None
        if sort is None:
            raise NotTestable(f"variable {v.name!r} has no samplable sort")
        samplers.append((v.name, sort.sample))
    rng = random.Random(seed)
    out = []
    for _ in range(num_tests):
        val = {}
        for name, sample in samplers:
            val[name] = sample(rng)
        out.append(val)
    return out


def test_partition(
    terms: list[Term], sig: InterpretedSignature, num_tests: int, seed: int
) -> list[list[Term]]:
    """Group terms by their sort and value vectors over seeded random
    valuations, i.e. by their interned `evaluate_columns` column.

    Classes are returned in order of first member appearance; members keep
    their input order.
    """
    if num_tests < 1:
        raise ValueError("num_tests must be >= 1")
    valuations = make_valuations(sig, sig.variables(), num_tests, seed)
    cols = evaluate_columns(terms, sig, valuations)
    classes: dict[int, list[Term]] = {}
    for t in terms:
        classes.setdefault(id(cols[id(t)]), []).append(t)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Law emission with congruence pruning


def candidate_laws(classes: list[list[Term]]) -> list[Law]:
    """Each member of a class with two or more members equated to the class's
    smallest member (by size, then rendered text), in the order `emit_laws`
    considers them.

    The order is: smaller laws first; within a size, laws with more distinct
    variables first, so a general law comes before its instances; then laws
    whose variables, read from the rhs first, occur in ascending order of
    first occurrence; then those whose variables do so read from the lhs
    first; then smaller lhs first; then by rendered lhs and rhs.  Of the
    renamings of one law, this keeps the form that names its variables in
    reading order, e.g. x1 + (x2 + x3) = (x1 + x2) + x3.  Variables compare
    by name, shorter names first, so x9 comes before x10.  Each term is sized
    and rendered once, and all members are rendered through one memo, so a
    type or leaf node that many members share is rendered once.
    """
    shapes: dict[int, tuple[int, tuple[str, ...]]] = {}
    keyed = []
    classes = [cls for cls in classes if len(cls) >= 2]
    texts = iter(render_terms([t for cls in classes for t in cls]))
    for cls in classes:
        members = sorted(
            ((*_shape(t, shapes), next(texts), t) for t in cls),
            key=lambda m: (m[0], m[2]),
        )
        rep_size, rep_vars, rep_text, rep = members[0]
        for size, names, text, member in members[1:]:
            rep_first = rep_vars + tuple(n for n in names if n not in rep_vars)
            lhs_first = names + tuple(n for n in rep_vars if n not in names)
            key = (
                size + rep_size,
                -len(rep_first),
                not _ascending(rep_first),
                not _ascending(lhs_first),
                size,
                text,
                rep_text,
            )
            keyed.append((key, Law(lhs=member, rhs=rep, size=size + rep_size)))
    keyed.sort(key=lambda k: k[0])
    return [law for _, law in keyed]


def _ascending(names: tuple[str, ...]) -> bool:
    return list(names) == sorted(names, key=lambda n: (len(n), n))


def _shape(t: Term, memo: dict) -> tuple[int, tuple[str, ...]]:
    """(t's size, t's variable names in first-occurrence order), memoized
    by object identity."""
    got = memo.get(id(t))
    if got is None:
        if isinstance(t, Free):
            got = (1, (t.name,))
        else:
            size, names = 1, ()
            for a in strip_spine(t)[1]:
                a_size, a_names = _shape(a, memo)
                size += a_size
                names += tuple(n for n in a_names if n not in names)
            got = (size, names)
        memo[id(t)] = got
    return got


class _Congruence:
    """Union-find over a universe of first-order terms, closed under
    congruence: f(a1..an) and f(b1..bn) join when every ai joins bi.

    Terms are hash-consed to node ids (keyed by object identity first, then
    by head and argument ids), so structurally equal terms share a node.  A
    variable's head is None, so no symbol, whatever its name, matches it.
    """

    def __init__(self) -> None:
        self.ids: dict[int, int] = {}  # id(term object) -> node
        self.nodes: dict[object, int] = {}  # leaf, or (head name, arg nodes)
        self.head: list[str | None] = []  # None for a variable
        self.args: list[tuple[int, ...]] = []
        self.sort: list[str] = []
        self.parent: list[int] = []
        self.uses: list[list[int]] = []  # root -> nodes with an argument in it
        self.table: dict[tuple, int] = {}  # (head, arg roots) -> node

    def add(self, t: Term) -> int:
        n = self.ids.get(id(t))
        if n is not None:
            return n
        head, args = strip_spine(t)
        arg_nodes = tuple(self.add(a) for a in args)
        key = (head.name, arg_nodes) if args else head
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = len(self.parent)
            sort = _arrow_parts(head.type)[-1]
            self.head.append(None if isinstance(head, Free) else head.name)
            self.args.append(arg_nodes)
            self.sort.append(sort.name)
            self.parent.append(n)
            self.uses.append([])
            if args:
                self.table[key] = n
                for a in set(arg_nodes):
                    self.uses[a].append(n)
        self.ids[id(t)] = n
        return n

    def find(self, n: int) -> int:
        parent = self.parent
        root = n
        while parent[root] != root:
            root = parent[root]
        while parent[n] != root:
            parent[n], n = root, parent[n]
        return root

    def match(self, p: int, n: int, subst: dict[int, int]) -> bool:
        """One-sided matching of pattern node p against node n: `subst` maps
        the pattern's variable nodes to nodes, and a bound variable matches
        only its node, i.e. a structurally equal term."""
        if self.head[p] is None:
            return subst.setdefault(p, n) == n
        if self.head[p] != self.head[n]:
            return False
        for a, b in zip(self.args[p], self.args[n]):
            if not self.match(a, b, subst):
                return False
        return True

    def instance(self, n: int, subst: dict[int, int]) -> int | None:
        """A node congruent to n with its variables replaced by `subst`
        (unbound ones left as they are): each application is looked up by
        its head and the roots of its arguments.  None when the graph holds
        no such node."""
        args = self.args[n]
        if not args:
            return subst.get(n, n)
        roots = []
        for a in args:
            m = self.instance(a, subst)
            if m is None:
                return None
            roots.append(self.find(m))
        return self.table.get((self.head[n], tuple(roots)))

    def merge(self, a: int, b: int) -> None:
        """Join the classes of a and b, then restore congruence."""
        pending = [(a, b)]
        while pending:
            a, b = (self.find(n) for n in pending.pop())
            if a == b:
                continue
            if len(self.uses[a]) > len(self.uses[b]):
                a, b = b, a
            self.parent[a] = b
            for p in self.uses[a]:
                key = (self.head[p], tuple(self.find(x) for x in self.args[p]))
                q = self.table.setdefault(key, p)
                if q != p:
                    pending.append((p, q))
            self.uses[b].extend(self.uses[a])
            self.uses[a] = []


def emit_laws(classes: list[list[Term]]) -> list[Law]:
    """The `candidate_laws` of the classes that do not follow by congruence
    closure from the laws kept before them.

    The universe is every class member: first-order terms with constant or
    variable heads, as `test_partition` returns them, hash-consed to graph
    nodes; pruning reads only the nodes.  A candidate whose sides are
    already congruent is dropped.  A kept law l = r joins, for each
    orientation and each universe node u of its sort and head (any head if l
    is a variable) matching l with substitution s, u to the node congruent
    to s(r), when there is one; the closure then merges every pair of
    applications whose arguments have become congruent.  A kept law may
    still follow from earlier ones, through terms larger than the universe.
    """
    cc = _Congruence()
    index: dict[tuple[str, str | None], list[int]] = {}  # (sort, head) -> nodes
    for cls in classes:
        for t in cls:
            n = cc.add(t)
            for head in {None, cc.head[n]}:  # None: every node of the sort
                index.setdefault((cc.sort[n], head), []).append(n)
    kept: list[Law] = []
    for law in candidate_laws(classes):
        lhs, rhs = cc.add(law.lhs), cc.add(law.rhs)
        if cc.find(lhs) == cc.find(rhs):
            continue
        kept.append(law)
        pairs = []
        for pattern, other in ((lhs, rhs), (rhs, lhs)):
            for u in index.get((cc.sort[pattern], cc.head[pattern]), ()):
                subst: dict[int, int] = {}
                if cc.match(pattern, u, subst):
                    n = cc.instance(other, subst)
                    if n is not None:
                        pairs.append((u, n))
        for a, b in pairs:
            cc.merge(a, b)
    return kept


def reverify_laws(
    laws: list[Law], sig: InterpretedSignature, num_tests: int, seed: int
) -> list[Law]:
    """Laws whose sides agree on all sampled valuations (false-merge filter).

    Each law is tested exactly as `find_counterexample` would test it; laws
    over the same variables share one drawn valuation list.
    """
    memo: dict[tuple[Free, ...], list[dict[str, object]]] = {}
    return [
        law
        for law in laws
        if _counterexample(law_to_equation(law), sig, num_tests, seed, memo) is None
    ]


# ---------------------------------------------------------------------------
# Counterexample search


def find_counterexample(
    equation: Term,
    interp: InterpretedSignature,
    num_tests: int = 400,
    seed: int = 0,
) -> dict[str, object] | None:
    """First falsifying valuation of a boolean-valued testable term, or None.

    An equation `lhs = rhs` is falsified when the sides evaluate unequal; any
    other boolean term is falsified when it evaluates to False.
    """
    return _counterexample(equation, interp, num_tests, seed, {})


def _counterexample(
    equation: Term,
    interp: InterpretedSignature,
    num_tests: int,
    seed: int,
    memo: dict[tuple[Free, ...], list[dict[str, object]]],
) -> dict[str, object] | None:
    """`find_counterexample`, drawing valuations once per sorted variable
    tuple in `memo`.  The stream depends only on the variables, the seed and
    num_tests, so reusing it changes no result."""
    variables = tuple(sorted(
        {s for s in subterms(equation) if isinstance(s, Free)},
        key=lambda f: f.name,
    ))
    valuations = memo.get(variables)
    if valuations is None:
        valuations = memo[variables] = make_valuations(
            interp, list(variables), num_tests, seed
        )
    column = evaluate_columns([equation], interp, valuations)[id(equation)]
    for val, result in zip(valuations, column):
        if result is False:
            return dict(val)
    return None


# ---------------------------------------------------------------------------
# Gold comparison and output


def law_to_equation(law: Law) -> Term:
    return _equation(law.lhs, law.rhs)


def _equation(lhs: Term, rhs: Term) -> Term:
    sort = TCon("?")
    eq = Const("HOL.eq", fun(sort, fun(sort, BOOL)))
    return App(App(eq, lhs), rhs)


def gold_equations(gold_laws: list[Term]) -> list[Term]:
    """Each gold law as `baseline_precision` compares it, with its equality
    constant's type ignored; a law that is not an equation raises
    ValueError."""
    golds = []
    for g in gold_laws:
        head, args = strip_spine(g)
        if isinstance(head, Const) and head.name == "HOL.eq" and len(args) == 2:
            golds.append(_equation(*args))
        else:
            raise ValueError("gold laws must be equations")
    return golds


def baseline_precision(laws: list[Law], gold_laws: list[Term]) -> dict:
    """How many emitted laws appear in the gold set: a law matches when
    either of its orientations has the `alpha_key` of a gold equation, so
    the names of its free variables do not matter."""
    golds = {alpha_key(g) for g in gold_equations(gold_laws)}
    matched = sum(
        alpha_key(_equation(law.lhs, law.rhs)) in golds
        or alpha_key(_equation(law.rhs, law.lhs)) in golds
        for law in laws
    )
    return {
        "emitted": len(laws),
        "matched_gold": matched,
        "precision": matched / len(laws) if laws else 0.0,
    }


def pretty_interp_term(t: Term, sig: InterpretedSignature) -> str:
    head, args = strip_spine(t)
    if isinstance(head, Free):
        return head.name

    def wrap(sub: Term) -> str:
        s = pretty_interp_term(sub, sig)
        return s if not isinstance(sub, App) else f"({s})"

    assert isinstance(head, Const)
    op = sig.infix.get(head.name)
    if op and len(args) == 2:
        return f"{wrap(args[0])} {op} {wrap(args[1])}"
    if not args:
        return head.name
    return " ".join([head.name] + [wrap(a) for a in args])


def pretty_law(law: Law, sig: InterpretedSignature) -> str:
    return f"{pretty_interp_term(law.lhs, sig)} = {pretty_interp_term(law.rhs, sig)}"


# ---------------------------------------------------------------------------
# Built-in evaluators and JSON loading


def _totient(n: int) -> int:
    """Euler's phi(n) by trial division, O(sqrt n); 0 for n <= 0."""
    phi, p = max(n, 0), 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    return phi - phi // n if n > 1 else phi


# Each builtin's argument kinds, then its result kind, and its function.
_BUILTINS = {
    "int_add": (("int", "int", "int"), operator.add),
    "int_sub": (("int", "int", "int"), operator.sub),
    "int_mul": (("int", "int", "int"), operator.mul),
    "int_pow": (("int", "int", "int"), operator.pow),
    "int_le": (("int", "int", "bool"), operator.le),
    "bool_and": (("bool", "bool", "bool"), _LOGIC["HOL.conj"]),
    "bool_or": (("bool", "bool", "bool"), _LOGIC["HOL.disj"]),
    "bool_not": (("bool", "bool"), operator.not_),
    "bool_implies": (("bool", "bool", "bool"), _LOGIC["HOL.implies"]),
    "list_append": (("list", "list", "list"), operator.add),
    "list_rev": (("list", "list"), lambda a: tuple(reversed(a))),
    "list_len": (("list", "int"), len),
    "totient": (("int", "int"), _totient),
}


def _builtin(name: str, sort: Sort | None):
    """Builtin `name`'s function for a symbol of result sort `sort`: a
    builtin with an int result reduces by the modulus of a mod sort, and not
    at all on any other sort."""
    kinds, fn = _BUILTINS[name]
    mod = sort.mod if isinstance(sort, IntModSort) else None
    if not mod or kinds[-1] != "int":
        return fn
    if name == "int_pow":  # three-argument pow never builds a ** b
        return lambda a, b: pow(a, b, mod)
    return lambda *args: fn(*args) % mod


_SIGNATURE_FIELDS = {
    "sorts": "a list",
    "symbols": "a list",
    "vars_per_sort": "an integer or null",
}
_SORT_FIELDS = {
    "name": "a string",
    "kind": "a string or null",
    **{k: "an integer or null" for k in ("mod", "min", "max", "max_len", "elem_mod")},
}
_SYMBOL_FIELDS = {"builtin": "a string or null", "infix": "a string or null"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# Each sort's kind, and each kind's description and membership test.
_SORT_KINDS = {IntModSort: "int", IntRangeSort: "int", BoolSort: "bool", IntListSort: "list"}
_KINDS = {
    "int": ("an integer", _is_int),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "list": ("a list of integers", lambda v: isinstance(v, tuple) and all(map(_is_int, v))),
}


def _at_least(d: dict, key: str, low: int, where: str) -> int:
    """d[key], which must be at least `low`: a sort must have a value to
    sample, and a count of variables cannot be negative."""
    if d[key] < low:
        raise LemmakitError(f"{where}: field {key!r} must be at least {low}")
    return d[key]


def _sort_from_dict(d: dict, where: str) -> Sort:
    check_fields(d, _SORT_FIELDS, where)
    name, get = d["name"], d.get
    if get("mod") is not None:
        return IntModSort(name, _at_least(d, "mod", 1, where))
    if get("min") is not None or get("max") is not None:
        check_fields(d, {"max": "an integer"}, where)
        lo = get("min") or 0
        return IntRangeSort(name, lo, _at_least(d, "max", lo, where))
    if get("max_len") is not None:
        elem_mod = 10 if get("elem_mod") is None else _at_least(d, "elem_mod", 1, where)
        return IntListSort(name, _at_least(d, "max_len", 0, where), elem_mod)
    if get("kind") == "bool" or name == "bool":
        return BoolSort(name)
    raise LemmakitError(f"{where}: cannot infer the kind of sort {name!r}")


def load_interpreted_signature(path) -> InterpretedSignature:
    """JSON: {"sorts": [...], "symbols": [symbol objects (`read_symbols`) with
    "builtin"|"value" and "infix"?], "vars_per_sort": n}.

    A file of any other shape raises LemmakitError naming the file, the sort
    or symbol index and the field.  So does a builtin whose type does not
    have the builtin's argument and result kinds (int for mod and range
    sorts, bool, list), a `value` of a function type, and a `value` that is
    not of its sort's kind.
    """
    data = load_json(path)
    check_fields(data, _SIGNATURE_FIELDS, str(path))
    sorts = [
        _sort_from_dict(d, f"{path}: sort {i}") for i, d in enumerate(data["sorts"])
    ]
    sort_of = {TCon(s.name): s for s in sorts}
    symbols = read_symbols(data["symbols"], f"{path}: symbol")
    functions = {}
    for i, (d, sym) in enumerate(zip(data["symbols"], symbols)):
        where = f"{path}: symbol {i}"
        check_fields(d, _SYMBOL_FIELDS, where)
        result = _arrow_parts(sym.type)[-1]
        if isinstance(result, TCon) and result.name == "fun":
            raise LemmakitError(
                f"{where}: field 'type' must give 'fun' two types, not {len(result.args)}"
            )
        if "value" in d:
            fn = d["value"]
            if isinstance(fn, list):
                fn = tuple(fn)
            try:
                hash(fn)
            except TypeError:
                raise LemmakitError(
                    f"{where}: field 'value' must be a scalar or a list of scalars"
                ) from None
        elif d.get("builtin") in _BUILTINS:
            fn = _builtin(d["builtin"], sort_of.get(result))
        else:
            raise LemmakitError(
                f"{where}: field 'builtin' must name a builtin evaluator "
                f"({', '.join(sorted(_BUILTINS))}), or give a 'value'"
            )
        functions[sym.name] = fn
    infix = {s.name: d["infix"] for d, s in zip(data["symbols"], symbols) if d.get("infix")}
    vars_per_sort = 3
    if data.get("vars_per_sort") is not None:
        vars_per_sort = _at_least(data, "vars_per_sort", 0, str(path))
    try:
        sig = InterpretedSignature(sorts, symbols, functions, vars_per_sort, infix)
    except DuplicateSymbols as e:
        raise DuplicateSymbols(f"{path}: {e}") from None
    except ValueError as e:
        raise LemmakitError(f"{path}: {e}") from e
    for i, (d, sym) in enumerate(zip(data["symbols"], symbols)):
        where = f"{path}: symbol {i}"
        args, res, fn = sig.meanings[sym.name]
        kinds = tuple(_SORT_KINDS[type(sig.sorts[s])] for s in (*args, res))
        if "value" not in d:
            want = _BUILTINS[d["builtin"]][0]
            if kinds != want:
                raise LemmakitError(
                    f"{where}: field 'type' must be {' => '.join(want)} for builtin "
                    f"{d['builtin']!r}, not {' => '.join(kinds)}"
                )
        elif args:
            raise LemmakitError(
                f"{where}: field 'type' must be a sort for a symbol with a 'value'"
            )
        else:
            kind, holds = _KINDS[kinds[-1]]
            if not holds(fn):
                raise LemmakitError(
                    f"{where}: field 'value' must be {kind} for sort {res!r}"
                )
            sort = sig.sorts[res]
            if isinstance(sort, IntModSort) and not 0 <= fn < sort.mod:
                raise LemmakitError(
                    f"{where}: field 'value' must be an integer in "
                    f"0..{sort.mod - 1} for sort {res!r}"
                )
    return sig
