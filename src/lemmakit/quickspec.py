"""Desk-scale enumerative conjecturing: term enumeration over an interpreted
signature, testing-based equivalence classes, law emission with syntactic
instance pruning, and the counterexample tester used for categorizing
conjectures.

One evaluator, `evaluate_columns`, serves partitioning, re-verification and
counterexample search: it maps each term to its column of values over a list
of valuations, evaluating every shared subterm once.

Value domains are deliberately small and closed (integers mod M, bounded
ranges, booleans, short integer lists) so everything is executable and
reproducible from a seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from . import terms as terms_mod
from .templates import BOOL
from .terms import (
    App,
    Const,
    Free,
    Hole,
    LemmakitError,
    TCon,
    Term,
    fun,
    parse_type,
    render_term,
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


@dataclass(frozen=True)
class InterpSymbol:
    name: str
    type: "TCon"
    fn: object  # callable on values; arity = number of arrows in `type`
    infix: str | None = None


def _arity(ty) -> tuple[list[TCon], TCon]:
    args = []
    while isinstance(ty, TCon) and ty.name == "fun":
        args.append(ty.args[0])
        ty = ty.args[1]
    return args, ty


class InterpretedSignature:
    def __init__(self, sorts: list[Sort], symbols: list[InterpSymbol], vars_per_sort: int = 3):
        self.sorts: dict[str, Sort] = {}
        for s in sorts:
            if s.name in self.sorts:
                raise ValueError(f"duplicate sort {s.name!r}")
            self.sorts[s.name] = s
        self.symbols = list(symbols)
        self.by_name = {s.name: s for s in symbols}
        if len(self.by_name) != len(symbols):
            raise ValueError("duplicate symbol names")
        self.vars_per_sort = vars_per_sort
        for sym in symbols:
            args, res = _arity(sym.type)
            for t in args + [res]:
                if not (isinstance(t, TCon) and t.name in self.sorts):
                    raise ValueError(
                        f"symbol {sym.name!r} mentions undeclared sort {t}"
                    )

    def variables(self) -> list[Free]:
        """x1, x2, ... — vars_per_sort variables per sort, in sort order."""
        out = []
        n = 0
        for name in self.sorts:
            for _ in range(self.vars_per_sort):
                n += 1
                out.append(Free(f"x{n}", TCon(name)))
        return out


@dataclass(frozen=True)
class Valuation:
    values: tuple[tuple[str, object], ...]

    def as_dict(self) -> dict[str, object]:
        return dict(self.values)


@dataclass(frozen=True)
class Law:
    lhs: Term
    rhs: Term
    size: int


def term_size(t: Term) -> int:
    """Atom count: applications are free, every symbol/variable counts once."""
    head, args = strip_spine(t)
    return 1 + sum(term_size(a) for a in args)


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
            args, res = _arity(sym.type)
            if not args and res.name == sort:
                atoms.append(Const(sym.name, sym.type))
        by_sort_size[(sort, 1)] = atoms

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for size in range(2, max_size + 1):
        for sort in sig.sorts:
            terms: list[Term] = []
            for sym in sig.symbols:
                args, res = _arity(sym.type)
                if not args or res.name != sort:
                    continue
                for sizes in compositions(size - 1, len(args)):
                    pools = [
                        by_sort_size.get((a.name, s), [])
                        for a, s in zip(args, sizes)
                    ]
                    _product_apply(Const(sym.name, sym.type), pools, terms)
            by_sort_size[(sort, size)] = terms

    out: list[Term] = []
    for size in range(1, max_size + 1):
        for sort in sig.sorts:
            out.extend(by_sort_size.get((sort, size), []))
    return out


def _product_apply(head: Term, pools: list[list[Term]], out: list[Term]) -> None:
    def rec(cur: Term, i: int) -> None:
        if i == len(pools):
            out.append(cur)
            return
        for arg in pools[i]:
            rec(App(cur, arg), i + 1)

    rec(head, 0)


# ---------------------------------------------------------------------------
# Evaluation

_LOGIC = {
    "HOL.eq": lambda a, b: a == b,
    "HOL.Not": lambda a: not a,
    "HOL.conj": lambda a, b: a and b,
    "HOL.disj": lambda a, b: a or b,
    "HOL.implies": lambda a, b: (not a) or b,
    "HOL.True": True,
    "HOL.False": False,
}


def evaluate_columns(
    terms: list[Term], sig: InterpretedSignature, valuations: list[dict[str, object]]
) -> dict[int, list]:
    """Value columns of testable terms over a list of valuations.

    Maps `id(t)` of every term and of every spine argument below it to the
    list of its values, one per valuation in order.  Columns are memoized by
    object identity, so subterms shared between terms are evaluated once.
    Recognizes the interpreted symbols plus the generic logical constants
    (equality, connectives) which work at any sort.
    """
    cols: dict[int, list] = {}
    for t in terms:
        _column(t, sig, valuations, cols)
    return cols


def _column(
    t: Term, sig: InterpretedSignature, valuations: list[dict], cols: dict[int, list]
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
    elif isinstance(head, Const):
        arg_cols = [_column(a, sig, valuations, cols) for a in args]
        sym = sig.by_name.get(head.name)
        if sym is not None:
            if len(_arity(sym.type)[0]) != len(args):
                raise NotTestable(f"partial application of {head.name!r}")
            fn = sym.fn
        elif head.name in _LOGIC:
            fn = _LOGIC[head.name]
            if (fn.__code__.co_argcount if callable(fn) else 0) != len(args):
                raise NotTestable(f"{head.name} applied to {len(args)} arguments")
        else:
            raise NotTestable(f"symbol {head.name!r} has no interpretation")
        col = list(map(fn, *arg_cols)) if args else [fn] * len(valuations)
    else:
        raise NotTestable(f"untestable head node {type(head).__name__}")
    cols[id(t)] = col
    return col


def evaluate_term(t: Term, sig: InterpretedSignature, valuation: dict[str, object]):
    """Value of a testable term under one valuation."""
    return evaluate_columns([t], sig, [valuation])[id(t)][0]


def _term_sort(t: Term, sig: InterpretedSignature) -> str:
    head, args = strip_spine(t)
    if isinstance(head, Free):
        return head.type.name
    if isinstance(head, Const) and head.name in sig.by_name:
        _, res = _arity(sig.by_name[head.name].type)
        return res.name
    return "?"


def make_valuations(
    sig: InterpretedSignature, variables: list[Free], num_tests: int, seed: int
) -> list[dict[str, object]]:
    """num_tests valuations from one sequential stream, so a longer run's
    prefix equals a shorter run with the same seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(num_tests):
        val = {}
        for v in variables:
            sort = sig.sorts.get(v.type.name)
            if sort is None:
                raise NotTestable(f"variable {v.name!r} has unknown sort {v.type}")
            val[v.name] = sort.sample(rng)
        out.append(val)
    return out


def test_partition(
    terms: list[Term], sig: InterpretedSignature, num_tests: int, seed: int
) -> list[list[Term]]:
    """Group terms by their value vectors over seeded random valuations.

    Classes are returned in order of first member appearance; members keep
    their input order.
    """
    if num_tests < 1:
        raise ValueError("num_tests must be >= 1")
    valuations = make_valuations(sig, sig.variables(), num_tests, seed)
    cols = evaluate_columns(terms, sig, valuations)
    classes: dict[tuple, list[Term]] = {}
    for t in terms:
        classes.setdefault((_term_sort(t, sig), tuple(cols[id(t)])), []).append(t)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Law emission with instance pruning


def _match(pattern: Term, target: Term, subst: dict[str, Term]) -> bool:
    """One-sided first-order matching; pattern variables map to terms."""
    if isinstance(pattern, Free):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = target
            return True
        return bound == target
    if isinstance(pattern, Const):
        return isinstance(target, Const) and pattern.name == target.name
    if isinstance(pattern, App):
        return (
            isinstance(target, App)
            and _match(pattern.fn, target.fn, subst)
            and _match(pattern.arg, target.arg, subst)
        )
    return pattern == target


def is_instance_of(law: Law, general: Law) -> bool:
    """True when `law` is a substitution instance of `general` (either
    orientation of the equation)."""
    for gl, gr in ((general.lhs, general.rhs), (general.rhs, general.lhs)):
        subst: dict[str, Term] = {}
        if _match(gl, law.lhs, subst) and _match(gr, law.rhs, subst):
            return True
    return False


def _law_key(lhs: Term, rhs: Term):
    return (
        term_size(lhs) + term_size(rhs),
        term_size(lhs),
        render_term(lhs),
        render_term(rhs),
    )


def emit_laws(classes: list[list[Term]]) -> list[Law]:
    """Equate each class member to its smallest representative, smallest laws
    first, dropping laws that are substitution instances of earlier ones."""
    candidates: list[Law] = []
    for cls in classes:
        if len(cls) < 2:
            continue
        rep = min(cls, key=lambda t: (term_size(t), render_term(t)))
        for member in sorted(cls, key=lambda t: (term_size(t), render_term(t))):
            if member is rep:
                continue
            candidates.append(
                Law(lhs=member, rhs=rep, size=term_size(member) + term_size(rep))
            )
    candidates.sort(key=lambda l: _law_key(l.lhs, l.rhs))

    kept: list[Law] = []
    for law in candidates:
        if any(is_instance_of(law, earlier) for earlier in kept):
            continue
        kept.append(law)
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


def _check_testable(t: Term, sig: InterpretedSignature) -> None:
    for s in subterms(t):
        if isinstance(s, Hole):
            raise NotTestable("term contains holes")
        if isinstance(s, Const) and s.name not in sig.by_name and s.name not in _LOGIC:
            raise NotTestable(f"symbol {s.name!r} has no interpretation")
        if isinstance(s, Free) and not (
            isinstance(s.type, TCon) and s.type.name in sig.sorts
        ):
            raise NotTestable(f"variable {s.name!r} has no samplable sort")


def find_counterexample(
    equation: Term,
    interp: InterpretedSignature,
    num_tests: int = 400,
    seed: int = 0,
) -> Valuation | None:
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
) -> Valuation | None:
    """`find_counterexample`, drawing valuations once per sorted variable
    tuple in `memo`.  The stream depends only on the variables, the seed and
    num_tests, so reusing it changes no result."""
    _check_testable(equation, interp)
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
            return Valuation(values=tuple(sorted(val.items())))
    return None


# ---------------------------------------------------------------------------
# Gold comparison and output


def law_to_equation(law: Law) -> Term:
    sort = TCon("?")
    lhs, rhs = law.lhs, law.rhs
    eq = Const("HOL.eq", fun(sort, fun(sort, BOOL)))
    return App(App(eq, lhs), rhs)


def _laws_alpha_match(law: Law, gold: Term) -> bool:
    # Looked up on the module at call time, so a patched `terms.alpha_equal`
    # (perfbench's tracer) sees these calls.
    flipped = Law(law.rhs, law.lhs, law.size)
    return any(terms_mod.alpha_equal(law_to_equation(l), gold) for l in (law, flipped))


def baseline_precision(laws: list[Law], gold_laws: list[Term]) -> dict:
    """How many emitted laws appear in the gold set (alpha equivalence, either
    equation orientation)."""
    golds = []
    for g in gold_laws:
        head, args = strip_spine(g)
        if isinstance(head, Const) and head.name == "HOL.eq" and len(args) == 2:
            lhs, rhs = args
            size = term_size(lhs) + term_size(rhs)
            golds.append(law_to_equation(Law(lhs, rhs, size)))
        else:
            raise ValueError("gold laws must be equations")
    matched = 0
    for law in laws:
        if any(_laws_alpha_match(law, gold) for gold in golds):
            matched += 1
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
    sym = sig.by_name.get(head.name)
    if sym is not None and sym.infix and len(args) == 2:
        return f"{wrap(args[0])} {sym.infix} {wrap(args[1])}"
    if not args:
        return head.name
    return " ".join([head.name] + [wrap(a) for a in args])


def pretty_law(law: Law, sig: InterpretedSignature) -> str:
    return f"{pretty_interp_term(law.lhs, sig)} = {pretty_interp_term(law.rhs, sig)}"


# ---------------------------------------------------------------------------
# Built-in evaluators and JSON loading


@lru_cache(maxsize=None)
def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)


def builtin_evaluators(sorts: dict[str, Sort]) -> dict[str, object]:
    mods = [s.mod for s in sorts.values() if isinstance(s, IntModSort)]
    mod = mods[0] if mods else None

    def reduce(v: int) -> int:
        return v % mod if mod else v

    return {
        "int_add": lambda a, b: reduce(a + b),
        "int_sub": lambda a, b: reduce(a - b),
        "int_mul": lambda a, b: reduce(a * b),
        "int_pow": (lambda a, b: pow(a, b, mod)) if mod else (lambda a, b: a**b),
        "int_le": lambda a, b: a <= b,
        "bool_and": lambda a, b: a and b,
        "bool_or": lambda a, b: a or b,
        "bool_not": lambda a: not a,
        "bool_implies": lambda a, b: (not a) or b,
        "list_append": lambda a, b: a + b,
        "list_rev": lambda a: tuple(reversed(a)),
        "list_len": lambda a: len(a),
        "totient": _totient,
    }


def _sort_from_dict(d: dict) -> Sort:
    name = d["name"]
    if "mod" in d:
        return IntModSort(name, d["mod"])
    if "min" in d or "max" in d:
        return IntRangeSort(name, d.get("min", 0), d["max"])
    if "max_len" in d:
        return IntListSort(name, d["max_len"], d.get("elem_mod", 10))
    if d.get("kind") == "bool" or name == "bool":
        return BoolSort(name)
    raise ValueError(f"cannot infer sort kind for {d!r}")


def load_interpreted_signature(path) -> InterpretedSignature:
    """JSON: {"sorts": [...], "symbols": [{"name","type","builtin"|"value",
    "infix"?}], "vars_per_sort": n}."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    sorts = [_sort_from_dict(d) for d in data["sorts"]]
    sort_map = {s.name: s for s in sorts}
    builtins = builtin_evaluators(sort_map)
    symbols = []
    for d in data["symbols"]:
        ty = parse_type(d["type"])
        if "value" in d:
            fn = d["value"]
            if isinstance(fn, list):
                fn = tuple(fn)
        else:
            if d["builtin"] not in builtins:
                raise NotTestable(f"unknown builtin {d['builtin']!r}")
            fn = builtins[d["builtin"]]
        symbols.append(InterpSymbol(d["name"], ty, fn, d.get("infix")))
    return InterpretedSignature(
        sorts=sorts, symbols=symbols, vars_per_sort=data.get("vars_per_sort", 3)
    )
