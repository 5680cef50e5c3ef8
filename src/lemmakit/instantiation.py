"""The symbolic engine: fill template holes with typed symbols under a budget.

Backtracking over holes in index order, candidates in list order; a single
global type substitution links all holes, so constraints shared through type
variables (e.g. a distributivity template) are respected.  Each try unifies
the hole's type, with `terms.unify_into`, against the candidate's scheme
renamed apart by `terms.FreshNames`.  A scheme without type variables needs no
renaming, so candidates that share one such type object are unified once per
search node; the signature loaders in `corpus` hand equal types back as one
object.  Retained logical constants are re-constrained against
`terms.base_scheme` so the produced conjectures get concrete logical types
back (bool, prop, ...); those root constraints are worked out once per
template object, with the rest of its search plan, and every search starts
from them.

Those candidates also share the search leaf: one substitution object for all
of them at the last hole.  Each leaf substitution gets one memo, and every
conjecture is built through the memo of its leaf, in whatever order the
leaves emit: each distinct annotation of the template is resolved once per
leaf, and the conjectures of one leaf differ only in the last hole's symbol,
so they share every subtree without that hole and one constant per symbol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .templates import Template
from .terms import (
    Abs,
    App,
    Const,
    Free,
    FreshNames,
    Hole,
    LemmakitError,
    SignatureEntry,
    Term,
    TypeExpr,
    TypeSubstitution,
    UnificationError,
    base_scheme,
    resolve,
    subterms,
    type_vars,
    unify_into,
)


class InvalidTemplate(LemmakitError):
    pass


class DuplicateCandidates(LemmakitError, ValueError):
    """Two candidates share a name, so an assignment could not say which one
    fills a hole."""

    def __init__(self):
        super().__init__("candidate names must be unique")


@dataclass(frozen=True)
class Budget:
    timeout_millis: int = 60_000
    max_results: int = 1000
    distinct_holes: bool = False

    def __post_init__(self):
        if self.timeout_millis <= 0:
            raise ValueError("timeout_millis must be positive")
        if self.max_results <= 0:
            raise ValueError("max_results must be positive")


@dataclass(frozen=True)
class Assignment:
    """Hole index -> symbol name."""

    mapping: tuple[tuple[int, str], ...]

    def as_dict(self) -> dict[int, str]:
        return dict(self.mapping)


@dataclass(frozen=True)
class Conjecture:
    term: Term
    template_canonical: str
    assignment: Assignment
    source_proposer: str = ""


@dataclass
class InstantiationResult:
    conjectures: list[Conjecture] = field(default_factory=list)
    timed_out: bool = False
    capped: bool = False


def instantiate(
    tpl: Template,
    candidates: list[SignatureEntry],
    budget: Budget | None = None,
) -> InstantiationResult:
    """Enumerate every well-typed full hole assignment within the budget.

    Output order is lexicographic in candidate positions per hole.  All
    occurrences of one hole receive the same symbol; distinct holes may share
    a symbol unless budget.distinct_holes.  Partial results are returned with
    timed_out set when the deadline fires mid-search.
    """
    if budget is None:
        budget = Budget()
    return _run(_Search, tpl, candidates, budget).result


def _run(search_class, tpl, candidates, budget):
    """A search of class `search_class` over `candidates` for `tpl`, after
    it ran from the template's root constraints."""
    if not isinstance(tpl, Template):
        raise InvalidTemplate(f"expected a Template, got {type(tpl).__name__}")
    names = [c.name for c in candidates]
    if len(set(names)) != len(names):
        raise DuplicateCandidates()

    deadline = time.monotonic() + budget.timeout_millis / 1000.0
    root, used, hole_order, varying = _plan(tpl)
    fresh = FreshNames("?f")
    fresh.n = used
    search = search_class(tpl, hole_order, varying, candidates, budget, deadline, fresh)
    if root is not None:
        search.run(0, root, [])
    return search


def _plan(tpl: Template) -> tuple[TypeSubstitution | None, int, list[int], set[int]]:
    """The plan every search of `tpl` starts from: the constraints of its
    retained constants with known schemes (None when they clash), how many
    `?f` names they used up, the hole indices in order, and the ids of the
    nodes that contain the last hole.

    It depends on the template alone, so it is computed once per template
    object and kept on it, in its `__dict__` as `functools.cached_property`
    keeps a value.  Every search resumes naming from the count, so its names
    are those of a search that computed the root itself.  Sharing the plan is
    safe because nothing mutates it; two threads that miss at once compute
    and store equal plans.
    """
    got = vars(tpl).get("_plan")
    if got is None:
        fresh = FreshNames("?f")
        root: TypeSubstitution | None = {}
        for s in subterms(tpl.body):
            scheme = base_scheme(s.name) if isinstance(s, Const) else None
            if scheme is not None:
                try:
                    unify_into(root, fresh.rename(scheme), s.type)
                except UnificationError:
                    root = None
                    break
        hole_order = sorted(tpl.hole_types)
        varying: set[int] = set()
        for last in hole_order[-1:]:
            _containing(tpl.body, last, varying)
        got = vars(tpl)["_plan"] = (root, fresh.n, hole_order, varying)
    return got


class _Leaf:
    """A leaf substitution and the memo of the conjectures built under it:
    its resolved annotations, by annotation id (template bodies share one
    object per distinct annotation), its built subtrees without the last
    hole, by node id, and one constant per symbol of that hole, by name."""

    def __init__(self, subst: TypeSubstitution):
        self.subst = subst
        self.resolved: dict[int, TypeExpr] = {}
        self.built: dict = {}

    def fill(self, ty: TypeExpr) -> TypeExpr:
        got = self.resolved.get(id(ty))
        if got is None:
            got = self.resolved[id(ty)] = resolve(self.subst, ty)
        return got


class _Search:
    """The backtracking search of one `instantiate` call.  It is an object, not
    a recursive nested function, because such a function holds itself through
    its closure cell: every call would leave a reference cycle for the garbage
    collector."""

    def __init__(self, tpl, hole_order, varying, candidates, budget, deadline, fresh):
        self.tpl = tpl
        self.hole_order = hole_order
        self.varying = varying
        # Each scheme's type variables, found once here rather than per search
        # node.
        self.pool = [(c, type_vars(c.type)) for c in candidates]
        self.budget = budget
        self.deadline = deadline
        self.fresh = fresh
        self.result = InstantiationResult()
        # The leaves of the current last-hole node, by substitution id.  Only
        # that node makes leaves, so it renews the table; each entry holds its
        # substitution, so no id in the table is reused while it lives.
        self.leaves: dict[int, _Leaf] = {}

    def solution(self, subst: TypeSubstitution, chosen: list[str]) -> bool:
        """Take the solution `chosen`, reached under the leaf substitution
        `subst`; False stops the search.  A solution beyond the cap is
        dropped unbuilt: only it makes the result capped."""
        if len(self.result.conjectures) == self.budget.max_results:
            self.result.capped = True
            return False
        self.emit(subst, chosen)
        return True

    def emit(self, subst: TypeSubstitution, chosen: list[str]) -> None:
        """Append the conjecture of the solution `chosen`, built through the
        memo of its leaf substitution `subst`."""
        pairs = tuple(zip(self.hole_order, chosen))
        leaf = self.leaves.get(id(subst))
        if leaf is None:
            leaf = self.leaves[id(subst)] = _Leaf(subst)
        self.result.conjectures.append(
            Conjecture(
                term=self.build(self.tpl.body, dict(pairs), leaf),
                template_canonical=self.tpl.canonical,
                assignment=Assignment(mapping=pairs),
            )
        )

    def build(self, node: Term, mapping: dict[int, str], leaf: _Leaf) -> Term:
        """`_build` of `node` through `leaf`'s memo.  The emits of one leaf
        differ only in the last hole's symbol, so they share every subtree
        without that hole, built once per leaf."""
        if id(node) not in self.varying:
            got = leaf.built.get(id(node))
            if got is None:
                got = leaf.built[id(node)] = _build(node, mapping, leaf.fill)
            return got
        if isinstance(node, App):
            return App(self.build(node.fn, mapping, leaf), self.build(node.arg, mapping, leaf))
        if isinstance(node, Abs):
            return Abs(
                node.binder, leaf.fill(node.binder_type), self.build(node.body, mapping, leaf)
            )
        name = mapping[node.index]
        got = leaf.built.get(name)
        if got is None:
            got = leaf.built[name] = Const(name, leaf.fill(node.type))
        return got

    def run(self, pos: int, subst: TypeSubstitution, chosen: list[str]) -> bool:
        """Returns False when enumeration must stop (timeout or cap)."""
        result = self.result
        if pos == len(self.hole_order):
            return self.solution(subst, chosen)
        if pos == len(self.hole_order) - 1:
            self.leaves = {}
        hole_ty = self.tpl.hole_types[self.hole_order[pos]]
        distinct, deadline, fresh = self.budget.distinct_holes, self.deadline, self.fresh
        # A scheme without type variables is its own renaming, so candidates
        # that share its type object extend `subst` alike: each such object is
        # unified once per node, and those candidates share the one extended
        # substitution (None on a clash).  Nothing mutates a substitution once
        # it is built; the next node copies before it unifies.
        by_type: dict[int, TypeSubstitution | None] = {}
        for cand, tvars in self.pool:
            if time.monotonic() > deadline:
                result.timed_out = True
                return False
            if distinct and cand.name in chosen:
                continue
            key = None if tvars else id(cand.type)
            if key in by_type:
                attempt = by_type[key]
            else:
                attempt = dict(subst)
                try:
                    unify_into(attempt, hole_ty, fresh.rename(cand.type, tvars))
                except UnificationError:
                    attempt = None
                if key is not None:
                    by_type[key] = attempt
            if attempt is None:
                continue
            if not self.run(pos + 1, attempt, chosen + [cand.name]):
                return False
        return True


def _build(node: Term, mapping: dict[int, str], fill) -> Term:
    """`node` with each hole replaced by the constant `mapping` names for it,
    and every annotation replaced by `fill` of it."""
    if isinstance(node, App):
        return App(_build(node.fn, mapping, fill), _build(node.arg, mapping, fill))
    if isinstance(node, Hole):
        return Const(mapping[node.index], fill(node.type))
    if isinstance(node, Const):
        return Const(node.name, fill(node.type))
    if isinstance(node, Free):
        return Free(node.name, fill(node.type))
    if isinstance(node, Abs):
        return Abs(node.binder, fill(node.binder_type), _build(node.body, mapping, fill))
    return node


def _containing(node: Term, index: int, out: set[int]) -> bool:
    """Whether `node` contains hole `index`; adds to `out` the id of every
    node of `node` that does."""
    if isinstance(node, App):
        found = _containing(node.fn, index, out) | _containing(node.arg, index, out)
    elif isinstance(node, Abs):
        found = _containing(node.body, index, out)
    else:
        found = isinstance(node, Hole) and node.index == index
    if found:
        out.add(id(node))
    return found


FEASIBLE_TIMEOUT_MILLIS = 1000


def feasible(
    tpl: Template, candidates: list[SignatureEntry], distinct_holes: bool = False
) -> bool:
    """True iff at least one well-typed full assignment exists within
    FEASIBLE_TIMEOUT_MILLIS; with `distinct_holes`, one in which no two holes
    share a symbol.  The search stops at its first solution and builds no
    conjecture."""
    budget = Budget(FEASIBLE_TIMEOUT_MILLIS, distinct_holes=distinct_holes)
    return _run(_FirstSolution, tpl, candidates, budget).found


class _FirstSolution(_Search):
    """A search that stops at its first solution, noting only that it found
    one."""

    found = False

    def solution(self, subst: TypeSubstitution, chosen: list[str]) -> bool:
        self.found = True
        return False
