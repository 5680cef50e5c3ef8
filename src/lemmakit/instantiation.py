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
template object and every search starts from them.

Those candidates also share the search leaf: one substitution object for all
of them at the last hole.  Each distinct annotation of the template is
resolved once per leaf, and solutions that follow one another on one leaf
differ only in the last hole's symbol, so from the second on they share
every subtree without that hole and one constant per symbol.  A search that
emits one conjecture per leaf pays one identity check for this and builds
nothing to share.
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
    if not isinstance(tpl, Template):
        raise InvalidTemplate(f"expected a Template, got {type(tpl).__name__}")
    names = [c.name for c in candidates]
    if len(set(names)) != len(names):
        raise DuplicateCandidates()

    deadline = time.monotonic() + budget.timeout_millis / 1000.0
    root, used = _root(tpl)
    if root is None:
        return InstantiationResult()
    fresh = FreshNames("?f")
    fresh.n = used
    search = _Search(tpl, candidates, budget, deadline, fresh)
    search.run(0, root, [])
    return search.result


def _root(tpl: Template) -> tuple[TypeSubstitution | None, int]:
    """The constraints of `tpl`'s retained constants with known schemes
    (None when they clash), and how many `?f` names they used up.

    They depend on the template alone, so they are computed once per template
    object and kept on it, in its `__dict__` as `functools.cached_property`
    keeps a value.  Every search resumes naming from the count, so its names
    are those of a search that computed the root itself.  Sharing the root is
    safe because nothing mutates a substitution once it is built; two threads
    that miss at once compute and store equal roots.
    """
    got = vars(tpl).get("_root")
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
        got = vars(tpl)["_root"] = (root, fresh.n)
    return got


class _Search:
    """The backtracking search of one `instantiate` call.  It is an object, not
    a recursive nested function, because such a function holds itself through
    its closure cell: every call would leave a reference cycle for the garbage
    collector."""

    def __init__(self, tpl, candidates, budget, deadline, fresh):
        self.tpl = tpl
        self.hole_order = sorted(tpl.hole_types)
        # Each scheme's type variables, found once here rather than per search
        # node.
        self.pool = [(c, type_vars(c.type)) for c in candidates]
        self.budget = budget
        self.deadline = deadline
        self.fresh = fresh
        self.result = InstantiationResult()
        # The substitution of the last emit (held, so that `is` on it stays
        # sound), its resolved annotations, and, from its second emit on,
        # what its emits share.  `varying` holds the ids of the template
        # nodes that contain the last hole; it is found when a leaf first
        # emits twice.
        self.leaf: TypeSubstitution | None = None
        self.resolved: dict[int, TypeExpr] = {}
        self.shared: dict | None = None
        self.varying: set[int] | None = None

    def emit(self, subst: TypeSubstitution, chosen: list[str]) -> None:
        """Append the conjecture of the solution `chosen` with leaf
        substitution `subst`."""
        pairs = tuple(zip(self.hole_order, chosen))
        mapping = dict(pairs)
        if subst is not self.leaf:
            self.leaf, self.resolved, self.shared = subst, {}, None
            term = _build(self.tpl.body, mapping, self.fill)
        else:
            # Only the candidates of one search node share an extended
            # substitution, so this emit differs from the last one only in
            # the last hole's symbol.  From a leaf's second emit on, every
            # subtree without that hole is built once and shared.
            if self.shared is None:
                if self.varying is None:
                    self.varying = set()
                    _containing(self.tpl.body, self.hole_order[-1], self.varying)
                self.shared = {}
            term = self.build_shared(self.tpl.body, mapping)
        self.result.conjectures.append(
            Conjecture(
                term=term,
                template_canonical=self.tpl.canonical,
                assignment=Assignment(mapping=pairs),
            )
        )

    def fill(self, ty: TypeExpr) -> TypeExpr:
        """`ty` resolved under the current leaf's substitution.  Template
        bodies share one object per distinct annotation, so each is resolved
        once per leaf and the nodes that carry it share the result."""
        got = self.resolved.get(id(ty))
        if got is None:
            got = self.resolved[id(ty)] = resolve(self.leaf, ty)
        return got

    def build_shared(self, node: Term, mapping: dict[int, str]) -> Term:
        """`_build` of `node`, reusing what earlier emits of the current leaf
        built: `shared` maps the id of each template node without the last
        hole to its built subtree, and each symbol of the last hole to its
        constant."""
        shared = self.shared
        if id(node) not in self.varying:
            got = shared.get(id(node))
            if got is None:
                got = shared[id(node)] = _build(node, mapping, self.fill)
            return got
        if isinstance(node, App):
            return App(self.build_shared(node.fn, mapping), self.build_shared(node.arg, mapping))
        if isinstance(node, Abs):
            return Abs(
                node.binder, self.fill(node.binder_type), self.build_shared(node.body, mapping)
            )
        name = mapping[node.index]
        got = shared.get(name)
        if got is None:
            got = shared[name] = Const(name, self.fill(node.type))
        return got

    def run(self, pos: int, subst: TypeSubstitution, chosen: list[str]) -> bool:
        """Returns False when enumeration must stop (timeout or cap)."""
        result = self.result
        if pos == len(self.hole_order):
            # A solution beyond the cap is dropped unbuilt: only it makes the
            # result capped.
            if len(result.conjectures) == self.budget.max_results:
                result.capped = True
                return False
            self.emit(subst, chosen)
            return True
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
    """The conjecture term: `node` with each hole replaced by the constant
    `mapping` names for it, and every annotation replaced by `fill` of it."""
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
    share a symbol."""
    budget = Budget(FEASIBLE_TIMEOUT_MILLIS, max_results=1, distinct_holes=distinct_holes)
    return bool(instantiate(tpl, candidates, budget).conjectures)
