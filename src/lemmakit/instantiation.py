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
back (bool, prop, ...).
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
    fresh = FreshNames("?f")

    # Constraints from retained constants with known schemes.
    root: TypeSubstitution = {}
    for s in subterms(tpl.body):
        scheme = base_scheme(s.name) if isinstance(s, Const) else None
        if scheme is not None:
            try:
                unify_into(root, fresh.rename(scheme), s.type)
            except UnificationError:
                return InstantiationResult()

    search = _Search(tpl, candidates, budget, deadline, fresh)
    search.run(0, root, [])
    return search.result


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

    def emit(self, subst: TypeSubstitution, chosen: list[str]) -> None:
        mapping = dict(zip(self.hole_order, chosen))
        # Template bodies share one object per distinct annotation, so each is
        # resolved once per solution and the nodes that carry it share the
        # result.
        resolved: dict[int, TypeExpr] = {}

        def fill(ty: TypeExpr) -> TypeExpr:
            got = resolved.get(id(ty))
            if got is None:
                got = resolved[id(ty)] = resolve(subst, ty)
            return got

        self.result.conjectures.append(
            Conjecture(
                term=_build(self.tpl.body, mapping, fill),
                template_canonical=self.tpl.canonical,
                assignment=Assignment(mapping=tuple(sorted(mapping.items()))),
            )
        )

    def run(self, pos: int, subst: TypeSubstitution, chosen: list[str]) -> bool:
        """Returns False when enumeration must stop (timeout or cap)."""
        result = self.result
        if pos == len(self.hole_order):
            self.emit(subst, chosen)
            if len(result.conjectures) >= self.budget.max_results:
                result.capped = True
                return False
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


FEASIBLE_TIMEOUT_MILLIS = 1000


def feasible(tpl: Template, candidates: list[SignatureEntry]) -> bool:
    """True iff at least one well-typed full assignment exists within
    FEASIBLE_TIMEOUT_MILLIS."""
    res = instantiate(
        tpl, candidates, Budget(timeout_millis=FEASIBLE_TIMEOUT_MILLIS, max_results=1)
    )
    return bool(res.conjectures)
