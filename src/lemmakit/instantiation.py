"""The symbolic engine: fill template holes with typed symbols under a budget.

Backtracking over holes in index order, candidates in list order; a single
global type substitution links all holes, so constraints shared through type
variables (e.g. a distributivity template) are respected.  Each try unifies
the hole's type, with `terms.unify_into`, against the candidate's scheme
renamed apart by `terms.FreshNames`.  Retained logical constants are
re-constrained against `terms.base_scheme` so the produced conjectures get
concrete logical types back (bool, prop, ...).
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
    result = InstantiationResult()

    # Constraints from retained constants with known schemes.
    root: TypeSubstitution = {}
    for s in subterms(tpl.body):
        scheme = base_scheme(s.name) if isinstance(s, Const) else None
        if scheme is not None:
            try:
                unify_into(root, fresh.rename(scheme), s.type)
            except UnificationError:
                return result

    # Each scheme's type variables, found once here rather than per search node.
    pool = [(c, type_vars(c.type)) for c in candidates]

    hole_order = sorted(tpl.hole_types)

    def emit(subst: TypeSubstitution, chosen: list[str]) -> None:
        mapping = dict(zip(hole_order, chosen))
        # Template bodies share one object per distinct annotation, so each is
        # resolved once per solution and the nodes that carry it share the
        # result.
        resolved: dict[int, TypeExpr] = {}

        def fill(ty: TypeExpr) -> TypeExpr:
            got = resolved.get(id(ty))
            if got is None:
                got = resolved[id(ty)] = resolve(subst, ty)
            return got

        def walk(node: Term) -> Term:
            if isinstance(node, App):
                return App(walk(node.fn), walk(node.arg))
            if isinstance(node, Hole):
                return Const(mapping[node.index], fill(node.type))
            if isinstance(node, Const):
                return Const(node.name, fill(node.type))
            if isinstance(node, Free):
                return Free(node.name, fill(node.type))
            if isinstance(node, Abs):
                return Abs(node.binder, fill(node.binder_type), walk(node.body))
            return node

        result.conjectures.append(
            Conjecture(
                term=walk(tpl.body),
                template_canonical=tpl.canonical,
                assignment=Assignment(mapping=tuple(sorted(mapping.items()))),
            )
        )

    def search(pos: int, subst: TypeSubstitution, chosen: list[str]) -> bool:
        """Returns False when enumeration must stop (timeout or cap)."""
        if pos == len(hole_order):
            emit(subst, chosen)
            if len(result.conjectures) >= budget.max_results:
                result.capped = True
                return False
            return True
        hole_ty = tpl.hole_types[hole_order[pos]]
        for cand, tvars in pool:
            if time.monotonic() > deadline:
                result.timed_out = True
                return False
            if budget.distinct_holes and cand.name in chosen:
                continue
            attempt = dict(subst)
            try:
                unify_into(attempt, hole_ty, fresh.rename(cand.type, tvars))
            except UnificationError:
                continue
            if not search(pos + 1, attempt, chosen + [cand.name]):
                return False
        return True

    search(0, root, [])
    return result


def feasible(
    tpl: Template,
    candidates: list[SignatureEntry],
    timeout_millis: int = 1000,
) -> bool:
    """True iff at least one well-typed full assignment exists in time."""
    res = instantiate(
        tpl, candidates, Budget(timeout_millis=timeout_millis, max_results=1)
    )
    return bool(res.conjectures)
