"""The symbolic engine: fill template holes with typed symbols under a budget.

Backtracking over holes in index order, candidates in list order; a single
global type substitution links all holes, so constraints shared through type
variables (e.g. a distributivity template) are respected.  Retained logical
constants are re-constrained against their base-signature schemes so the
produced conjectures get concrete logical types back (bool, prop, ...).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .templates import Template
from .terms import (
    Abs,
    App,
    Const,
    Hole,
    LemmakitError,
    Signature,
    SignatureEntry,
    Term,
    TVar,
    TypeExpr,
    TypeSubstitution,
    UnificationError,
    _unify,
    apply_type_subst,
    base_signature,
    map_types,
    resolve,
    subterms,
    type_vars,
)


class InvalidTemplate(LemmakitError):
    pass


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


class _FreshNames:
    def __init__(self, prefix: str = "?f"):
        self.prefix = prefix
        self.n = 0

    def rename(self, scheme: TypeExpr) -> TypeExpr:
        ren = {}
        for v in type_vars(scheme):
            self.n += 1
            ren[v] = TVar(f"{self.prefix}{self.n}")
        return apply_type_subst(ren, scheme)


def instantiate(
    tpl: Template,
    candidates: list[SignatureEntry],
    budget: Budget | None = None,
    base_sig: Signature | None = None,
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
    if base_sig is None:
        base_sig = base_signature()
    names = [c.name for c in candidates]
    if len(set(names)) != len(names):
        raise ValueError("candidate names must be unique")

    deadline = time.monotonic() + budget.timeout_millis / 1000.0
    fresh = _FreshNames()
    result = InstantiationResult()

    # Constraints from retained constants with known schemes.
    root: TypeSubstitution = {}
    for s in subterms(tpl.body):
        if isinstance(s, Const) and s.name in base_sig:
            try:
                _unify(root, fresh.rename(base_sig[s.name].type), s.type)
            except UnificationError:
                return result

    hole_order = sorted(tpl.hole_types)

    def emit(subst: TypeSubstitution, chosen: list[str]) -> None:
        mapping = dict(zip(hole_order, chosen))

        def fill(ty: TypeExpr) -> TypeExpr:
            return resolve(subst, ty)

        def walk(node: Term) -> Term:
            if isinstance(node, Hole):
                return Const(mapping[node.index], fill(node.type))
            if isinstance(node, Abs):
                return Abs(node.binder, fill(node.binder_type), walk(node.body))
            if isinstance(node, App):
                return App(walk(node.fn), walk(node.arg))
            return map_types(node, fill)

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
        for cand in candidates:
            if time.monotonic() > deadline:
                result.timed_out = True
                return False
            if budget.distinct_holes and cand.name in chosen:
                continue
            attempt = dict(subst)
            try:
                _unify(attempt, hole_ty, fresh.rename(cand.type))
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
    base_sig: Signature | None = None,
) -> bool:
    """True iff at least one well-typed full assignment exists in time."""
    res = instantiate(
        tpl,
        candidates,
        Budget(timeout_millis=timeout_millis, max_results=1),
        base_sig=base_sig,
    )
    return bool(res.conjectures)
