"""The symbolic engine: fill template holes with typed symbols under a budget.

One search, the generator `_Search.solutions`, yields every solution: its
leaf substitution and its symbols in hole order.  It backtracks over holes in
index order, candidates in list order; a single global type substitution
links all holes, so constraints shared through type variables (e.g. a
distributivity template) are respected.  Each try unifies the hole's type,
with `terms.unify_into`, against the candidate's scheme renamed apart by
`terms.FreshNames`.  A scheme without type variables needs no renaming, so
candidates that share one such type object are unified once per search node;
the signature loaders in `corpus` hand equal types back as one object.

A node tries only the candidates that can fit its hole: term indexing, with
types as the terms.  The symbol list is a `terms.Signature`, the one table
built where the list is read and carried (in a `ProposalRequest` too) to
every search over it.  It groups the monomorphic schemes by skeleton (the
heads along the arrow spine, a type variable a wildcard), and
`Signature.fitting` lists, once per skeleton of the hole's type under the
node's substitution, the candidates to try there in list order: those whose
skeleton is compatible, and every polymorphic one, whose renaming uses up
fresh names whether it unifies or not.  That is a superset of the
candidates that unify, so the solutions, their order and their fresh names
are those of trying every candidate.
Retained logical constants are re-constrained against `terms.base_scheme` so
the produced conjectures get concrete logical types back (bool, prop, ...);
those root constraints are worked out once per template object, with the
rest of its search plan, and every search starts from them.

Three consumers take the solutions.  `feasible` takes the first and builds
nothing.  `instantiate` and `instantiate_texts` take them up to the cap
through `_Search.leaves`, which pairs each with the memo of its leaf
substitution; the candidates that share a type object at the last hole share
it.  Each distinct annotation of the template is resolved once per leaf, and
the conjectures of one leaf differ only in the last hole's symbol, however
the leaves interleave.  So `instantiate` builds each conjecture's term from
subtrees without that hole and one constant per symbol, shared in the leaf,
and `instantiate_texts`, which the `instantiate` command prints from, builds
no term and joins no text: each leaf renders the template's text parts once,
cut at the last hole, into pieces its conjectures share with their heads.
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
    Signature,
    SignatureEntry,
    Term,
    TypeExpr,
    TypeSubstitution,
    UnificationError,
    base_scheme,
    render_parts,
    render_type,
    resolve,
    subterms,
    unify_into,
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
    candidates: Signature | list[SignatureEntry],
    budget: Budget | None = None,
) -> InstantiationResult:
    """Enumerate every well-typed full hole assignment within the budget.

    Output order is lexicographic in candidate positions per hole.  All
    occurrences of one hole receive the same symbol; distinct holes may share
    a symbol unless budget.distinct_holes.  Partial results are returned with
    timed_out set when the deadline fires mid-search.  `candidates` is a
    `Signature`, shared with other searches over the same list, or a list
    that one is built from.
    """
    if budget is None:
        budget = Budget()
    search = _Search(tpl, candidates, budget)
    result = InstantiationResult()
    for leaf, pairs in search.leaves(budget.max_results):
        result.conjectures.append(
            Conjecture(
                term=leaf.build(tpl.body, dict(pairs)),
                template_canonical=tpl.canonical,
                assignment=Assignment(mapping=pairs),
            )
        )
    result.timed_out, result.capped = search.timed_out, search.capped
    return result


@dataclass
class InstantiationTexts:
    """Each conjecture's assignment and s-expression text, as `instantiate`
    would give them, and its flags.  A text is given as (pieces, head), its
    leaf's tuple and its last symbol's head, and reads `head.join(pieces)`."""

    texts: list[tuple[Assignment, tuple[str, ...], str]] = field(default_factory=list)
    timed_out: bool = False
    capped: bool = False


def instantiate_texts(
    tpl: Template,
    candidates: Signature | list[SignatureEntry],
    budget: Budget | None = None,
) -> InstantiationTexts:
    """`instantiate`'s conjectures as (assignment, pieces, head) triples, in
    its order and with its flags, where `head.join(pieces)` is `render_term`
    of the term; no term is built and no text joined.

    Each leaf joins the template's text parts once, cut at the last hole,
    into its pieces; a head is a last symbol's `(const "name" `, the first
    part of its constant, worked out once per candidate.
    """
    if budget is None:
        budget = Budget()
    search = _Search(tpl, candidates, budget)
    parts = render_parts(tpl.body)
    heads = {c.name: render_parts(Const(c.name, c.type))[0] for c in search.table}
    result = InstantiationTexts()
    for leaf, pairs in search.leaves(budget.max_results):
        if leaf.pieces is None:
            leaf.pieces = leaf.split(parts, heads, dict(pairs))
        head = heads[pairs[-1][1]] if pairs else ""
        result.texts.append((Assignment(mapping=pairs), leaf.pieces, head))
    result.timed_out, result.capped = search.timed_out, search.capped
    return result


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
    hole, by node id, and one constant per symbol of that hole, by name; or,
    for texts, the pieces of `split`.  `varying` holds the ids of the nodes
    that contain the last hole."""

    def __init__(self, subst: TypeSubstitution, varying: set[int]):
        self.subst = subst
        self.varying = varying
        self.resolved: dict[int, TypeExpr] = {}
        self.built: dict = {}
        self.pieces: tuple[str, ...] | None = None

    def fill(self, ty: TypeExpr) -> TypeExpr:
        got = self.resolved.get(id(ty))
        if got is None:
            got = self.resolved[id(ty)] = resolve(self.subst, ty)
        return got

    def build(self, node: Term, mapping: dict[int, str]) -> Term:
        """`_build` of `node` through this memo.  The solutions of one leaf
        differ only in the last hole's symbol, so they share every subtree
        without that hole, built once per leaf."""
        if id(node) not in self.varying:
            got = self.built.get(id(node))
            if got is None:
                got = self.built[id(node)] = _build(node, mapping, self.fill)
            return got
        if isinstance(node, App):
            return App(self.build(node.fn, mapping), self.build(node.arg, mapping))
        if isinstance(node, Abs):
            return Abs(node.binder, self.fill(node.binder_type), self.build(node.body, mapping))
        name = mapping[node.index]
        got = self.built.get(name)
        if got is None:
            got = self.built[name] = Const(name, self.fill(node.type))
        return got

    def split(self, parts: list, heads: dict[str, str], mapping: dict[int, str]) -> tuple:
        """The text of this leaf's conjectures, from `parts` (the template
        body's `render_parts`), cut where the last hole's symbol is named:
        joined around that symbol's head in `heads`, the pieces give the
        conjecture's text.  `mapping` names the other holes' symbols."""
        texts: dict[int, str] = {}
        pieces, run = [], []
        for part in parts:
            cls = part.__class__
            if cls is str:
                run.append(part)
                continue
            ty = part.type if cls is Hole else part
            text = texts.get(id(ty))
            if text is None:
                text = texts[id(ty)] = render_type(self.fill(ty))
            if cls is not Hole:
                run.append(text)
            elif id(part) in self.varying:
                pieces.append("".join(run))
                run = [text, ")"]
            else:
                run += (heads[mapping[part.index]], text, ")")
        pieces.append("".join(run))
        return tuple(pieces)


class _Search:
    """The backtracking search of `tpl`'s holes over `candidates` (a
    `Signature`, or a list it builds one from) under `budget`'s
    deadline and `distinct_holes`.  It is an object, not a recursive nested
    function, because such a function holds itself through its closure cell:
    every call would leave a reference cycle for the garbage collector."""

    def __init__(
        self, tpl: Template, candidates: Signature | list[SignatureEntry], budget: Budget
    ):
        if not isinstance(tpl, Template):
            raise InvalidTemplate(f"expected a Template, got {type(tpl).__name__}")
        self.table = candidates if isinstance(candidates, Signature) else Signature(candidates)
        self.deadline = time.monotonic() + budget.timeout_millis / 1000.0
        self.root, used, self.hole_order, self.varying = _plan(tpl)
        self.fresh = FreshNames("?f")
        self.fresh.n = used
        self.hole_types = tpl.hole_types
        self.distinct = budget.distinct_holes
        self.timed_out = False
        self.capped = False

    def leaves(self, cap: int):
        """Each of the first `cap` solutions, as its leaf and its (hole
        index, symbol) pairs in hole order; a solution beyond the cap is
        dropped unbuilt, and only it sets `capped`.

        Leaves are kept per last-hole node, by substitution id.  The
        solutions of one such node come in a row, so the table is renewed
        when the symbols of the other holes change; each entry holds its
        substitution, so no id in the table is reused while it lives.
        """
        leaves: dict[int, _Leaf] = {}
        node = None
        count = 0
        for subst, chosen in self.solutions():
            if count == cap:
                self.capped = True
                return
            count += 1
            if chosen[:-1] != node:
                node, leaves = chosen[:-1], {}
            leaf = leaves.get(id(subst))
            if leaf is None:
                leaf = leaves[id(subst)] = _Leaf(subst, self.varying)
            yield leaf, tuple(zip(self.hole_order, chosen))

    def solutions(
        self, pos: int = 0, subst: TypeSubstitution | None = None, chosen: tuple[str, ...] = ()
    ):
        """Yield each solution below the node at hole position `pos`, reached
        under `subst` with the symbols `chosen`: its leaf substitution and
        its symbols in hole order.  The call at position 0 starts from the
        template's root constraints.  At the deadline it sets `timed_out`
        and stops."""
        if pos == 0:
            subst = self.root
            if subst is None:
                return
        if pos == len(self.hole_order):
            yield subst, chosen
            return
        hole_ty = self.hole_types[self.hole_order[pos]]
        distinct, deadline, fresh = self.distinct, self.deadline, self.fresh
        last = pos + 1 == len(self.hole_order)  # its loop yields the solutions itself
        # A scheme without type variables is its own renaming, so candidates
        # that share its type object extend `subst` alike: each such object is
        # unified once per node, and those candidates share the one extended
        # substitution (None on a clash).  Nothing mutates a substitution once
        # it is built; the next node copies before it unifies.
        by_type: dict[int, TypeSubstitution | None] = {}
        for cand, tvars in self.table.fitting(subst, hole_ty):
            if time.monotonic() > deadline:
                self.timed_out = True
                return
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
            if last:
                yield attempt, chosen + (cand.name,)
            else:
                yield from self.solutions(pos + 1, attempt, chosen + (cand.name,))
            if self.timed_out:
                return


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
    tpl: Template, candidates: Signature | list[SignatureEntry], distinct_holes: bool = False
) -> bool:
    """True iff at least one well-typed full assignment exists within
    FEASIBLE_TIMEOUT_MILLIS; with `distinct_holes`, one in which no two holes
    share a symbol.  It takes the search's first solution and builds no
    conjecture."""
    budget = Budget(FEASIBLE_TIMEOUT_MILLIS, distinct_holes=distinct_holes)
    return next(_Search(tpl, candidates, budget).solutions(), None) is not None
