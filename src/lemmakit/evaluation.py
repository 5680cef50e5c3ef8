"""Evaluation harness: lemma success rate, template exact match, instantiation
rate, per-theory breakdowns, report ensembles, deduplication and conjecture
categorization.

`evaluate_suite` is the one way to score tasks, one task or many.  It runs
under a bounded worker pool, one group of tasks with one symbol list at a
time, but assembles the report single-threaded in task-id order, so the
output is identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .corpus import CorpusRecord
from .instantiation import Budget, Conjecture, instantiate
from .proposer import ProposalRequest, ProposalSet
from .quickspec import InterpretedSignature, NotTestable, find_counterexample
from .templates import Template, Whitelist, abstract
from .terms import DuplicateSymbols, LemmakitError, Signature, SignatureEntry, Term, alpha_key

CATEGORY_GOLD = "gold"
CATEGORY_FALSE = "false_by_testing"
CATEGORY_UNKNOWN = "unknown"


class TaskSetMismatch(LemmakitError):
    pass


@dataclass(frozen=True)
class EvalTask:
    record: CorpusRecord
    gold_template: Template
    mode: str = "types+defs"
    k: int = 5


def make_task(
    record: CorpusRecord,
    mode: str = "types+defs",
    k: int = 5,
    w: Whitelist | None = None,
) -> EvalTask:
    return EvalTask(
        record=record, gold_template=abstract(record.term, w), mode=mode, k=k
    )


@dataclass
class TaskResult:
    id: str
    theory: str
    proposed_templates: list[str] = field(default_factory=list)
    template_exact_match: bool = False
    lemma_success: bool = False
    conjecture_count: int = 0
    timed_out: bool = False
    capped: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "TaskResult":
        return cls(**d)


@dataclass
class EvalReport:
    """A suite's per-task rows, from which construction derives every rate but
    `instantiation_rate` (measured over gold templates, reported when set).
    With `strict_denominator`, errored tasks count in no derived rate's
    denominator.  `instantiation_rate` always divides by every task: a gold
    template's instantiation does not depend on the proposer, so a task the
    proposer failed on still has one."""

    per_task: list[TaskResult]
    strict_denominator: bool = False
    instantiation_rate: float | None = None
    lemma_success_rate: float = field(init=False)
    template_match_rate: float = field(init=False)
    per_theory: dict[str, float] = field(init=False)
    errored_tasks: int = field(init=False)

    def __post_init__(self):
        rows = self.per_task
        self.errored_tasks = sum(1 for r in rows if r.error is not None)
        if self.strict_denominator:
            rows = [r for r in rows if r.error is None]
        n = len(rows)
        self.lemma_success_rate = sum(r.lemma_success for r in rows) / n if n else 0.0
        self.template_match_rate = sum(r.template_exact_match for r in rows) / n if n else 0.0
        self.per_theory = {}
        for th in sorted({r.theory for r in rows}):
            group = [r for r in rows if r.theory == th]
            self.per_theory[th] = sum(r.lemma_success for r in group) / len(group)

    def to_dict(self) -> dict:
        aggregates = {
            "lemma_success_rate": self.lemma_success_rate,
            "template_match_rate": self.template_match_rate,
            "errored_tasks": self.errored_tasks,
            "strict_denominator": self.strict_denominator,
        }
        if self.instantiation_rate is not None:
            aggregates["instantiation_rate"] = self.instantiation_rate
        return {
            "aggregates": aggregates,
            "per_theory": self.per_theory,
            "per_task": [r.to_dict() for r in self.per_task],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """The report of `to_dict`'s rows; the rates are computed again from
        them, not read from the aggregates."""
        agg = d["aggregates"]
        return cls(
            per_task=[TaskResult.from_dict(r) for r in d["per_task"]],
            strict_denominator=agg.get("strict_denominator", False),
            instantiation_rate=agg.get("instantiation_rate"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _evaluate(
    task: EvalTask,
    proposer,
    budget: Budget,
    candidates: Signature,
    memo: dict[str, _Instances],
    gold_key: tuple,
) -> TaskResult:
    """One task's row: template exact match compares canonical strings, and
    lemma success holds when a conjecture of a proposed template has the gold
    term's `alpha_key`, `gold_key`.

    Tasks that share one symbol list instantiate a template alike, so they
    share its `candidates` table, which their requests carry, and a `memo`
    from template canonical string to `_Instances`.  A search that timed out
    is not stored, nor is an error, so only the deterministic answer is
    reused and every task that an error hits is marked.
    """
    result = TaskResult(id=task.record.id, theory=task.record.theory)
    req = ProposalRequest(candidates, task.mode, task.k, budget.distinct_holes)
    try:
        proposals: ProposalSet = proposer(req)
    except LemmakitError as e:
        result.error = str(e)
        return result

    gold_canonical = task.gold_template.canonical
    for tpl in proposals.templates():
        result.proposed_templates.append(tpl.canonical)
        if tpl.canonical == gold_canonical:
            result.template_exact_match = True
        try:
            inst = _instantiate_through(memo, tpl, candidates, budget)
        except LemmakitError as e:
            result.error = str(e)
            return result
        result.conjecture_count += inst.count
        result.timed_out = result.timed_out or inst.timed_out
        result.capped = result.capped or inst.capped
        result.lemma_success = result.lemma_success or gold_key in inst.keys
    return result


@dataclass(frozen=True)
class _Instances:
    """What a task reads of one template's instantiation."""

    count: int
    timed_out: bool
    capped: bool
    keys: frozenset[tuple]  # the conjectures' `alpha_key`s


def _instantiate_through(
    memo: dict[str, _Instances],
    tpl: Template,
    candidates: Signature,
    budget: Budget | None,
) -> _Instances:
    """`instantiate(tpl, candidates, budget)` as `_Instances`, answered from
    `memo` when it holds tpl's canonical string; a result that did not time
    out is stored, so each conjecture is keyed once per symbol group."""
    got = memo.get(tpl.canonical)
    if got is None:
        inst = instantiate(tpl, candidates, budget)
        keys = frozenset(alpha_key(c.term) for c in inst.conjectures)
        got = _Instances(len(inst.conjectures), inst.timed_out, inst.capped, keys)
        if not inst.timed_out:
            memo[tpl.canonical] = got
    return got


def evaluate_suite(
    tasks: list[EvalTask],
    proposer,
    budget: Budget | None = None,
    workers: int = 1,
    strict_denominator: bool = False,
    with_instantiation_rate: bool = False,
) -> EvalReport:
    """Evaluate every task; the report does not depend on `workers`.

    `proposer` is a callable ProposalRequest -> ProposalSet.  A failure of
    the proposer or of `instantiate` (any LemmakitError, transport errors
    included) marks that task errored, never the suite.

    Tasks are grouped by their record's symbol list, in order, since the
    candidate order decides which conjectures a cap keeps.  Each group
    builds one `Signature` table, which its requests carry and all its
    searches read, and instantiates a template once for all its tasks (one
    memo, see `_evaluate`); the proposer is still asked once per task.  A
    list that repeats a name forms no table: its tasks are errored with
    `DuplicateSymbols`' message, the proposer is not asked for them, and
    their gold templates count as misses.  Workers run whole groups.

    With `with_instantiation_rate`, the report's `instantiation_rate` is the
    share of all tasks whose gold template, instantiated with the record's
    own symbols, recovers the gold lemma (see `_gold_hit`).  Each gold
    template is looked up in its group's memo first, so a gold template
    that was proposed is not instantiated again.

    Workers are threads, so more than one helps only a proposer that waits
    on I/O.  On the 100-task synthetic suite (31 symbol lists) with an http
    proposer whose local endpoint answers after 50 ms, 4 workers took 1.96 s
    against 5.87 s for 1 (CLI wall time, medians of 5); with an endpoint that
    answers at once, 0.69 s against 0.56 s.  Retrieval and fixed proposers
    are CPU-bound under the interpreter lock and gain nothing.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    groups = _symbol_groups(tasks)
    budget = budget or Budget()

    def run(group: list[int]) -> tuple[list[TaskResult], int]:
        try:
            candidates = Signature(tasks[group[0]].record.symbols)
        except DuplicateSymbols as e:
            records = [tasks[i].record for i in group]
            return [TaskResult(r.id, r.theory, error=str(e)) for r in records], 0
        memo: dict[str, _Instances] = {}
        keyed = [(tasks[i], alpha_key(tasks[i].record.term)) for i in group]
        rows = [_evaluate(t, proposer, budget, candidates, memo, key) for t, key in keyed]
        if not with_instantiation_rate:
            return rows, 0
        return rows, sum(_gold_hit(t, budget, candidates, memo, key) for t, key in keyed)

    if workers == 1:
        runs = [run(g) for g in groups]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run, groups))
    # Back in task order, so that tasks with one id keep their file order.
    results: list[TaskResult] = [None] * len(tasks)
    for g, (rows, _) in zip(groups, runs):
        for i, r in zip(g, rows):
            results[i] = r
    results.sort(key=lambda r: r.id)
    rate = None
    if with_instantiation_rate:
        rate = sum(h for _, h in runs) / len(tasks) if tasks else 0.0
    return EvalReport(results, strict_denominator, rate)


def _symbol_groups(tasks: list[EvalTask]) -> list[list[int]]:
    """Task indices grouped by the record's symbol list, in first-seen order."""
    groups: dict[tuple[SignatureEntry, ...], list[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault(task.record.symbols, []).append(i)
    return list(groups.values())


def _gold_hit(
    task: EvalTask,
    budget: Budget | None,
    candidates: Signature,
    memo: dict[str, _Instances],
    gold_key: tuple,
) -> bool:
    """Whether the task's gold template, instantiated with the record's own
    symbols (`candidates`) through `memo`, gives the gold lemma, whose
    `alpha_key` is `gold_key`; an error is a miss."""
    try:
        inst = _instantiate_through(memo, task.gold_template, candidates, budget)
    except LemmakitError:
        return False
    return gold_key in inst.keys


def combine_reports(reports: list[EvalReport]) -> EvalReport:
    """Ensemble union: per-task OR of successes across reports covering the
    same task ids; aggregates recomputed.  The first report's
    `instantiation_rate` is carried over, since the gold-template rate does
    not depend on the proposer."""
    if not reports:
        raise ValueError("need at least one report")
    base_ids = [r.id for r in reports[0].per_task]
    for rep in reports[1:]:
        if [r.id for r in rep.per_task] != base_ids:
            raise TaskSetMismatch("reports cover different task id sets")
    combined: list[TaskResult] = []
    for i, tid in enumerate(base_ids):
        rows = [rep.per_task[i] for rep in reports]
        templates: list[str] = []
        for row in rows:
            for t in row.proposed_templates:
                if t not in templates:
                    templates.append(t)
        combined.append(
            TaskResult(
                id=tid,
                theory=rows[0].theory,
                proposed_templates=templates,
                template_exact_match=any(r.template_exact_match for r in rows),
                lemma_success=any(r.lemma_success for r in rows),
                conjecture_count=sum(r.conjecture_count for r in rows),
                timed_out=any(r.timed_out for r in rows),
                capped=any(r.capped for r in rows),
                error=next((r.error for r in rows if r.error), None)
                if all(r.error for r in rows)
                else None,
            )
        )
    return EvalReport(
        combined, reports[0].strict_denominator, reports[0].instantiation_rate
    )


def dedupe(conjectures: list[Conjecture]) -> tuple[list[Conjecture], int]:
    """Drop repeated lemmas, keeping the first conjecture of each in input
    order, and count the removed.  Conjectures are one lemma when their
    `alpha_key`s are equal; each term is keyed once and no pair compared."""
    kept: dict[tuple, Conjecture] = {}
    for conj in conjectures:
        kept.setdefault(alpha_key(conj.term), conj)
    return list(kept.values()), len(conjectures) - len(kept)


def categorize(
    conjectures: list[Conjecture],
    gold: Term,
    interp: InterpretedSignature | None = None,
    tests: int = 400,
    seed: int = 0,
) -> tuple[list[str], dict[str, int]]:
    """Label each conjecture gold / false-by-testing / unknown.

    A conjecture is false-by-testing when an interpretation is supplied, the
    term is ground-testable over it, and a counterexample shows up within
    `tests` sampled valuations.  Everything else that is not the gold lemma is
    unknown (this build has no prover to separate "provable" from "open").
    A conjecture is the gold lemma when it has the gold's `alpha_key`.
    The conjectures of `instantiate(tpl, interp.symbols)` need no second
    description of their symbols: both read the same `Signature`.
    """
    gold_key = alpha_key(gold)
    labels: list[str] = []
    for conj in conjectures:
        if alpha_key(conj.term) == gold_key:
            labels.append(CATEGORY_GOLD)
            continue
        label = CATEGORY_UNKNOWN
        if interp is not None:
            try:
                cex = find_counterexample(conj.term, interp, tests, seed)
            except NotTestable:
                cex = None
            if cex is not None:
                label = CATEGORY_FALSE
        labels.append(label)
    counts = {
        CATEGORY_GOLD: labels.count(CATEGORY_GOLD),
        CATEGORY_FALSE: labels.count(CATEGORY_FALSE),
        CATEGORY_UNKNOWN: labels.count(CATEGORY_UNKNOWN),
    }
    return labels, counts
