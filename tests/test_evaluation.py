import random

import pytest

from lemmakit.corpus import make_record
from lemmakit.evaluation import (
    CATEGORY_FALSE,
    CATEGORY_GOLD,
    CATEGORY_UNKNOWN,
    EvalReport,
    TaskResult,
    TaskSetMismatch,
    categorize,
    combine_reports,
    dedupe,
    evaluate_suite,
    evaluate_task,
    instantiation_rate,
    make_task,
)
from lemmakit.instantiation import Assignment, Budget, Conjecture
from lemmakit.proposer import Proposal, ProposalSet, TransportError
from lemmakit.quickspec import InterpSymbol, IntModSort, InterpretedSignature
from lemmakit.templates import abstract
from lemmakit.terms import App, Const, Free, TCon, fun

OCTO = TCon("Octonions.octo")
INT = TCon("int")


def _proposal_set(*templates, source="fixed"):
    return ProposalSet([Proposal(t, 1.0, source) for t in templates])


def gold_proposer_for(task):
    """Always returns the task's own gold template."""
    tpl = task.gold_template
    return lambda req: _proposal_set(tpl)


@pytest.fixture
def distrib_task(lemma_distrib_left, octo_signature):
    rec = make_record("Dist.l0", "Dist", "distrib", lemma_distrib_left, octo_signature)
    return make_task(rec)


@pytest.fixture
def assoc_task(lemma_assoc_plus, octo_signature):
    rec = make_record("Assoc.l0", "Assoc", "assoc", lemma_assoc_plus, octo_signature)
    return make_task(rec)


@pytest.fixture
def four_tasks(lemma_distrib_left, lemma_assoc_plus, octo_signature):
    """Two distributivity tasks (theory Dist) and two associativity tasks
    (theory Assoc)."""
    tasks = []
    for i in range(2):
        rec = make_record(
            f"Dist.l{i}", "Dist", f"d{i}", lemma_distrib_left, octo_signature
        )
        tasks.append(make_task(rec))
    for i in range(2):
        rec = make_record(
            f"Assoc.l{i}", "Assoc", f"a{i}", lemma_assoc_plus, octo_signature
        )
        tasks.append(make_task(rec))
    return tasks


def distrib_only_proposer(tasks):
    """Proposes the distributivity template regardless of the request."""
    tpl = tasks[0].gold_template
    return lambda req: _proposal_set(tpl)


class TestEvaluateTask:
    def test_gold_template_regenerates_lemma(self, distrib_task):
        res = evaluate_task(distrib_task, gold_proposer_for(distrib_task))
        assert res.template_exact_match
        assert res.lemma_success
        # two holes, candidates = the record's two symbols -> 2^2 conjectures
        assert res.conjecture_count == 4
        assert res.error is None

    def test_wrong_template_fails(self, distrib_task, assoc_task):
        res = evaluate_task(assoc_task, gold_proposer_for(distrib_task))
        assert not res.template_exact_match
        assert not res.lemma_success

    def test_transport_error_recorded_not_raised(self, distrib_task):
        def broken(req):
            raise TransportError("connection refused")

        res = evaluate_task(distrib_task, broken)
        assert res.error == "connection refused"
        assert not res.lemma_success and res.conjecture_count == 0

    def test_proposed_templates_recorded(self, distrib_task, assoc_task):
        both = _proposal_set(assoc_task.gold_template, distrib_task.gold_template)
        res = evaluate_task(distrib_task, lambda req: both)
        assert res.proposed_templates == [
            assoc_task.gold_template.canonical,
            distrib_task.gold_template.canonical,
        ]
        assert res.template_exact_match and res.lemma_success


class TestEvaluateSuite:
    def test_half_success(self, four_tasks):
        report = evaluate_suite(four_tasks, distrib_only_proposer(four_tasks))
        assert report.lemma_success_rate == 0.5
        assert report.template_match_rate == 0.5
        assert report.errored_tasks == 0
        assert len(report.per_task) == 4

    def test_per_theory_breakdown(self, four_tasks):
        report = evaluate_suite(four_tasks, distrib_only_proposer(four_tasks))
        assert report.per_theory == {"Assoc": 0.0, "Dist": 1.0}

    def test_results_sorted_by_id(self, four_tasks):
        report = evaluate_suite(
            list(reversed(four_tasks)), distrib_only_proposer(four_tasks)
        )
        ids = [r.id for r in report.per_task]
        assert ids == sorted(ids)

    def test_worker_count_does_not_change_output(self, four_tasks):
        proposer = distrib_only_proposer(four_tasks)
        serial = evaluate_suite(four_tasks, proposer, workers=1)
        parallel = evaluate_suite(four_tasks, proposer, workers=8)
        assert serial.to_json() == parallel.to_json()

    def test_workers_must_be_positive(self, four_tasks):
        with pytest.raises(ValueError):
            evaluate_suite(four_tasks, lambda req: ProposalSet(), workers=0)

    def test_strict_denominator(self, four_tasks):
        distrib_tpl = four_tasks[0].gold_template

        def flaky(req):
            # the associativity records expose a single symbol
            if len(req.symbols) == 1:
                raise TransportError("boom")
            return _proposal_set(distrib_tpl)

        loose = evaluate_suite(four_tasks, flaky, strict_denominator=False)
        strict = evaluate_suite(four_tasks, flaky, strict_denominator=True)
        assert loose.errored_tasks == strict.errored_tasks == 2
        assert loose.lemma_success_rate == 0.5
        assert strict.lemma_success_rate == 1.0
        assert strict.per_theory == {"Dist": 1.0}

    def test_empty_suite(self):
        report = evaluate_suite([], lambda req: ProposalSet())
        assert report.lemma_success_rate == 0.0
        assert report.per_task == []

    def test_report_json_round_trip(self, four_tasks):
        report = evaluate_suite(four_tasks, distrib_only_proposer(four_tasks))
        import json

        again = EvalReport.from_dict(json.loads(report.to_json()))
        assert again.to_json() == report.to_json()


class TestInstantiationRate:
    def test_gold_templates_recover_lemmas(self, four_tasks):
        assert instantiation_rate(four_tasks) == 1.0

    def test_tight_cap_can_miss(self, distrib_task):
        # with max_results=1 only the times/times filling is produced, which
        # is not the distributivity lemma
        assert instantiation_rate([distrib_task], Budget(max_results=1)) == 0.0

    def test_empty(self):
        assert instantiation_rate([]) == 0.0


def _row(tid, theory="T", success=False, match=False, error=None):
    return TaskResult(
        id=tid,
        theory=theory,
        template_exact_match=match,
        lemma_success=success,
        error=error,
    )


def _report(rows):
    success = sum(r.lemma_success for r in rows) / len(rows) if rows else 0.0
    match = sum(r.template_exact_match for r in rows) / len(rows) if rows else 0.0
    theories = sorted({r.theory for r in rows})
    per_theory = {
        th: sum(r.lemma_success for r in rows if r.theory == th)
        / sum(1 for r in rows if r.theory == th)
        for th in theories
    }
    return EvalReport(
        per_task=rows,
        lemma_success_rate=success,
        template_match_rate=match,
        per_theory=per_theory,
    )


class TestCombineReports:
    def test_union_of_successes(self):
        a = _report([_row("t1", success=True), _row("t2")])
        b = _report([_row("t1"), _row("t2", success=True)])
        combined = combine_reports([a, b])
        assert combined.lemma_success_rate == 1.0
        assert [r.lemma_success for r in combined.per_task] == [True, True]

    def test_idempotent(self):
        a = _report([_row("t1", success=True), _row("t2")])
        combined = combine_reports([a, a])
        assert combined.lemma_success_rate == a.lemma_success_rate
        assert [r.lemma_success for r in combined.per_task] == [
            r.lemma_success for r in a.per_task
        ]

    def test_mismatched_task_sets(self):
        a = _report([_row("t1")])
        b = _report([_row("t2")])
        with pytest.raises(TaskSetMismatch):
            combine_reports([a, b])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            combine_reports([])

    def test_error_survives_only_if_unanimous(self):
        a = _report([_row("t1", error="down")])
        b = _report([_row("t1", success=True)])
        combined = combine_reports([a, b])
        assert combined.per_task[0].error is None
        both_down = combine_reports([a, a])
        assert both_down.per_task[0].error == "down"

    def test_combined_at_least_max_component(self):
        rng = random.Random(5)
        for _ in range(50):
            ids = [f"t{i}" for i in range(rng.randint(1, 6))]
            reports = [
                _report(
                    [_row(tid, success=rng.random() < 0.5) for tid in ids]
                )
                for _ in range(rng.randint(1, 4))
            ]
            combined = combine_reports(reports)
            assert combined.lemma_success_rate >= max(
                r.lemma_success_rate for r in reports
            ) - 1e-12


def _conj(term):
    return Conjecture(term, "tpl", Assignment(()))


def _plus(a, b):
    return App(App(Const("plus", fun(INT, fun(INT, INT))), a), b)


def _eq(a, b):
    return App(App(Const("HOL.eq", fun(INT, fun(INT, TCon("HOL.bool")))), a), b)


class TestDedupe:
    def test_alpha_variants_collapse(self):
        a = _plus(Free("p", INT), Free("q", INT))
        b = _plus(Free("u", INT), Free("v", INT))
        kept, removed = dedupe([_conj(a), _conj(b)])
        assert len(kept) == 1 and removed == 1
        assert kept[0].term == a

    def test_commuted_arguments_kept(self):
        x, y = Free("x", INT), Free("y", INT)
        kept, removed = dedupe([_conj(_plus(x, y)), _conj(_plus(y, x))])
        assert len(kept) == 2 and removed == 0

    def test_idempotent(self):
        a = _plus(Free("p", INT), Free("q", INT))
        b = _plus(Free("u", INT), Free("u", INT))
        kept, removed = dedupe([_conj(a), _conj(b)])
        again, removed_again = dedupe(kept)
        assert again == kept and removed_again == 0

    def test_empty(self):
        assert dedupe([]) == ([], 0)


class TestCategorize:
    def _interp(self):
        mk = lambda name, f: InterpSymbol(name, fun(INT, fun(INT, INT)), f)
        return InterpretedSignature(
            sorts=[IntModSort("int", 101)],
            symbols=[
                mk("plus", lambda a, b: (a + b) % 101),
                mk("minus", lambda a, b: (a - b) % 101),
            ],
            vars_per_sort=3,
        )

    @staticmethod
    def _assoc(op_name):
        op = Const(op_name, fun(INT, fun(INT, INT)))
        x1, x2, x3 = (Free(f"x{i}", INT) for i in (1, 2, 3))
        lhs = App(App(op, App(App(op, x1), x2)), x3)
        rhs = App(App(op, x1), App(App(op, x2), x3))
        return _eq(lhs, rhs)

    def test_three_way_split(self):
        gold = self._assoc("plus")
        x, y = Free("x1", INT), Free("x2", INT)
        comm = _eq(_plus(x, y), _plus(y, x))  # true but not gold -> unknown
        conjs = [_conj(gold), _conj(self._assoc("minus")), _conj(comm)]
        labels, counts = categorize(conjs, gold, self._interp(), tests=400)
        assert labels == [CATEGORY_GOLD, CATEGORY_FALSE, CATEGORY_UNKNOWN]
        assert counts == {
            CATEGORY_GOLD: 1,
            CATEGORY_FALSE: 1,
            CATEGORY_UNKNOWN: 1,
        }

    def test_no_interpretation_means_unknown(self):
        gold = self._assoc("plus")
        labels, counts = categorize([_conj(self._assoc("minus"))], gold, None)
        assert labels == [CATEGORY_UNKNOWN]
        assert counts[CATEGORY_FALSE] == 0

    def test_untestable_symbol_is_unknown(self):
        gold = self._assoc("plus")
        ghost = _eq(
            App(Const("ghost", fun(INT, INT)), Free("x1", INT)), Free("x1", INT)
        )
        labels, _ = categorize([_conj(ghost)], gold, self._interp())
        assert labels == [CATEGORY_UNKNOWN]

    def test_empty(self):
        labels, counts = categorize([], self._assoc("plus"), None)
        assert labels == [] and sum(counts.values()) == 0
