import ast
import dataclasses
import itertools
import pathlib
import random

import pytest

from lemmakit import evaluation
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
    make_task,
)
from lemmakit.instantiation import (
    Assignment,
    Budget,
    Conjecture,
    InstantiationResult,
    instantiate,
)
from lemmakit.proposer import (
    HttpProposerConfig,
    Proposal,
    ProposalRequest,
    ProposalSet,
    TemplateIndex,
    TransportError,
    build_index,
    propose_fixed,
    propose_http,
    propose_retrieval,
)
from lemmakit.quickspec import IntModSort, IntRangeSort, InterpretedSignature
from lemmakit.templates import abstract
from lemmakit.terms import (
    Abs,
    App,
    Bound,
    Const,
    Free,
    Hole,
    LemmakitError,
    Signature,
    SignatureEntry,
    TCon,
    alpha_equal,
    alpha_key,
    fun,
)

from oracles import (
    _rename,
    alpha_oracle,
    dedupe_pairwise,
    free_name_set,
    lemma_oracle,
    random_lemma_term,
    random_type,
)
from synthetic import build_synthetic_corpus, build_train_datapoints

OCTO = TCon("Octonions.octo")
INT = TCon("int")


def _proposal_set(*templates, source="fixed"):
    return ProposalSet([Proposal(t, 1.0, source) for t in templates])


def one_task(task, proposer, budget=None):
    """The task's row from a suite of that one task, whose group has a memo
    of its own."""
    return evaluate_suite([task], proposer, budget).per_task[0]


def gold_rate(tasks, budget=None):
    """The suite's instantiation rate with a proposer that proposes nothing,
    so that each gold template is instantiated through an empty memo."""
    report = evaluate_suite(
        tasks, lambda req: ProposalSet(), budget, with_instantiation_rate=True
    )
    return report.instantiation_rate


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
        res = one_task(distrib_task, gold_proposer_for(distrib_task))
        assert res.template_exact_match
        assert res.lemma_success
        # two holes, candidates = the record's two symbols -> 2^2 conjectures
        assert res.conjecture_count == 4
        assert res.error is None

    def test_wrong_template_fails(self, distrib_task, assoc_task):
        res = one_task(assoc_task, gold_proposer_for(distrib_task))
        assert not res.template_exact_match
        assert not res.lemma_success

    def test_transport_error_recorded_not_raised(self, distrib_task):
        def broken(req):
            raise TransportError("connection refused")

        res = one_task(distrib_task, broken)
        assert res.error == "connection refused"
        assert not res.lemma_success and res.conjecture_count == 0

    def test_proposed_templates_recorded(self, distrib_task, assoc_task):
        both = _proposal_set(assoc_task.gold_template, distrib_task.gold_template)
        res = one_task(distrib_task, lambda req: both)
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

    def test_proposer_error_recorded_per_task(self, four_tasks):
        distrib_tpl = four_tasks[0].gold_template

        def bad_reply(req):
            # the associativity record exposes a single symbol
            if len(req.symbols) == 1:
                raise LemmakitError("unusable proposer reply")
            return _proposal_set(distrib_tpl)

        report = evaluate_suite(four_tasks[:3], bad_reply)
        assert len(report.per_task) == 3
        assert report.errored_tasks == 1
        errored = [r for r in report.per_task if r.error is not None]
        assert [r.error for r in errored] == ["unusable proposer reply"]
        assert report.lemma_success_rate == 2 / 3

    @pytest.mark.parametrize("kind", ["retrieval", "fixed"])
    def test_repeated_symbol_names_recorded_per_task(self, four_tasks, kind):
        """A record listing its symbols twice errors its own task only: the
        retrieval proposer rejects it, and so does instantiate after a fixed
        proposal."""
        tasks = list(four_tasks[:3])
        twice = tasks[1].record.symbols * 2
        tasks[1] = dataclasses.replace(
            tasks[1], record=dataclasses.replace(tasks[1].record, symbols=twice)
        )
        distrib_tpl = tasks[0].gold_template
        if kind == "retrieval":
            idx = TemplateIndex()
            idx.add(distrib_tpl.canonical)
            proposer = lambda req: propose_retrieval(req, idx)
        else:
            proposer = distrib_only_proposer(tasks)
        report = evaluate_suite(tasks, proposer)
        assert report.errored_tasks == 1
        assert {r.id: r.error for r in report.per_task} == {
            "Dist.l0": None,
            "Dist.l1": "duplicate symbol names",
            "Assoc.l0": None,
        }
        assert report.lemma_success_rate == 1 / 3  # Dist.l0 only
        # The erroring task's gold template does not instantiate either.
        assert gold_rate(tasks) == 2 / 3

    def test_deep_http_reply_errors_each_task(self, four_tasks, stub_server):
        stub_server.raw_body = '{"completions": ' + "[" * 100_000
        config = HttpProposerConfig(url=stub_server.url)
        report = evaluate_suite(four_tasks[:3], lambda req: propose_http(req, config))
        assert report.errored_tasks == 3
        assert all("nested too deeply" in r.error for r in report.per_task)

    def test_non_decimal_digit_in_http_reply_spoils_one_completion(
        self, four_tasks, stub_server
    ):
        distrib = four_tasks[0].gold_template.canonical
        stub_server.completions = ["(bound \u00b2)", distrib]
        config = HttpProposerConfig(url=stub_server.url)
        report = evaluate_suite(four_tasks[:3], lambda req: propose_http(req, config))
        assert len(report.per_task) == 3
        assert report.errored_tasks == 0
        assert report.lemma_success_rate == 2 / 3

    def test_empty_suite(self):
        report = evaluate_suite([], lambda req: ProposalSet())
        assert report.lemma_success_rate == 0.0
        assert report.per_task == []

    def test_report_json_round_trip(self, four_tasks):
        report = evaluate_suite(four_tasks, distrib_only_proposer(four_tasks))
        import json

        again = EvalReport.from_dict(json.loads(report.to_json()))
        assert again.to_json() == report.to_json()


def _interleaved_heldout_tasks():
    """The held-out synthetic tasks, one of each theory in turn, so that no
    two tasks of one theory (one symbol list) are adjacent."""
    _, heldout = build_synthetic_corpus()
    by_theory: dict[str, list] = {}
    for r in heldout:
        by_theory.setdefault(r.theory, []).append(make_task(r))
    tasks = [t for row in itertools.zip_longest(*by_theory.values()) for t in row if t]
    assert all(
        a.record.theory != b.record.theory for a, b in zip(tasks, tasks[1:])
    )
    return tasks


def _count_instantiate(monkeypatch, first=None):
    """Record (canonical, symbol names) of each `instantiate` call the suite
    makes; `first`, if given, answers the first call in its place."""
    calls = []
    real = evaluation.instantiate

    def counted(tpl, candidates, budget=None):
        calls.append((tpl.canonical, tuple(c.name for c in candidates)))
        if first is not None and len(calls) == 1:
            return first
        return real(tpl, candidates, budget)

    monkeypatch.setattr(evaluation, "instantiate", counted)
    return calls


class TestOneInstantiationPerSymbolList:
    """`evaluate_suite` instantiates each proposed template once per distinct
    symbol list, and the report is that of one-task suites run task by task."""

    @pytest.fixture(scope="class")
    def retrieval(self):
        idx = build_index(build_train_datapoints())
        return lambda req: propose_retrieval(req, idx)

    def test_once_per_template_and_symbol_list(self, retrieval, monkeypatch):
        tasks = _interleaved_heldout_tasks()
        one_by_one = sorted(
            (one_task(t, retrieval) for t in tasks), key=lambda r: r.id
        )
        wanted = {
            (tpl.canonical, tuple(e.name for e in t.record.symbols))
            for t in tasks
            for tpl in retrieval(
                ProposalRequest(symbols=t.record.symbols, mode=t.mode, k=t.k)
            ).templates()
        }
        calls = _count_instantiate(monkeypatch)
        report = evaluate_suite(tasks, retrieval)
        assert len(calls) == len(set(calls)) == len(wanted) < len(tasks) * 5
        assert set(calls) == wanted
        assert [r.to_dict() for r in report.per_task] == [
            r.to_dict() for r in one_by_one
        ]

    def test_one_table_per_symbol_list(self, retrieval, table_builds):
        """A group's searches, its gold templates' and its retrieval
        requests' included, share one `Signature` table."""
        tasks = _interleaved_heldout_tasks()
        lists = list(dict.fromkeys(t.record.symbols for t in tasks))
        names = [tuple(c.name for c in symbols) for symbols in lists]
        proposer = distrib_only_proposer(tasks)
        for workers in (1, 4):
            table_builds.clear()
            evaluate_suite(tasks, proposer, workers=workers, with_instantiation_rate=True)
            assert sorted(table_builds) == sorted(names) and len(names) == 31
        table_builds.clear()
        evaluate_suite(tasks, retrieval, with_instantiation_rate=True)
        assert sorted(table_builds) == sorted(names)

    def test_worker_count_does_not_change_multi_group_report(self, retrieval):
        tasks = _interleaved_heldout_tasks()
        assert len({t.record.symbols for t in tasks}) == 31
        serial = evaluate_suite(tasks, retrieval, workers=1).to_json()
        assert evaluate_suite(tasks, retrieval, workers=4).to_json() == serial

    def test_symbol_order_makes_another_group(self, four_tasks, monkeypatch):
        """With a cap, candidate order decides which conjectures are kept, so
        the same symbols in another order are instantiated again."""
        first = four_tasks[0]
        reordered = dataclasses.replace(
            four_tasks[1],
            record=dataclasses.replace(
                four_tasks[1].record, symbols=first.record.symbols[::-1]
            ),
        )
        tasks = [first, reordered]
        proposer = distrib_only_proposer(tasks)
        budget = Budget(max_results=2)
        one_by_one = [one_task(t, proposer, budget) for t in tasks]
        assert one_by_one[0].lemma_success != one_by_one[1].lemma_success
        calls = _count_instantiate(monkeypatch)
        report = evaluate_suite(tasks, proposer, budget)
        assert len(calls) == 2
        assert [r.to_dict() for r in report.per_task] == [
            r.to_dict() for r in one_by_one
        ]

    def test_timed_out_result_is_recomputed(self, four_tasks, monkeypatch):
        """A timed-out search is not reused: the next task with the same
        symbol list searches again, and the task after that reuses its
        answer."""
        tasks = [four_tasks[0], four_tasks[1], four_tasks[0]]
        tasks[2] = dataclasses.replace(
            tasks[2], record=dataclasses.replace(tasks[2].record, id="Dist.l2")
        )
        calls = _count_instantiate(
            monkeypatch, first=InstantiationResult(timed_out=True)
        )
        report = evaluate_suite(tasks, distrib_only_proposer(tasks))
        assert len(calls) == 2
        rows = {r.id: r for r in report.per_task}
        assert rows["Dist.l0"].timed_out and not rows["Dist.l0"].lemma_success
        for tid in ("Dist.l1", "Dist.l2"):
            assert not rows[tid].timed_out and rows[tid].lemma_success
            assert rows[tid].conjecture_count == 4

    def test_repeated_symbol_name_errors_every_task_of_the_list(
        self, four_tasks, monkeypatch
    ):
        twice = four_tasks[0].record.symbols * 2
        tasks = [
            dataclasses.replace(t, record=dataclasses.replace(t.record, symbols=twice))
            for t in four_tasks[:2]
        ] + [four_tasks[2]]
        calls = _count_instantiate(monkeypatch)
        report = evaluate_suite(tasks, distrib_only_proposer(tasks))
        # Only the associativity group searches: the other forms no table.
        assert calls == [(tasks[0].gold_template.canonical, ("Octonions.octo_plus",))]
        assert {r.id: r.error for r in report.per_task} == {
            "Dist.l0": "duplicate symbol names",
            "Dist.l1": "duplicate symbol names",
            "Assoc.l0": None,
        }
        assert report.errored_tasks == 2

    @pytest.mark.parametrize("kind", ["retrieval", "fixed", "http", "empty"])
    def test_repeated_name_group_is_errored_unasked(self, kind, retrieval, stub_server):
        """A group whose list repeats a name forms no table: each of its
        tasks is errored with one message, its proposer is never asked, and
        its gold templates count as misses.  The other groups' rows are
        those of a suite without that group."""
        tasks = _interleaved_heldout_tasks()
        once = tasks[0].record.symbols
        twice = once + once[:1]
        tasks = [
            dataclasses.replace(t, record=dataclasses.replace(t.record, symbols=twice))
            if t.record.symbols == once else t
            for t in tasks
        ]
        rest = [t for t in tasks if t.record.symbols != twice]
        assert 1 < len(tasks) - len(rest) < len(rest)
        golds = [t.gold_template for t in rest[:8]]
        stub_server.completions = [tpl.canonical for tpl in golds]
        config = HttpProposerConfig(url=stub_server.url)
        proposer = {
            "retrieval": retrieval,
            "fixed": lambda req: propose_fixed(req, golds),
            "http": lambda req: propose_http(req, config),
            "empty": lambda req: ProposalSet(),
        }[kind]
        asked = []

        def counted(req):
            asked.append(tuple(c.name for c in req.symbols))
            return proposer(req)

        full = evaluate_suite(tasks, counted, with_instantiation_rate=True)
        assert len(asked) == len(rest)
        without = evaluate_suite(rest, counted, with_instantiation_rate=True)
        ids = {t.record.id for t in rest}
        errored = [r for r in full.per_task if r.id not in ids]
        assert errored and all(
            r.to_dict()
            == TaskResult(r.id, r.theory, error="duplicate symbol names").to_dict()
            for r in errored
        )
        assert [r.to_dict() for r in full.per_task if r.id in ids] == [
            r.to_dict() for r in without.per_task
        ]
        assert full.errored_tasks == len(errored) and without.errored_tasks == 0
        hits = round(without.instantiation_rate * len(rest))
        assert hits > 0
        assert full.instantiation_rate == hits / len(tasks)
        if kind == "http":
            assert len(stub_server.requests_seen) == 2 * len(rest)


class TestInstantiationRate:
    def test_gold_templates_recover_lemmas(self, four_tasks):
        assert gold_rate(four_tasks) == 1.0

    def test_tight_cap_can_miss(self, distrib_task):
        # with max_results=1 only the times/times filling is produced, which
        # is not the distributivity lemma
        assert gold_rate([distrib_task], Budget(max_results=1)) == 0.0

    def test_empty(self):
        assert gold_rate([]) == 0.0


def _with_symbols_twice(task):
    record = dataclasses.replace(task.record, symbols=task.record.symbols * 2)
    return dataclasses.replace(task, record=record)


class TestSuiteInstantiationRate:
    """`evaluate_suite(..., with_instantiation_rate=True)` reports the rate
    that a suite with an empty proposer gives, through the groups' memos, so
    reusing a proposed template's instantiation does not change the rate."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize(
        "case, rate",
        [
            ("four-tasks", 1.0),
            ("repeated-names", 2 / 3),
            ("tight-cap", 0.0),
            ("empty", 0.0),
            ("gold-never-proposed", 1.0),
        ],
    )
    def test_equals_the_standalone_rate(
        self, four_tasks, lemma_noncommutative, case, rate, workers
    ):
        tasks, budget = four_tasks, None
        proposer = distrib_only_proposer(four_tasks)
        if case == "repeated-names":
            tasks = [four_tasks[0], _with_symbols_twice(four_tasks[1]), four_tasks[2]]
        elif case == "tight-cap":
            tasks, budget = four_tasks[:1], Budget(max_results=1)
        elif case == "empty":
            tasks = []
        elif case == "gold-never-proposed":
            proposer = lambda req: _proposal_set(abstract(lemma_noncommutative))
        report = evaluate_suite(
            tasks, proposer, budget, workers=workers, with_instantiation_rate=True
        )
        assert report.instantiation_rate == gold_rate(tasks, budget) == rate
        assert evaluate_suite(tasks, proposer, budget).instantiation_rate is None

    def test_gold_never_proposed_is_instantiated_once_per_group(
        self, four_tasks, lemma_noncommutative, monkeypatch
    ):
        """Dist and Assoc records list different symbols: two groups of two
        tasks each, and each group instantiates its one gold template once."""
        other = abstract(lemma_noncommutative)
        proposer = lambda req: _proposal_set(other)
        calls = _count_instantiate(monkeypatch)
        report = evaluate_suite(four_tasks, proposer, with_instantiation_rate=True)
        assert report.instantiation_rate == 1.0
        assert report.lemma_success_rate == 0.0
        expected = []
        for task in four_tasks[0], four_tasks[2]:
            names = tuple(e.name for e in task.record.symbols)
            expected += [(other.canonical, names), (task.gold_template.canonical, names)]
        assert calls == expected

    def test_rate_adds_no_instantiation_on_the_synthetic_suite(self, monkeypatch):
        idx = build_index(build_train_datapoints())
        retrieval = lambda req: propose_retrieval(req, idx)
        tasks = _interleaved_heldout_tasks()
        calls = _count_instantiate(monkeypatch)
        without = evaluate_suite(tasks, retrieval)
        n = len(calls)
        with_rate = evaluate_suite(tasks, retrieval, with_instantiation_rate=True)
        assert len(calls) == 2 * n
        assert with_rate.template_match_rate == 1.0
        assert with_rate.to_dict()["per_task"] == without.to_dict()["per_task"]
        calls.clear()
        assert with_rate.instantiation_rate == gold_rate(tasks)
        assert len(calls) == len(tasks)


def _row(tid, theory="T", success=False, match=False, error=None):
    return TaskResult(
        id=tid,
        theory=theory,
        template_exact_match=match,
        lemma_success=success,
        error=error,
    )


def _report(rows):
    return EvalReport(per_task=rows)


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

    def test_carries_the_first_instantiation_rate(self):
        rows = [_row("t1", success=True), _row("t2")]
        a = EvalReport(rows, instantiation_rate=0.5)
        b = EvalReport(rows, instantiation_rate=0.25)
        unset = _report(rows)
        assert combine_reports([a, b]).instantiation_rate == 0.5
        assert combine_reports([unset, a]).instantiation_rate is None
        combined = combine_reports([a, unset])
        assert combined.to_dict()["aggregates"]["instantiation_rate"] == 0.5

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

    def test_commuted_arguments_collapse(self):
        # x + y and y + x are one lemma: its free names carry no meaning.
        x, y = Free("x", INT), Free("y", INT)
        conjs = [_conj(_plus(x, y)), _conj(_plus(y, x))]
        assert dedupe(conjs) == ([conjs[0]], 1)

    def test_idempotent(self):
        a = _plus(Free("p", INT), Free("q", INT))
        b = _plus(Free("u", INT), Free("u", INT))
        kept, removed = dedupe([_conj(a), _conj(b)])
        again, removed_again = dedupe(kept)
        assert again == kept and removed_again == 0

    def test_empty(self):
        assert dedupe([]) == ([], 0)

    def test_non_transitive_triple_matches_reference(self):
        # alpha_equal is not transitive here: g x y ~ g p q and g p q ~ g y x,
        # but g x y !~ g y x.  The three are one lemma, so in any order the
        # first is kept, as pairwise dedupe under lemma_oracle keeps it.
        g = Const("g", fun(INT, fun(INT, INT)))
        x, y, p, q = (Free(n, INT) for n in "xypq")
        triple = [App(App(g, x), y), App(App(g, p), q), App(App(g, y), x)]
        assert len({alpha_key(t) for t in triple}) == 1
        assert not alpha_equal(triple[0], triple[2])
        for order in itertools.permutations(triple):
            conjs = [_conj(t) for t in order]
            assert dedupe(conjs) == dedupe_pairwise(conjs, lemma_oracle)
            assert dedupe(conjs) == ([conjs[0]], 2)

    def test_matches_pairwise_reference_on_random_lists(self):
        rng = random.Random(41)
        removed_total = shared_names_removed = 0
        for _ in range(150):
            bases = [_random_term(rng, 3) for _ in range(rng.randint(1, 12))]
            conjs = [
                _conj(_variant(rng.choice(bases), rng))
                for _ in range(rng.randint(0, 40))
            ]
            got = dedupe(conjs)
            want = dedupe_pairwise(conjs, lemma_oracle)
            assert got[1] == want[1]
            assert [id(c) for c in got[0]] == [id(c) for c in want[0]]
            removed_total += got[1]
            kept = {id(c) for c in got[0]}
            shared_names_removed += sum(
                not any(alpha_equal(c.term, k.term) for k in got[0])
                for c in conjs
                if id(c) not in kept
            )
        # both kinds of duplicate are exercised: renamed apart, and with the
        # shared names permuted (which alpha_equal keeps apart)
        assert removed_total > 100 and shared_names_removed > 20

    def test_equals_the_pairwise_alpha_equal_dedupe_on_canonical_conjectures(self):
        """On conjectures of canonical templates, whose free variables are
        `x1..xn` by first occurrence, the key and `alpha_equal` agree: dedupe
        keeps what pairwise dedupe under `alpha_oracle` keeps."""
        rng = random.Random(53)
        removed_total = 0
        for _ in range(40):
            conjs = []
            for _ in range(rng.randint(1, 3)):
                term, entries = random_lemma_term(rng)
                tpl = abstract(term)
                symbols = [SignatureEntry(n, t) for n, t in entries]
                # the reversed list builds the same conjectures anew, and a
                # cap keeps another share of them
                for pool in symbols, symbols[::-1]:
                    conjs += instantiate(tpl, pool, Budget(max_results=8)).conjectures
            rng.shuffle(conjs)
            got = dedupe(conjs)
            assert got == dedupe_pairwise(conjs)
            removed_total += got[1]
        assert removed_total > 100

    def test_key_agrees_with_alpha_oracle(self):
        rng = random.Random(43)
        positives = 0
        for i in range(600):
            if i % 2:
                a, _ = random_lemma_term(rng)
            else:
                a = _random_term(rng, 3)
            b = _variant(a, rng) if rng.random() < 0.7 else _random_term(rng, 3)
            if alpha_oracle(a, b):
                positives += 1
                assert alpha_key(a) == alpha_key(b)
                assert alpha_equal(a, b)
        assert positives > 200

    def test_distinct_shapes_make_no_comparisons(self, monkeypatch):
        calls = _count_alpha_key(monkeypatch)
        conjs = [_conj(_shape(i)) for i in range(500)]
        kept, removed = dedupe(conjs)
        assert kept == conjs and removed == 0
        assert [id(t) for t in calls] == [id(c.term) for c in conjs]

    def test_each_conjecture_is_keyed_once(self, monkeypatch):
        rng = random.Random(47)
        originals = [_conj(_shape(i)) for i in range(200)]
        conjs = list(originals)
        k = 37
        for _ in range(k):
            i = rng.randrange(len(conjs))
            conjs.insert(rng.randrange(i + 1, len(conjs) + 1),
                         _conj(_rename_frees(conjs[i].term)))
        calls = _count_alpha_key(monkeypatch)
        kept, removed = dedupe(conjs)
        assert removed == k and [id(c) for c in kept] == [id(c) for c in originals]
        assert [id(t) for t in calls] == [id(c.term) for c in conjs]


def _count_alpha_key(monkeypatch):
    """The terms that `evaluation` keys, in call order."""
    calls = []
    real = evaluation.alpha_key

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(evaluation, "alpha_key", counted)
    return calls


def _shape(i):
    """500 pairwise different shapes: 25 constants times 20 nesting depths."""
    f = Const(f"f{i // 20}", fun(INT, INT))
    t = Free("x", INT)
    for _ in range(i % 20 + 1):
        t = App(f, t)
    return t


def _type(rng):
    return random_type(rng, 1, var_names=("a", "b", "c"))


def _random_term(rng, depth, binders=0):
    """A small random term (not necessarily well typed) with constants, free
    and bound variables, holes, binders and type variables."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        leaf = rng.randrange(4)
        if leaf == 0:
            return Const(rng.choice("fgh"), _type(rng))
        if leaf == 1:
            return Free(rng.choice("xyz"), _type(rng))
        if leaf == 2 and binders:
            return Bound(rng.randrange(binders))
        return Hole(rng.randint(1, 2), _type(rng))
    if roll < 0.5:
        return Abs(rng.choice("uv"), _type(rng),
                   _random_term(rng, depth - 1, binders + 1))
    return App(_random_term(rng, depth - 1, binders),
               _random_term(rng, depth - 1, binders))


def _variant(t, rng):
    """t itself, or t with its free names, type-variable names or binder
    names renamed.  Renaming frees into fresh names gives an alpha variant;
    permuting them among themselves usually does not."""
    kind = rng.randrange(5)
    if kind == 0:
        return t
    if kind == 1:
        return _rename_frees(t)
    if kind == 2:
        return _rename(t, {}, dict(zip("abc", rng.sample("pqr", 3))))
    if kind == 3:
        return _rename(t, {}, {})  # binders only: all become "_"
    return _rename(t, dict(zip("xyz", rng.sample("xyz", 3))), {})


def _rename_frees(t):
    return _rename(t, {n: f"{n}_renamed" for n in "xyz"}, {})


def _rename_frees_randomly(t, rng):
    """t with its free names renamed by a random injection into `x1..xn`
    and a few other names, so that shared names are often permuted."""
    names = sorted(free_name_set(t))
    pool = [f"x{i}" for i in range(1, len(names) + 1)] + ["y", "x7", "a"]
    return _rename(t, dict(zip(names, rng.sample(pool, len(names)))), {})


class TestLemmaIdentity:
    """A lemma is its `alpha_key`: equal keys are exactly the lemmas that
    `lemma_oracle` finds equal, and a gold template regenerates its gold
    whatever the gold's free names."""

    def test_key_equality_is_the_lemma_oracle(self):
        rng = random.Random(59)
        same = 0
        for i in range(400):
            if i % 2:
                a, _ = random_lemma_term(rng)
                if rng.random() < 0.7:
                    b = _rename_frees_randomly(a, rng)
                else:
                    b, _ = random_lemma_term(rng)
            else:
                a = _random_term(rng, 3)
                b = _variant(a, rng) if rng.random() < 0.7 else _random_term(rng, 3)
            want = lemma_oracle(a, b)
            assert (alpha_key(a) == alpha_key(b)) == want == lemma_oracle(b, a)
            same += want
        assert 150 < same < 350

    def test_each_gold_template_regenerates_its_gold(self):
        rng = random.Random(61)
        tasks = []
        permuted = 0
        for i in range(150):
            term, entries = random_lemma_term(rng)
            gold = _rename_frees_randomly(term, rng)
            symbols = [SignatureEntry(n, t) for n, t in entries]
            conjs = instantiate(abstract(gold), symbols).conjectures
            hits = [c.term for c in conjs if alpha_key(c.term) == alpha_key(gold)]
            assert hits and all(lemma_oracle(h, gold) for h in hits)
            permuted += not any(alpha_equal(h, gold) for h in hits)
            record = make_record(f"T.l{i}", "T", f"l{i}", gold, Signature(symbols))
            tasks.append(make_task(record))
        assert permuted > 20
        assert gold_rate(tasks) == 1.0

    def test_no_module_calls_alpha_equal(self):
        """`alpha_equal` stays API, but no module of the package reads it
        beyond its definition and its export."""
        package = pathlib.Path(evaluation.__file__).parent
        readers = set()
        for path in package.glob("*.py"):
            if path.name in ("terms.py", "__init__.py"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                names = (
                    [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                    else [getattr(node, "id", None), getattr(node, "attr", None)]
                )
                if "alpha_equal" in names:
                    readers.add(path.name)
        assert readers == set()


class TestCategorize:
    def _interp(self):
        return InterpretedSignature(
            sorts=[IntModSort("int", 101)],
            symbols=[SignatureEntry(name, fun(INT, fun(INT, INT))) for name in ("plus", "minus")],
            functions={
                "plus": lambda a, b: (a + b) % 101,
                "minus": lambda a, b: (a - b) % 101,
            },
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

    def test_symbol_that_raises_is_unknown(self):
        pow_ = SignatureEntry("pow", fun(INT, fun(INT, INT)))
        interp = InterpretedSignature(
            [IntRangeSort("int", -2, 2)], [pow_], {"pow": lambda a, b: a ** b}
        )
        term = App(App(Const("pow", pow_.type), Free("x1", INT)), Free("x2", INT))
        labels, _ = categorize([_conj(_eq(term, term))], self._assoc("plus"), interp)
        assert labels == [CATEGORY_UNKNOWN]

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
