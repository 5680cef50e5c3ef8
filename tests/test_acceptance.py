"""End-to-end acceptance suite.

Each test pins one external contract of the package: golden octonion
abstraction/instantiation, the abstract->instantiate round trip, oracle
agreement for alpha equivalence and unification, retrieval quality on a
synthetic multi-theory corpus, the enumerative baseline's law set, false
conjecture detection, CLI determinism, and budget behavior.
"""

import json
import random
import time

import pytest

from lemmakit.cli import main
from lemmakit.corpus import load_records, make_datapoint, make_record, save_records
from lemmakit.evaluation import (
    CATEGORY_FALSE,
    categorize,
    evaluate_suite,
    make_task,
)
from lemmakit.instantiation import Assignment, Budget, Conjecture, instantiate
from lemmakit.proposer import (
    Proposal,
    ProposalSet,
    build_index,
    propose_retrieval,
)
from lemmakit.quickspec import (
    IntListSort,
    IntModSort,
    IntRangeSort,
    InterpretedSignature,
    emit_laws,
    enumerate_terms,
    pretty_law,
    reverify_laws,
)
from lemmakit.quickspec import Law, baseline_precision, law_to_equation
from lemmakit.quickspec import test_partition as partition_by_testing
from lemmakit.templates import abstract, parse_template, pretty_template
from lemmakit.terms import (
    App,
    Const,
    Free,
    SignatureEntry,
    TCon,
    TVar,
    UnificationError,
    alpha_equal,
    apply_type_subst,
    fun,
    render_type,
    typecheck,
    unify_types,
)

from oracles import (
    alpha_oracle,
    free_name_set,
    is_instance_of,
    random_lemma_term,
    random_type,
    term_size,
    type_size,
    unifiable_oracle,
)
from synthetic import build_synthetic_corpus, build_train_datapoints

OCTO = TCon("Octonions.octo")
REAL = TCon("Real.real")
BOOL = TCon("HOL.bool")
INT = TCon("int")


def _binop_assoc(name, ty):
    """x1 op (x2 op x3) = (x1 op x2) op x3 at element type ty."""
    op = Const(name, fun(ty, fun(ty, ty)))
    x1, x2, x3 = Free("x1", ty), Free("x2", ty), Free("x3", ty)
    lhs = App(App(op, x1), App(App(op, x2), x3))
    rhs = App(App(op, App(App(op, x1), x2)), x3)
    eq = Const("HOL.eq", fun(ty, fun(ty, BOOL)))
    return App(App(eq, lhs), rhs)


# ---------------------------------------------------------------------------
# 1. Octonion instantiation golden test


def test_1_octonion_candidate_instantiation(lemma_assoc_plus, candidate_symbols):
    start = time.monotonic()
    tpl = abstract(lemma_assoc_plus)
    res = instantiate(tpl, candidate_symbols)
    elapsed = time.monotonic() - start

    assert elapsed < 1.0
    assert not res.timed_out and not res.capped
    fillers = sorted(dict(c.assignment.mapping)[1] for c in res.conjectures)
    assert fillers == [
        "Groups.minus",
        "Groups.plus",
        "List.append",
        "Power.power",
    ]
    lst = TCon("List.list", (TVar("e"),))
    expected = [
        _binop_assoc("Groups.plus", REAL),
        _binop_assoc("Groups.minus", REAL),
        _binop_assoc("Power.power", REAL),
        _binop_assoc("List.append", lst),
    ]
    for want in expected:
        assert sum(alpha_equal(c.term, want) for c in res.conjectures) == 1


# ---------------------------------------------------------------------------
# 2. Abstraction golden test: canonical bytes and printed equations

H1_BIN = '(hole 1 (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a0"))))'
H2_BIN = '(hole 2 (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a0"))))'
EQ_A0 = '(const "HOL.eq" (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a1"))))'
X1, X2, X3 = (f'(free "x{i}" (tv "a0"))' for i in (1, 2, 3))

ASSOC_CANONICAL = (
    f"(app (app {EQ_A0} (app (app {H1_BIN} {X1}) (app (app {H1_BIN} {X2}) {X3})))"
    f" (app (app {H1_BIN} (app (app {H1_BIN} {X1}) {X2})) {X3}))"
)

DISTRIB_CANONICAL = (
    f"(app (app {EQ_A0} (app (app {H1_BIN} {X1}) (app (app {H2_BIN} {X2}) {X3})))"
    f" (app (app {H2_BIN} (app (app {H1_BIN} {X1}) {X2}))"
    f" (app (app {H1_BIN} {X1}) {X3})))"
)

_H1_NC = '(hole 1 (tc "fun" (tv "a1") (tc "fun" (tv "a1") (tv "a1"))))'
_ALL = '(const "HOL.All" (tc "fun" (tc "fun" (tv "a1") (tv "a0")) (tv "a0")))'
_EQ_NC = '(const "HOL.eq" (tc "fun" (tv "a1") (tc "fun" (tv "a1") (tv "a0"))))'

NONCOMM_CANONICAL = (
    '(app (const "HOL.Not" (tc "fun" (tv "a0") (tv "a0")))'
    f' (app {_ALL} (abs "y0" (tv "a1")'
    f' (app {_ALL} (abs "y1" (tv "a1")'
    f" (app (app {_EQ_NC} (app (app {_H1_NC} (bound 1)) (bound 0)))"
    f" (app (app {_H1_NC} (bound 0)) (bound 1))))))))"
)


def test_2_abstraction_golden(
    lemma_noncommutative, lemma_distrib_left, lemma_assoc_plus
):
    noncomm = abstract(lemma_noncommutative)
    distrib = abstract(lemma_distrib_left)
    assoc = abstract(lemma_assoc_plus)

    assert pretty_template(noncomm) == "¬(∀y0. ∀y1. (?H1 y0 y1) = (?H1 y1 y0))"
    assert pretty_template(distrib) == (
        "(?H1 x1 (?H2 x2 x3)) = (?H2 (?H1 x1 x2) (?H1 x1 x3))"
    )
    assert pretty_template(assoc) == "(?H1 x1 (?H1 x2 x3)) = (?H1 (?H1 x1 x2) x3)"

    assert noncomm.canonical == NONCOMM_CANONICAL
    assert distrib.canonical == DISTRIB_CANONICAL
    assert assoc.canonical == ASSOC_CANONICAL
    # canonical strings parse back to the same templates
    for tpl in (noncomm, distrib, assoc):
        assert parse_template(tpl.canonical) == tpl


# ---------------------------------------------------------------------------
# 3. Abstract -> instantiate round trip on generated lemmas


def test_3_round_trip_1000():
    rng = random.Random(2026)
    for i in range(1000):
        term, entries = random_lemma_term(rng)
        tpl = abstract(term)
        symbols = [SignatureEntry(n, t, None) for n, t in entries]
        res = instantiate(tpl, symbols)
        assert any(
            alpha_equal(c.term, term) for c in res.conjectures
        ), f"round trip failed at iteration {i}"


# ---------------------------------------------------------------------------
# 4. Alpha-equivalence agreement with the bijection oracle


def _rename_frees(term, rng):
    from oracles import _rename

    names = sorted(free_name_set(term))
    fresh = [f"w{rng.randrange(10**6)}_{i}" for i in range(len(names))]
    return _rename(term, dict(zip(names, fresh)), {})


def test_4_alpha_oracle_500_pairs():
    rng = random.Random(17)
    pairs = []
    while len(pairs) < 500:
        a, _ = random_lemma_term(rng)
        if len(free_name_set(a)) > 4:
            continue
        kind = rng.randrange(3)
        if kind == 0:
            b = _rename_frees(a, rng)
        elif kind == 1:
            b, _ = random_lemma_term(rng)
            if len(free_name_set(b)) > 4:
                continue
        else:
            # swap the equation's sides
            eqc, lhs = a.fn.fn, a.fn.arg
            b = App(App(eqc, a.arg), lhs)
        pairs.append((a, b))
    agreements = positives = 0
    for a, b in pairs:
        got = alpha_equal(a, b)
        assert got == alpha_oracle(a, b)
        agreements += 1
        positives += got
    assert agreements == 500
    assert 0 < positives < 500  # both outcomes exercised


# ---------------------------------------------------------------------------
# 5. Unification soundness, idempotence and oracle agreement


def test_5_unification_1000_pairs():
    rng = random.Random(23)
    checked = oracle_checked = unified = 0
    while checked < 1000:
        a = random_type(rng, rng.randint(0, 3), var_names=("u", "v", "w"))
        b = random_type(rng, rng.randint(0, 3), var_names=("u", "v", "w"))
        if type_size(a) > 8 or type_size(b) > 8:
            continue
        checked += 1
        try:
            s = unify_types(a, b)
        except UnificationError:
            s = None
        if s is not None:
            unified += 1
            ra, rb = apply_type_subst(s, a), apply_type_subst(s, b)
            assert ra == rb  # the substitution unifies its arguments
            assert apply_type_subst(s, ra) == ra  # and is idempotent
        from lemmakit.terms import type_vars

        if len(set(type_vars(a)) | set(type_vars(b))) <= 2:
            oracle_checked += 1
            assert (s is not None) == unifiable_oracle(a, b)
    assert checked == 1000
    assert unified > 0 and oracle_checked > 100


# ---------------------------------------------------------------------------
# 6. Retrieval end-to-end on the synthetic corpus


def test_6_retrieval_beats_uniform_random():
    idx = build_index(build_train_datapoints())
    _, heldout = build_synthetic_corpus()
    tasks = [make_task(r) for r in heldout]
    assert len(idx.counts) == 30
    assert len({r.theory for r in heldout}) == 20

    retrieval = lambda req: propose_retrieval(req, idx)
    report = evaluate_suite(tasks, retrieval)
    assert report.lemma_success_rate >= 0.90

    all_templates = sorted(idx.counts)
    rng = random.Random(99)

    def uniform_random(req):
        picks = rng.sample(all_templates, req.k)
        return ProposalSet(
            [Proposal(parse_template(c), 1.0 / req.k, "random") for c in picks]
        )

    random_report = evaluate_suite(tasks, uniform_random)
    assert report.lemma_success_rate > random_report.lemma_success_rate


# ---------------------------------------------------------------------------
# 7. Enumerative baseline on the interpreted list signature

LIST_T = TCon("list")


def _list_signature():
    return InterpretedSignature(
        sorts=[IntListSort("list", 5, 10), IntRangeSort("int", 0, 25)],
        symbols=[
            SignatureEntry("append", fun(LIST_T, fun(LIST_T, LIST_T))),
            SignatureEntry("rev", fun(LIST_T, LIST_T)),
            SignatureEntry("len", fun(LIST_T, INT)),
            SignatureEntry("plus", fun(INT, fun(INT, INT))),
            SignatureEntry("zero", INT),
        ],
        functions={
            "append": lambda a, b: a + b,
            "rev": lambda a: tuple(reversed(a)),
            "len": lambda a: len(a),
            "plus": lambda a, b: a + b,
            "zero": 0,
        },
        vars_per_sort=3,
        infix={"append": "@", "plus": "+"},
    )


def test_7_quickspec_list_laws_and_precision():
    sig = _list_signature()
    start = time.monotonic()
    terms = enumerate_terms(sig, 7)
    classes = partition_by_testing(terms, sig, 400, seed=0)
    laws = emit_laws(classes)
    reverified = reverify_laws(laws, sig, 400, seed=0)
    elapsed = time.monotonic() - start

    assert elapsed < 120.0
    assert reverified == laws  # every law survives re-verification
    rendered = {pretty_law(l, sig) for l in laws}

    def found(*variants):
        return any(v in rendered for v in variants)

    assert found(
        "x1 @ (x2 @ x3) = (x1 @ x2) @ x3",
        "(x1 @ x2) @ x3 = x1 @ (x2 @ x3)",
    )
    assert found("rev (rev x1) = x1")
    assert found(
        "(len x1) + (len x2) = len (x1 @ x2)",
        "len (x1 @ x2) = (len x1) + (len x2)",
    )
    for i, law in enumerate(laws):
        assert not any(is_instance_of(law, earlier) for earlier in laws[:i])

    # precision arithmetic on a canned fixture: 9 of 18 emitted in gold -> 50%
    p = Const("plus", fun(INT, fun(INT, INT)))
    fixture = []
    for i in range(18):
        lhs = App(App(p, Free("x1", INT)), Const(f"c{i}", INT))
        fixture.append(Law(lhs, Free("x1", INT), term_size(lhs) + 1))
    gold = [law_to_equation(l) for l in fixture[:9]]
    stats = baseline_precision(fixture, gold)
    assert stats == {"emitted": 18, "matched_gold": 9, "precision": 0.5}


# ---------------------------------------------------------------------------
# 8. False-conjecture detection mod 101


def test_8_false_by_testing_mod_101():
    interp = InterpretedSignature(
        sorts=[IntModSort("int", 101)],
        symbols=[
            SignatureEntry(name, fun(INT, fun(INT, INT)))
            for name in ("Demo.minus", "Demo.power", "Demo.plus")
        ],
        functions={
            "Demo.minus": lambda a, b: (a - b) % 101,
            "Demo.power": lambda a, b: pow(a, b, 101),
            "Demo.plus": lambda a, b: (a + b) % 101,
        },
        vars_per_sort=3,
    )

    def flipped_assoc(name):
        # (x1 op x2) op x3 = x1 op (x2 op x3)
        op = Const(name, fun(INT, fun(INT, INT)))
        x1, x2, x3 = (Free(f"x{i}", INT) for i in (1, 2, 3))
        lhs = App(App(op, App(App(op, x1), x2)), x3)
        rhs = App(App(op, x1), App(App(op, x2), x3))
        eq = Const("HOL.eq", fun(INT, fun(INT, BOOL)))
        return App(App(eq, lhs), rhs)

    gold = flipped_assoc("Demo.plus")
    conjectures = [
        Conjecture(flipped_assoc("Demo.minus"), "tpl", Assignment(())),
        Conjecture(flipped_assoc("Demo.power"), "tpl", Assignment(())),
    ]
    labels, counts = categorize(conjectures, gold, interp, tests=400, seed=0)
    assert labels == [CATEGORY_FALSE, CATEGORY_FALSE]
    assert counts[CATEGORY_FALSE] == 2


# ---------------------------------------------------------------------------
# 9. CLI determinism


def _run_twice(argv, out_paths):
    """Run a CLI invocation twice; return the two sets of output bytes."""
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(tuple(p.read_bytes() for p in out_paths))
    return outputs


def test_9_cli_determinism(
    tmp_path,
    stub_server,
    monkeypatch,
    lemma_distrib_left,
    lemma_assoc_plus,
    octo_signature,
):
    records = [
        make_record("Octonions.d0", "Octonions", "distrib", lemma_distrib_left,
                    octo_signature),
        make_record("Octonions.a0", "Octonions", "assoc", lemma_assoc_plus,
                    octo_signature),
    ]
    corpus = tmp_path / "corpus.jsonl"
    save_records(corpus, records)

    binop = fun(OCTO, fun(OCTO, OCTO))
    symbols = tmp_path / "symbols.json"
    symbols.write_text(
        json.dumps(
            [
                {"name": "Octonions.octo_plus", "type": render_type(binop)},
                {"name": "Octonions.octo_times", "type": render_type(binop)},
            ]
        )
    )
    templates = tmp_path / "templates.txt"
    templates.write_text(
        abstract(lemma_distrib_left).canonical
        + "\n"
        + abstract(lemma_assoc_plus).canonical
        + "\n"
    )
    index_path = tmp_path / "index.jsonl"
    build_index(
        [make_datapoint(r, "types", "template") for r in load_records(corpus)]
    ).save(index_path)

    out = tmp_path / "out.bin"
    cases = [
        ["abstract", str(corpus), "-o", str(out)],
        [
            "conjecture", str(symbols), "--proposer", "fixed",
            "--templates", str(templates), "-o", str(out),
        ],
        [
            "eval", str(corpus), "--proposer", "fixed",
            "--templates", str(templates), "--instantiation-rate",
            "--report", str(out),
        ],
        [
            "instantiate", str(symbols),
            "--template", abstract(lemma_assoc_plus).canonical,
            "-o", str(out),
        ],
        ["propose", str(symbols), "--index", str(index_path), "-o", str(out)],
    ]
    for argv in cases:
        first, second = _run_twice(argv, [out])
        assert first == second, f"non-deterministic output for {argv[0]}"

    # dataset: directory outputs compared file by file
    corpus10 = tmp_path / "many.jsonl"
    from lemmakit.terms import Signature

    sig = Signature([SignatureEntry("X.f", binop, None)])
    f = Const("X.f", binop)
    a, b = Free("a", OCTO), Free("b", OCTO)
    eq = Const("HOL.eq", fun(OCTO, fun(OCTO, BOOL)))
    term = App(App(eq, App(App(f, a), b)), a)
    save_records(
        corpus10,
        [
            make_record(f"T{t}.l0", f"T{t}", "l0", term, sig)
            for t in range(10)
        ],
    )
    dirs = [tmp_path / "ds1", tmp_path / "ds2"]
    for d in dirs:
        assert main(["dataset", str(corpus10), "--outdir", str(d)]) == 0
    for name in ("train", "val", "test"):
        assert (dirs[0] / f"{name}.jsonl").read_bytes() == (
            dirs[1] / f"{name}.jsonl"
        ).read_bytes()

    # quickspec twice
    qs_sig = tmp_path / "qs.json"
    qs_sig.write_text(
        json.dumps(
            {
                "sorts": [{"name": "int", "mod": 5}],
                "symbols": [
                    {
                        "name": "plus",
                        "type": render_type(fun(INT, fun(INT, INT))),
                        "builtin": "int_add",
                        "infix": "+",
                    },
                    {"name": "zero", "type": render_type(INT), "value": 0},
                ],
                "vars_per_sort": 2,
            }
        )
    )
    first, second = _run_twice(
        ["quickspec", str(qs_sig), "--max-size", "4", "-o", str(out)], [out]
    )
    assert first == second

    # stubbed HTTP proposer twice
    stub_server.completions = [abstract(lemma_assoc_plus).canonical]
    monkeypatch.setenv("LEMMAKIT_LLM_URL", stub_server.url)
    monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
    first, second = _run_twice(
        ["propose", str(symbols), "--proposer", "http", "-o", str(out)], [out]
    )
    assert first == second

    # eval report identical for 1 and 8 workers
    reports = []
    for i, workers in enumerate(("1", "8")):
        rp = tmp_path / f"workers{i}.json"
        assert main(
            [
                "eval", str(corpus), "--proposer", "fixed",
                "--templates", str(templates), "--workers", workers,
                "--report", str(rp),
            ]
        ) == 0
        reports.append(rp.read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# 10. Budget behavior on a huge search space


def test_10_timeout_budget():
    s = TCon("Big.s")
    holes = [Const(f"Big.h{i}", fun(s, fun(s, s))) for i in range(4)]
    x1, x2, x3 = Free("p", s), Free("q", s), Free("r", s)
    lhs = App(App(holes[0], x1), App(App(holes[1], x2), x3))
    rhs = App(App(holes[2], App(App(holes[3], x1), x2)), x3)
    eq = Const("HOL.eq", fun(s, fun(s, BOOL)))
    tpl = abstract(App(App(eq, lhs), rhs))

    candidates = [
        SignatureEntry(f"Big.f{i}", fun(OCTO, fun(OCTO, OCTO)), None)
        for i in range(40)
    ]
    assert len(candidates) ** tpl.hole_count >= 10**6

    start = time.monotonic()
    res = instantiate(tpl, candidates, Budget(timeout_millis=1, max_results=10**9))
    elapsed = time.monotonic() - start

    assert res.timed_out
    assert elapsed < 0.001 + 0.100  # within 100 ms of the 1 ms deadline
    for c in res.conjectures:  # partial results are well typed
        typecheck(c.term)
