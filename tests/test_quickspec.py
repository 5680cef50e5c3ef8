import collections
import copy
import itertools
import json
import random
import re

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from lemmakit import quickspec
from lemmakit.cli import main
from lemmakit.quickspec import (
    BoolSort,
    IntListSort,
    IntModSort,
    IntRangeSort,
    InterpretedSignature,
    Law,
    NotTestable,
    Universe,
    baseline_precision,
    candidate_laws,
    emit_laws,
    enumerate_terms,
    evaluate_columns,
    find_counterexample,
    law_to_equation,
    load_interpreted_signature,
    make_valuations,
    pretty_interp_term,
    pretty_law,
    reverify_laws,
)
from lemmakit.quickspec import test_partition as partition_by_testing
from lemmakit.terms import (
    Abs,
    App,
    Bound,
    Const,
    Free,
    Hole,
    LemmakitError,
    SignatureEntry,
    TCon,
    TVar,
    base_scheme,
    fun,
    render_term,
    render_type,
    strip_spine,
    subterms,
)
from oracles import (
    congruence_oracle,
    is_instance_of,
    naive_functions,
    naive_value,
    partition_oracle,
    term_size,
)
from strategies import quickspec_signatures

INT = TCon("int")


def value_at(t, sig, valuation):
    """The value of a testable term under one valuation, by `evaluate_columns`."""
    return evaluate_columns([t], sig, [valuation])[0][0]


def terms_of(universe):
    """The terms of a universe's members, in order."""
    return [universe.term(n) for n in universe.members]


PLUS = SignatureEntry("plus", fun(INT, fun(INT, INT)))
ZERO = SignatureEntry("zero", INT)
TIMES = SignatureEntry("times", fun(INT, fun(INT, INT)))
# The functions of the three symbols above, on integers mod 5, and how they print.
INT_MOD_FUNCTIONS = {"plus": lambda a, b: (a + b) % 5, "zero": 0, "times": lambda a, b: a * b % 5}
INT_MOD_INFIX = {"plus": "+", "times": "*"}


def int_mod_sig(symbols, mod=5, vars_per_sort=2, functions=None):
    """symbols over one mod sort, with INT_MOD_FUNCTIONS and `functions`."""
    return InterpretedSignature(
        sorts=[IntModSort("int", mod)],
        symbols=symbols,
        functions={**INT_MOD_FUNCTIONS, **(functions or {})},
        vars_per_sort=vars_per_sort,
        infix=INT_MOD_INFIX,
    )


HOL_BOOL = TCon("HOL.bool")
LOGIC_NAMES = ("HOL.eq", "HOL.Not", "HOL.conj", "HOL.disj", "HOL.implies", "HOL.True", "HOL.False")


def _eq(lhs, rhs):
    return App(App(Const("HOL.eq", fun(INT, fun(INT, HOL_BOOL))), lhs), rhs)


def _apply(head, args):
    for a in args:
        head = App(head, a)
    return head


def _wrong_arities(name):
    """One argument more than the logical constant takes, and one fewer."""
    n = 0
    ty = base_scheme(name)
    while isinstance(ty, TCon) and ty.name == "fun":
        n, ty = n + 1, ty.args[1]
    return [n + 1] + ([n - 1] if n else [])


class TestEnumerate:
    def test_size_one(self):
        sig = int_mod_sig([PLUS, ZERO])
        got = terms_of(enumerate_terms(sig, 1))
        assert [str(t) for t in got] == [
            str(Free("x1", INT)),
            str(Free("x2", INT)),
            str(Const("zero", ZERO.type)),
        ]

    def test_size_three_adds_all_sums(self):
        sig = int_mod_sig([PLUS, ZERO])
        small = set(map(str, terms_of(enumerate_terms(sig, 1))))
        bigger = terms_of(enumerate_terms(sig, 3))
        atoms = [Free("x1", INT), Free("x2", INT), Const("zero", ZERO.type)]
        expected_new = {
            str(App(App(Const("plus", PLUS.type), a), b))
            for a in atoms
            for b in atoms
        }
        got_new = {str(t) for t in bigger} - small
        assert got_new == expected_new

    def test_monotone_in_max_size(self):
        sig = int_mod_sig([PLUS, ZERO])
        counts = [len(enumerate_terms(sig, n)) for n in range(1, 6)]
        assert counts == sorted(counts)

    def test_exhaustive_and_duplicate_free(self):
        sig = int_mod_sig([PLUS, ZERO])
        for max_size in range(1, 5):
            got = terms_of(enumerate_terms(sig, max_size))
            rendered = [str(t) for t in got]
            assert len(rendered) == len(set(rendered))
            oracle = _enumerate_oracle(sig, max_size)
            assert set(rendered) == set(map(str, oracle))

    def test_sizes_ordered(self):
        sig = int_mod_sig([PLUS, ZERO])
        sizes = [term_size(t) for t in terms_of(enumerate_terms(sig, 4))]
        assert sizes == sorted(sizes)


def _enumerate_oracle(sig, max_size):
    """Brute force: all application spines over atoms, filtered by size."""
    atoms = [Free("x1", INT), Free("x2", INT), Const("zero", ZERO.type)]
    by_size = {1: list(atoms)}
    for size in range(2, max_size + 1):
        found = []
        for s1 in range(1, size - 1 + 1):
            s2 = size - 1 - s1
            if s2 < 1:
                continue
            for a in by_size.get(s1, []):
                for b in by_size.get(s2, []):
                    found.append(App(App(Const("plus", PLUS.type), a), b))
        by_size[size] = found
    out = []
    for size in range(1, max_size + 1):
        out.extend(by_size.get(size, []))
    return out


class TestPartition:
    def test_commutativity_merges(self):
        sig = int_mod_sig([PLUS, ZERO])
        x1, x2 = Free("x1", INT), Free("x2", INT)
        p = Const("plus", PLUS.type)
        t1, t2 = App(App(p, x1), x2), App(App(p, x2), x1)
        classes = partition_by_testing(Universe([t1, t2]), sig, 100, 0)
        assert len(classes) == 1

    def test_identity_merges_and_distinct_split(self):
        sig = int_mod_sig([PLUS, ZERO])
        x1, x2 = Free("x1", INT), Free("x2", INT)
        p, z = Const("plus", PLUS.type), Const("zero", ZERO.type)
        universe = Universe([App(App(p, x1), z), x1, x2])
        classes = partition_by_testing(universe, sig, 100, 0)
        assert len(classes) == 2
        assert [universe.term(n) for n in classes[0]] == [App(App(p, x1), z), x1]

    def test_refinement_under_more_tests(self):
        sig = int_mod_sig([PLUS, ZERO])
        universe = enumerate_terms(sig, 4)
        coarse = partition_by_testing(universe, sig, 10, seed=3)
        fine = partition_by_testing(universe, sig, 400, seed=3)
        coarse_of = {}
        for i, cls in enumerate(coarse):
            for n in cls:
                coarse_of[n] = i
        for cls in fine:
            assert len({coarse_of[n] for n in cls}) == 1

    def test_deterministic(self):
        sig = int_mod_sig([PLUS, ZERO])
        universe = enumerate_terms(sig, 4)
        a = partition_by_testing(universe, sig, 50, seed=9)
        b = partition_by_testing(universe, sig, 50, seed=9)
        shown = lambda classes: [[str(universe.term(n)) for n in c] for c in classes]
        assert shown(a) == shown(b)

    def test_unshared_copies_partition_alike(self):
        # Enumerated terms share their subterm objects; separately copied
        # terms share none, so every subterm is hash-consed from scratch.
        sig = int_mod_sig([PLUS, ZERO])
        universe = enumerate_terms(sig, 5)
        terms = terms_of(universe)
        copies = Universe([copy.deepcopy(t) for t in terms])
        node_ids = lambda ts: {id(s) for t in ts for s in subterms(t)}
        assert not node_ids(terms) & node_ids(terms_of(copies))
        shared = partition_by_testing(universe, sig, 60, seed=4)
        unshared = partition_by_testing(copies, sig, 60, seed=4)
        assert [[str(copies.term(n)) for n in c] for c in unshared] == [
            [str(universe.term(n)) for n in c] for c in shared
        ]


class TestEvaluator:
    def test_hole_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable):
            value_at(Hole(0, INT), sig, {})
        with pytest.raises(NotTestable):
            plus_hole = App(Const("plus", PLUS.type), Hole(0, INT))
            value_at(App(plus_hole, Free("x1", INT)), sig, {"x1": 1})

    def test_applied_variable_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        f = Free("f", fun(INT, INT))
        with pytest.raises(NotTestable):
            value_at(App(f, Free("x1", INT)), sig, {"f": 0, "x1": 1})

    def test_partial_application_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable):
            plus_x1 = App(Const("plus", PLUS.type), Free("x1", INT))
            value_at(plus_x1, sig, {"x1": 1})

    def test_missing_value_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable):
            value_at(Free("x1", INT), sig, {"x2": 1})
        # missing from one valuation of many is enough
        with pytest.raises(NotTestable):
            evaluate_columns([Free("x1", INT)], sig, [{"x1": 0}, {"x2": 1}])

    def test_logical_constant_arity_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        bool_t = TCon("HOL.bool")
        with pytest.raises(NotTestable):
            true_x1 = App(Const("HOL.True", fun(INT, bool_t)), Free("x1", INT))
            value_at(true_x1, sig, {"x1": 1})
        eq = Const("HOL.eq", fun(INT, fun(INT, bool_t)))
        with pytest.raises(NotTestable):
            value_at(eq, sig, {})
        with pytest.raises(NotTestable):
            find_counterexample(App(eq, Free("x1", INT)), sig, 10, 0)

    @pytest.mark.parametrize(
        "term, message",
        [
            (_eq(Free("x1", TVar("int")), Free("x1", TVar("int"))),
             "variable 'x1' has no samplable sort"),
            (_eq(App(Free("f", fun(INT, INT)), Free("x1", INT)), Free("x1", INT)),
             "variable 'f' has no samplable sort"),
            (_eq(Free("f", fun(INT, INT)), Free("f", fun(INT, INT))),
             "variable 'f' has no samplable sort"),
            (_eq(
                App(Abs("y", INT, App(App(Const("plus", PLUS.type), Bound(0)), Hole(1, INT))),
                    Free("x1", INT)),
                Free("x1", INT),
            ), "untestable head node Abs"),
            *(
                (_eq(_apply(Const(name, HOL_BOOL), [Free("x1", INT)] * n), Free("x1", INT)),
                 f"symbol '{name}' applied to {n} arguments")
                for name in LOGIC_NAMES
                for n in _wrong_arities(name)
            ),
        ],
        ids=[
            "type-variable-named-like-a-sort",
            "applied-function-variable",
            "function-variable",
            "hole-under-a-binder",
            *(f"{name}-{n}-args" for name in LOGIC_NAMES for n in _wrong_arities(name)),
        ],
    )
    def test_find_counterexample_refuses_what_it_cannot_test(self, term, message):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable, match=f"^{re.escape(message)}$"):
            find_counterexample(term, sig, 10, 0)
        with pytest.raises(NotTestable, match=f"^{re.escape(message)}$"):
            reverify_laws([Law(lhs=term, rhs=term, size=2)], sig, 10, 0)

    def test_symbol_that_raises_is_not_testable(self):
        pow_ = SignatureEntry("pow", fun(INT, fun(INT, INT)))
        sig = InterpretedSignature(
            [IntRangeSort("int", -2, 2)], [pow_], {"pow": lambda a, b: a ** b}
        )
        x1, x2 = Free("x1", INT), Free("x2", INT)
        term = App(App(Const("pow", pow_.type), x1), x2)
        with pytest.raises(NotTestable, match="symbol 'pow' raised ZeroDivisionError"):
            find_counterexample(_eq(term, term), sig, 50, 0)
        with pytest.raises(NotTestable, match="symbol 'pow'"):
            partition_by_testing(enumerate_terms(sig, 3), sig, 50, 0)

    def test_symbol_cannot_shadow_a_logical_constant(self):
        minus = SignatureEntry("minus", fun(INT, fun(INT, INT)))
        functions = {"minus": lambda a, b: (a - b) % 5}
        x1, x2 = Free("x1", INT), Free("x2", INT)
        sub = lambda a, b: App(App(Const("minus", minus.type), a), b)
        claim = _eq(sub(x1, x2), sub(x2, x1))
        cex = find_counterexample(claim, int_mod_sig([minus], functions=functions), 400, 0)
        assert cex == {"x1": 0, "x2": 2}
        for name in LOGIC_NAMES:
            plus = SignatureEntry(name, fun(INT, fun(INT, INT)))
            with pytest.raises(ValueError, match=f"symbol '{name}' shadows a logical constant"):
                int_mod_sig(
                    [minus, plus], functions={**functions, name: lambda a, b: (a + b) % 5}
                )

    def test_columns_follow_valuation_order(self):
        sig = int_mod_sig([PLUS, ZERO])
        x1, x2 = Free("x1", INT), Free("x2", INT)
        t = App(App(Const("plus", PLUS.type), x1), x2)
        vals = [{"x1": a, "x2": b} for a, b in itertools.product(range(5), repeat=2)]
        cols = evaluate_columns([t, x1], sig, vals)
        assert cols[0] == [(v["x1"] + v["x2"]) % 5 for v in vals]
        assert cols[1] == [v["x1"] for v in vals]
        assert [value_at(t, sig, v) for v in vals] == cols[0]


class TestEmitLaws:
    def _laws(self, max_size=5):
        sig = int_mod_sig([PLUS, ZERO])
        universe = enumerate_terms(sig, max_size)
        classes = partition_by_testing(universe, sig, 400, 0)
        return sig, emit_laws(universe, classes)

    def test_identity_and_commutativity_found(self):
        sig, laws = self._laws()
        rendered = {pretty_law(l, sig) for l in laws}
        assert "x1 + zero = x1" in rendered or "zero + x1 = x1" in rendered
        assert "x2 + x1 = x1 + x2" in rendered or "x1 + x2 = x2 + x1" in rendered

    def test_no_law_is_instance_of_earlier(self):
        _, laws = self._laws()
        for i, law in enumerate(laws):
            assert not any(is_instance_of(law, e) for e in laws[:i])

    def test_all_pass_reverification(self):
        sig, laws = self._laws()
        assert reverify_laws(laws, sig, 400, 0) == laws

    def test_empty_classes(self):
        assert emit_laws(Universe(), []) == []

    def test_reverify_draws_valuations_once_per_variable_set(self, monkeypatch):
        # Two tests per class merge many unequal terms, so some laws fail.
        sig = int_mod_sig([PLUS, ZERO, TIMES], vars_per_sort=3)
        universe = enumerate_terms(sig, 5)
        laws = candidate_laws(universe, partition_by_testing(universe, sig, 2, 1))
        want = [
            l for l in laws
            if find_counterexample(law_to_equation(l), sig, 200, 7) is None
        ]
        variable_sets = {
            tuple(sorted({s for s in subterms(law_to_equation(l))
                          if isinstance(s, Free)}, key=lambda f: f.name))
            for l in laws
        }
        calls = []
        real = quickspec.make_valuations

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(quickspec, "make_valuations", counted)
        got = reverify_laws(laws, sig, 200, 7)
        assert got == want and 0 < len(got) < len(laws)
        assert len(calls) == len(variable_sets) < len(laws)

    def test_instance_pruning_example(self):
        # x1 + x2 = x2 + x1 subsumes x1 + zero = zero + x1
        p = Const("plus", PLUS.type)
        x1, x2, z = Free("x1", INT), Free("x2", INT), Const("zero", ZERO.type)
        general = Law(App(App(p, x2), x1), App(App(p, x1), x2), 6)
        inst = Law(App(App(p, z), x1), App(App(p, x1), z), 6)
        assert is_instance_of(inst, general)
        assert not is_instance_of(general, inst)


LIST_T = TCon("list")


def list_sig():
    """The list signature of the quickspec acceptance test."""
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


def mixed_sig():
    """Two sorts with tiny domains: one test merges variables with each other
    and with constants, so laws with a bare variable side are kept."""
    return InterpretedSignature(
        sorts=[IntModSort("int", 2), IntListSort("list", 2, 2)],
        symbols=[
            PLUS, ZERO,
            SignatureEntry("len", fun(LIST_T, INT)),
            SignatureEntry("append", fun(LIST_T, fun(LIST_T, LIST_T))),
        ],
        functions={
            **INT_MOD_FUNCTIONS,
            "len": lambda a: len(a) % 2,
            "append": lambda a, b: a + b,
        },
        vars_per_sort=2,
        infix={**INT_MOD_INFIX, "append": "@"},
    )


# (signature, max size, tests): few tests merge unequal terms, so false laws
# are pruned as well as true ones.
CONGRUENCE_CASES = {
    "mixed-4-one-test": (mixed_sig, 4, 1),
    "intmod-3": (lambda: int_mod_sig([PLUS, ZERO, TIMES], vars_per_sort=3), 3, 400),
    "intmod-4": (lambda: int_mod_sig([PLUS, ZERO, TIMES], vars_per_sort=3), 4, 400),
    "intmod-4-few-tests": (
        lambda: int_mod_sig([PLUS, ZERO, TIMES], vars_per_sort=3), 4, 2,
    ),
    "list-5": (list_sig, 5, 400),
    "list-5-few-tests": (list_sig, 5, 3),
    "list-6": (list_sig, 6, 400),
    # A nullary symbol named like the variable x1: neither matches the other.
    "intmod-4-symbol-named-x1": (
        lambda: int_mod_sig(
            [PLUS, ZERO, TIMES, SignatureEntry("x1", INT)], vars_per_sort=3,
            functions={"x1": 1},
        ),
        4,
        400,
    ),
}


def assert_emitted_exactly_when_not_implied(nodes, classes, laws):
    """`laws` are the candidates of `classes` that the laws before them do
    not make congruent over the universe, by `congruence_oracle`."""
    universe = [nodes.term(n) for cls in classes for n in cls]
    index = {t: i for i, t in enumerate(universe)}
    kept = 0
    comp = congruence_oracle(universe, [])
    for law in candidate_laws(nodes, classes):
        implied = comp[index[law.lhs]] == comp[index[law.rhs]]
        if kept < len(laws) and law == laws[kept]:
            assert not implied, f"emitted law {kept} follows from earlier ones"
            kept += 1
            comp = congruence_oracle(
                universe, [(l.lhs, l.rhs) for l in laws[:kept]]
            )
        else:
            assert implied, "a dropped candidate does not follow"
    assert kept == len(laws)  # the laws are a subsequence of the candidates


class TestCongruencePruning:
    """emit_laws against a naive saturation oracle: a law is emitted exactly
    when the laws emitted before it do not make its sides congruent over the
    enumerated universe."""

    @staticmethod
    def _run(case, seed=0):
        make_sig, size, tests = CONGRUENCE_CASES[case]
        sig = make_sig()
        universe = enumerate_terms(sig, size)
        classes = partition_by_testing(universe, sig, tests, seed)
        return sig, universe, classes, emit_laws(universe, classes)

    @pytest.mark.parametrize("case", sorted(CONGRUENCE_CASES))
    def test_emitted_exactly_when_not_implied(self, case):
        _, nodes, classes, laws = self._run(case)
        assert laws and len(laws) < len(candidate_laws(nodes, classes))
        assert_emitted_exactly_when_not_implied(nodes, classes, laws)

    @pytest.mark.parametrize("case", ["intmod-4", "list-5"])
    def test_deterministic_for_a_seed(self, case):
        sig, universe, classes, laws = self._run(case, seed=5)
        again = self._run(case, seed=5)[3]
        copied = Universe([copy.deepcopy(universe.term(n)) for cls in classes for n in cls])
        members = iter(copied.members)
        copies = emit_laws(copied, [[next(members) for _ in cls] for cls in classes])
        shown = lambda ls: [pretty_law(l, sig) for l in ls]
        assert shown(again) == shown(laws) == shown(copies)

    def test_candidates_equate_members_to_smallest(self):
        sig = int_mod_sig([PLUS, ZERO])
        universe = enumerate_terms(sig, 5)
        node_classes = partition_by_testing(universe, sig, 400, 0)
        got = candidate_laws(universe, node_classes)
        classes = [[universe.term(n) for n in c] for c in node_classes]
        assert len(got) == sum(len(c) - 1 for c in classes)
        smallest = lambda cls: min(cls, key=lambda t: (term_size(t), render_term(t)))
        rep_of = {id(t): smallest(cls) for cls in classes for t in cls}
        for law in got:
            assert rep_of[id(law.lhs)] is law.rhs is not law.lhs
            assert law.size == term_size(law.lhs) + term_size(law.rhs)
        assert [l.size for l in got] == sorted(l.size for l in got)

    @pytest.mark.parametrize("case", ["intmod-4", "list-5"])
    def test_candidate_order(self, case):
        # Within one size: more distinct variables first, then variables in
        # ascending first-occurrence order, read from the rhs (the class's
        # smallest member) first, then from the lhs first.
        _, universe, classes, _ = self._run(case)

        def names(*sides):
            out = []
            for side in sides:
                for t in subterms(side):
                    if isinstance(t, Free) and t.name not in out:
                        out.append(t.name)
            return out

        def order(law):
            rhs_first, lhs_first = names(law.rhs, law.lhs), names(law.lhs, law.rhs)
            return (law.size, -len(rhs_first), rhs_first != sorted(rhs_first),
                    lhs_first != sorted(lhs_first))

        keys = [order(l) for l in candidate_laws(universe, classes)]
        assert keys == sorted(keys)

    def test_general_law_kept_in_reading_order(self):
        sig = int_mod_sig([PLUS, ZERO], vars_per_sort=3)
        universe = enumerate_terms(sig, 5)
        classes = partition_by_testing(universe, sig, 400, 0)
        laws = [pretty_law(l, sig) for l in emit_laws(universe, classes)]
        assert "x1 + (x2 + x3) = (x1 + x2) + x3" in laws
        assert "x2 + x1 = x1 + x2" in laws

    def test_list_laws_and_gold_forms(self):
        sig, _, _, laws = self._run("list-5")
        shown = [pretty_law(l, sig) for l in laws]
        for law in (
            "rev (rev x1) = x1",
            "x1 @ (x2 @ x3) = (x1 @ x2) @ x3",
            "x4 + (x5 + x6) = (x4 + x5) + x6",
            "(len x1) + (len x2) = len (x1 @ x2)",
            "(rev x2) @ (rev x1) = rev (x1 @ x2)",
        ):
            assert law in shown
        assert reverify_laws(laws, sig, 400, 0) == laws


BOOL_T = TCon("bool")


def values_sig():
    """Two sorts whose constants have equal values across them: the int 1
    equals the bool True, and 1 + (1 + 1) (mod 3) equals the bool False."""
    return InterpretedSignature(
        sorts=[IntModSort("int", 3), BoolSort("bool")],
        symbols=[
            SignatureEntry("plus", fun(INT, fun(INT, INT))),
            SignatureEntry("one", INT),
            SignatureEntry("tt", BOOL_T),
            SignatureEntry("ff", BOOL_T),
            SignatureEntry("is_zero", fun(INT, BOOL_T)),
            SignatureEntry("and", fun(BOOL_T, fun(BOOL_T, BOOL_T))),
        ],
        functions={
            "plus": lambda a, b: (a + b) % 3,
            "one": 1,
            "tt": True,
            "ff": False,
            "is_zero": lambda a: a == 0,
            "and": lambda a, b: a and b,
        },
        vars_per_sort=2,
        infix={"plus": "+", "and": "&"},
    )


PARTITION_CASES = {
    "intmod-3": (lambda: int_mod_sig([PLUS, ZERO, TIMES], vars_per_sort=3), 3, 400),
    "intmod-4": (lambda: int_mod_sig([PLUS, ZERO, TIMES], vars_per_sort=3), 4, 400),
    "list-5": (list_sig, 5, 400),
    "list-5-few-tests": (list_sig, 5, 3),
    "two-sorts-values": (values_sig, 4, 400),
}


class TestPartitionOracle:
    """test_partition and evaluate_columns against plain recursive
    evaluation of every term under every valuation."""

    @pytest.mark.parametrize("case", sorted(PARTITION_CASES))
    def test_classes_and_order_match_oracle(self, case):
        make_sig, size, tests = PARTITION_CASES[case]
        sig = make_sig()
        universe = enumerate_terms(sig, size)
        terms = terms_of(universe)
        got = partition_by_testing(universe, sig, tests, 7)
        want = partition_oracle(
            terms, sig, make_valuations(sig, sig.variables(), tests, 7)
        )
        assert [[id(universe.term(n)) for n in c] for c in got] == [
            [id(t) for t in c] for c in want
        ]

    @pytest.mark.parametrize("case", sorted(PARTITION_CASES))
    def test_columns_equal_naive_values(self, case):
        # Equations pair each term with its class's first member (true by
        # testing) and with the next term (mostly false, sometimes across
        # sorts); values must match in type as well as in equality.
        make_sig, size, tests = PARTITION_CASES[case]
        sig = make_sig()
        universe = enumerate_terms(sig, size)
        terms = terms_of(universe)
        vals = make_valuations(sig, sig.variables(), min(tests, 20), 7)
        firsts = [
            (universe.term(n), universe.term(cls[0]))
            for cls in partition_by_testing(universe, sig, len(vals), 7)
            for n in cls
        ]
        equations = [
            law_to_equation(Law(a, b, 0)) for a, b in firsts + list(zip(terms, terms[1:]))
        ]
        fns = naive_functions(sig)
        cols = evaluate_columns(terms + equations, sig, vals)
        typed = lambda values: [(type(v), v) for v in values]
        for t, col in zip(terms + equations, cols, strict=True):
            assert typed(col) == typed(naive_value(t, fns, v) for v in vals)
            assert typed(col) == typed(value_at(t, sig, v) for v in vals)


@seed(20261021)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(signature=quickspec_signatures(), tests=st.integers(1, 30))
def test_random_signatures_agree_with_oracles(tmp_path, signature, tests):
    """test_partition against `partition_oracle`, and emit_laws against
    `congruence_oracle`, on the fuzz test's random signatures at size 3.  A
    signature that the loader rejects, or whose universe is not testable, is
    skipped."""
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(signature))
    try:
        sig = load_interpreted_signature(path)
        universe = enumerate_terms(sig, 3)
        classes = partition_by_testing(universe, sig, tests, 7)
    except LemmakitError:  # NotTestable included
        return
    want = partition_oracle(
        terms_of(universe), sig, make_valuations(sig, sig.variables(), tests, 7)
    )
    assert [[id(universe.term(n)) for n in c] for c in classes] == [
        [id(t) for t in c] for c in want
    ]
    assert_emitted_exactly_when_not_implied(universe, classes, emit_laws(universe, classes))


class TestUniverse:
    def test_hand_written_terms_share_nodes(self):
        x1, x2 = Free("x1", INT), Free("x2", INT)
        p, z = Const("plus", PLUS.type), Const("zero", ZERO.type)
        t = App(App(p, x1), z)
        universe = Universe([t, x2, copy.deepcopy(t), x1])
        n = universe.members[0]
        assert len(universe) == 4 and universe.members[2] == n
        assert len(set(universe.members)) == 3
        assert universe.term(n) is t and universe.term(universe.members[3]) is x1
        assert (universe.head[n], universe.sort[n], universe.size[n], universe.vars[n]) == (
            "plus", "int", 3, ("x1",)
        )
        assert [universe.term(a) for a in universe.args[n]] == [x1, z]
        assert universe.ids[id(t)] == n
        # A variable and a nullary symbol of one name are two nodes.
        assert len(set(Universe([Free("x1", INT), Const("x1", INT)]).members)) == 2

    @pytest.mark.parametrize("case", sorted(PARTITION_CASES))
    def test_fields_equal_the_terms(self, case):
        make_sig, size, _ = PARTITION_CASES[case]
        universe = enumerate_terms(make_sig(), size)
        assert universe.members == list(range(len(universe.head)))
        for n in universe.members:
            t = universe.term(n)
            head, args = strip_spine(t)
            sort = head.type
            for _ in args:
                sort = sort.args[1]
            names = []
            for s in subterms(t):
                if isinstance(s, Free) and s.name not in names:
                    names.append(s.name)
            assert universe.head[n] == (None if isinstance(head, Free) else head.name)
            assert [universe.term(a) for a in universe.args[n]] == args
            assert (universe.sort[n], universe.size[n]) == (sort.name, term_size(t))
            assert universe.vars[n] == tuple(names)
            assert all(a < n for a in universe.args[n])

    def test_stages_build_terms_only_for_candidates(self, monkeypatch):
        """enumerate_terms and test_partition construct no App; emit_laws
        builds the members of classes with two or more members, which its
        laws are made of, and nothing else."""
        built = []
        real = quickspec.App

        def counted(fn, arg):
            built.append(real(fn, arg))
            return built[-1]

        monkeypatch.setattr(quickspec, "App", counted)
        sig = list_sig()
        universe = enumerate_terms(sig, 6)
        classes = partition_by_testing(universe, sig, 400, 3)
        assert (len(universe), len(classes), len(built)) == (1288, 315, 0)
        laws = emit_laws(universe, classes)
        members = {n for cls in classes if len(cls) >= 2 for n in cls}
        needed = {
            id(s) for n in members for s in subterms(universe.term(n)) if isinstance(s, App)
        }
        assert {id(t) for t in built} == needed and len(built) == len(needed)
        assert 0 < len(members) < len(universe)
        assert len(laws) == 11
        for law in laws:
            assert {universe.ids[id(law.lhs)], universe.ids[id(law.rhs)]} <= members

    def test_a_term_that_is_not_first_order_is_refused_before_evaluation(self):
        # The structural check of every term comes before any evaluation, so
        # the second term's head is named, not the first term's symbol.
        sig = int_mod_sig([PLUS, ZERO])
        x1 = Free("x1", INT)
        unknown = App(Const("nosuch", fun(INT, INT)), x1)
        binder = App(Abs("y", INT, Bound(0)), x1)
        with pytest.raises(NotTestable, match="^symbol 'nosuch' has no interpretation$"):
            evaluate_columns([unknown], sig, [{"x1": 0}])
        with pytest.raises(NotTestable, match="^untestable head node Abs$"):
            evaluate_columns([unknown, binder], sig, [{"x1": 0}])
        with pytest.raises(NotTestable, match="^variable 'f' applied to arguments$"):
            Universe([App(Free("f", fun(INT, INT)), x1)])


def _counted(sig, calls):
    """sig with each symbol function wrapped to count its calls in `calls`."""

    def wrap(name, fn):
        if not callable(fn):
            return fn

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    functions = {s.name: wrap(s.name, sig.meanings[s.name][2]) for s in sig.symbols}
    return InterpretedSignature(
        list(sig.sorts.values()), sig.symbols, functions, sig.vars_per_sort, sig.infix
    )


class TestColumnSharing:
    def test_symbol_applied_once_per_tuple_of_argument_classes(self):
        calls = collections.Counter()
        sig = _counted(list_sig(), calls)
        universe = enumerate_terms(sig, 6)
        terms = terms_of(universe)
        classes = partition_by_testing(universe, sig, 400, 3)
        class_of = {id(universe.term(n)): i for i, cls in enumerate(classes) for n in cls}
        applications, distinct = 0, set()
        for t in terms:
            head, args = strip_spine(t)
            if args:
                applications += 1
                distinct.add((head.name, tuple(class_of[id(a)] for a in args)))
        assert (len(terms), len(classes)) == (1288, 315)
        assert len(distinct) == 697 and applications == 1281
        assert sum(calls.values()) == 697 * 400

    def test_class_members_share_one_column(self):
        sig = list_sig()
        universe = enumerate_terms(sig, 4)
        terms = terms_of(universe)
        columns = evaluate_columns(terms, sig, make_valuations(sig, sig.variables(), 5, 1))
        cols = dict(zip(universe.members, columns, strict=True))
        classes = partition_by_testing(universe, sig, 5, 1)
        assert len(classes) < len(terms)
        for cls in classes:
            assert len({id(cols[n]) for n in cls}) == 1
        assert len({id(cols[cls[0]]) for cls in classes}) == len(classes)

    def test_equal_columns_of_two_sorts_stay_apart(self):
        sig = values_sig()
        one, tt, ff = Const("one", INT), Const("tt", BOOL_T), Const("ff", BOOL_T)
        plus = Const("plus", fun(INT, fun(INT, INT)))
        three = App(App(plus, one), App(App(plus, one), one))
        terms = [one, tt, three, ff]
        cols = evaluate_columns(terms, sig, make_valuations(sig, [], 4, 0))
        for i, b in ((0, 1), (2, 3)):
            assert cols[i] == cols[b] and cols[i] is not cols[b]
            assert {type(v) for v in cols[i]} == {int}
            assert {type(v) for v in cols[b]} == {bool}
        universe = Universe(terms)
        classes = partition_by_testing(universe, sig, 4, 0)
        assert [[id(universe.term(n)) for n in c] for c in classes] == [[id(t)] for t in terms]

    def test_unhashable_values_are_not_testable(self):
        sig = InterpretedSignature(
            sorts=[IntListSort("list", 3, 3)],
            symbols=[SignatureEntry("wrap", fun(LIST_T, LIST_T))],
            functions={"wrap": lambda a: list(a)},
            vars_per_sort=1,
        )
        wrap_x = App(Const("wrap", fun(LIST_T, LIST_T)), Free("x1", LIST_T))
        equation = law_to_equation(Law(wrap_x, wrap_x, 4))
        for run in (
            lambda: partition_by_testing(enumerate_terms(sig, 2), sig, 5, 0),
            lambda: value_at(wrap_x, sig, {"x1": (1, 2)}),
            lambda: find_counterexample(equation, sig, 5, 0),
        ):
            with pytest.raises(NotTestable, match="symbol 'wrap'"):
                run()


class TestCounterexample:
    def _arith_sig(self):
        minus = SignatureEntry("Demo.minus", fun(INT, fun(INT, INT)))
        plus = SignatureEntry("Demo.plus", fun(INT, fun(INT, INT)))
        return (
            InterpretedSignature(
                sorts=[IntModSort("int", 101)],
                symbols=[minus, plus],
                functions={
                    "Demo.minus": lambda a, b: (a - b) % 101,
                    "Demo.plus": lambda a, b: (a + b) % 101,
                },
                vars_per_sort=3,
                infix={"Demo.minus": "-", "Demo.plus": "+"},
            ),
            minus,
            plus,
        )

    @staticmethod
    def _assoc_equation(op):
        x1, x2, x3 = (Free(f"x{i}", INT) for i in (1, 2, 3))
        f = Const(op.name, op.type)
        lhs = App(App(f, App(App(f, x1), x2)), x3)
        rhs = App(App(f, x1), App(App(f, x2), x3))
        eq = Const("HOL.eq", fun(INT, fun(INT, TCon("HOL.bool"))))
        return App(App(eq, lhs), rhs)

    def test_subtraction_associativity_fails(self):
        sig, minus, _ = self._arith_sig()
        cex = find_counterexample(self._assoc_equation(minus), sig, 400, 0)
        assert cex is not None
        val = cex
        lhs = ((val["x1"] - val["x2"]) % 101 - val["x3"]) % 101
        rhs = (val["x1"] - (val["x2"] - val["x3"]) % 101) % 101
        assert lhs != rhs

    def test_addition_associativity_holds(self):
        sig, _, plus = self._arith_sig()
        assert find_counterexample(self._assoc_equation(plus), sig, 400, 0) is None

    def test_totient_monotonicity_refuted_at_21_22(self):
        totient = quickspec._BUILTINS["totient"][1]
        assert totient(21) == 12 and totient(22) == 10
        nat = TCon("nat")
        from lemmakit.quickspec import BoolSort

        sig = InterpretedSignature(
            sorts=[IntRangeSort("nat", 1, 50), BoolSort("bool_s")],
            symbols=[
                SignatureEntry("Demo.totient", fun(nat, nat)),
                SignatureEntry("Demo.le", fun(nat, fun(nat, TCon("bool_s")))),
            ],
            functions={"Demo.totient": totient, "Demo.le": lambda a, b: a <= b},
        )
        # x1 <= x2 --> totient x1 <= totient x2, checked directly at 21, 22
        tot = Const("Demo.totient", fun(nat, nat))
        le = Const("Demo.le", fun(nat, fun(nat, TCon("bool_s"))))
        x1, x2 = Free("x1", nat), Free("x2", nat)
        imp = Const(
            "HOL.implies",
            fun(TCon("HOL.bool"), fun(TCon("HOL.bool"), TCon("HOL.bool"))),
        )
        claim = App(
            App(imp, App(App(le, x1), x2)),
            App(App(le, App(tot, x1)), App(tot, x2)),
        )
        assert (
            value_at(claim, sig, {"x1": 21, "x2": 22}) is False
        )
        cex = find_counterexample(claim, sig, 2000, 0)
        assert cex is not None

    def test_not_testable_symbol(self):
        sig, _, _ = self._arith_sig()
        ghost = Const("Demo.unknown", fun(INT, INT))
        with pytest.raises(NotTestable):
            find_counterexample(App(ghost, Free("x1", INT)), sig, 10, 0)

    def test_first_falsifying_valuation_of_the_stream(self):
        nat = TCon("nat")
        clip = SignatureEntry("clip", fun(nat, nat))
        sig = InterpretedSignature(
            sorts=[IntRangeSort("nat", 1, 50)],
            symbols=[clip],
            functions={"clip": lambda a: a if a < 45 else 0},
            vars_per_sort=1,
        )
        x1 = Free("x1", nat)
        eq = Const("HOL.eq", fun(nat, fun(nat, TCon("HOL.bool"))))
        claim = App(App(eq, App(Const("clip", clip.type), x1)), x1)

        def reference(t, val):
            head, args = t, []
            while isinstance(head, App):
                head, args = head.fn, [head.arg] + args
            if isinstance(head, Free):
                return val[head.name]
            vals = [reference(a, val) for a in args]
            if head.name == "HOL.eq":
                return vals[0] == vals[1]
            return sig.meanings[head.name][2](*vals)

        later_than_first = 0
        for seed in range(8):
            stream = make_valuations(sig, [x1], 60, seed)
            falsifying = [
                i for i, v in enumerate(stream) if reference(claim, v) is False
            ]
            cex = find_counterexample(claim, sig, 60, seed)
            if not falsifying:
                assert cex is None
                continue
            assert cex == stream[falsifying[0]]
            later_than_first += falsifying[0] > 0
            # a stream that stops before the first failure finds nothing
            assert find_counterexample(claim, sig, falsifying[0], seed) is None
        assert later_than_first > 0

    def test_never_returns_satisfying_valuation(self):
        sig, minus, _ = self._arith_sig()
        eqn = self._assoc_equation(minus)
        cex = find_counterexample(eqn, sig, 400, 0)
        assert value_at(eqn, sig, cex) is False


class TestPrecision:
    def test_nine_of_eighteen_precision(self):
        # 18 structurally distinct laws, 9 of them in the gold set -> 50%
        p = Const("plus", PLUS.type)
        laws = []
        for i in range(18):
            lhs = App(App(p, Free("x1", INT)), Const(f"c{i}", INT))
            laws.append(Law(lhs, Free("x1", INT), term_size(lhs) + 1))
        gold = [law_to_equation(l) for l in laws[:9]]
        stats = baseline_precision(laws, gold)
        assert stats == {"emitted": 18, "matched_gold": 9, "precision": 0.5}

    def test_zero_emitted(self):
        stats = baseline_precision([], [])
        assert stats["emitted"] == 0 and stats["precision"] == 0.0

    def test_empty_gold(self):
        p = Const("plus", PLUS.type)
        law = Law(App(App(p, Free("x1", INT)), Free("x2", INT)), Free("x1", INT), 4)
        assert baseline_precision([law], [])["precision"] == 0.0

    def test_flip_orientation_matches(self):
        p = Const("plus", PLUS.type)
        x1, x2 = Free("x1", INT), Free("x2", INT)
        law = Law(App(App(p, x1), x2), App(App(p, x2), x1), 6)
        flipped = law_to_equation(Law(law.rhs, law.lhs, law.size))
        assert baseline_precision([law], [flipped])["matched_gold"] == 1


class TestListSort:
    def test_sampling_in_domain(self):
        s = IntListSort("lst", 3, 7)
        rng = random.Random(0)
        for _ in range(100):
            v = s.sample(rng)
            assert len(v) <= 3 and all(0 <= x < 7 for x in v)

    def test_undeclared_sort_rejected(self):
        with pytest.raises(ValueError):
            InterpretedSignature(
                sorts=[IntModSort("int", 5)],
                symbols=[SignatureEntry("f", fun(TCon("mystery"), INT))],
                functions={"f": lambda a: 0},
            )


class TestInterpretedSignature:
    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_vars_per_sort_rejected(self, n):
        with pytest.raises(ValueError, match="vars_per_sort must be at least 0"):
            int_mod_sig([PLUS, ZERO], vars_per_sort=n)
        sig = int_mod_sig([PLUS, ZERO], vars_per_sort=0)
        assert sig.variables() == []
        assert [render_term(t) for t in terms_of(enumerate_terms(sig, 1))] == [
            render_term(Const("zero", INT))
        ]

    def test_symbol_without_function_rejected(self):
        with pytest.raises(ValueError, match="symbol 'minus' has no function"):
            int_mod_sig([PLUS, SignatureEntry("minus", PLUS.type)])

    def test_infix_is_read_from_the_map(self):
        x1, x2 = Free("x1", INT), Free("x2", INT)
        t = App(App(Const("plus", PLUS.type), x1), App(App(Const("times", TIMES.type), x2), x1))
        sig = int_mod_sig([PLUS, ZERO, TIMES])
        assert pretty_interp_term(t, sig) == "x1 + (x2 * x1)"
        sig.infix.clear()
        assert pretty_interp_term(t, sig) == "plus x1 (times x2 x1)"


BOOL_T = TCon("bool")
# Each builtin's argument sorts, then its result sort.
BUILTIN_PROFILES = {
    "int_add": (INT, INT, INT),
    "int_sub": (INT, INT, INT),
    "int_mul": (INT, INT, INT),
    "int_pow": (INT, INT, INT),
    "int_le": (INT, INT, BOOL_T),
    "bool_and": (BOOL_T, BOOL_T, BOOL_T),
    "bool_or": (BOOL_T, BOOL_T, BOOL_T),
    "bool_not": (BOOL_T, BOOL_T),
    "bool_implies": (BOOL_T, BOOL_T, BOOL_T),
    "list_append": (LIST_T, LIST_T, LIST_T),
    "list_rev": (LIST_T, LIST_T),
    "list_len": (LIST_T, INT),
    "totient": (INT, INT),
}


def _arrow(profile):
    *args, ty = profile
    for arg in reversed(args):
        ty = fun(arg, ty)
    return ty


SORT_DECLS = {
    "mod": [{"name": "int", "mod": 7}, {"name": "bool"}, {"name": "list", "max_len": 3}],
    "range": [{"name": "int", "max": 9}, {"name": "bool"}, {"name": "list", "max_len": 3}],
}


class TestLoadSignatureChecks:
    def _load(self, tmp_path, sorts, symbols):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"sorts": sorts, "symbols": symbols}))
        return load_interpreted_signature(path)

    @pytest.mark.parametrize("sorts", ["mod", "range"])
    def test_every_builtin_loads_at_its_profile(self, tmp_path, sorts):
        assert set(BUILTIN_PROFILES) == set(quickspec._BUILTINS)
        symbols = [
            {"name": name, "type": render_type(_arrow(profile)), "builtin": name}
            for name, profile in BUILTIN_PROFILES.items()
        ]
        sig = self._load(tmp_path, SORT_DECLS[sorts], symbols)
        assert [s.name for s in sig.symbols] == list(BUILTIN_PROFILES)

    @pytest.mark.parametrize("sorts", ["mod", "range"])
    def test_builtin_with_an_extra_argument_rejected(self, tmp_path, sorts):
        for name, profile in BUILTIN_PROFILES.items():
            symbols = [
                {"name": "zero", "type": render_type(INT), "value": 0},
                {"name": name, "type": render_type(_arrow((INT, *profile))), "builtin": name},
            ]
            with pytest.raises(LemmakitError, match="symbol 1: field 'type' must be"):
                self._load(tmp_path, SORT_DECLS[sorts], symbols)

    @pytest.mark.parametrize("sorts", ["mod", "range"])
    def test_builtin_with_a_wrong_kind_rejected(self, tmp_path, sorts):
        other = {INT: LIST_T, BOOL_T: INT, LIST_T: BOOL_T}
        for name, profile in BUILTIN_PROFILES.items():
            for i, sort in enumerate(profile):
                wrong = profile[:i] + (other[sort],) + profile[i + 1:]
                symbols = [{"name": name, "type": render_type(_arrow(wrong)), "builtin": name}]
                with pytest.raises(LemmakitError, match="symbol 0: field 'type' must be"):
                    self._load(tmp_path, SORT_DECLS[sorts], symbols)

    @pytest.mark.parametrize(
        "sort, good, bad",
        [
            ("int", [0, 6], [True, 1.5, "1", [1, 2], -1, 7]),
            ("bool", [True, False], [0, 1, "true"]),
            ("list", [[], [1, 2]], [3, [True], [1.0], "ab"]),
        ],
    )
    def test_value_must_have_its_sorts_kind(self, tmp_path, sort, good, bad):
        symbol = lambda v: [{"name": "c", "type": render_type(TCon(sort)), "value": v}]
        for value in good:
            self._load(tmp_path, SORT_DECLS["mod"], symbol(value))
        for value in bad:
            with pytest.raises(LemmakitError, match="symbol 0: field 'value'"):
                self._load(tmp_path, SORT_DECLS["mod"], symbol(value))


    @pytest.mark.parametrize("count", [-1, -7])
    def test_negative_vars_per_sort_rejected(self, tmp_path, capsys, count):
        """A negative count of variables per sort is named with its field, by
        the loader and by `lemmakit quickspec`; 0 (ground laws only) loads."""
        path = tmp_path / "sig.json"
        symbols = [{"name": "zero", "type": render_type(INT), "value": 0}]
        data = {"sorts": SORT_DECLS["mod"][:1], "symbols": symbols}
        path.write_text(json.dumps({**data, "vars_per_sort": count}))
        message = f"{path}: field 'vars_per_sort' must be at least 0"
        with pytest.raises(LemmakitError) as exc:
            load_interpreted_signature(path)
        assert str(exc.value) == message
        assert main(["quickspec", str(path), "--max-size", "2", "--tests", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        path.write_text(json.dumps({**data, "vars_per_sort": 0}))
        assert load_interpreted_signature(path).variables() == []
        assert main(["quickspec", str(path), "--max-size", "2", "--tests", "3"]) == 0
        assert capsys.readouterr().err == "emitted=0 laws\n"

    @pytest.mark.parametrize(
        "decl, message",
        [
            ({"mod": 0}, "field 'mod' must be at least 1"),
            ({"mod": -3}, "field 'mod' must be at least 1"),
            ({"min": 3, "max": 1}, "field 'max' must be at least 3"),
            ({"max": -1}, "field 'max' must be at least 0"),
            ({"max_len": 3, "elem_mod": 0}, "field 'elem_mod' must be at least 1"),
            ({"max_len": -1}, "field 'max_len' must be at least 0"),
        ],
        ids=["mod0", "mod-3", "min3max1", "max-1", "elem_mod0", "max_len-1"],
    )
    def test_sort_without_values_rejected(self, tmp_path, capsys, decl, message):
        """A sort with no value to sample is named with its field, by the
        loader and by `lemmakit quickspec`, before any run."""
        sorts = SORT_DECLS["mod"][:1] + [{"name": "s", **decl}]
        symbols = [{"name": "zero", "type": render_type(INT), "value": 0}]
        path = tmp_path / "sig.json"
        with pytest.raises(LemmakitError) as exc:
            self._load(tmp_path, sorts, symbols)
        assert str(exc.value) == f"{path}: sort 1: {message}"
        assert main(["quickspec", str(path), "--max-size", "2", "--tests", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: sort 1: {message}\n")

    @pytest.mark.parametrize(
        "ty",
        [
            TCon("fun", (LIST_T,)),
            TCon("fun"),
            TCon("fun", (LIST_T, INT, INT)),
            fun(LIST_T, TCon("fun", (INT,))),
        ],
        ids=["one", "none", "three", "nested"],
    )
    def test_fun_without_two_types_rejected(self, tmp_path, capsys, ty):
        n = len(ty.args) if len(ty.args) != 2 else 1
        for rest in ({"value": 1}, {"builtin": "list_len"}):
            symbols = [{"name": "f", "type": render_type(ty), **rest}]
            with pytest.raises(
                LemmakitError, match=f"symbol 0: field 'type' must give 'fun' two types, not {n}$"
            ):
                self._load(tmp_path, SORT_DECLS["mod"], symbols)
            path = tmp_path / "sig.json"
            assert main(["quickspec", str(path), "--max-size", "2", "--tests", "3"]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: symbol 0: field 'type' must give 'fun' two types, not {n}\n"
            )
        with pytest.raises(ValueError, match="undeclared sort"):
            InterpretedSignature([IntListSort("list", 3, 10)], [SignatureEntry("f", ty)], {"f": 1})


INT_BUILTINS = ("int_add", "int_sub", "int_mul", "int_pow")


class TestIntBuiltinModulus:
    """An int builtin reduces by the modulus of its own result sort, and not
    at all on a range sort."""

    def _load(self, tmp_path, sorts, sort_names):
        symbols = [
            {"name": f"{op}_{sort}", "type": render_type(_arrow((TCon(sort),) * 3)),
             "builtin": op}
            for sort in sort_names
            for op in INT_BUILTINS
        ]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"sorts": sorts, "symbols": symbols}))
        return load_interpreted_signature(path).meanings

    def test_two_mod_sorts(self, tmp_path):
        sorts = [{"name": "z5", "mod": 5}, {"name": "z7", "mod": 7}]
        fns = self._load(tmp_path, sorts, ["z5", "z7"])
        for sort, mod in (("z5", 5), ("z7", 7)):
            got = [fns[f"{op}_{sort}"][2](6, 3) for op in INT_BUILTINS]
            assert got == [9 % mod, 3 % mod, 18 % mod, 216 % mod]

    def test_mod_sort_beside_range_sort(self, tmp_path):
        sorts = [{"name": "z5", "mod": 5}, {"name": "nat", "max": 30}]
        fns = self._load(tmp_path, sorts, ["z5", "nat"])
        assert [fns[f"{op}_nat"][2](6, 3) for op in INT_BUILTINS] == [9, 3, 18, 216]
        assert [fns[f"{op}_z5"][2](6, 3) for op in INT_BUILTINS] == [4, 3, 3, 1]

    def test_false_law_of_the_first_modulus_not_emitted(self, tmp_path):
        z7 = TCon("z7")
        sorts = [{"name": "z5", "mod": 5}, {"name": "z7", "mod": 7}]
        symbols = [
            {"name": "plus7", "type": render_type(_arrow((z7, z7, z7))),
             "builtin": "int_add", "infix": "+"},
            {"name": "six", "type": render_type(z7), "value": 6},
            {"name": "one", "type": render_type(z7), "value": 1},
        ]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"sorts": sorts, "symbols": symbols}))
        sig = load_interpreted_signature(path)
        universe = enumerate_terms(sig, 3)
        classes = partition_by_testing(universe, sig, 400, 0)
        # Reduced mod 5, six + x4 and one + x4 agree on every test.
        shown = [pretty_law(law, sig) for law in emit_laws(universe, classes)]
        assert shown == ["x5 + x4 = x4 + x5"]

    def test_len_and_totient_reduce_on_a_mod_sort(self, tmp_path):
        z3, lst = TCon("z3"), TCon("list")
        sorts = [{"name": "z3", "mod": 3}, {"name": "list", "max_len": 5}]
        symbols = [
            {"name": "zero", "type": render_type(z3), "value": 0},
            {"name": "plus", "type": render_type(_arrow((z3, z3, z3))),
             "builtin": "int_add", "infix": "+"},
            {"name": "len", "type": render_type(_arrow((lst, z3))), "builtin": "list_len"},
            {"name": "phi", "type": render_type(_arrow((z3, z3))), "builtin": "totient"},
        ]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"sorts": sorts, "symbols": symbols}))
        sig = load_interpreted_signature(path)
        assert sig.meanings["len"][2]((1, 2, 3, 4)) == 1
        assert sig.meanings["phi"][2](5) == 1
        terms = terms_of(enumerate_terms(sig, 4))
        valuations = make_valuations(sig, sig.variables(), 400, 0)
        cols = evaluate_columns(terms, sig, valuations)
        shown = {pretty_interp_term(t, sig): col for t, col in zip(terms, cols, strict=True)}
        for text in ("len x4", "len x5", "len x6", "phi x1", "zero + (len x4)"):
            assert set(shown[text]) <= {0, 1, 2}, text
        # Both sides of the emitted law `zero + x1 = x1`, at x1 = len x4.
        assert shown["zero + (len x4)"] is shown["len x4"]
