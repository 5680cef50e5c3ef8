import copy
import itertools
import random

import pytest

from lemmakit.quickspec import (
    InterpSymbol,
    IntListSort,
    IntModSort,
    IntRangeSort,
    InterpretedSignature,
    Law,
    NotTestable,
    baseline_precision,
    emit_laws,
    enumerate_terms,
    evaluate_columns,
    evaluate_term,
    find_counterexample,
    is_instance_of,
    law_to_equation,
    make_valuations,
    pretty_law,
    reverify_laws,
    term_size,
)
from lemmakit.quickspec import test_partition as partition_by_testing
from lemmakit.terms import App, Const, Free, Hole, TCon, fun, subterms

INT = TCon("int")


def int_mod_sig(symbols, mod=5, vars_per_sort=2):
    return InterpretedSignature(
        sorts=[IntModSort("int", mod)], symbols=symbols, vars_per_sort=vars_per_sort
    )


PLUS = InterpSymbol("plus", fun(INT, fun(INT, INT)), lambda a, b: (a + b) % 5, "+")
ZERO = InterpSymbol("zero", INT, 0)


class TestEnumerate:
    def test_size_one(self):
        sig = int_mod_sig([PLUS, ZERO])
        got = enumerate_terms(sig, 1)
        assert [str(t) for t in got] == [
            str(Free("x1", INT)),
            str(Free("x2", INT)),
            str(Const("zero", ZERO.type)),
        ]

    def test_size_three_adds_all_sums(self):
        sig = int_mod_sig([PLUS, ZERO])
        small = set(map(str, enumerate_terms(sig, 1)))
        bigger = enumerate_terms(sig, 3)
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
            got = enumerate_terms(sig, max_size)
            rendered = [str(t) for t in got]
            assert len(rendered) == len(set(rendered))
            oracle = _enumerate_oracle(sig, max_size)
            assert set(rendered) == set(map(str, oracle))

    def test_sizes_ordered(self):
        sig = int_mod_sig([PLUS, ZERO])
        sizes = [term_size(t) for t in enumerate_terms(sig, 4)]
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
        classes = partition_by_testing([t1, t2], sig, 100, 0)
        assert len(classes) == 1

    def test_identity_merges_and_distinct_split(self):
        sig = int_mod_sig([PLUS, ZERO])
        x1, x2 = Free("x1", INT), Free("x2", INT)
        p, z = Const("plus", PLUS.type), Const("zero", ZERO.type)
        classes = partition_by_testing([App(App(p, x1), z), x1, x2], sig, 100, 0)
        assert len(classes) == 2
        assert classes[0] == [App(App(p, x1), z), x1]

    def test_refinement_under_more_tests(self):
        sig = int_mod_sig([PLUS, ZERO])
        terms = enumerate_terms(sig, 4)
        coarse = partition_by_testing(terms, sig, 10, seed=3)
        fine = partition_by_testing(terms, sig, 400, seed=3)
        coarse_of = {}
        for i, cls in enumerate(coarse):
            for t in cls:
                coarse_of[id(t)] = i
        for cls in fine:
            assert len({coarse_of[id(t)] for t in cls}) == 1

    def test_deterministic(self):
        sig = int_mod_sig([PLUS, ZERO])
        terms = enumerate_terms(sig, 4)
        a = partition_by_testing(terms, sig, 50, seed=9)
        b = partition_by_testing(terms, sig, 50, seed=9)
        assert [[str(t) for t in c] for c in a] == [[str(t) for t in c] for c in b]

    def test_unshared_copies_partition_alike(self):
        # Enumerated terms share their subterm objects; separately copied
        # terms share none, so every subterm is evaluated from scratch.
        sig = int_mod_sig([PLUS, ZERO])
        terms = enumerate_terms(sig, 5)
        copies = [copy.deepcopy(t) for t in terms]
        node_ids = lambda ts: {id(s) for t in ts for s in subterms(t)}
        assert not node_ids(terms) & node_ids(copies)
        shared = partition_by_testing(terms, sig, 60, seed=4)
        unshared = partition_by_testing(copies, sig, 60, seed=4)
        assert [[str(t) for t in c] for c in unshared] == [
            [str(t) for t in c] for c in shared
        ]


class TestEvaluator:
    def test_hole_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable):
            evaluate_term(Hole(0, INT), sig, {})
        with pytest.raises(NotTestable):
            plus_hole = App(Const("plus", PLUS.type), Hole(0, INT))
            evaluate_term(App(plus_hole, Free("x1", INT)), sig, {"x1": 1})

    def test_applied_variable_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        f = Free("f", fun(INT, INT))
        with pytest.raises(NotTestable):
            evaluate_term(App(f, Free("x1", INT)), sig, {"f": 0, "x1": 1})

    def test_partial_application_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable):
            plus_x1 = App(Const("plus", PLUS.type), Free("x1", INT))
            evaluate_term(plus_x1, sig, {"x1": 1})

    def test_missing_value_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        with pytest.raises(NotTestable):
            evaluate_term(Free("x1", INT), sig, {"x2": 1})
        # missing from one valuation of many is enough
        with pytest.raises(NotTestable):
            evaluate_columns([Free("x1", INT)], sig, [{"x1": 0}, {"x2": 1}])

    def test_logical_constant_arity_not_testable(self):
        sig = int_mod_sig([PLUS, ZERO])
        bool_t = TCon("HOL.bool")
        with pytest.raises(NotTestable):
            true_x1 = App(Const("HOL.True", fun(INT, bool_t)), Free("x1", INT))
            evaluate_term(true_x1, sig, {"x1": 1})
        eq = Const("HOL.eq", fun(INT, fun(INT, bool_t)))
        with pytest.raises(NotTestable):
            evaluate_term(eq, sig, {})
        with pytest.raises(NotTestable):
            find_counterexample(App(eq, Free("x1", INT)), sig, 10, 0)

    def test_columns_follow_valuation_order(self):
        sig = int_mod_sig([PLUS, ZERO])
        x1, x2 = Free("x1", INT), Free("x2", INT)
        t = App(App(Const("plus", PLUS.type), x1), x2)
        vals = [{"x1": a, "x2": b} for a, b in itertools.product(range(5), repeat=2)]
        cols = evaluate_columns([t], sig, vals)
        assert cols[id(t)] == [(v["x1"] + v["x2"]) % 5 for v in vals]
        assert cols[id(x1)] == [v["x1"] for v in vals]
        assert [evaluate_term(t, sig, v) for v in vals] == cols[id(t)]


class TestEmitLaws:
    def _laws(self, max_size=5):
        sig = int_mod_sig([PLUS, ZERO])
        terms = enumerate_terms(sig, max_size)
        classes = partition_by_testing(terms, sig, 400, 0)
        return sig, emit_laws(classes)

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
        assert emit_laws([]) == []

    def test_instance_pruning_example(self):
        # x1 + x2 = x2 + x1 subsumes x1 + zero = zero + x1
        p = Const("plus", PLUS.type)
        x1, x2, z = Free("x1", INT), Free("x2", INT), Const("zero", ZERO.type)
        general = Law(App(App(p, x2), x1), App(App(p, x1), x2), 6)
        inst = Law(App(App(p, z), x1), App(App(p, x1), z), 6)
        assert is_instance_of(inst, general)
        assert not is_instance_of(general, inst)


class TestCounterexample:
    def _arith_sig(self):
        minus = InterpSymbol(
            "Demo.minus", fun(INT, fun(INT, INT)), lambda a, b: (a - b) % 101, "-"
        )
        plus = InterpSymbol(
            "Demo.plus", fun(INT, fun(INT, INT)), lambda a, b: (a + b) % 101, "+"
        )
        return (
            InterpretedSignature(
                sorts=[IntModSort("int", 101)], symbols=[minus, plus], vars_per_sort=3
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
        val = cex.as_dict()
        lhs = ((val["x1"] - val["x2"]) % 101 - val["x3"]) % 101
        rhs = (val["x1"] - (val["x2"] - val["x3"]) % 101) % 101
        assert lhs != rhs

    def test_addition_associativity_holds(self):
        sig, _, plus = self._arith_sig()
        assert find_counterexample(self._assoc_equation(plus), sig, 400, 0) is None

    def test_totient_monotonicity_refuted_at_21_22(self):
        from lemmakit.quickspec import builtin_evaluators

        totient = builtin_evaluators({})["totient"]
        assert totient(21) == 12 and totient(22) == 10
        nat = TCon("nat")
        from lemmakit.quickspec import BoolSort

        sig = InterpretedSignature(
            sorts=[IntRangeSort("nat", 1, 50), BoolSort("bool_s")],
            symbols=[
                InterpSymbol("Demo.totient", fun(nat, nat), totient),
                InterpSymbol(
                    "Demo.le", fun(nat, fun(nat, TCon("bool_s"))), lambda a, b: a <= b
                ),
            ],
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
            evaluate_term(claim, sig, {"x1": 21, "x2": 22}) is False
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
        clip = InterpSymbol("clip", fun(nat, nat), lambda a: a if a < 45 else 0)
        sig = InterpretedSignature(
            sorts=[IntRangeSort("nat", 1, 50)], symbols=[clip], vars_per_sort=1
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
            return sig.by_name[head.name].fn(*vals)

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
            assert cex.as_dict() == stream[falsifying[0]]
            later_than_first += falsifying[0] > 0
            # a stream that stops before the first failure finds nothing
            assert find_counterexample(claim, sig, falsifying[0], seed) is None
        assert later_than_first > 0

    def test_never_returns_satisfying_valuation(self):
        sig, minus, _ = self._arith_sig()
        eqn = self._assoc_equation(minus)
        cex = find_counterexample(eqn, sig, 400, 0)
        assert evaluate_term(eqn, sig, cex.as_dict()) is False


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
                symbols=[InterpSymbol("f", fun(TCon("mystery"), INT), lambda a: 0)],
            )
