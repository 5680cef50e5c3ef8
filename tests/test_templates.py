import random

import pytest

from lemmakit.templates import (
    IllTyped,
    NonCanonical,
    Template,
    Whitelist,
    abstract,
    default_whitelist,
    load_whitelist,
    parse_template,
    pretty_template,
)
from lemmakit.terms import (
    Abs,
    App,
    Const,
    Free,
    Hole,
    TCon,
    TVar,
    TermSyntaxError,
    annotations,
    fun,
    map_types,
    parse_term,
    parse_type,
    render_term,
    render_type,
    subterms,
    typecheck,
)

from oracles import random_lemma_term

OCTO = TCon("Octonions.octo")


class TestWhitelist:
    def test_hol_prefix_retained(self):
        assert default_whitelist().contains("HOL.eq")

    def test_orderings_exact(self):
        assert default_whitelist().contains("Orderings.ord_class.less_eq")

    def test_theory_symbol_abstracted(self):
        assert not default_whitelist().contains("Octonions.octo_times")

    def test_load_file(self, tmp_path):
        p = tmp_path / "wl.txt"
        p.write_text("# comment\nMyTheory.   # a prefix\nOther.exact_name\n")
        w = load_whitelist(p)
        assert w.contains("MyTheory.anything")
        assert w.contains("Other.exact_name")
        assert not w.contains("Other.something_else")


class TestAbstract:
    def test_assoc_shape(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        assert tpl.hole_count == 1
        assert pretty_template(tpl) == "(?H1 x1 (?H1 x2 x3)) = (?H1 (?H1 x1 x2) x3)"

    def test_distrib_two_holes(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        assert tpl.hole_count == 2
        assert (
            pretty_template(tpl)
            == "(?H1 x1 (?H2 x2 x3)) = (?H2 (?H1 x1 x2) (?H1 x1 x3))"
        )

    def test_noncommutative_binders(self, lemma_noncommutative):
        tpl = abstract(lemma_noncommutative)
        assert tpl.hole_count == 1
        assert pretty_template(tpl) == "¬(∀y0. ∀y1. (?H1 y0 y1) = (?H1 y1 y0))"

    def test_whitelist_only_term(self):
        x = Free("v", TVar("'a"))
        eq = Const("HOL.eq", fun(TVar("'a"), fun(TVar("'a"), TCon("HOL.bool"))))
        tpl = abstract(App(App(eq, x), x))
        assert tpl.hole_count == 0
        assert '(free "x1"' in tpl.canonical

    def test_hole_count_equals_distinct_constants(self):
        rng = random.Random(17)
        for _ in range(100):
            term, entries = random_lemma_term(rng)
            tpl = abstract(term)
            used = {
                s.name
                for s in subterms(term)
                if isinstance(s, Const) and not s.name.startswith("HOL.")
            }
            assert tpl.hole_count == len(used)

    def test_alpha_variants_give_identical_canonicals(self):
        rng = random.Random(23)
        for _ in range(100):
            term, _ = random_lemma_term(rng)
            renamed = parse_term(
                render_term(term).replace('"fv', '"other_v')
            )
            assert abstract(term).canonical == abstract(renamed).canonical

    def test_output_typechecks(self):
        rng = random.Random(29)
        for _ in range(100):
            term, _ = random_lemma_term(rng)
            typecheck(abstract(term).body)

    def test_type_generalization_is_maximal(self):
        # `nat list` must collapse to a single type variable, not `a0 list`.
        nat_list = TCon("List.list", (TCon("Nat.nat"),))
        rev = Const("List.rev", fun(nat_list, nat_list))
        x = Free("xs", nat_list)
        eq = Const("HOL.eq", fun(nat_list, fun(nat_list, TCon("HOL.bool"))))
        tpl = abstract(App(App(eq, App(rev, x)), x))
        hole_ty = tpl.hole_types[1]
        assert hole_ty == fun(TVar("a0"), TVar("a0"))

    def test_shared_subtree_shares_tvar(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        assert tpl.hole_types[1] == fun(
            TVar("a0"), fun(TVar("a0"), TVar("a0"))
        )

    def test_rejects_ill_typed(self):
        f = Const("T.f", fun(TCon("T.a"), TCon("T.b")))
        bad = App(f, Free("x", TCon("T.c")))
        with pytest.raises(IllTyped):
            abstract(bad)

    def test_rejects_hole_in_input(self):
        with pytest.raises(IllTyped):
            abstract(Hole(1, TVar("'a")))

    def test_custom_whitelist_keeps_symbol(self, lemma_assoc_plus):
        w = Whitelist(
            prefixes=frozenset({"HOL.", "Octonions."}), exact=frozenset()
        )
        tpl = abstract(lemma_assoc_plus, w)
        assert tpl.hole_count == 0


class TestParseTemplate:
    def test_round_trip(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        again = parse_template(tpl.canonical)
        assert again == tpl
        assert again.canonical == tpl.canonical

    def test_rejects_non_whitelist_constant(self):
        text = (
            '(app (hole 1 (tc "fun" (tv "a0") (tv "a0")))'
            ' (const "Octonions.octo_plus" (tv "a0")))'
        )
        with pytest.raises(NonCanonical):
            parse_template(text)

    def test_rejects_gap_in_hole_indices(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        text = tpl.canonical.replace("(hole 2 ", "(hole 3 ")
        with pytest.raises(NonCanonical):
            parse_template(text)

    def test_rejects_noncanonical_free_names(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        text = tpl.canonical.replace('"x1"', '"foo"')
        with pytest.raises(NonCanonical):
            parse_template(text)

    def test_rejects_noncanonical_tvars(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        text = tpl.canonical.replace('(tv "a0")', '(tv "zz")')
        with pytest.raises(NonCanonical):
            parse_template(text)

    def test_syntax_error(self):
        with pytest.raises(TermSyntaxError):
            parse_template("(((")


class TestCanonicalString:
    def test_deterministic(self, lemma_assoc_plus):
        t1 = abstract(lemma_assoc_plus)
        t2 = abstract(lemma_assoc_plus)
        assert t1.canonical == t2.canonical

    def test_distinct_templates_differ(
        self, lemma_assoc_plus, lemma_noncommutative
    ):
        assert (
            abstract(lemma_assoc_plus).canonical
            != abstract(lemma_noncommutative).canonical
        )

    def test_template_hashable_by_canonical(self, lemma_assoc_plus):
        t1 = abstract(lemma_assoc_plus)
        t2 = parse_template(t1.canonical)
        assert len({t1, t2}) == 1


def _assert_annotations_shared(tpl):
    """Equal annotations in tpl.body are one object, and the canonical string
    and body are those of an unshared copy."""
    anns = list(annotations(tpl.body))
    by_value = {}
    for ty in anns:
        assert by_value.setdefault(ty, ty) is ty
    unshared = map_types(tpl.body, lambda ty: parse_type(render_type(ty)))
    assert unshared == tpl.body
    assert render_term(unshared) == tpl.canonical
    return len(anns), len(by_value)


class TestSharedAnnotations:
    def test_distrib_after_abstract_and_parse(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        assert _assert_annotations_shared(tpl) == (13, 3)
        again = parse_template(tpl.canonical)
        assert _assert_annotations_shared(again) == (13, 3)
        assert again.canonical == tpl.canonical
        assert all(
            again.hole_types[i] == tpl.hole_types[i] for i in tpl.hole_types
        )

    def test_random_templates(self, lemma_noncommutative):
        rng = random.Random(23)
        shared = 0
        for _ in range(200):
            term, _ = random_lemma_term(rng)
            tpl = abstract(term)
            n, distinct = _assert_annotations_shared(tpl)
            shared += n - distinct
            again = parse_template(tpl.canonical)
            _assert_annotations_shared(again)
            assert again.canonical == tpl.canonical and again == tpl
        assert shared > 0
        tpl = abstract(lemma_noncommutative)
        assert any(isinstance(s, Abs) for s in subterms(tpl.body))
        _assert_annotations_shared(tpl)
        _assert_annotations_shared(parse_template(tpl.canonical))
