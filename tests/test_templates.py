import random

import pytest

from lemmakit import templates
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
    Bound,
    Const,
    Free,
    Hole,
    TCon,
    TVar,
    TermSyntaxError,
    TypecheckError,
    fun,
    is_fun,
    map_types,
    parse_term,
    parse_type,
    render_term,
    render_type,
    subterms,
    type_vars,
    typecheck,
)

from oracles import random_lemma_term, reference_abstract

OCTO = TCon("Octonions.octo")
BOOL = TCon("HOL.bool")


def annotations(t):
    """All type annotations in term preorder (Abs binder types included)."""
    for s in subterms(t):
        if isinstance(s, (Const, Free, Hole)):
            yield s.type
        elif isinstance(s, Abs):
            yield s.binder_type


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

    def test_function_type_of_any_arity_generalizes_each_argument(self):
        # A "fun" with one argument raised IndexError; with three, the third
        # was dropped.
        nat = TCon("Nat.nat")
        for args, want in (
            ((nat,), '(tv "a0")'),
            ((nat, BOOL, nat), '(tv "a0") (tv "a1") (tv "a0")'),
        ):
            odd = TCon("fun", args)
            x = Free("x", odd)
            tpl = abstract(App(App(Const("HOL.eq", fun(odd, fun(odd, BOOL))), x), x))
            assert f'(free "x1" (tc "fun" {want}))' in tpl.canonical
            assert parse_template(tpl.canonical) == tpl
            with pytest.raises(IllTyped):
                abstract(App(x, Free("y", nat)))

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


# ---------------------------------------------------------------------------
# The validator as it was before it became one walk: five walks over the body
# and a typecheck.  The reference for TestValidatorReference.


def _abs_depths(t, depth=0):
    if isinstance(t, Abs):
        yield t, depth
        yield from _abs_depths(t.body, depth + 1)
    elif isinstance(t, App):
        yield from _abs_depths(t.fn, depth)
        yield from _abs_depths(t.arg, depth)


def _reference_validate(body, w):
    for s in subterms(body):
        if isinstance(s, Const) and not w.contains(s.name):
            raise NonCanonical(f"non-whitelist constant {s.name!r} in template")

    hole_order = []
    hole_types = {}
    for s in subterms(body):
        if isinstance(s, Hole):
            if s.index not in hole_order:
                hole_order.append(s.index)
                hole_types[s.index] = s.type
            elif hole_types[s.index] != s.type:
                raise NonCanonical(
                    f"hole {s.index} occurs with differing type annotations"
                )
    if hole_order != list(range(1, len(hole_order) + 1)):
        raise NonCanonical(f"hole indices {hole_order} are not 1..n by first occurrence")

    frees = []
    for s in subterms(body):
        if isinstance(s, Free) and s.name not in frees:
            frees.append(s.name)
    if frees != [f"x{i}" for i in range(1, len(frees) + 1)]:
        raise NonCanonical(f"free variables {frees} are not x1..xn by first occurrence")

    for node, depth in _abs_depths(body):
        if node.binder != f"y{depth}":
            raise NonCanonical(
                f"binder {node.binder!r} at nesting depth {depth} should be y{depth}"
            )

    tvars = []
    for ann in annotations(body):
        type_vars(ann, tvars)
    if tvars != [f"a{i}" for i in range(len(tvars))]:
        raise NonCanonical(f"type variables {tvars} are not a0.. by first occurrence")

    try:
        typecheck(body, None)
    except TypecheckError as e:
        raise NonCanonical(f"template does not typecheck: {e}") from e

    return len(hole_order), hole_types


def _closed(t, n):
    """t under a ∀ for each of its first n free variables, the first
    outermost."""
    frees = {s.name: s.type for s in subterms(t) if isinstance(s, Free)}
    names = list(frees)[:n]

    def bind(u):
        if isinstance(u, Free) and u.name in names:
            return Bound(len(names) - 1 - names.index(u.name))
        if isinstance(u, App):
            return App(bind(u.fn), bind(u.arg))
        return u

    body = bind(t)
    for name in reversed(names):
        ty = frees[name]
        body = App(Const("HOL.All", fun(fun(ty, BOOL), BOOL)), Abs(name, ty, body))
    return body


# Single-occurrence edits: renamed frees, type variables and binders, shifted
# holes, foreign constants, concrete types, and an unbound index.
_EDITS = [
    ('"x1"', '"x2"'), ('"x2"', '"x1"'), ('"x2"', '"x3"'), ('"x1"', '"v"'),
    ('(tv "a0")', '(tv "a1")'), ('(tv "a1")', '(tv "a0")'), ('(tv "a1")', '(tv "a3")'),
    ('(tv "a0")', '(tv "b")'),
    ('"y0"', '"y1"'), ('"y1"', '"y0"'), ('"y0"', '"z"'),
    ("(hole 1 ", "(hole 2 "), ("(hole 2 ", "(hole 1 "), ("(hole 1 ", "(hole 3 "),
    ("(hole 2 ", "(hole 4 "),
    ('(const "HOL.eq"', '(const "Foo.eq"'), ('(const "HOL.All"', '(const "Bar.All"'),
    ('(tv "a0")', '(tc "Nat.nat")'), ('(tv "a1")', '(tc "fun" (tv "a0") (tv "a0"))'),
    ("(bound 0)", "(bound 4)"),
]


def _mutants(text, rng, n):
    """n copies of text, each with one to three single-occurrence edits."""
    out = []
    while len(out) < n:
        mutant = text
        for _ in range(rng.randint(1, 3)):
            old, new = rng.choice(_EDITS)
            at = [i for i in range(len(mutant)) if mutant.startswith(old, i)]
            if at:
                i = rng.choice(at)
                mutant = mutant[:i] + new + mutant[i + len(old):]
        if mutant != text:
            out.append(mutant)
    return out


def _outcome(make):
    try:
        tpl = make()
    except NonCanonical as e:
        return type(e), str(e)
    return tpl.hole_count, tpl.hole_types, tpl.canonical


def _reference_parse(text, w):
    body = parse_term(text)
    count, types = _reference_validate(body, w)
    return Template(body=body, hole_count=count, hole_types=types, canonical=render_term(body))


# Each kind of NonCanonical message, by its start, in the order checked.
_KINDS = (
    "non-whitelist constant", "hole indices", "hole ", "free variables", "binder",
    "type variables", "template does not typecheck",
)


def _kind(message):
    return next(k for k in _KINDS if message.startswith(k))


class TestValidatorReference:
    def test_mutated_canonicals_match_the_reference(
        self, lemma_noncommutative, lemma_distrib_left, lemma_assoc_plus
    ):
        rng = random.Random(41)
        w = default_whitelist()
        terms = [lemma_noncommutative, lemma_distrib_left, lemma_assoc_plus]
        for _ in range(60):
            term, _ = random_lemma_term(rng)
            terms += [term, _closed(term, 1), _closed(term, 9)]
        kinds = set()
        for term in terms:
            canonical = abstract(term).canonical
            for text in [canonical] + _mutants(canonical, rng, 8):
                got = _outcome(lambda: parse_template(text, w))
                assert got == _outcome(lambda: _reference_parse(text, w)), text
                if got[0] is NonCanonical:
                    kinds.add(_kind(got[1]))
        assert kinds == set(_KINDS)

    def test_first_kind_broken_is_reported(self, lemma_noncommutative):
        canonical = abstract(lemma_noncommutative).canonical
        w = default_whitelist()
        # Offences of ever earlier kinds: typing, type variables, binder, constant.
        edits = [
            ("(bound 0)", "(bound 7)"),
            ('(tv "a1")', '(tv "b")'),
            ('"y1"', '"q"'),
            ('(const "HOL.eq"', '(const "Foo.eq"'),
        ]
        kinds = []
        for k in range(1, len(edits) + 1):
            text = canonical
            for old, new in edits[:k]:
                text = text.replace(old, new)
            got = _outcome(lambda: parse_template(text, w))
            assert got == _outcome(lambda: _reference_parse(text, w))
            kinds.append(_kind(got[1]))
        assert kinds == [
            "template does not typecheck", "type variables", "binder",
            "non-whitelist constant",
        ]


class TestPinnedCanonicals:
    """Canonical strings as the five-walk `abstract` produced them."""

    def test_binders(self, lemma_noncommutative):
        assert abstract(lemma_noncommutative).canonical == (
            '(app (const "HOL.Not" (tc "fun" (tv "a0") (tv "a0"))) (app (const "HOL.All" '
            '(tc "fun" (tc "fun" (tv "a1") (tv "a0")) (tv "a0"))) (abs "y0" (tv "a1") '
            '(app (const "HOL.All" (tc "fun" (tc "fun" (tv "a1") (tv "a0")) (tv "a0"))) '
            '(abs "y1" (tv "a1") (app (app (const "HOL.eq" (tc "fun" (tv "a1") (tc "fun" '
            '(tv "a1") (tv "a0")))) (app (app (hole 1 (tc "fun" (tv "a1") (tc "fun" '
            '(tv "a1") (tv "a1")))) (bound 1)) (bound 0))) (app (app (hole 1 (tc "fun" '
            '(tv "a1") (tc "fun" (tv "a1") (tv "a1")))) (bound 0)) (bound 1))))))))'
        )

    def test_polymorphic_constant_merges_hole_types(self):
        nat = TCon("Nat.nat")
        nats, bools = TCon("List.list", (nat,)), TCon("List.list", (BOOL,))
        eq = Const("HOL.eq", fun(nat, fun(nat, BOOL)))
        length = lambda ty, x: App(Const("List.length", fun(ty, nat)), Free(x, ty))
        tpl = abstract(App(App(eq, length(nats, "xs")), length(bools, "bs")))
        assert tpl.canonical == (
            '(app (app (const "HOL.eq" (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a1")))) '
            '(app (hole 1 (tc "fun" (tv "a2") (tv "a0"))) (free "x1" (tv "a2")))) '
            '(app (hole 1 (tc "fun" (tv "a2") (tv "a0"))) (free "x2" (tv "a2"))))'
        )
        assert tpl.hole_count == 1 and tpl.hole_types == {1: fun(TVar("a2"), TVar("a0"))}
        _assert_annotations_shared(tpl)

    def test_unreconcilable_hole_types_message(self):
        nat = TCon("Nat.nat")
        f = fun(nat, nat)
        eq = Const("HOL.eq", fun(nat, fun(nat, BOOL)))
        x = Free("x", nat)
        twice = App(App(Const("T.c", fun(f, f)), Const("T.c", f)), x)
        with pytest.raises(IllTyped) as e:
            abstract(App(App(eq, twice), x))
        assert str(e.value) == (
            "cannot reconcile hole occurrence types: occurs check: '?g0' in "
            '(tc "fun" (tv "?g0") (tv "?g0"))'
        )


# ---------------------------------------------------------------------------
# One gate: `abstract` returns the templates its walk vouches for unchecked,
# and sends a merged body through `parse_template`.

NAT = TCon("Nat.nat")
_GROUND = (NAT, TCon("List.list", (NAT,)), BOOL)
# Few names, so that one constant meets several types and holes merge.
_NAMES = ("T.c", "T.d", "T.e")


def _random_type(rng, depth):
    if depth and rng.random() < 0.4:
        return fun(_random_type(rng, depth - 1), _random_type(rng, depth - 1))
    return rng.choice(_GROUND)


def _random_term(rng, target, depth, bound, frees):
    """A random term of type `target` under binders of types `bound`
    (innermost last); `frees` names one free variable per type."""
    at = [i for i, ty in enumerate(reversed(bound)) if ty == target]
    roll = rng.random()
    if at and roll < 0.3:
        return Bound(rng.choice(at))
    if is_fun(target) and depth and roll < 0.5:
        a, b = target.args
        return Abs("z", a, _random_term(rng, b, depth - 1, bound + [a], frees))
    if depth and roll < 0.85:
        args = [_random_type(rng, 1) for _ in range(rng.randint(0, 2))]
        ty = target
        for a in reversed(args):
            ty = fun(a, ty)
        t = Const(rng.choice(_NAMES), ty)
        for a in args:
            t = App(t, _random_term(rng, a, depth - 1, bound, frees))
        return t
    if roll > 0.99:
        return Hole(1, target)
    return Free(frees.setdefault(target, f"v{len(frees)}"), target)


def _weaken(rng, t, p, names):
    """`t` with random subtrees of its theory constants' and frees'
    annotations replaced by type variables from `names`, for typechecking to
    bind; reusing a name may make the lemma ill-typed."""
    def ty(x):
        if rng.random() < p:
            return TVar(rng.choice(names))
        return TCon(x.name, tuple(map(ty, x.args))) if isinstance(x, TCon) else x

    if isinstance(t, (Const, Free)) and t.name.startswith(("T.", "v")):
        return type(t)(t.name, ty(t.type))
    if isinstance(t, Abs):
        return Abs(t.binder, t.binder_type, _weaken(rng, t.body, p, names))
    if isinstance(t, App):
        return App(_weaken(rng, t.fn, p, names), _weaken(rng, t.arg, p, names))
    return t


def _random_polymorphic_lemma(rng):
    ty = _random_type(rng, 1)
    frees = {}
    lhs, rhs = (_random_term(rng, ty, rng.randint(1, 4), [], frees) for _ in "lr")
    t = App(App(Const("HOL.eq", fun(ty, fun(ty, BOOL))), lhs), rhs)
    names = rng.choice((("'a",), ("'a", "'b"), ("'a", "'b", "'c", "'d")))
    return _weaken(rng, t, rng.choice((0.0, 0.1, 0.25)), names)


def _merges(t):
    """Whether a theory constant of `t` occurs at two types: generalization
    keeps types apart, so its hole then needs a merge."""
    seen = {}
    return any(
        seen.setdefault(s.name, s.type) != s.type
        for s in subterms(t)
        if isinstance(s, Const) and not default_whitelist().contains(s.name)
    )


@pytest.fixture
def typecheck_calls(monkeypatch):
    """The terms `templates` typechecks, in call order."""
    calls = []

    def counted(t, sig=None):
        calls.append(t)
        return typecheck(t, sig)

    monkeypatch.setattr(templates, "typecheck", counted)
    return calls


def _abstract_outcome(make, t):
    try:
        tpl = make(t)
    except (IllTyped, NonCanonical) as e:
        return type(e), str(e)
    return tpl.body, tpl.hole_count, tpl.hole_types, tpl.canonical


class TestAbstractGate:
    def test_agrees_with_the_reference_on_random_lemmas(self, typecheck_calls):
        rng = random.Random(27)
        kinds = {}
        for _ in range(400):
            t = _random_polymorphic_lemma(rng)
            typecheck_calls.clear()
            got = _abstract_outcome(abstract, t)
            calls = len(typecheck_calls)
            assert got == _abstract_outcome(reference_abstract, t), render_term(t)
            if got[0] is IllTyped:
                kind = "unreconcilable" if "reconcile" in got[1] else "input"
                assert calls == (0 if "holes" in got[1] else 1)
            else:
                kind = "gate" if got[0] is NonCanonical else "template"
                assert calls == 1 + _merges(t)
            if kind == "template":
                tpl = abstract(t)
                again = parse_template(tpl.canonical)
                assert again == tpl and again.hole_types == tpl.hole_types
                _assert_annotations_shared(tpl)
                _assert_annotations_shared(again)
                kind += " merged" if _merges(t) else ""
            kinds[kind] = kinds.get(kind, 0) + 1
        assert set(kinds) == {
            "template", "template merged", "unreconcilable", "gate", "input"
        }, kinds

    def test_merge_that_breaks_typing_fails_the_gate(self, typecheck_calls):
        """The input typechecks with 'a := nat ⇒ nat; the merged hole has
        one type, so `T.g`'s argument must be both a1 and a1 ⇒ a1."""
        conj = Const("HOL.conj", fun(BOOL, fun(BOOL, BOOL)))
        g = Const("T.g", fun(fun(NAT, NAT), BOOL))
        h = Const("T.h", fun(NAT, BOOL))
        c = lambda ty: Const("T.c", ty)
        t = App(App(conj, App(g, c(TVar("'a")))), App(h, c(NAT)))
        message = (
            'template does not typecheck: type mismatch at path (0, 1): expected '
            '(tc "fun" (tv "a1") (tv "?t1")), found (tc "fun" (tc "fun" (tv "a1") '
            '(tv "a1")) (tv "a0"))'
        )
        with pytest.raises(NonCanonical) as e:
            abstract(t)
        assert str(e.value) == message and len(typecheck_calls) == 2
        with pytest.raises(NonCanonical) as e:
            reference_abstract(t)
        assert str(e.value) == message
        typecheck_calls.clear()
        apart = App(App(conj, App(g, Const("T.d", TVar("'a")))), App(h, c(NAT)))
        assert abstract(apart).hole_count == 4 and len(typecheck_calls) == 1

    def test_one_inference_without_a_merge_two_with_one(
        self, typecheck_calls, lemma_distrib_left
    ):
        abstract(lemma_distrib_left)
        assert typecheck_calls == [lemma_distrib_left]
        typecheck_calls.clear()
        eq = Const("HOL.eq", fun(NAT, fun(NAT, BOOL)))
        length = lambda ty, x: App(Const("List.length", fun(ty, NAT)), Free(x, ty))
        lists = TCon("List.list", (NAT,)), TCon("List.list", (BOOL,))
        t = App(App(eq, length(lists[0], "xs")), length(lists[1], "bs"))
        merged = abstract(t)
        assert typecheck_calls == [t, merged.body] and typecheck_calls[0] is t

    def test_merged_body_too_deep_to_read_back_is_refused(self):
        """The lemma nests under MAX_DEPTH parentheses, but the merge puts a
        30-arrow type under its innermost hole.  The reference returns a
        template whose canonical string no reader can parse back; the gate
        refuses it with the parser's error."""
        x, deep = TVar("'x"), NAT
        for _ in range(30):
            deep = fun(deep, NAT)
        inner = Const("T.c", x)
        for _ in range(370):
            inner = App(Const("T.f", fun(x, x)), inner)
        t = App(App(Const("HOL.eq", fun(x, fun(x, BOOL))), inner), Const("T.c", deep))
        assert parse_term(render_term(t)) == t
        with pytest.raises(TermSyntaxError, match="nesting deeper than 400"):
            parse_term(reference_abstract(t).canonical)
        with pytest.raises(TermSyntaxError, match="nesting deeper than 400"):
            abstract(t)
