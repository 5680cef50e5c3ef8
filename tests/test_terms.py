import dataclasses
import gc
import json
import os
import random
import subprocess
import sys

import pytest

import lemmakit

from lemmakit.corpus import make_record
from lemmakit.evaluation import dedupe, evaluate_suite, make_task
from lemmakit.instantiation import Budget, feasible, instantiate, instantiate_texts
from lemmakit.proposer import propose_fixed
from lemmakit.quickspec import (
    InterpretedSignature,
    IntListSort,
    IntRangeSort,
    candidate_laws,
    emit_laws,
    enumerate_terms,
    load_interpreted_signature,
    reverify_laws,
)
from lemmakit.quickspec import test_partition as partition_by_testing
from lemmakit.templates import abstract, parse_template, pretty_term
from lemmakit.terms import (
    MAX_DEPTH,
    Abs,
    App,
    Bound,
    Const,
    Free,
    FreshNames,
    Hole,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    TermSyntaxError,
    TypeMismatch,
    UnboundIndex,
    UnificationError,
    UnknownConstant,
    alpha_equal,
    alpha_key,
    _escape,
    apply_type_subst,
    base_scheme,
    fun,
    map_types,
    parse_term,
    parse_type,
    render_parts,
    render_term,
    render_terms,
    render_type,
    resolve,
    subterms,
    typecheck,
    type_vars,
    unify_into,
    unify_types,
)

from oracles import (
    TYPE_CONS,
    _rename,
    free_name_set,
    random_lemma_term,
    random_type,
    unifiable_oracle,
)

OCTO = TCon("Octonions.octo")
BOOL = TCon("HOL.bool")


class TestParseRenderTypes:
    def test_fun_type(self):
        t = parse_type('(tc "fun" (tv "a") (tv "a"))')
        assert t == fun(TVar("a"), TVar("a"))

    def test_nullary_constructor(self):
        assert parse_type('(tc "Octonions.octo")') == OCTO

    def test_list_length_type(self):
        t = parse_type('(tc "fun" (tc "List.list" (tv "a")) (tc "Nat.nat"))')
        assert t == fun(TCon("List.list", (TVar("a"),)), TCon("Nat.nat"))

    def test_render_tvar(self):
        assert render_type(TVar("a")) == '(tv "a")'

    def test_render_binop(self):
        expected = (
            '(tc "fun" (tc "Octonions.octo") '
            '(tc "fun" (tc "Octonions.octo") (tc "Octonions.octo")))'
        )
        assert render_type(fun(OCTO, fun(OCTO, OCTO))) == expected

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(1000):
            t = random_type(rng, 3)
            assert parse_type(render_type(t)) == t

    def test_whitespace_tolerant_parse_canonical_render(self):
        t = parse_type('( tc  "fun"\n (tv "a")  (tv "b") )')
        assert render_type(t) == '(tc "fun" (tv "a") (tv "b"))'

    def test_string_escapes(self):
        t = TCon('we"ird\\name')
        assert parse_type(render_type(t)) == t

    def test_syntax_error_has_offset(self):
        with pytest.raises(TermSyntaxError) as exc:
            parse_type('(tc "fun" (tv "a")')
        assert exc.value.offset is not None

    def test_garbage_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_type("(bogus)")


class TestParseRenderTerms:
    def test_bound(self):
        assert parse_term("(bound 0)") == Bound(0)

    def test_hole(self):
        t = parse_term('(hole 1 (tc "fun" (tv "a") (tv "a")))')
        assert t == Hole(1, fun(TVar("a"), TVar("a")))

    def test_free(self):
        assert render_term(Free("x1", TVar("a"))) == '(free "x1" (tv "a"))'

    def test_distrib_term_round_trip(self, lemma_distrib_left):
        text = render_term(lemma_distrib_left)
        assert parse_term(text) == lemma_distrib_left

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            t, _ = random_lemma_term(rng)
            assert parse_term(render_term(t)) == t

    def test_render_injective_on_distinct(self):
        rng = random.Random(13)
        seen = {}
        for _ in range(300):
            t, _ = random_lemma_term(rng)
            s = render_term(t)
            if s in seen:
                assert seen[s] == t
            seen[s] = t

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TermSyntaxError):
            parse_term("(bound 0) (bound 1)")

    @pytest.mark.parametrize("text, offset", [("(bound ²)", 7), ("(bound 1²)", 8)])
    def test_non_decimal_digit_rejected_at_its_offset(self, text, offset):
        with pytest.raises(TermSyntaxError, match="unexpected character '²'") as exc:
            parse_term(text)
        assert exc.value.offset == offset

    def test_decimal_digits_of_any_script_still_parse(self):
        assert parse_term("(bound ٣)") == Bound(3)

    @pytest.mark.parametrize(
        "head, parse, offset",
        [("(bound ", parse_term, 7), ("(app ", parse_term, 5), ("(tc ", parse_type, 4)],
    )
    def test_decimal_run_longer_than_int_converts(self, head, parse, offset):
        """A run that `int` refuses is a syntax error at its offset, wherever
        it stands; one at the limit still parses."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(TermSyntaxError, match=f"number longer than {limit} digits") as exc:
            parse(head + "1" * 5000 + ")")
        assert exc.value.offset == offset
        assert parse_term("(bound " + "1" * limit + ")") == Bound(int("1" * limit))


def _render_term_recursive(t):
    """Reference: render_term as it was, rendering every annotation anew."""
    if isinstance(t, Const):
        return f"(const {_escape(t.name)} {render_type(t.type)})"
    if isinstance(t, Free):
        return f"(free {_escape(t.name)} {render_type(t.type)})"
    if isinstance(t, Bound):
        return f"(bound {t.index})"
    if isinstance(t, Abs):
        return (
            f"(abs {_escape(t.binder)} {render_type(t.binder_type)} "
            f"{_render_term_recursive(t.body)})"
        )
    if isinstance(t, App):
        return f"(app {_render_term_recursive(t.fn)} {_render_term_recursive(t.arg)})"
    return f"(hole {t.index} {render_type(t.type)})"


def _shared(t):
    """t with every group of equal annotations made one object."""
    pool = {}
    return map_types(t, lambda ty: pool.setdefault(ty, ty))


def _quantify(t):
    """∀ over t's first free variable, which becomes a bound one (a vacuous
    ∀ over a fresh boolean when t has none)."""
    v = next((s for s in subterms(t) if isinstance(s, Free)), Free("", BOOL))

    def bind(u):
        if isinstance(u, Free) and u.name == v.name:
            return Bound(0)
        if isinstance(u, App):
            return App(bind(u.fn), bind(u.arg))
        return u

    all_ty = fun(fun(v.type, BOOL), BOOL)
    return App(Const("HOL.All", all_ty), Abs("y0", v.type, bind(t)))


class TestRenderSharedTypes:
    def test_matches_reference_on_shared_and_unshared(self):
        rng = random.Random(17)
        for _ in range(300):
            t, _ = random_lemma_term(rng)
            q = _quantify(t)
            for u in (t, q):
                holes = abstract(u).body
                for w in (u, parse_term(render_term(u)), _shared(u), holes):
                    assert render_term(w) == _render_term_recursive(w)
            assert any(isinstance(s, Abs) for s in subterms(abstract(q).body))

    def test_one_memo_for_many_terms(self):
        """`render_terms` renders a list through one memo: terms that share
        leaves and annotations, equal copies of them, and one term twice."""
        rng = random.Random(29)
        for _ in range(60):
            t, _ = random_lemma_term(rng)
            q = _quantify(t)
            shared = _shared(q)
            batch = [t, q, shared, abstract(q).body, shared, parse_term(render_term(t)), t]
            batch += [App(Const("C.f", fun(BOOL, BOOL)), u) for u in (shared, q)]
            assert render_terms(batch) == [_render_term_recursive(u) for u in batch]
        assert render_terms([]) == []

    def test_one_type_object_in_many_roles(self):
        """One object as a binder type, a constant's, a free's and a hole's
        annotation, next to an equal but distinct object."""
        a = fun(OCTO, OCTO)
        a_copy = fun(OCTO, OCTO)
        t = Abs(
            "y\\0",
            a,
            App(
                App(Const("C.c", fun(a, fun(a_copy, a))), Free("x1", a)),
                App(Hole(1, fun(a, a)), App(Hole(2, a_copy), Bound(0))),
            ),
        )
        t = App(Const('we"ird', fun(a, BOOL)), t)
        assert render_term(t) == _render_term_recursive(t)
        assert render_term(_shared(t)) == _render_term_recursive(t)
        assert parse_term(render_term(t)) == t


def _rejoin(parts):
    """`parts` joined, each type rendered by `render_type` and each hole by
    `render_term`."""
    return "".join(
        p if isinstance(p, str) else render_term(p) if isinstance(p, Hole) else render_type(p)
        for p in parts
    )


class TestRenderParts:
    def test_rejoin_to_render_term_on_random_terms(self):
        rng = random.Random(37)
        holes = slots = 0
        for _ in range(300):
            t, _ = random_lemma_term(rng)
            q = _quantify(t)
            for u in (t, q, abstract(t).body, abstract(q).body, _shared(q)):
                parts = render_parts(u)
                assert _rejoin(parts) == render_term(u)
                # Literal runs are one part, and no part is empty.
                kinds = [isinstance(p, str) for p in parts]
                assert not any(a and b for a, b in zip(kinds, kinds[1:]))
                assert all(p != "" for p in parts)
                holes += sum(isinstance(p, Hole) for p in parts)
                slots += kinds.count(False)
        assert holes > 300 and slots > 3 * holes

    def test_slots_are_the_nodes_and_annotations(self):
        a = fun(OCTO, OCTO)
        h = Hole(2, a)
        t = Abs('y"\\', a, App(App(Const("C.c", fun(a, fun(a, a))), h), Bound(0)))
        assert render_parts(h) == [h]
        assert render_parts(t) == [
            '(abs "y\\"\\\\" ', a, ' (app (app (const "C.c" ', t.body.fn.fn.type, ") ",
            h, ") (bound 0)))",
        ]
        assert all(x is y for x, y in zip(render_parts(t)[1::2], (a, t.body.fn.fn.type, h)))


def _nesting(text):
    depth = deepest = 0
    for c in text:
        if c == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif c == ")":
            depth -= 1
    return deepest


S = '(tc "S")'
S_TO_S = f'(tc "fun" {S} {S})'


def _deep_terms(depth):
    """Terms whose parenthesis nesting is exactly `depth`, one per way of
    nesting: arguments, function heads, binders and types."""
    arg = f'(free "x1" {S})'
    for _ in range(depth - 3):
        arg = f'(app (const "T.f" {S_TO_S}) {arg})'
    # n applications of a constant of arity n nest 2n + 2 deep; an odd depth
    # gets one more level from the result type.
    n, odd = divmod(depth - 2, 2)
    ty = '(tc "L" (tc "S"))' if odd else S
    for _ in range(n):
        ty = f'(tc "fun" {S} {ty})'
    head = f'(const "T.g" {ty})'
    for _ in range(n):
        head = f'(app {head} (free "x1" {S}))'
    body = "(bound 0)"
    for k in reversed(range(depth - 1)):
        body = f'(abs "y{k}" {S} {body})'
    deep_type = S
    for _ in range(depth - 2):
        deep_type = f'(tc "fun" {S} {deep_type})'
    typed = f'(free "x1" {deep_type})'
    return {"arg": arg, "head": head, "abs": body, "type": typed}


class TestNestingLimit:
    SIG = Signature(
        [SignatureEntry("T.f", fun(TCon("S"), TCon("S")))]
    )

    @pytest.mark.parametrize("shape", ["arg", "head", "abs", "type"])
    def test_term_at_the_limit_round_trips(self, shape):
        text = _deep_terms(MAX_DEPTH)[shape]
        assert _nesting(text) == MAX_DEPTH
        t = parse_term(text)
        assert render_term(t) == text
        typecheck(t)
        assert len(list(subterms(t))) >= 1
        assert alpha_equal(t, parse_term(text))
        if shape == "arg":
            typecheck(t, self.SIG)
            tpl = abstract(t, sig=self.SIG)
            assert tpl.hole_count == 1
            assert render_term(parse_term(tpl.canonical)) == tpl.canonical

    @pytest.mark.parametrize("shape", ["arg", "head", "abs", "type"])
    def test_one_deeper_raises_with_offset(self, shape):
        text = _deep_terms(MAX_DEPTH + 1)[shape]
        with pytest.raises(TermSyntaxError) as exc:
            parse_term(text)
        # The offset is that of the first parenthesis past the limit.
        depth, offending = 0, None
        for i, c in enumerate(text):
            depth += {"(": 1, ")": -1}.get(c, 0)
            if depth > MAX_DEPTH:
                offending = i
                break
        assert exc.value.offset == offending and text[offending] == "("
        assert f"deeper than {MAX_DEPTH}" in str(exc.value)

    def test_equality_at_the_limit_in_a_fresh_interpreter(self):
        # A fresh interpreter starts with an empty stack at the default
        # recursion limit, as a library caller's does.  Each term is also
        # compared with copies that differ at its first and its last type
        # name, so a difference is found at either end of the nesting.
        code = (
            "import json, sys\n"
            "from lemmakit.terms import parse_term\n"
            "for text in json.load(sys.stdin):\n"
            "    a, b = parse_term(text), parse_term(text)\n"
            "    assert a == b and not a != b and hash(a) == hash(b)\n"
            "    first = parse_term(text.replace('\"S\"', '\"R\"', 1))\n"
            "    last = parse_term('\"R\"'.join(text.rsplit('\"S\"', 1)))\n"
            "    assert a != first and a != last and not a == last\n"
            "print('ok')\n"
        )
        src = os.path.dirname(os.path.dirname(lemmakit.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(list(_deep_terms(MAX_DEPTH).values())),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr[-2000:]

    def test_deep_type_rejected(self):
        ty = S
        for _ in range(MAX_DEPTH - 1):
            ty = f'(tc "fun" {S} {ty})'
        assert render_type(parse_type(ty)) == ty
        with pytest.raises(TermSyntaxError):
            parse_type(f'(tc "fun" {S} {ty})')


class TestTypecheck:
    def test_distrib_is_bool(self, lemma_distrib_left, octo_signature):
        assert typecheck(lemma_distrib_left, octo_signature) == BOOL

    def test_identity_abs(self):
        assert typecheck(Abs("y", TVar("a"), Bound(0))) == fun(TVar("a"), TVar("a"))

    def test_list_vs_nat_mismatch(self):
        length = Const(
            "List.length", fun(TCon("List.list", (TVar("a"),)), TCon("Nat.nat"))
        )
        five = Free("five", TCon("Nat.nat"))
        with pytest.raises(TypeMismatch):
            typecheck(App(length, five))

    def test_unknown_constant(self, lemma_distrib_left):
        with pytest.raises(UnknownConstant):
            typecheck(lemma_distrib_left, Signature([]))

    def test_unbound_index(self):
        with pytest.raises(UnboundIndex):
            typecheck(Abs("y", TVar("a"), Bound(3)))

    def test_annotation_must_unify_with_scheme(self):
        sig = Signature(
            [SignatureEntry("T.c", fun(TCon("T.a"), TCon("T.a")), None)]
        )
        bad = Const("T.c", fun(TCon("T.a"), TCon("T.b")))
        with pytest.raises(TypeMismatch):
            typecheck(bad, sig)

    def test_alpha_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            t, _ = random_lemma_term(rng)
            renamed = parse_term(
                render_term(t).replace('"fv0"', '"zz9"')
            )
            assert typecheck(t) == typecheck(renamed)


class TestUnification:
    def test_basic_mgu(self):
        s = unify_types(fun(TVar("a"), TVar("a")), fun(OCTO, TVar("b")))
        assert apply_type_subst(s, TVar("a")) == OCTO
        assert apply_type_subst(s, TVar("b")) == OCTO

    def test_clash(self):
        with pytest.raises(UnificationError):
            unify_types(TCon("Nat.nat"), BOOL)

    def test_occurs_check(self):
        with pytest.raises(UnificationError):
            unify_types(TVar("a"), TCon("List.list", (TVar("a"),)))

    def test_random_properties(self):
        rng = random.Random(21)
        agreements = 0
        for _ in range(1000):
            a = random_type(rng, 3)
            b = random_type(rng, 3)
            try:
                s = unify_types(a, b)
            except UnificationError:
                assert not unifiable_oracle(a, b)
                agreements += 1
                continue
            ra, rb = apply_type_subst(s, a), apply_type_subst(s, b)
            assert ra == rb
            # idempotence
            for v, t in s.items():
                assert apply_type_subst(s, t) == t
            assert unifiable_oracle(a, b)
            agreements += 1
        assert agreements == 1000


def _resolve_copying(s, t):
    """Reference: resolve as it was, rebuilding every TCon it visits."""
    while isinstance(t, TVar) and t.name in s:
        t = s[t.name]
    if isinstance(t, TVar):
        return t
    return TCon(t.name, tuple(_resolve_copying(s, a) for a in t.args))


class TestResolve:
    def test_unchanged_types_come_back_as_the_same_object(self):
        s = {"c": OCTO, "d": TVar("c")}
        ground = fun(OCTO, TCon("List.list", (BOOL,)))
        unbound = fun(TVar("a"), TCon("List.list", (TVar("b"),)))
        for t in (ground, unbound, OCTO, TVar("a")):
            assert resolve(s, t) is t
            assert resolve({}, t) is t

    def test_only_changed_subtrees_are_rebuilt(self):
        left = fun(OCTO, BOOL)
        t = fun(left, TCon("List.list", (TVar("d"),)))
        bound = TCon("Nat.nat")
        r = resolve({"d": TVar("c"), "c": bound}, t)
        assert r == fun(left, TCon("List.list", (bound,)))
        assert r.args[0] is left and r.args[1].args[0] is bound
        assert resolve({"a": left}, TVar("a")) is left

    def test_matches_copying_reference_on_random_types(self):
        rng = random.Random(31)
        names = ("v1", "v2", "v3")
        shared = 0
        for _ in range(400):
            s = {}
            for _ in range(rng.randint(0, 3)):
                try:
                    unify_into(s, random_type(rng, 2, names), random_type(rng, 2, names))
                except UnificationError:
                    pass  # keeps the bindings made before the clash
            for _ in range(5):
                t = random_type(rng, 3, names)
                got = resolve(s, t)
                assert got == _resolve_copying(s, t)
                assert render_type(got) == render_type(_resolve_copying(s, t))
                if not any(v in s for v in type_vars(t)):
                    assert got is t
                    shared += 1
        assert shared > 200


class TestFreshNames:
    def test_var_and_rename_share_one_sequence(self):
        fresh = FreshNames("?t")
        assert fresh.var() == TVar("?t1")
        scheme = fun(TVar("b"), fun(TVar("a"), TVar("b")))
        assert fresh.rename(scheme) == fun(TVar("?t2"), fun(TVar("?t3"), TVar("?t2")))
        assert fresh.var() == TVar("?t4") and fresh.n == 4

    def test_given_type_vars_rename_like_a_scan(self):
        rng = random.Random(5)
        for _ in range(200):
            scheme = random_type(rng, 3)
            scanned, given = FreshNames("?f"), FreshNames("?f")
            assert given.rename(scheme, type_vars(scheme)) == scanned.rename(scheme)
            assert given.n == scanned.n == len(type_vars(scheme))


class TestBaseScheme:
    def test_builtin_and_unknown_names(self):
        a = TVar("a")
        assert base_scheme("HOL.eq") == fun(a, fun(a, BOOL))
        assert base_scheme("HOL.True") == BOOL
        assert base_scheme("Octonions.octo_plus") is None


class TestUnifyInto:
    def test_extends_the_given_map_in_place(self):
        s = {"c": OCTO}
        assert unify_into(s, fun(TVar("a"), TVar("b")), fun(TVar("c"), TVar("a"))) is None
        assert s["c"] == OCTO
        assert resolve(s, TVar("a")) == resolve(s, TVar("b")) == OCTO


class TestAlphaEqual:
    def test_variable_names_do_not_matter(self, lemma_assoc_plus):
        renamed = parse_term(
            render_term(lemma_assoc_plus)
            .replace('"a"', '"x"')
            .replace('"b"', '"y"')
            .replace('"c"', '"z"')
        )
        assert alpha_equal(lemma_assoc_plus, renamed)

    def test_swap_is_not_alpha(self):
        plus = Const("G.plus", fun(OCTO, fun(OCTO, OCTO)))
        a, b = Free("a", OCTO), Free("b", OCTO)
        ab = App(App(plus, a), b)
        ba = App(App(plus, b), a)
        assert not alpha_equal(ab, ba)

    def test_const_mismatch(self, lemma_assoc_plus, lemma_distrib_left):
        assert not alpha_equal(lemma_assoc_plus, lemma_distrib_left)

    def test_binder_names_ignored(self):
        x = Abs("x", OCTO, Bound(0))
        y = Abs("completely_else", OCTO, Bound(0))
        assert alpha_equal(x, y)

    def test_tvar_bijection(self):
        c1 = Free("x", fun(TVar("a"), TVar("b")))
        c2 = Free("x", fun(TVar("p"), TVar("q")))
        c3 = Free("x", fun(TVar("p"), TVar("p")))
        assert alpha_equal(c1, c2)
        assert not alpha_equal(c1, c3)

    def test_reflexive_symmetric_transitive(self):
        rng = random.Random(5)
        terms = [random_lemma_term(rng)[0] for _ in range(30)]
        for t in terms:
            assert alpha_equal(t, t)
        for a in terms[:10]:
            for b in terms[:10]:
                assert alpha_equal(a, b) == alpha_equal(b, a)
                for c in terms[:10]:
                    if alpha_equal(a, b) and alpha_equal(b, c):
                        assert alpha_equal(a, c)


def _alpha_key_recursive(t):
    """Reference: alpha_key as it was, a recursive preorder walk."""
    out, frees, tvars = [], {}, {}

    def types(x):
        if isinstance(x, TVar):
            out.extend(("tv", tvars.setdefault(x.name, len(tvars))))
        else:
            out.extend(("tc", x.name, len(x.args)))
            for a in x.args:
                types(a)

    def go(x):
        if isinstance(x, Const):
            out.extend(("const", x.name))
            types(x.type)
        elif isinstance(x, Free):
            out.extend(("free", frees.setdefault(x.name, len(frees))))
            types(x.type)
        elif isinstance(x, Bound):
            out.extend(("bound", x.index))
        elif isinstance(x, Abs):
            out.append("abs")
            types(x.binder_type)
            go(x.body)
        elif isinstance(x, App):
            out.append("app")
            go(x.fn)
            go(x.arg)
        else:
            out.extend(("hole", x.index))
            types(x.type)

    go(t)
    return tuple(out)


def _subterms_recursive(t):
    """Reference: subterms as it was, a recursive generator."""
    yield t
    if isinstance(t, Abs):
        yield from _subterms_recursive(t.body)
    elif isinstance(t, App):
        yield from _subterms_recursive(t.fn)
        yield from _subterms_recursive(t.arg)


class TestSubterms:
    @staticmethod
    def _same(t):
        got, expected = list(subterms(t)), list(_subterms_recursive(t))
        assert len(got) == len(expected)
        assert all(a is b for a, b in zip(got, expected))

    def test_matches_recursive_reference(self):
        rng = random.Random(41)
        for _ in range(200):
            t, _ = random_lemma_term(rng)
            for u in (t, _quantify(t), abstract(_quantify(t)).body):
                self._same(u)

    @pytest.mark.parametrize("shape", ["arg", "head", "abs", "type"])
    def test_matches_recursive_reference_at_the_depth_limit(self, shape):
        self._same(parse_term(_deep_terms(MAX_DEPTH)[shape]))

    def test_leaves_and_sharing(self):
        x = Free("x1", OCTO)
        shared = App(Const("T.f", fun(OCTO, OCTO)), x)
        t = App(shared, shared)
        assert [type(s).__name__ for s in subterms(t)] == [
            "App", "App", "Const", "Free", "App", "Const", "Free"
        ]
        assert list(subterms(x)) == [x]
        assert list(subterms(Bound(0))) == [Bound(0)]


class TestAlphaKey:
    def test_matches_recursive_reference(self):
        rng = random.Random(37)
        for _ in range(200):
            t, _ = random_lemma_term(rng)
            for u in (t, _quantify(t), abstract(_quantify(t)).body):
                assert alpha_key(u) == _alpha_key_recursive(u)


def _alpha_equal_pairwise(a, b):
    """Reference: alpha_equal as it was, one walk over both terms in step
    with a bijection of free names and one of type-variable names."""
    fmap, frev, tmap, trev = {}, {}, {}, {}
    frees_a = free_name_set(a)
    frees_b = free_name_set(b)
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        cls = x.__class__
        if cls is not y.__class__:
            return False
        if cls is App:
            stack.append((x.arg, y.arg))
            stack.append((x.fn, y.fn))
        elif cls is TCon:
            if x.name != y.name or len(x.args) != len(y.args):
                return False
            stack.extend(zip(reversed(x.args), reversed(y.args)))
        elif cls is TVar:
            if tmap.get(x.name, y.name) != y.name:
                return False
            if trev.get(y.name, x.name) != x.name:
                return False
            tmap[x.name] = y.name
            trev[y.name] = x.name
        elif cls is Const:
            if x.name != y.name:
                return False
            stack.append((x.type, y.type))
        elif cls is Free:
            if x.name != y.name and (x.name in frees_b or y.name in frees_a):
                return False
            if fmap.get(x.name, y.name) != y.name:
                return False
            if frev.get(y.name, x.name) != x.name:
                return False
            fmap[x.name] = y.name
            frev[y.name] = x.name
            stack.append((x.type, y.type))
        elif cls is Bound:
            if x.index != y.index:
                return False
        elif cls is Abs:
            stack.append((x.body, y.body))
            stack.append((x.binder_type, y.binder_type))
        else:
            if x.index != y.index:
                return False
            stack.append((x.type, y.type))
    return True


def _generalize(t, rng):
    """t with two of the ground type constructors made type variables a, b."""
    tvars = dict(zip(rng.sample(TYPE_CONS, 2), "ab"))

    def ty(x):
        if isinstance(x, TVar):
            return x
        if not x.args and x.name in tvars:
            return TVar(tvars[x.name])
        return TCon(x.name, tuple(ty(a) for a in x.args))

    return map_types(t, ty)


def _mutate_last_leaf(t, rng):
    """t with its last leaf in preorder changed, so that the two terms'
    token streams agree up to their last few tokens."""
    if isinstance(t, App):
        return App(t.fn, _mutate_last_leaf(t.arg, rng))
    if isinstance(t, Abs):
        return Abs(t.binder, t.binder_type, _mutate_last_leaf(t.body, rng))
    if isinstance(t, Bound):
        return Bound(t.index + 1)
    if rng.random() < 0.4:
        return dataclasses.replace(t, type=TVar("m"))
    if isinstance(t, Hole):
        return Hole(t.index + 1, t.type)
    if isinstance(t, Const):
        return Const(t.name + "_m", t.type)
    return Free(rng.choice([t.name + "_m", "fv0"]), t.type)


def _alpha_pair(rng):
    """A random term and a second term of one of seven kinds, most of them
    alpha-equal to it or nearly so."""
    a, _ = random_lemma_term(rng)
    shape = rng.randrange(3)
    if shape == 1:
        a = _quantify(a)
    elif shape == 2:
        a = abstract(_quantify(a)).body
    if rng.random() < 0.5:
        a = _generalize(a, rng)
    names = sorted(free_name_set(a))
    kind = rng.randrange(7)
    if kind == 0:  # a copy, with binder names dropped
        b = _rename(a, {}, {})
    elif kind == 1:  # free names to fresh ones, or onto each other
        pool = [f"w{i}" for i in range(len(names))] + names
        b = _rename(a, {n: rng.choice(pool) for n in names}, {})
    elif kind == 2:  # shared free names permuted: `a + b` against `b + a`
        b = _rename(a, dict(zip(names, rng.sample(names, len(names)))), {})
    elif kind == 3:  # type variables swapped, renamed or merged
        b = _rename(a, {}, rng.choice([{"a": "b", "b": "a"}, {"a": "c"}, {"a": "b"}]))
    elif kind == 4:  # a difference deep in the term
        b = _mutate_last_leaf(a, rng)
    elif kind == 5:  # renamed, then changed deep in the term
        b = _mutate_last_leaf(_rename(a, {n: n + "_r" for n in names}, {}), rng)
    else:
        b, _ = random_lemma_term(rng)
    return a, b, kind


class TestAlphaEqualStream:
    def test_matches_pairwise_reference_on_random_pairs(self):
        rng = random.Random(53)
        outcomes = set()
        late_mismatches = 0
        for _ in range(2400):
            a, b, kind = _alpha_pair(rng)
            got = alpha_equal(a, b)
            assert got == _alpha_equal_pairwise(a, b)
            assert alpha_equal(b, a) == got
            ka, kb = alpha_key(a), alpha_key(b)
            if got:
                assert ka == kb
            elif kind in (4, 5):
                common = next(
                    (i for i, (x, y) in enumerate(zip(ka, kb)) if x != y),
                    min(len(ka), len(kb)),
                )
                late_mismatches += common >= 0.8 * len(ka)
            outcomes.add((kind, got))
        # every kind but the copy and the unrelated term meets both answers
        assert outcomes >= {(k, v) for k in range(1, 6) for v in (True, False)}
        assert late_mismatches > 200

    @pytest.mark.parametrize("shape", ["arg", "head", "abs", "type"])
    def test_matches_pairwise_reference_at_the_depth_limit(self, shape):
        text = _deep_terms(MAX_DEPTH)[shape]
        a = parse_term(text)
        others = {
            text: True,
            text.replace('"S"', '"R"', 1): False,
            '"R"'.join(text.rsplit('"S"', 1)): False,
            text.replace('"x1"', '"x2"'): True,
        }
        for other, want in others.items():
            b = parse_term(other)
            assert alpha_equal(a, b) == _alpha_equal_pairwise(a, b) == want
            assert (alpha_key(a) == alpha_key(b)) == want

    def test_shared_free_names_are_checked_after_equal_streams(self):
        plus = Const("G.plus", fun(OCTO, fun(OCTO, OCTO)))
        a, b, c = (Free(n, OCTO) for n in "abc")
        ab, ba, bc = (App(App(plus, x), y) for x, y in ((a, b), (b, a), (b, c)))
        assert alpha_key(ab) == alpha_key(ba) == alpha_key(bc)
        assert not alpha_equal(ab, ba) and not alpha_equal(ab, bc)
        assert alpha_equal(ab, App(App(plus, c), Free("d", OCTO)))


def _parse_errors(texts):
    """Parse each text, each of which must fail."""
    for text in texts:
        try:
            parse_term(text)
        except TermSyntaxError:
            continue
        raise AssertionError(text)


def _garbage_after(call):
    """The objects the collector frees after `call`, run with automatic
    collection off: nonzero when the call left a reference cycle behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _list_signature():
    lst, num = TCon("list"), TCon("int")
    return InterpretedSignature(
        sorts=[IntListSort("list", 5, 10), IntRangeSort("int", 0, 25)],
        symbols=[
            SignatureEntry("append", fun(lst, fun(lst, lst))),
            SignatureEntry("rev", fun(lst, lst)),
            SignatureEntry("len", fun(lst, num)),
            SignatureEntry("plus", fun(num, fun(num, num))),
            SignatureEntry("zero", num),
        ],
        functions={
            "append": lambda a, b: a + b,
            "rev": lambda a: tuple(reversed(a)),
            "len": len,
            "plus": lambda a, b: a + b,
            "zero": 0,
        },
    )


_LIST, _INT = TCon("list"), TCon("int")
_LIST_SIGNATURE_JSON = {
    "sorts": [
        {"name": "list", "max_len": 5, "elem_mod": 10},
        {"name": "int", "min": 0, "max": 25},
    ],
    "symbols": [
        {"name": "append", "type": render_type(fun(_LIST, fun(_LIST, _LIST))),
         "builtin": "list_append", "infix": "@"},
        {"name": "rev", "type": render_type(fun(_LIST, _LIST)), "builtin": "list_rev"},
        {"name": "len", "type": render_type(fun(_LIST, _INT)), "builtin": "list_len"},
        {"name": "zero", "type": render_type(_INT), "value": 0},
    ],
}


class TestNoReferenceCycles:
    """The CLI runs each command with the cycle collector off (cli.main),
    which is sound only while the library builds no reference cycle."""

    @pytest.fixture(scope="class")
    def quickspec_stages(self):
        """The list signature's terms up to size 5, their classes over 50
        tests, and the laws the classes give."""
        sig = _list_signature()
        terms = enumerate_terms(sig, 5)
        classes = partition_by_testing(terms, sig, 50, 0)
        return sig, terms, classes, emit_laws(classes)

    @pytest.mark.parametrize(
        "name",
        [
            "render_term", "render_terms", "alpha_key", "alpha_equal", "alpha_unequal",
            "instantiate", "enumerate_terms", "abstract", "parse_template", "pretty_term",
            "load_interpreted_signature", "test_partition", "candidate_laws",
            "emit_laws", "reverify_laws", "dedupe", "evaluate_suite",
            "evaluate_suite_workers", "parse_errors", "feasible", "instantiate_capped",
            "infeasible", "instantiate_texts", "instantiate_texts_capped",
        ],
    )
    def test_call_leaves_no_cycle(
        self, name, lemma_distrib_left, lemma_assoc_plus, octo_signature,
        quickspec_stages, tmp_path,
    ):
        t = _quantify(lemma_distrib_left)
        other = _quantify(lemma_assoc_plus)
        tpl = abstract(lemma_distrib_left)
        binop = fun(OCTO, fun(OCTO, OCTO))
        a = TVar("a")
        ops = [
            SignatureEntry("Octonions.octo_plus", binop, None),
            SignatureEntry("Poly.pick", fun(a, fun(a, a)), None),
            SignatureEntry("Octonions.octo_times", binop, None),
        ]
        assert len(instantiate(tpl, ops).conjectures) == 9
        # A capped search is left suspended after its lookahead; an
        # infeasible one runs to its end.
        capped = Budget(max_results=1)
        assert instantiate(tpl, ops, capped).capped
        consts = [SignatureEntry("Octonions.octo_zero", OCTO, None)]
        assert not feasible(tpl, consts)
        sig = _list_signature()
        qs_sig, qs_terms, classes, laws = quickspec_stages
        assert len(laws) > 3
        sig_path = tmp_path / "signature.json"
        sig_path.write_text(json.dumps(_LIST_SIGNATURE_JSON))
        conjectures = instantiate(tpl, ops).conjectures
        tasks = [
            make_task(make_record(f"Octonions.{lemma_name}", "Octonions", lemma_name,
                                  lemma, octo_signature))
            for lemma_name, lemma in (("d", lemma_distrib_left), ("a", lemma_assoc_plus))
        ] * 3
        fixed = lambda req: propose_fixed(req, [tpl, abstract(lemma_assoc_plus)])
        call = {
            "render_term": lambda: render_term(t),
            "render_terms": lambda: render_terms(
                [c.term for c in instantiate(tpl, ops).conjectures] + [t, other, t]
            ),
            "alpha_key": lambda: alpha_key(t),
            "alpha_equal": lambda: alpha_equal(t, t),
            "alpha_unequal": lambda: alpha_equal(t, other),
            "instantiate": lambda: instantiate(tpl, ops),
            "enumerate_terms": lambda: enumerate_terms(sig, 6),
            "abstract": lambda: abstract(lemma_distrib_left),
            "parse_template": lambda: parse_template(tpl.canonical),
            "pretty_term": lambda: pretty_term(t),
            "load_interpreted_signature": lambda: load_interpreted_signature(sig_path),
            "test_partition": lambda: partition_by_testing(qs_terms, qs_sig, 50, 0),
            "candidate_laws": lambda: candidate_laws(classes),
            "emit_laws": lambda: emit_laws(classes),
            "reverify_laws": lambda: reverify_laws(laws, qs_sig, 50, 0),
            "dedupe": lambda: dedupe(conjectures + conjectures[::-1]),
            "evaluate_suite": lambda: evaluate_suite(tasks, fixed),
            "evaluate_suite_workers": lambda: evaluate_suite(tasks, fixed, workers=2),
            "parse_errors": lambda: _parse_errors(
                [tpl.canonical[:-1], tpl.canonical + ")", tpl.canonical.replace("app", "ap", 1),
                 tpl.canonical.replace('"', "²", 1), _deep_terms(MAX_DEPTH + 1)["arg"]]
            ),
            "feasible": lambda: feasible(tpl, ops),
            "instantiate_capped": lambda: instantiate(tpl, ops, capped),
            "infeasible": lambda: feasible(tpl, consts),
            "instantiate_texts": lambda: instantiate_texts(tpl, ops),
            "instantiate_texts_capped": lambda: instantiate_texts(tpl, ops, capped),
        }[name]
        assert _garbage_after(call) == 0
