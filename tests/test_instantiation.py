import itertools
import random
import re
import sys
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from lemmakit import instantiation, terms
from lemmakit.instantiation import (
    Budget,
    InvalidTemplate,
    feasible,
    instantiate,
    instantiate_texts,
)
from lemmakit.templates import abstract, parse_template
from lemmakit.terms import (
    Abs,
    App,
    Bound,
    Const,
    DuplicateSymbols,
    Free,
    FreshNames,
    Hole,
    LemmakitError,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    UnificationError,
    alpha_equal,
    apply_type_subst,
    base_signature,
    fun,
    render_term,
    render_terms,
    resolve,
    subterms,
    type_vars,
    typecheck,
    unify_into,
)

from oracles import exhaustive_instantiations, random_lemma_term, unindexed_solutions
from synthetic import build_synthetic_corpus

OCTO = TCon("Octonions.octo")
BINOP = fun(OCTO, fun(OCTO, OCTO))

OCTO_SYMBOLS = [
    SignatureEntry("Octonions.octo_plus", BINOP, None),
    SignatureEntry("Octonions.octo_times", BINOP, None),
]

BASE_SCHEMES = {e.name: e.type for e in base_signature()}


class TestInstantiate:
    def test_assoc_with_candidate_set(self, lemma_assoc_plus, candidate_symbols):
        tpl = abstract(lemma_assoc_plus)
        res = instantiate(tpl, candidate_symbols)
        fillers = sorted(dict(c.assignment.mapping)[1] for c in res.conjectures)
        assert fillers == [
            "Groups.minus",
            "Groups.plus",
            "List.append",
            "Power.power",
        ]
        assert not res.timed_out and not res.capped

    def test_zero_holes_returns_body(self, lemma_assoc_plus):
        w_term = abstract(lemma_assoc_plus)
        # build a hole-free template from a whitelist-only lemma
        from lemmakit.terms import App, Const, Free, TVar

        x = Free("v", TVar("'a"))
        eq = Const("HOL.eq", fun(TVar("'a"), fun(TVar("'a"), TCon("HOL.bool"))))
        tpl = abstract(App(App(eq, x), x))
        res = instantiate(tpl, [])
        assert len(res.conjectures) == 1
        assert w_term.hole_count == 1  # sanity on the other fixture

    def test_empty_candidates_with_holes(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        res = instantiate(tpl, [])
        assert res.conjectures == []

    def test_distrib_both_holes_range(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        res = instantiate(tpl, OCTO_SYMBOLS)
        assignments = [dict(c.assignment.mapping) for c in res.conjectures]
        assert len(assignments) == 4
        assert {frozenset(a.items()) for a in assignments} == {
            frozenset({(1, n1), (2, n2)})
            for n1 in ("Octonions.octo_plus", "Octonions.octo_times")
            for n2 in ("Octonions.octo_plus", "Octonions.octo_times")
        }

    def test_distinct_holes_flag(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        res = instantiate(tpl, OCTO_SYMBOLS, Budget(distinct_holes=True))
        assignments = [dict(c.assignment.mapping) for c in res.conjectures]
        assert len(assignments) == 2
        for a in assignments:
            assert a[1] != a[2]

    def test_deterministic_order(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        r1 = instantiate(tpl, OCTO_SYMBOLS)
        r2 = instantiate(tpl, OCTO_SYMBOLS)
        assert [c.term for c in r1.conjectures] == [c.term for c in r2.conjectures]
        # lexicographic in candidate positions: hole 1 varies slowest
        names = [dict(c.assignment.mapping) for c in r1.conjectures]
        assert names[0][1] == "Octonions.octo_plus"
        assert names[0][2] == "Octonions.octo_plus"
        assert names[1][1] == "Octonions.octo_plus"
        assert names[1][2] == "Octonions.octo_times"

    def test_all_outputs_typecheck(self, candidate_symbols):
        rng = random.Random(31)
        for _ in range(50):
            term, entries = random_lemma_term(rng)
            tpl = abstract(term)
            symbols = [SignatureEntry(n, t, None) for n, t in entries]
            res = instantiate(tpl, symbols + candidate_symbols)
            for c in res.conjectures:
                typecheck(c.term)

    def test_matches_exhaustive_oracle(self, candidate_symbols):
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            term, entries = random_lemma_term(rng)
            tpl = abstract(term)
            if tpl.hole_count > 3:
                continue
            symbols = [SignatureEntry(n, t, None) for n, t in entries]
            pool = (symbols + candidate_symbols)[:8]
            got = sorted(
                tuple(name for _, name in c.assignment.mapping)
                for c in instantiate(tpl, pool).conjectures
            )
            expected = sorted(exhaustive_instantiations(tpl, pool, BASE_SCHEMES))
            assert got == expected
            checked += 1
        assert checked >= 40

    def test_monotone_in_candidates(self, lemma_assoc_plus, candidate_symbols):
        tpl = abstract(lemma_assoc_plus)
        small = instantiate(tpl, candidate_symbols[:4])
        large = instantiate(tpl, candidate_symbols)
        small_terms = {c.term for c in small.conjectures}
        large_terms = {c.term for c in large.conjectures}
        assert small_terms <= large_terms

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(100):
            term, entries = random_lemma_term(rng)
            tpl = abstract(term)
            symbols = [SignatureEntry(n, t, None) for n, t in entries]
            res = instantiate(tpl, symbols)
            assert any(alpha_equal(c.term, term) for c in res.conjectures)

    def test_max_results_cap(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        res = instantiate(tpl, OCTO_SYMBOLS, Budget(max_results=2))
        assert len(res.conjectures) == 2
        assert res.capped and not res.timed_out

    def test_timeout_returns_partial(self):
        tpl = _big_template()
        symbols = [
            SignatureEntry(f"Big.f{i}", fun(OCTO, fun(OCTO, OCTO)), None)
            for i in range(40)
        ]
        start = time.monotonic()
        res = instantiate(tpl, symbols, Budget(timeout_millis=1, max_results=10**9))
        elapsed = time.monotonic() - start
        assert res.timed_out
        assert elapsed < 0.101
        for c in res.conjectures:
            typecheck(c.term)

    def test_rejects_non_template(self):
        with pytest.raises(InvalidTemplate):
            instantiate("not a template", [])

    def test_duplicate_candidate_names_rejected(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        dup = [OCTO_SYMBOLS[0], OCTO_SYMBOLS[0]]
        with pytest.raises(ValueError):
            instantiate(tpl, dup)
        with pytest.raises(LemmakitError) as exc:
            instantiate(tpl, dup)
        assert isinstance(exc.value, DuplicateSymbols)
        assert str(exc.value) == "duplicate symbol names"


def _big_template():
    """Four independent binary holes: 40^4 > 10^6 assignments."""
    from lemmakit.terms import App, Const, Free

    s = TCon("Big.s")
    holes = []
    for i in range(4):
        holes.append(Const(f"Big.h{i}", fun(s, fun(s, s))))
    x1, x2, x3 = Free("p", s), Free("q", s), Free("r", s)
    lhs = App(App(holes[0], x1), App(App(holes[1], x2), x3))
    rhs = App(App(holes[2], App(App(holes[3], x1), x2)), x3)
    eq = Const("HOL.eq", fun(s, fun(s, TCon("HOL.bool"))))
    return abstract(App(App(eq, lhs), rhs))


class TestFeasible:
    def test_binary_candidate(self, lemma_assoc_plus):
        tpl = abstract(lemma_assoc_plus)
        assert feasible(tpl, [OCTO_SYMBOLS[0]])

    def test_unary_cannot_fill_binary(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        sin = SignatureEntry(
            "Transcendental.sin", fun(TCon("Real.real"), TCon("Real.real")), None
        )
        assert not feasible(tpl, [sin])

    def test_zero_holes_always_feasible(self):
        from lemmakit.terms import App, Const, Free, TVar

        x = Free("v", TVar("'a"))
        eq = Const("HOL.eq", fun(TVar("'a"), fun(TVar("'a"), TCon("HOL.bool"))))
        tpl = abstract(App(App(eq, x), x))
        assert feasible(tpl, [])


class TestBaseSignature:
    def test_mutating_a_returned_copy_changes_nothing_later(self):
        """instantiate and typecheck share one base signature; a signature
        built from what base_signature() hands out must not change it."""
        from lemmakit.templates import Whitelist, default_whitelist
        from lemmakit.terms import App, Const, Signature, UnknownConstant, render_term

        s, t = TCon("S"), TCon("T")
        c = Const("X.c", s)
        eq = Const("HOL.eq", fun(s, fun(s, TCon("HOL.bool"))))
        w = default_whitelist()
        keep_c = Whitelist(prefixes=w.prefixes, exact=w.exact | {"X.c"})
        # (hole 1 : a0 -> a0) applied to the retained constant X.c : a0.
        tpl = abstract(App(App(eq, App(Const("X.u", fun(s, s)), c)), c), keep_c)
        on_t = [SignatureEntry("g", fun(t, t), None)]
        before = [render_term(x.term) for x in instantiate(tpl, on_t).conjectures]
        assert len(before) == 1

        extended = Signature([*base_signature(), SignatureEntry("X.c", s, None)])
        assert "X.c" in extended and len(extended) == len(base_signature()) + 1

        # Had X.c : S reached instantiate's base, a0 would be S and g : T -> T
        # would no longer fit.
        after = [render_term(x.term) for x in instantiate(tpl, on_t).conjectures]
        assert after == before and feasible(tpl, on_t)
        with pytest.raises(UnknownConstant):
            typecheck(c, Signature())
        assert "X.c" not in base_signature()


def _instantiate_per_node(tpl, candidates, distinct=False):
    """Reference: the conjectures `instantiate` built before annotations were
    shared.  Every candidate scheme is copied by a fresh renaming, even one
    without type variables, and unified at every node; `resolve` runs once per
    annotated node.  No budget: every assignment is enumerated (with
    `distinct`, those that give distinct holes distinct symbols)."""
    n = [0]

    def rename(scheme):
        ren = {}
        for v in type_vars(scheme):
            n[0] += 1
            ren[v] = TVar(f"?f{n[0]}")
        return apply_type_subst(ren, scheme)

    root = {}
    for s in subterms(tpl.body):
        if isinstance(s, Const) and s.name in BASE_SCHEMES:
            try:
                unify_into(root, rename(BASE_SCHEMES[s.name]), s.type)
            except UnificationError:
                return []
    order = sorted(tpl.hole_types)
    out = []

    def walk(node, subst, mapping):
        fill = lambda ty: resolve(subst, ty)
        if isinstance(node, Hole):
            return Const(mapping[node.index], fill(node.type))
        if isinstance(node, Abs):
            return Abs(node.binder, fill(node.binder_type), walk(node.body, subst, mapping))
        if isinstance(node, App):
            return App(walk(node.fn, subst, mapping), walk(node.arg, subst, mapping))
        if isinstance(node, Const):
            return Const(node.name, fill(node.type))
        if isinstance(node, Free):
            return Free(node.name, fill(node.type))
        return node

    def search(pos, subst, chosen):
        if pos == len(order):
            out.append(walk(tpl.body, subst, dict(zip(order, chosen))))
            return
        for cand in candidates:
            if distinct and cand.name in chosen:
                continue
            attempt = dict(subst)
            try:
                unify_into(attempt, tpl.hole_types[order[pos]], rename(cand.type))
            except UnificationError:
                continue
            search(pos + 1, attempt, chosen + [cand.name])

    search(0, root, [])
    return out


_A = TVar("'a")
# Polymorphic schemes, mixed in with the monomorphic candidates so that the
# fresh type-variable names of a conjecture depend on every rename before it.
POLY_SYMBOLS = [
    SignatureEntry("Poly.pick", fun(_A, fun(_A, _A)), None),
    SignatureEntry("Poly.id", fun(_A, _A), None),
    SignatureEntry(
        "Poly.zip",
        fun(TCon("List.list", (_A,)), fun(TCon("List.list", (_A,)), TCon("List.list", (_A,)))),
        None,
    ),
]


def _assert_same_as_per_node(tpl, candidates):
    got = [c.term for c in instantiate(tpl, candidates, Budget(max_results=10**9)).conjectures]
    expected = _instantiate_per_node(tpl, candidates)
    assert got == expected
    assert [render_term(t) for t in got] == [render_term(t) for t in expected]
    return len(got)


class TestSharedConstruction:
    def test_distrib_matches_per_node_reference(
        self, lemma_distrib_left, candidate_symbols
    ):
        mixed = [
            POLY_SYMBOLS[0],
            *OCTO_SYMBOLS,
            POLY_SYMBOLS[2],
            *candidate_symbols,
            POLY_SYMBOLS[1],
        ]
        # Both holes share a0: Poly.pick pairs with any of the 8 binary
        # candidates either way round (8 + 7), then octo (2 x 2), real (3 x 3)
        # and list (Poly.zip, List.append: 2 x 2) pairs.
        for tpl in (
            abstract(lemma_distrib_left),
            parse_template(abstract(lemma_distrib_left).canonical),
        ):
            assert _assert_same_as_per_node(tpl, mixed) == 8 + 7 + 4 + 9 + 4
            assert _assert_same_as_per_node(tpl, mixed[::-1]) == 32
        # Fresh names in the output: Poly.pick in both holes leaves a0 to a
        # renamed scheme variable.
        first = instantiate(abstract(lemma_distrib_left), mixed).conjectures[0]
        assert dict(first.assignment.mapping) == {1: "Poly.pick", 2: "Poly.pick"}
        assert "?f" in render_term(first.term)

    def test_synthetic_templates_match_per_node_reference(self):
        train, heldout = build_synthetic_corpus()
        seen = set()
        total = 0
        for rec in train + heldout:
            tpl = abstract(rec.term)
            if (tpl.canonical, rec.symbols) in seen:
                continue
            seen.add((tpl.canonical, rec.symbols))
            total += _assert_same_as_per_node(tpl, list(rec.symbols) + POLY_SYMBOLS)
            total += _assert_same_as_per_node(tpl, POLY_SYMBOLS[:1] + list(rec.symbols))
        assert len(seen) >= 50 and total > 300

    def test_random_lemmas_match_per_node_reference(self, candidate_symbols):
        rng = random.Random(43)
        for _ in range(80):
            term, entries = random_lemma_term(rng)
            tpl = abstract(term)
            if tpl.hole_count > 3:
                continue
            symbols = [SignatureEntry(n, t, None) for n, t in entries]
            pool = (POLY_SYMBOLS[:2] + symbols + candidate_symbols[:3])[:8]
            _assert_same_as_per_node(tpl, pool)

    def test_one_resolve_per_distinct_annotation(self, lemma_distrib_left, monkeypatch):
        """The distributivity template has 13 annotated nodes but 3 distinct
        annotations (a0, a0 => a0 => a0 and a0 => a0 => a1)."""
        tpl = abstract(lemma_distrib_left)
        annotated = [
            s for s in subterms(tpl.body) if isinstance(s, (Const, Free, Hole))
        ]
        assert len(annotated) == 13
        assert len({id(s.type) for s in annotated}) == 3
        calls = []
        real = instantiation.resolve

        def counted(subst, ty):
            calls.append(ty)
            return real(subst, ty)

        monkeypatch.setattr(instantiation, "resolve", counted)
        res = instantiate(tpl, OCTO_SYMBOLS[:1])
        assert len(res.conjectures) == 1
        assert len(calls) == 3
        term = res.conjectures[0].term
        assert len({id(s.type) for s in subterms(term) if isinstance(s, (Const, Free))}) == 3

    def test_type_vars_scans_do_not_grow_with_search_nodes(
        self, lemma_distrib_left, candidate_symbols, monkeypatch
    ):
        """Each candidate scheme is scanned for type variables once per call,
        however often the search tries it, and each retained base constant
        once per template object: later calls reuse the template's root."""
        from lemmakit import terms

        tpl = abstract(lemma_distrib_left)
        base_consts = sum(
            isinstance(s, Const) and terms.base_scheme(s.name) is not None
            for s in subterms(tpl.body)
        )
        real_scan, real_unify = terms.type_vars, instantiation.unify_into
        scans, tries = [], []

        def scan(t, acc=None):
            if acc is None:
                scans.append(t)
            return real_scan(t, acc)

        def unify(*args):
            tries.append(args)
            return real_unify(*args)

        monkeypatch.setattr(terms, "type_vars", scan)
        monkeypatch.setattr(instantiation, "unify_into", unify)
        pool = POLY_SYMBOLS + OCTO_SYMBOLS + candidate_symbols
        for n, root_scans in ((2, base_consts), (len(pool), 0)):
            scans.clear()
            tries.clear()
            res = instantiate(tpl, pool[:n], Budget(max_results=10**9))
            assert res.conjectures and not res.timed_out
            assert len(scans) == n + root_scans
        assert len(tries) > 5 * len(scans)

    def test_monomorphic_scheme_is_not_copied(self):
        fresh = FreshNames("?f")
        mono = fun(OCTO, OCTO)
        assert fresh.rename(mono) is mono and fresh.n == 0
        poly = fresh.rename(fun(_A, _A))
        assert poly == fun(TVar("?f1"), TVar("?f1")) and fresh.n == 1


class TestRootOncePerTemplate:
    """The constraints of a template's retained logical constants are worked
    out once per template object and shared by every later call, which
    continues the fresh names from where they stopped."""

    def _count(self, monkeypatch):
        calls = []
        real = instantiation.unify_into

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(instantiation, "unify_into", counted)
        return calls

    def test_later_calls_reuse_the_root_and_its_names(
        self, lemma_distrib_left, candidate_symbols, monkeypatch
    ):
        pool = POLY_SYMBOLS + OCTO_SYMBOLS + candidate_symbols
        tpl = abstract(lemma_distrib_left)
        runs = []
        for _ in range(3):
            calls = self._count(monkeypatch)
            res = instantiate(tpl, pool, Budget(max_results=10**9))
            runs.append((len(calls), render_terms([c.term for c in res.conjectures])))
            monkeypatch.undo()
        # HOL.eq's scheme is unified at the root on the first call only, and
        # the names it used up (?f1) are not handed out again.
        assert runs[0][0] == runs[1][0] + 1 == runs[2][0] + 1
        assert runs[0][1] == runs[1][1] == runs[2][1]
        names = {m for text in runs[0][1] for m in re.findall(r"\?f\d+", text)}
        assert names and "?f1" not in names
        assert _assert_same_as_per_node(tpl, pool) == len(runs[0][1])
        fresh_tpl = parse_template(tpl.canonical)
        assert [
            render_term(c.term)
            for c in instantiate(fresh_tpl, pool, Budget(max_results=10**9)).conjectures
        ] == runs[0][1]

    def test_clashing_root_gives_empty_result_on_repeated_calls(self):
        # HOL.conj is bool => bool => bool; this template retains it at octo.
        octo_conj = fun(OCTO, fun(OCTO, TCon("HOL.bool")))
        body = App(App(Const("HOL.conj", octo_conj), Hole(1, OCTO)), Hole(2, OCTO))
        tpl = parse_template(render_term(body))
        pool = [SignatureEntry("Octonions.one", OCTO, None)] + OCTO_SYMBOLS
        for candidates in (pool, pool, pool[:1], POLY_SYMBOLS):
            res = instantiate(tpl, candidates)
            assert res.conjectures == []
            assert not res.timed_out and not res.capped
        assert not feasible(tpl, pool)

    def test_threads_share_one_template(self, lemma_distrib_left, candidate_symbols):
        pool = POLY_SYMBOLS + candidate_symbols
        expected = [
            c.term for c in instantiate(abstract(lemma_distrib_left), pool).conjectures
        ]
        tpl = abstract(lemma_distrib_left)
        with ThreadPoolExecutor(max_workers=4) as ex:
            got = list(ex.map(lambda _: instantiate(tpl, pool).conjectures, range(8)))
        for conjectures in got:
            assert [c.term for c in conjectures] == expected


_SORTS = [TCon(f"S.s{i}") for i in range(3)]


def _sorted_candidates(binary, unary, shared=True):
    """`binary` binary and `unary` unary operators on each of 3 sorts, the
    sorts and arities interleaved.  With `shared`, candidates of one sort and
    arity carry one type object, as the signature loaders give them; without,
    each carries its own equal copy."""
    types = {}

    def ty(sort, arity):
        t = fun(sort, fun(sort, sort)) if arity == 2 else fun(sort, sort)
        return types.setdefault((sort, arity), t) if shared else t

    out = []
    for i in range(max(binary, unary)):
        for k, sort in enumerate(_SORTS):
            if i < binary:
                out.append(SignatureEntry(f"S.bin{k}_{i}", ty(sort, 2), None))
            if i < unary:
                out.append(SignatureEntry(f"S.un{k}_{i}", ty(sort, 1), None))
    return out


class TestUnifyOncePerType:
    """`instantiate` tries at a hole only the candidates whose type's
    skeleton fits the hole's, and every polymorphic one.  It unifies the hole
    once per node with each distinct type object among the monomorphic ones
    it tries, and with each polymorphic candidate on its own.

    On the distributivity template both holes are `a0 ⇒ a0 ⇒ a0`.  At the
    first hole a0 is unbound, so the binary types of all 3 sorts fit and the
    unary ones do not: a spine of one arrow cannot take two arguments.  Below
    a binary candidate on sort S, a0 is S, and only the binary type on S
    fits the second hole.  Add 1 unification for HOL.eq at the root."""

    B, U, D = 4, 3, 6

    def _count(self, monkeypatch):
        calls = []
        real = instantiation.unify_into

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(instantiation, "unify_into", counted)
        return calls

    def test_shared_types_unify_once_per_node(self, lemma_distrib_left, monkeypatch):
        tpl = abstract(lemma_distrib_left)
        pool = _sorted_candidates(self.B, self.U)
        assert len({id(c.type) for c in pool}) == self.D
        calls = self._count(monkeypatch)
        got = instantiate(tpl, pool, Budget(max_results=10**9)).conjectures
        # The root, the 3 binary type objects at the first hole, and 1 type
        # object below each of the 3·B binaries that fill it: 1 + 3 + 12.
        assert len(calls) == 1 + 3 + 3 * self.B == 16
        assert len(got) == 3 * self.B * self.B
        monkeypatch.undo()
        assert _assert_same_as_per_node(tpl, pool) == len(got)

    def test_unshared_equal_types_unify_per_candidate(
        self, lemma_distrib_left, monkeypatch
    ):
        tpl = abstract(lemma_distrib_left)
        pool = _sorted_candidates(self.B, self.U, shared=False)
        calls = self._count(monkeypatch)
        shared = instantiate(tpl, _sorted_candidates(self.B, self.U)).conjectures
        shared_calls = len(calls)
        calls.clear()
        got = instantiate(tpl, pool).conjectures
        # The first call unified HOL.eq at the root of this template object;
        # the second reuses that root.  Every binary candidate has its own
        # type object: 3·B at the first hole, and below each of them the B
        # binaries of its sort: 12 + 12·4.
        assert len(calls) == 3 * self.B + 3 * self.B * self.B == 60 > shared_calls
        assert got == shared
        monkeypatch.undo()
        assert _assert_same_as_per_node(tpl, pool) == len(got)

    def test_mixed_with_polymorphic_candidates(self, lemma_distrib_left, monkeypatch):
        tpl = abstract(lemma_distrib_left)
        mono = _sorted_candidates(self.B, self.U)
        # A second name for Poly.pick's very type object: a polymorphic scheme
        # is renamed apart for each candidate, shared or not.
        twin = SignatureEntry("Poly.pick2", POLY_SYMBOLS[0].type, None)
        pool = POLY_SYMBOLS[:1] + mono[:9] + POLY_SYMBOLS[1:] + [twin] + mono[9:]
        calls = self._count(monkeypatch)
        got = instantiate(tpl, pool, Budget(max_results=10**9)).conjectures
        # The 4 polymorphic candidates are tried at every node.  At the first
        # hole they and the 3 binary type objects are tried: 7.  Both picks
        # and Poly.zip fit besides the 3·B binaries; Poly.id does not
        # (a0 => a0 => a0 against ?f => ?f).  Below a binary on S, the
        # second hole tries the polymorphic 4 and S's binary type: 5, 3·B
        # times.  Below a pick, a0 is a variable still, so 7 are tried, twice;
        # below Poly.zip it is a list, which no monomorphic type fits: 4.
        polys = len(POLY_SYMBOLS) + 1
        first = polys + 3
        below = 3 * self.B * (polys + 1) + 2 * first + polys
        assert len(calls) == 1 + first + below == 1 + 7 + 78 == 86
        monkeypatch.undo()
        assert _assert_same_as_per_node(tpl, pool) == len(got)
        assert "?f" in render_term(got[0].term)

    def test_distinct_holes(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        mono = _sorted_candidates(self.B, self.U)
        sizes = []
        for pool in (mono, POLY_SYMBOLS + mono, mono[:5] + POLY_SYMBOLS[::-1] + mono[5:]):
            res = instantiate(tpl, pool, Budget(max_results=10**9, distinct_holes=True))
            expected = _instantiate_per_node(tpl, pool, distinct=True)
            assert [c.term for c in res.conjectures] == expected
            for c in res.conjectures:
                assert len(set(dict(c.assignment.mapping).values())) == 2
            sizes.append(len(expected))
        assert sizes[0] == 3 * self.B * (self.B - 1) < sizes[1] == sizes[2]

    def test_result_cap(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        pool = POLY_SYMBOLS[1:] + _sorted_candidates(self.B, self.U) + POLY_SYMBOLS[:1]
        expected = _instantiate_per_node(tpl, pool)
        for cap in (1, 5, 17, len(expected) - 1):
            res = instantiate(tpl, pool, Budget(max_results=cap))
            assert res.capped and [c.term for c in res.conjectures] == expected[:cap]
        res = instantiate(tpl, pool, Budget(max_results=len(expected) + 1))
        assert not res.capped and [c.term for c in res.conjectures] == expected


def _forall_first_free(term):
    """∀ over `term`'s first free variable, which becomes a bound one, so the
    template abstracted from it has an `abs` binder; `term` itself when it
    has no free variable."""
    v = next((s for s in subterms(term) if isinstance(s, Free)), None)
    if v is None:
        return term

    def bind(u):
        if isinstance(u, Free) and u.name == v.name:
            return Bound(0)
        if isinstance(u, App):
            return App(bind(u.fn), bind(u.arg))
        return u

    bool_t = TCon("HOL.bool")
    return App(Const("HOL.All", fun(fun(v.type, bool_t), bool_t)), Abs("y", v.type, bind(term)))


def _reused_nodes(terms):
    """How many node occurrences in `terms`, bound variables aside, are an
    object met before in them: nonzero once conjectures share parts."""
    nodes = [s for t in terms for s in subterms(t) if not isinstance(s, Bound)]
    return len(nodes) - len({id(s) for s in nodes})


class TestSharedLeaves:
    """Conjectures whose search leaf is one substitution object, as for
    candidates that share a monomorphic type object at the last hole, are
    built from shared parts.  They must equal, and render like, the terms of
    the unshared per-node reference."""

    B = TestUnifyOncePerType.B

    def _check(self, tpl, pool, distinct):
        expected = _instantiate_per_node(tpl, pool, distinct=distinct)
        n = len(expected)
        reused = 0
        for cap in sorted(c for c in {1, 5, n - 1, n, n + 1} if c > 0):
            res = instantiate(tpl, pool, Budget(max_results=cap, distinct_holes=distinct))
            got = [c.term for c in res.conjectures]
            assert got == expected[:cap]
            assert render_terms(got) == [render_term(t) for t in expected[:cap]]
            assert res.capped == (cap < n) and not res.timed_out
            reused += _reused_nodes(got)
        return n, reused

    def test_random_templates_match_unshared_reference(self):
        rng = random.Random(61)
        conjectures = reused = binders = 0
        for _ in range(40):
            term, entries = random_lemma_term(rng)
            for body in (term, _forall_first_free(term)):
                tpl = abstract(body)
                if not 1 <= tpl.hole_count <= 3:
                    continue
                binders += any(isinstance(s, Abs) for s in subterms(tpl.body))
                symbols = [SignatureEntry(n, t, None) for n, t in entries]
                # A twin of each symbol on its very type object, so siblings
                # at the last hole share a leaf.
                twins = [SignatureEntry(f"{e.name}'", e.type, None) for e in symbols]
                pool = POLY_SYMBOLS[:1] + symbols + POLY_SYMBOLS[1:2] + twins
                for distinct in (False, True):
                    n, r = self._check(tpl, pool, distinct)
                    conjectures += n
                    reused += r
        assert binders > 5 and conjectures > 500 and reused > 0

    def test_distrib_with_polymorphic_candidates(self, lemma_distrib_left):
        tpl = abstract(lemma_distrib_left)
        mono = _sorted_candidates(4, 2)
        pool = POLY_SYMBOLS[1:] + mono[:4] + POLY_SYMBOLS[:1] + mono[4:]
        for distinct in (False, True):
            n, reused = self._check(tpl, pool, distinct)
            assert n > 20 and reused > 0
        # Poly.pick in both holes leaves fresh ?fN variables in the output.
        texts = render_terms([c.term for c in instantiate(tpl, pool).conjectures])
        assert any("?f" in s for s in texts)

    def _resolves(self, tpl, pool, monkeypatch, distinct=False):
        calls = []
        real = instantiation.resolve

        def counted(subst, ty):
            calls.append(subst)
            return real(subst, ty)

        monkeypatch.setattr(instantiation, "resolve", counted)
        res = instantiate(tpl, pool, Budget(max_results=10**9, distinct_holes=distinct))
        monkeypatch.undo()
        assert [c.term for c in res.conjectures] == _instantiate_per_node(tpl, pool, distinct)
        return len(calls), len({id(s) for s in calls}), len(res.conjectures)

    def test_one_resolve_per_annotation_per_leaf(self, lemma_distrib_left, monkeypatch):
        """One `resolve` per distinct annotation (the distributivity template
        has 3) per leaf substitution, whatever order its emits come in.
        Below each of the 3·B binaries in the first hole, the B binaries of
        its sort share one leaf: no other candidate fits there.  Poly.pick
        fits either hole and is a leaf of its own wherever it goes.  With
        pick in the first hole, the second takes pick and then the binaries
        of all three sorts, interleaved: 3 leaves, each emitting B times."""
        tpl = abstract(lemma_distrib_left)
        B = self.B
        shared = _sorted_candidates(B, 2)
        calls, leaves, conjectures = self._resolves(tpl, shared, monkeypatch)
        assert (calls, leaves, conjectures) == (3 * 3 * B, 3 * B, 3 * B * B)
        assert calls == 3 * leaves

        calls, leaves, _ = self._resolves(tpl, POLY_SYMBOLS[:1] + shared, monkeypatch)
        assert leaves == 3 * B * 2 + 3 + 1
        assert calls == 3 * (3 * B * 2 + 1 + 3) == 3 * leaves

        # Equal but unshared types: every solution is a leaf of its own.
        unshared = _sorted_candidates(B, 2, shared=False)
        calls, leaves, conjectures = self._resolves(tpl, unshared, monkeypatch)
        assert leaves == conjectures == 3 * B * B and calls == 3 * leaves

    def _leaf_tables(self, tpl, pool, distinct, monkeypatch):
        """The conjectures of an uncapped search, and the size of its leaf
        table at each conjecture the build loop builds: the number of leaves
        alive then, since only the table and the leaf being built hold one."""
        sizes, live = [], []

        class Recording(instantiation._Leaf):
            def __init__(self, *args):
                super().__init__(*args)
                live.append(None)
                weakref.finalize(self, live.pop)

            def build(self, node, mapping):
                if node is tpl.body:
                    sizes.append(len(live))
                return super().build(node, mapping)

        monkeypatch.setattr(instantiation, "_Leaf", Recording)
        res = instantiate(tpl, pool, Budget(max_results=10**9, distinct_holes=distinct))
        monkeypatch.undo()
        return res.conjectures, sizes

    def test_random_interleaved_pools(self, lemma_distrib_left, monkeypatch):
        """Leaves that emit in any order, next to polymorphic candidates,
        build through one memo each: the terms are the reference's at every
        cap, each distinct annotation is resolved once per leaf, and the leaf
        table holds the leaves of one last-hole node only.  A leaf is told
        apart by the symbols of the other holes and the last symbol's type
        object, or the symbol itself when its scheme is polymorphic."""
        conjectures = interleaved = 0
        for tpl, pool in _interleaved_cases(lemma_distrib_left):
            annotations = len(
                {
                    id(s.binder_type if isinstance(s, Abs) else s.type)
                    for s in subterms(tpl.body)
                    if not isinstance(s, (App, Bound))
                }
            )
            by_name = {e.name: e.type for e in pool}
            for distinct in (False, True):
                n, _ = self._check(tpl, pool, distinct)
                calls, leaves, _ = self._resolves(tpl, pool, monkeypatch, distinct)
                got, sizes = self._leaf_tables(tpl, pool, distinct, monkeypatch)
                nodes: dict[tuple, list] = {}
                for c in got:
                    *head, (_, last) = c.assignment.mapping
                    ty = by_name[last]
                    nodes.setdefault(tuple(head), []).append(
                        last if type_vars(ty) else id(ty)
                    )
                assert leaves == sum(len(set(k)) for k in nodes.values())
                assert calls == annotations * leaves
                assert max(sizes, default=0) == max(
                    (len(set(k)) for k in nodes.values()), default=0
                )
                conjectures += n
                # Nodes where some leaf emits, then another, then it again.
                interleaved += sum(
                    len(set(k)) < 1 + sum(a != b for a, b in zip(k, k[1:]))
                    for k in nodes.values()
                )
        assert conjectures > 1000 and interleaved > 50

    def test_leaf_ids_are_not_reused(self, lemma_distrib_left, monkeypatch):
        """The leaf table is keyed by the `id` of each substitution, so it
        must hold them.  Here, as an allocator may, a substitution that dies
        hands its id to the next one whose id is taken, and the terms are
        still the reference's."""
        free, fresh, taken = [], itertools.count(1), []

        class Subst(dict):
            pass

        def recycled_id(obj):
            if type(obj) is not Subst:
                return id(obj)
            if "n" not in vars(obj):
                obj.n = free.pop() if free else next(fresh)
                taken.append(obj.n)
                weakref.finalize(obj, free.append, obj.n)
            return -obj.n

        monkeypatch.setattr(instantiation, "dict", Subst, raising=False)
        monkeypatch.setattr(instantiation, "id", recycled_id, raising=False)
        for tpl, pool in _interleaved_cases(lemma_distrib_left):
            for distinct in (False, True):
                budget = Budget(max_results=10**9, distinct_holes=distinct)
                got = [c.term for c in instantiate(tpl, pool, budget).conjectures]
                assert got == _instantiate_per_node(tpl, pool, distinct)
        assert len(taken) > 2 * len(set(taken))


def _interleaved_cases(lemma_distrib_left):
    """The distributivity template and 19 random ones with 1 to 3 holes,
    every other one with a binder, each with a monomorphic and a
    polymorphic pool from `_interleaved_pool`."""
    rng = random.Random(19)
    templates = [abstract(lemma_distrib_left)]
    while len(templates) < 20:
        term, _ = random_lemma_term(rng)
        tpl = abstract(_forall_first_free(term) if len(templates) % 2 else term)
        if 1 <= tpl.hole_count <= 3:
            templates.append(tpl)
    return [(tpl, _interleaved_pool(rng, poly)) for tpl in templates for poly in (0, 1)]


def _interleaved_pool(rng, poly):
    """Constants, unary and binary operators on each of the 3 sorts, and
    binaries from each sort and the next back to it, up to 3 of each in
    random order, so the sorts interleave.  Candidates of one sort and kind
    share one type object; with `poly`, the polymorphic symbols are spliced
    in at random places."""
    out = []
    for k, sort in enumerate(_SORTS):
        nxt = _SORTS[(k + 1) % len(_SORTS)]
        kinds = {
            "c": sort,
            "u": fun(sort, sort),
            "b": fun(sort, fun(sort, sort)),
            "m": fun(sort, fun(nxt, sort)),
        }
        for kind, ty in kinds.items():
            for i in range(rng.randint(0, 3)):
                out.append(SignatureEntry(f"S.{kind}{k}_{i}", ty, None))
    rng.shuffle(out)
    if poly:
        for e in POLY_SYMBOLS:
            out.insert(rng.randint(0, len(out)), e)
    return out


class _Clock:
    """A `time` stand-in whose `monotonic` moves on `step` seconds per call."""

    def __init__(self, step):
        self.now, self.step = 0.0, step

    def monotonic(self):
        self.now += self.step
        return self.now


class TestFeasibleBuildsNothing:
    """`feasible` stops at its first solution, building no conjecture, and
    answers as a one-result `instantiate` under the same deadline did."""

    def _cases(self, lemma_distrib_left):
        rng = random.Random(23)
        for tpl, pool in _interleaved_cases(lemma_distrib_left):
            for size in (0, 1, 2, 4, len(pool)):
                for distinct in (False, True):
                    yield tpl, rng.sample(pool, min(size, len(pool))), distinct

    def test_agrees_with_one_result_instantiate(self, lemma_distrib_left, monkeypatch):
        calls = []
        real = instantiation.resolve

        def counted(subst, ty):
            calls.append(subst)
            return real(subst, ty)

        monkeypatch.setattr(instantiation, "resolve", counted)
        answers = []
        for tpl, pool, distinct in self._cases(lemma_distrib_left):
            del calls[:]
            got = feasible(tpl, pool, distinct_holes=distinct)
            assert calls == []
            res = instantiate(tpl, pool, Budget(1000, 1, distinct))
            assert got == bool(res.conjectures)
            assert bool(calls) == got
            answers.append(got)
        assert answers.count(True) > 50 and answers.count(False) > 50

    def test_agrees_under_the_deadline(self, lemma_distrib_left, monkeypatch):
        """With a clock that moves 1/k of the timeout per reading, the
        deadline fires at the k-th check of the search, in `feasible` as in
        `instantiate`."""
        outcomes = set()
        cases = itertools.islice(self._cases(lemma_distrib_left), 0, None, 7)
        for tpl, pool, distinct in cases:
            for k in (1, 2, 3, 5, 8, 13):
                step = instantiation.FEASIBLE_TIMEOUT_MILLIS / 1000.0 / k
                monkeypatch.setattr(instantiation, "time", _Clock(step))
                got = feasible(tpl, pool, distinct_holes=distinct)
                monkeypatch.setattr(instantiation, "time", _Clock(step))
                budget = Budget(instantiation.FEASIBLE_TIMEOUT_MILLIS, 1, distinct)
                res = instantiate(tpl, pool, budget)
                monkeypatch.undo()
                assert got == bool(res.conjectures)
                outcomes.add((got, res.timed_out))
        # Found before the deadline, found before it fired in the lookahead,
        # and not found before it.
        assert {(True, False), (True, True), (False, True)} <= outcomes


# Symbol names that the s-expression syntax must escape, or that are not
# ASCII.
_ODD_NAMES = ['Ünï.f', 'q"uote', "back\\slash", "日本.g", 'b\\"\\', "\u2028sep"]


def _odd_names(pool):
    """`pool` with every symbol renamed to an odd name, types kept as they
    are (shared objects stay shared)."""
    return [
        SignatureEntry(f"{_ODD_NAMES[i % len(_ODD_NAMES)]}{i}", e.type, e.definition)
        for i, e in enumerate(pool)
    ]


def _drift_cases(lemma_distrib_left):
    """`_interleaved_cases`, and random lemmas with and without a binder,
    each over its own symbols, their twins on the same type objects and the
    polymorphic ones; every pool renamed by `_odd_names`."""
    cases = list(_interleaved_cases(lemma_distrib_left))
    rng = random.Random(71)
    while len(cases) < 70:
        term, entries = random_lemma_term(rng)
        tpl = abstract(_forall_first_free(term) if len(cases) % 2 else term)
        if 1 <= tpl.hole_count <= 3:
            symbols = [SignatureEntry(n, t, None) for n, t in entries]
            twins = [SignatureEntry(f"{e.name}'", e.type, None) for e in symbols]
            cases.append((tpl, POLY_SYMBOLS[:2] + symbols + POLY_SYMBOLS[2:] + twins))
    return [(tpl, _odd_names(pool)) for tpl, pool in cases]


def _rendered(res):
    """An `instantiate` result as `instantiate_texts` gives it."""
    return [(c.assignment, render_term(c.term)) for c in res.conjectures], res.capped, res.timed_out


def _texts(res):
    return res.texts, res.capped, res.timed_out


class TestTextsDriftOracle:
    """`instantiate_texts` is `instantiate` without the terms: its pairs are
    each conjecture's assignment and `render_term` of its term, in order,
    and its `capped` and `timed_out` are `instantiate`'s."""

    def test_random_templates_at_every_cap(self, lemma_distrib_left):
        conjectures = binders = capped = 0
        texts = set()
        for tpl, pool in _drift_cases(lemma_distrib_left):
            binders += any(isinstance(s, Abs) for s in subterms(tpl.body))
            for distinct in (False, True):
                n = len(instantiate(tpl, pool, Budget(distinct_holes=distinct)).conjectures)
                for cap in sorted(c for c in {1, 2, n - 1, n, n + 1} if c > 0):
                    budget = Budget(max_results=cap, distinct_holes=distinct)
                    expected = _rendered(instantiate(tpl, pool, budget))
                    got = _texts(instantiate_texts(tpl, pool, budget))
                    assert got == expected
                    capped += got[1]
                    texts.update(text for _, text in got[0])
                conjectures += n
        assert binders > 10 and conjectures > 2000 and capped > 100
        # Escaped names, non-ASCII ones, and fresh type variables.
        for mark in ('\\"', "\\\\", "日本", "?f"):
            assert any(mark in t for t in texts)

    def test_expiring_deadline(self, lemma_distrib_left, monkeypatch):
        """With a clock that moves 1/k of the timeout per reading, the
        deadline fires at the same check of both searches."""
        outcomes = set()
        for tpl, pool in _drift_cases(lemma_distrib_left)[::5]:
            for k in (1, 2, 5, 13, 40):
                for distinct in (False, True):
                    budget = Budget(1000, 10**9, distinct)
                    step = budget.timeout_millis / 1000.0 / k
                    monkeypatch.setattr(instantiation, "time", _Clock(step))
                    expected = _rendered(instantiate(tpl, pool, budget))
                    monkeypatch.setattr(instantiation, "time", _Clock(step))
                    got = _texts(instantiate_texts(tpl, pool, budget))
                    monkeypatch.undo()
                    assert got == expected
                    outcomes.add((bool(got[0]), got[2]))
        assert outcomes == {(False, True), (True, True), (True, False)}

    def test_zero_holes_and_no_candidates(self, lemma_assoc_plus):
        x = Free("v", _A)
        eq = Const("HOL.eq", fun(_A, fun(_A, TCon("HOL.bool"))))
        for tpl in (abstract(lemma_assoc_plus), abstract(App(App(eq, x), x))):
            for pool in ([], OCTO_SYMBOLS):
                for cap in (1, 5):
                    budget = Budget(max_results=cap)
                    expected = _rendered(instantiate(tpl, pool, budget))
                    assert _texts(instantiate_texts(tpl, pool, budget)) == expected


_S0, _S1 = _SORTS[0], _SORTS[1]
_B = TVar("'b")
# Candidate types for the index: constants to ternaries, a spine that mixes
# sorts, lists, schemes with a type variable in result position (which can
# take further arrows), and `fun`s with other than two arguments, which are
# no arrow.
_INDEX_TYPES = [
    _S0,
    fun(_S0, _S0),
    fun(_S0, fun(_S0, _S0)),
    fun(_S0, fun(_S0, fun(_S0, _S0))),
    fun(_S1, fun(_S0, _S1)),
    fun(_S0, _S1),
    fun(TCon("List.list", (_S0,)), _S0),
    TCon("fun", (_S0,)),
    TCon("fun", (_S0, _S0, _S0)),
    fun(TCon("fun", (_S0,)), _S0),
    fun(_S0, TCon("fun", (_S0, _S1, _S1))),
    fun(_A, _B),
    fun(_A, _A),
    fun(_A, fun(_A, _A)),
    fun(TCon("List.list", (_A,)), _A),
    fun(_S0, _A),
    _A,
]


def _index_pool(rng):
    """Up to 12 symbols over `_INDEX_TYPES` in random order; a type picked
    twice is one object, as the signature loaders give it."""
    return [
        SignatureEntry(f"I.c{i}", rng.choice(_INDEX_TYPES), None)
        for i in range(rng.randint(0, 12))
    ]


def _absorbing_templates():
    """Templates whose holes take `a0 ⇒ a1`, so a ternary symbol fits with
    a1 := S ⇒ S ⇒ S, and a constant hole next to an applied one."""
    bool_t = TCon("HOL.bool")
    s, t = _S0, _S1
    x, y = Free("x", s), Free("y", t)

    def eq(ty, lhs, rhs):
        return App(App(Const("HOL.eq", fun(ty, fun(ty, bool_t))), lhs), rhs)

    f, g = Const("T.f", fun(s, t)), Const("T.g", fun(s, t))
    c = Const("T.c", t)
    return [
        abstract(eq(t, App(f, x), y)),
        abstract(eq(t, App(f, x), App(g, x))),
        abstract(eq(t, App(f, x), c)),
        abstract(eq(s, App(Const("T.h", fun(t, s)), App(f, x)), x)),
    ]


def _index_cases(lemma_distrib_left):
    """`_drift_cases`, and the absorbing and random templates over random
    `_index_pool`s."""
    cases = _drift_cases(lemma_distrib_left)
    rng = random.Random(28)
    templates = _absorbing_templates() + [tpl for tpl, _ in cases[::4]]
    for tpl in templates:
        for _ in range(4):
            cases.append((tpl, _index_pool(rng)))
    return cases


def _indexed(tpl, pool, budget):
    """The search's solutions within `budget`, as `unindexed_solutions` gives
    them, and its `capped` and `timed_out`."""
    search = instantiation._Search(tpl, pool, budget)
    got = [
        (leaf.subst, tuple(name for _, name in pairs))
        for leaf, pairs in search.leaves(budget.max_results)
    ]
    return got, search.capped, search.timed_out


def _is_arrow(ty):
    return isinstance(ty, TCon) and ty.name == "fun" and len(ty.args) == 2


def _type_nodes(ty):
    yield ty
    if isinstance(ty, TCon):
        for a in ty.args:
            yield from _type_nodes(a)


def _shapes_met(tpl, subst):
    """Whether a hole `v ⇒ w` had its result variable w bound to an arrow
    in this solution, and whether a hole's type holds a `fun` that is no
    arrow."""
    absorbed = any(
        _is_arrow(ty) and isinstance(ty.args[1], TVar) and _is_arrow(resolve(subst, ty.args[1]))
        for ty in tpl.hole_types.values()
    )
    odd = any(
        node.name == "fun" and not _is_arrow(node)
        for ty in tpl.hole_types.values()
        for node in _type_nodes(resolve(subst, ty))
        if isinstance(node, TCon)
    )
    return absorbed, odd


class TestIndexDriftOracle:
    """The search tries at each node only what the `Signature` table lists
    for the hole's skeleton.  Its solutions, their leaf substitutions (fresh
    names included), their order, `capped` and `timed_out` are those of
    `oracles.unindexed_solutions`, which tries every candidate at every
    node."""

    def test_random_templates_at_every_cap(self, lemma_distrib_left):
        solutions = capped = absorbed = odd = poly = 0
        for tpl, pool in _index_cases(lemma_distrib_left):
            for distinct in (False, True):
                expected = unindexed_solutions(tpl, pool, distinct)
                n = len(expected)
                for cap in sorted(c for c in {1, 2, n - 1, n, n + 1} if c > 0):
                    budget = Budget(max_results=cap, distinct_holes=distinct)
                    got = _indexed(tpl, pool, budget)
                    assert got == (expected[:cap], n > cap, False)
                    capped += got[1]
                budget = Budget(max_results=10**9, distinct_holes=distinct)
                assert _indexed(tpl, Signature(pool), budget) == (expected, False, False)
                solutions += n
                schemes = {e.name: e.type for e in pool}
                for subst, chosen in expected:
                    a, o = _shapes_met(tpl, subst)
                    absorbed += a
                    odd += o
                    poly += any(type_vars(schemes[name]) for name in chosen)
        assert solutions > 3000 and capped > 200
        assert absorbed > 20 and odd > 20 and poly > 500

    def test_expiring_deadline_gives_a_prefix(self, lemma_distrib_left, monkeypatch):
        """With a clock that moves 1/k of the timeout per reading, the search
        stops at the deadline with a prefix of every solution, and says so."""
        outcomes = set()
        for tpl, pool in _index_cases(lemma_distrib_left)[::5]:
            for distinct in (False, True):
                expected = unindexed_solutions(tpl, pool, distinct)
                for k in (1, 2, 5, 13, 40):
                    monkeypatch.setattr(instantiation, "time", _Clock(1.0 / k))
                    got, capped, timed_out = _indexed(tpl, pool, Budget(1000, 10**9, distinct))
                    monkeypatch.undo()
                    assert got == expected[: len(got)] and not capped
                    assert timed_out or got == expected
                    outcomes.add((bool(got), len(got) < len(expected), timed_out))
        assert {(False, True, True), (True, True, True), (True, False, False)} <= outcomes

    def test_the_deadline_interrupts_one_node(self, monkeypatch):
        """50 candidates fit the only hole.  The clock is read once when the
        search starts and once before each candidate it tries, so a deadline
        k steps after the start lets that one node try k of them.  The steps
        are powers of two, so the clock's sums are exact."""
        x = Free("x", _S0)
        eq = Const("HOL.eq", fun(_S0, fun(_S0, TCon("HOL.bool"))))
        tpl = abstract(App(App(eq, App(Const("T.u", fun(_S0, _S0)), x)), x))
        assert tpl.hole_count == 1
        pool = [SignatureEntry(f"T.u{i}", fun(_S0, _S0), None) for i in range(50)]
        for k in (1, 2, 8, 32):
            monkeypatch.setattr(instantiation, "time", _Clock(1.0 / k))
            res = instantiate(tpl, pool, Budget(1000, 10**9))
            monkeypatch.undo()
            assert res.timed_out and not res.capped
            assert [dict(c.assignment.mapping)[1] for c in res.conjectures] == [
                e.name for e in pool[:k]
            ]


class TestCandidates:
    def test_iterates_as_its_entries(self, candidate_symbols):
        pool = POLY_SYMBOLS + OCTO_SYMBOLS + candidate_symbols
        assert list(Signature(pool)) == pool
        assert list(Signature(iter(pool))) == pool
        assert list(Signature([])) == []

    def test_repeated_names_raise(self):
        for pool in ([OCTO_SYMBOLS[0], OCTO_SYMBOLS[0]], OCTO_SYMBOLS + POLY_SYMBOLS[:1] * 2):
            with pytest.raises(DuplicateSymbols) as exc:
                Signature(pool)
            assert isinstance(exc.value, ValueError)
            assert str(exc.value) == "duplicate symbol names"

    def test_a_shared_table_answers_as_a_list(self, lemma_distrib_left, monkeypatch):
        """One table serves searches over several templates: each gives what
        the plain list gives, and a hole skeleton met before is looked up,
        not worked out again, so the table checks each skeleton it meets
        against each of its monomorphic groups once."""
        fits = []
        real = terms._fits

        def counted(hole, mono):
            fits.append(hole)
            return real(hole, mono)

        monkeypatch.setattr(terms, "_fits", counted)
        pool = _index_pool(random.Random(5)) + _sorted_candidates(2, 2)
        templates = _absorbing_templates() + [abstract(lemma_distrib_left)]
        table = Signature(pool)
        through_table = []
        for tpl in templates + templates:
            for distinct in (False, True):
                budget = Budget(max_results=10**9, distinct_holes=distinct)
                expected = _rendered(instantiate(tpl, pool, budget))
                before = len(fits)
                assert _rendered(instantiate(tpl, table, budget)) == expected
                assert _texts(instantiate_texts(tpl, table, budget)) == expected
                assert feasible(tpl, table, distinct) == bool(expected[0])
                through_table.append(len(fits) - before)
        # The second round meets no skeleton the first did not.
        half = len(through_table) // 2
        assert sum(through_table[:half]) > 0 and sum(through_table[half:]) == 0
        assert sum(through_table) == len(table._memo) * len(table._groups)

    def test_threads_share_one_table(self, lemma_distrib_left):
        """Threads that search through one table, switching as often as the
        interpreter allows, get the serial results; a skeleton two of them
        miss at once is stored twice, as equal lists."""
        pool = _index_pool(random.Random(8)) + _sorted_candidates(3, 2)
        templates = _absorbing_templates() + [abstract(lemma_distrib_left)]
        expected = [_rendered(instantiate(tpl, pool)) for tpl in templates]
        table = Signature(pool)
        n = len(templates)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as ex:
                got = list(
                    ex.map(
                        lambda i: _rendered(instantiate(templates[i % n], table)), range(8 * n)
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected[i % n] for i in range(8 * n)]
