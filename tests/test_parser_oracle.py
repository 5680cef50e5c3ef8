"""The s-expression parser against the character-by-character reference in
`oracles`: every text gives the same term or type, with equal types as one
object, or the same TermSyntaxError message and offset."""

import random

import pytest

from lemmakit.templates import abstract
from lemmakit.terms import (
    MAX_DEPTH,
    Abs,
    App,
    Const,
    Free,
    Hole,
    TCon,
    TermSyntaxError,
    TVar,
    fun,
    parse_term,
    parse_type,
    render_term,
    render_type,
    subterms,
)

from oracles import (
    random_lemma_term,
    random_type,
    reference_parse_term,
    reference_parse_type,
)
from test_terms import _deep_terms, _quantify

# What mutations insert or put in place: the syntax characters, a numeral
# that is not a decimal digit (²), a decimal digit of another script (٣), a
# letter outside ASCII, whitespace the grammar does not allow (\x0b, \xa0)
# and whitespace it does, a digit and a letter.
ALPHABET = '()"\\²٣é\x0b\xa0 \t0a'


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except TermSyntaxError as e:
        return "error", (str(e), e.offset)


def _types(x):
    """Every type object in a term or a type, subtypes included."""
    if isinstance(x, (TCon, TVar)):
        stack = [x]
    else:
        stack = [s.binder_type if isinstance(s, Abs) else s.type
                 for s in subterms(x) if isinstance(s, (Abs, Const, Free, Hole))]
    while stack:
        ty = stack.pop()
        yield ty
        if isinstance(ty, TCon):
            stack.extend(ty.args)


def assert_agrees(text, parse, reference):
    got, want = _outcome(parse, text), _outcome(reference, text)
    assert got == want, text
    if got[0] == "ok":
        one = {}
        for ty in _types(got[1]):
            assert one.setdefault(ty, ty) is ty, text


def _mutants(rng, text, n=3):
    """`n` copies of `text`, each with one character deleted, inserted or
    replaced."""
    for _ in range(n):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(ALPHABET)
        how = rng.randrange(3)
        if how == 0 and i < len(text):
            yield text[:i] + text[i + 1 :]
        elif how == 1 or i == len(text):
            yield text[:i] + c + text[i:]
        else:
            yield text[:i] + c + text[i + 1 :]


def _renders(seed, n):
    """`n` random terms as text: lemmas, their ∀-closures, and the templates
    of both (holes, type variables, binders)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        t, _ = random_lemma_term(rng)
        q = _quantify(t)
        out += [render_term(u) for u in (t, q)]
        out += [abstract(u).canonical for u in (t, q)]
    return out[:n]


_ESCAPED_NAMES = ['a"b', "a\\b", '\\"', '"\\', "\\\\", '""', "", "é٣²", "x\\\"y\\"]


def _escaped_terms(rng, n):
    out = []
    for _ in range(n):
        a, b = rng.choice(_ESCAPED_NAMES), rng.choice(_ESCAPED_NAMES)
        ty = fun(TCon(a), TVar(b))
        out.append(render_term(App(Const(b, fun(ty, TCon(a))), Const(a + b, ty))))
    return out


class TestParserAgreesWithReference:
    def test_round_trip_renders(self):
        for text in _renders(3, 1000):
            assert_agrees(text, parse_term, reference_parse_term)

    def test_mutated_renders(self):
        rng = random.Random(5)
        for text in _renders(3, 1000):
            for bad in _mutants(rng, text):
                assert_agrees(bad, parse_term, reference_parse_term)

    def test_types_and_their_mutants(self):
        rng = random.Random(21)
        for _ in range(500):
            text = render_type(random_type(rng, 3))
            assert_agrees(text, parse_type, reference_parse_type)
            for bad in _mutants(rng, text):
                assert_agrees(bad, parse_type, reference_parse_type)

    def test_strings_with_escapes(self):
        rng = random.Random(17)
        texts = _escaped_terms(rng, 200)
        texts += ['(bound "\\', '(bound "\\q")', '(bound "a\\")', '(tc "\\\\")']
        for text in texts:
            assert_agrees(text, parse_term, reference_parse_term)
            for bad in _mutants(rng, text, 6):
                assert_agrees(bad, parse_term, reference_parse_term)

    @pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
    def test_nesting_shapes(self, depth):
        rng = random.Random(depth)
        for text in _deep_terms(depth).values():
            assert_agrees(text, parse_term, reference_parse_term)
            for bad in _mutants(rng, text, 10):
                assert_agrees(bad, parse_term, reference_parse_term)

    def test_text_outside_any_render(self):
        texts = ["", " ", "(", ")", "()", "(bound)", "(bound 0", "(bound -1)",
                 "(bound 0) x", "(hole 0 (tv \"a\"))", "(hole 00 (tv \"a\"))",
                 "(tv \"a\")", "(const \"a\" (tc \"b\" x))", "(app (bound 0))",
                 "(bound 0)) (", ")" * 3 + "(" * (MAX_DEPTH + 2), "(bound ²٣)",
                 "(abs \"y\" (tv \"a\") (bound ٣))", "(éé 1)", "(bound \xa00)",
                 '(tc ")', '(tv ")', '(free " (tc ")', '(abs " (tc "") (bound 0))']
        for text in texts:
            assert_agrees(text, parse_term, reference_parse_term)
            assert_agrees(text, parse_type, reference_parse_type)
