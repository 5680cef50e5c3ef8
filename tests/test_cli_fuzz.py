"""Fuzz every file argument of every subcommand through `cli.main`, and the
HTTP proposer's reply bodies through `decode_completions`.

Each example fills one file argument with arbitrary text, arbitrary JSON (one
value or JSON lines) or deeply nested brackets, while the other arguments of
the call are valid, so the fuzzed file is the one the command trips on.  The
command must return exit code 0, 1 or 2; any exception escaping `main` would
reach the user as a traceback.  Reply bodies are decoded from bytes, with no
connection opened; they must give proposals or raise TransportError.  The
seeds and the numbers of examples are fixed, and no example database is
written.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from lemmakit.cli import main
from lemmakit.corpus import make_record, save_records
from lemmakit.proposer import ProposalSet, TransportError, decode_completions
from lemmakit.templates import BOOL, abstract
from lemmakit.terms import App, Const, Free, TCon, TVar, fun, render_type

INT = TCon("int")
_A = TVar("a")
# ?1 x1 = x1, with the hole at any type 'a => 'a.
ENDO_TEMPLATE = abstract(App(
    App(Const("HOL.eq", fun(_A, fun(_A, BOOL))), App(Const("f", fun(_A, _A)), Free("x1", _A))),
    Free("x1", _A),
)).canonical

QS_SIG = {
    "sorts": [{"name": "int", "mod": 3}],
    "symbols": [
        {"name": "plus", "type": render_type(fun(INT, fun(INT, INT))), "builtin": "int_add"},
        {"name": "zero", "type": render_type(INT), "value": 0},
    ],
    "vars_per_sort": 2,
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, octo_signature, lemma_distrib_left, lemma_assoc_plus):
    d = tmp_path_factory.mktemp("valid")
    records = [
        make_record("Octonions.d0", "Octonions", "distrib", lemma_distrib_left,
                    octo_signature),
        make_record("Octonions.a0", "Octonions", "assoc", lemma_assoc_plus,
                    octo_signature),
        make_record("Other.d0", "Other", "distrib", lemma_distrib_left, octo_signature),
    ]
    save_records(d / "corpus.jsonl", records)
    (d / "symbols.json").write_text(json.dumps(
        [{"name": e.name, "type": render_type(e.type), "def": e.definition}
         for e in octo_signature]
    ))
    canonical = [abstract(r.term).canonical for r in records[:2]]
    (d / "templates.txt").write_text("".join(c + "\n" for c in canonical))
    (d / "template.txt").write_text(canonical[0] + "\n")
    (d / "index.jsonl").write_text("".join(
        json.dumps({"template": c, "count": 1}) + "\n" for c in canonical
    ))
    (d / "whitelist.txt").write_text("HOL.eq\n")
    (d / "signature.json").write_text(json.dumps(QS_SIG))
    (d / "gold.txt").write_text("")
    files = {p.name: str(p) for p in d.iterdir()}
    return files | {"out": str(d / "out"), "outdir": str(d / "outdir")}


# Each call marks its fuzzed argument with "*" before the valid file that
# `test_calls_succeed_on_valid_files` puts there; the other files are valid.
CALLS = [
    ["abstract", "*corpus.jsonl", "-o", "out"],
    ["abstract", "corpus.jsonl", "--whitelist", "*whitelist.txt", "-o", "out"],
    ["conjecture", "*symbols.json", "--proposer", "fixed", "--templates", "templates.txt",
     "-o", "out"],
    ["conjecture", "*signature.json", "--proposer", "fixed", "--templates", "templates.txt",
     "-o", "out"],
    ["conjecture", "symbols.json", "--index", "*index.jsonl", "-o", "out"],
    ["conjecture", "symbols.json", "--proposer", "fixed", "--templates", "*templates.txt",
     "-o", "out"],
    ["dataset", "*corpus.jsonl", "--outdir", "outdir", "--split", "0.5/0.5"],
    ["dataset", "corpus.jsonl", "--outdir", "outdir", "--split", "0.5/0.5",
     "--whitelist", "*whitelist.txt"],
    ["eval", "*corpus.jsonl", "--index", "index.jsonl", "--instantiation-rate",
     "--report", "out"],
    ["eval", "corpus.jsonl", "--index", "*index.jsonl", "--report", "out"],
    ["eval", "corpus.jsonl", "--proposer", "fixed", "--templates", "*templates.txt",
     "--report", "out"],
    ["eval", "corpus.jsonl", "--index", "index.jsonl", "--whitelist", "*whitelist.txt",
     "--report", "out"],
    ["eval", "corpus.jsonl", "--index", "index.jsonl", "--also-proposer", "retrieval",
     "--also-index", "*index.jsonl", "--report", "out"],
    ["eval", "corpus.jsonl", "--index", "index.jsonl", "--also-proposer", "fixed",
     "--also-templates", "*templates.txt", "--report", "out"],
    ["quickspec", "*signature.json", "--max-size", "3", "--tests", "5", "-o", "out"],
    ["quickspec", "signature.json", "--max-size", "3", "--tests", "5", "--gold", "*gold.txt",
     "-o", "out"],
    ["instantiate", "*symbols.json", "--template-file", "template.txt", "-o", "out"],
    ["instantiate", "*signature.json", "--template-file", "template.txt", "-o", "out"],
    ["instantiate", "symbols.json", "--template-file", "*template.txt", "-o", "out"],
    ["propose", "*symbols.json", "--proposer", "fixed", "--templates", "templates.txt",
     "-o", "out"],
    ["propose", "*signature.json", "--proposer", "fixed", "--templates", "templates.txt",
     "-o", "out"],
    ["propose", "symbols.json", "--index", "*index.jsonl", "-o", "out"],
    ["propose", "symbols.json", "--proposer", "fixed", "--templates", "*templates.txt",
     "-o", "out"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("call", CALLS, ids=lambda c: f"{c[0]}-{next(a for a in c if a[0] == '*')}")
def test_calls_succeed_on_valid_files(valid_files, call):
    code, err = _run([valid_files.get(a.lstrip("*"), a) for a in call])
    assert code == 0, err


# The files that hold terms or types: those read line by line, and those
# read whole (a JSON value, or one template).
_LINE_FILES = ["corpus.jsonl", "index.jsonl", "templates.txt", "gold.txt"]
_TERM_FILES = _LINE_FILES + ["template.txt", "symbols.json", "signature.json"]
_LONG_RUN = "1" * 5000


@pytest.mark.parametrize(
    "call",
    [c for c in CALLS if any(a.lstrip("*") in _TERM_FILES for a in c if a[0] == "*")],
    ids=lambda c: f"{c[0]}-{next(a for a in c if a[0] == '*')}",
)
def test_long_decimal_run_is_named(valid_files, tmp_path, call):
    """A decimal run longer than `int` converts, in the first term or type
    of a file, fails the call with a message that names the file, and the
    line of a file read line by line."""
    name = next(a for a in call if a[0] == "*")[1:]
    path = tmp_path / name
    if name == "gold.txt":
        path.write_text(f"(bound {_LONG_RUN})\n")
    else:
        with open(valid_files[name], encoding="utf-8") as fh:
            path.write_text(fh.read().replace("(tc ", f"(tc {_LONG_RUN} ", 1))
    code, err = _run([str(path) if a[0] == "*" else valid_files.get(a, a) for a in call])
    where = f"{path}:1: " if name in _LINE_FILES else f"{path}: "
    assert code == 1
    assert err.startswith(f"error: {where}") and "number longer than" in err, err[:200]


_JSON_FILES = ["corpus.jsonl", "index.jsonl", "symbols.json", "signature.json"]


@pytest.mark.parametrize(
    "call",
    [c for c in CALLS if any(a.lstrip("*") in _JSON_FILES for a in c if a[0] == "*")],
    ids=lambda c: f"{c[0]}-{next(a for a in c if a[0] == '*')}",
)
def test_long_json_integer_is_named(valid_files, tmp_path, call):
    """An integer longer than `int` converts, in the first object of a JSON
    file, fails the call as malformed JSON with a message that names the
    file, and the line of a JSONL file."""
    name = next(a for a in call if a[0] == "*")[1:]
    path = tmp_path / name
    with open(valid_files[name], encoding="utf-8") as fh:
        path.write_text(fh.read().replace("{", f'{{"n": {_LONG_RUN}, ', 1))
    code, err = _run([str(path) if a[0] == "*" else valid_files.get(a, a) for a in call])
    if name.endswith(".jsonl"):
        where = f"{path}:1: malformed JSON line: "
    else:
        where = f"{path}: malformed JSON: "
    assert code == 1
    assert err.startswith(f"error: {where}") and "4300" in err, err[:200]


def test_long_json_integer_in_http_body_raises_transport():
    raw = f'{{"completions": [], "n": {_LONG_RUN}}}'.encode()
    with pytest.raises(TransportError) as exc:
        decode_completions(raw, "http://stub")
    assert str(exc.value).startswith("malformed response body: http://stub: malformed JSON: ")


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["name", "type", "def", "id", "theory", "term", "symbols",
                         "template", "count", "sorts", "mod", "builtin", "value"])
        | st.text(max_size=5),
        inner,
        max_size=5,
    ),
    max_leaves=12,
)


def _deep(opening: str, depth: int, closed: bool) -> str:
    closing = {"[": "]", "{\"a\": ": "}", "(": ")", "(app ": ")"}[opening]
    return opening * depth + ("0" + closing * depth if closed else "")


_contents = st.one_of(
    st.text(max_size=200),
    _json.map(json.dumps),
    st.lists(_json.map(json.dumps), max_size=4).map("\n".join),
    st.builds(_deep, st.sampled_from(["[", "{\"a\": ", "(", "(app "]),
              st.sampled_from([50, 999, 5000, 100_000]), st.booleans()),
)


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=st.sampled_from(CALLS), content=_contents)
def test_fuzzed_file_arguments_exit_cleanly(valid_files, tmp_path_factory, call, content):
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(content, encoding="utf-8")
    code, err = _run([str(path) if a[0] == "*" else valid_files.get(a, a) for a in call])
    assert code in (0, 1), err
    assert "Traceback" not in err


# Each builtin's argument kinds, then its result kind.
_BUILTIN_KINDS = {
    **dict.fromkeys(["int_add", "int_sub", "int_mul", "int_pow"], ("int", "int", "int")),
    "int_le": ("int", "int", "bool"),
    **dict.fromkeys(["bool_and", "bool_or", "bool_implies"], ("bool", "bool", "bool")),
    "bool_not": ("bool", "bool"),
    "list_append": ("list", "list", "list"),
    "list_rev": ("list", "list"),
    "list_len": ("list", "int"),
    "totient": ("int", "int"),
}
_LOGIC_NAMES = ["HOL.eq", "HOL.Not", "HOL.conj", "HOL.disj", "HOL.implies", "HOL.True",
                "HOL.False"]

# A sort declaration without its name, and its kind.
_sort_decls = st.one_of(
    st.builds(lambda m: ({"mod": m}, "int"), st.integers(1, 50)),
    st.builds(lambda lo, hi: ({"min": min(lo, hi), "max": max(lo, hi)}, "int"),
              st.integers(-5, 9), st.integers(-5, 9)),
    st.just(({"kind": "bool"}, "bool")),
    st.builds(lambda n, m: ({"max_len": n, "elem_mod": m}, "list"),
              st.integers(0, 3), st.integers(1, 50)),
)
# Sort declarations with no value to sample: a modulus below 1, a range
# whose max is below its min (0 when missing), an element modulus below 1, a
# negative length bound.
_bad_sort_decls = st.one_of(
    st.builds(lambda m: {"mod": m}, st.integers(-5, 0)),
    st.builds(lambda lo, d: {"min": lo, "max": lo - d}, st.integers(-5, 9), st.integers(1, 5)),
    st.builds(lambda hi: {"max": hi}, st.integers(-5, -1)),
    st.builds(lambda n, m: {"max_len": n, "elem_mod": m}, st.integers(0, 3), st.integers(-5, 0)),
    st.builds(lambda n: {"max_len": n}, st.integers(-5, -1)),
)
# Values of each kind, in and out of every sort's range.
_values = {
    "int": st.integers(-6, 52),
    "bool": st.booleans(),
    "list": st.lists(st.integers(-2, 52), max_size=4),
}


@st.composite
def _signatures(draw):
    """A well-formed quickspec signature: up to 3 sorts of every kind, and up
    to 6 symbols, each a builtin at its kinds or a value of some sort,
    sometimes named like a logical constant."""
    sorts, names_of = [], {}
    for i in range(draw(st.integers(1, 3))):
        decl, kind = draw(_sort_decls)
        sorts.append({"name": f"s{i}", **decl})
        names_of.setdefault(kind, []).append(f"s{i}")
    symbols = []
    for i in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(_LOGIC_NAMES)) if draw(st.integers(0, 9)) == 0 else f"f{i}"
        builtin = draw(st.sampled_from(sorted(_BUILTIN_KINDS)))
        kinds = _BUILTIN_KINDS[builtin]
        if all(k in names_of for k in kinds):
            profile = [TCon(draw(st.sampled_from(names_of[k]))) for k in kinds]
            *args, ty = profile
            for arg in reversed(args):
                ty = fun(arg, ty)
            symbols.append({"name": name, "type": render_type(ty), "builtin": builtin})
        else:
            kind = draw(st.sampled_from(sorted(names_of)))
            sort = TCon(draw(st.sampled_from(names_of[kind])))
            symbols.append({"name": name, "type": render_type(sort),
                            "value": draw(_values[kind])})
    return {"sorts": sorts, "symbols": symbols}


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(signature=_signatures())
def test_fuzzed_signatures_exit_cleanly(tmp_path, signature):
    """quickspec, and instantiate over the same file's symbols."""
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(signature))
    for argv in (["quickspec", str(path), "--max-size", "3", "--tests", "5"],
                 ["instantiate", str(path), "--template", ENDO_TEMPLATE]):
        code, err = _run(argv)
        assert code in (0, 1), err
        assert "Traceback" not in err


@seed(20261021)
@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(signature=_signatures(), bad=_bad_sort_decls, data=st.data())
def test_fuzzed_bad_sorts_are_named(tmp_path, signature, bad, data):
    """A well-formed signature with one sort made empty exits 1 naming the
    file, that sort and its field."""
    i = data.draw(st.integers(0, len(signature["sorts"]) - 1))
    signature["sorts"][i] = {"name": signature["sorts"][i]["name"], **bad}
    path = tmp_path / "signature.json"
    path.write_text(json.dumps(signature))
    code, err = _run(["quickspec", str(path), "--max-size", "3", "--tests", "5"])
    assert code == 1
    assert err.startswith(f"error: {path}: sort {i}: field '") and "must be at least" in err


def _body(completions, junk: bytes) -> bytes:
    """A reply body of the expected shape, with `junk` (bytes that may not
    be UTF-8) put just inside the first string after the list opens."""
    text = json.dumps({"completions": completions}, ensure_ascii=False).encode()
    cut = text.find(b'"', text.find(b"[")) + 1 if completions else len(text)
    return text[:cut] + junk + text[cut:] if junk else text


# "T0" and "T1" stand for the two canonical templates of templates.txt.
_completion = st.one_of(
    st.sampled_from(["T0", "T1", " T0\n", "(hole 1 (tv \"a\"))", "(app", ""]),
    st.text(max_size=30),
)

_bodies = st.one_of(
    st.binary(max_size=200),
    _contents.map(lambda text: text.encode("utf-8", errors="surrogatepass")),
    st.builds(_body, st.lists(_completion, max_size=6) | st.lists(_completion | _json, max_size=6),
              st.sampled_from([b"", b"", b"\xff", b"\xc3", b"\xed\xa0\x80"])),
)


@seed(20261019)
@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(raw=_bodies)
def test_fuzzed_http_bodies_decode_or_raise_transport(valid_files, raw):
    with open(valid_files["templates.txt"], encoding="utf-8") as fh:
        canonical = fh.read().splitlines()
    for i, c in enumerate(canonical):
        raw = raw.replace(f"T{i}".encode(), json.dumps(c)[1:-1].encode())
    try:
        got = decode_completions(raw, "http://stub")
    except TransportError as e:
        assert str(e).startswith("malformed response body: ")
        return
    assert isinstance(got, ProposalSet)
    completions = json.loads(raw.decode("utf-8", errors="replace"))["completions"]
    assert len(got.proposals) + got.parse_failures <= len(completions)
    assert {p.template.canonical for p in got.proposals} <= set(canonical)
    assert [p.score for p in got.proposals] == [1 / r for r in range(1, len(got.proposals) + 1)]
