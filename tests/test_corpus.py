import json
import random

import pytest

from lemmakit.corpus import (
    FewerTheoriesThanPartitions,
    CorpusRecord,
    Datapoint,
    datapoint_from_dict,
    datapoint_to_dict,
    format_symbols_prompt,
    json_line,
    load_lines,
    load_records,
    load_signature,
    make_datapoint,
    make_record,
    parse_json,
    read_jsonl,
    record_from_dict,
    record_to_dict,
    save_records,
    split_filewise,
)
from lemmakit.templates import abstract, parse_template
from lemmakit.terms import (
    LemmakitError,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    alpha_equal,
    fun,
    parse_term,
    parse_type,
    render_type,
)

from synthetic import build_synthetic_corpus

OCTO = TCon("Octonions.octo")


@pytest.fixture
def distrib_record(lemma_distrib_left, octo_signature):
    return make_record(
        id="octo.distrib",
        theory="Octonions",
        name="octo_distrib_left",
        t=lemma_distrib_left,
        sig=octo_signature,
    )


class TestMakeRecord:
    def test_symbols_in_first_occurrence_order(self, distrib_record):
        assert [s.name for s in distrib_record.symbols] == [
            "Octonions.octo_times",
            "Octonions.octo_plus",
        ]

    def test_whitelist_only_term(self):
        eq = parse_term(
            '(app (app (const "HOL.eq" (tc "fun" (tv "a") (tc "fun" (tv "a")'
            ' (tc "HOL.bool")))) (free "x" (tv "a"))) (free "x" (tv "a")))'
        )
        r = make_record("t.0", "T", "refl", eq, Signature([]))
        assert r.symbols == ()

    def test_repeated_constant_listed_once(self, lemma_assoc_plus, octo_signature):
        r = make_record("t.1", "T", "assoc", lemma_assoc_plus, octo_signature)
        assert [s.name for s in r.symbols] == ["Octonions.octo_plus"]


class TestFormatPrompt:
    def test_full_mode(self, distrib_record):
        got = format_symbols_prompt(distrib_record.symbols, "types+defs")
        binop = render_type(fun(OCTO, fun(OCTO, OCTO)))
        expected = (
            "[Symbols: Octonions.octo_times, Octonions.octo_plus] "
            f"[Types: Octonions.octo_times : {binop} ; "
            f"Octonions.octo_plus : {binop}] "
            "[Defs: Octonions.octo_times := octo_times a b = Octo (Re a * Re b - ...) ... ;; "
            "Octonions.octo_plus := octo_plus a b = Octo (Re a + Re b) ...]"
        )
        assert got == expected

    def test_types_mode_has_no_defs(self, distrib_record):
        got = format_symbols_prompt(distrib_record.symbols, "types")
        assert "[Defs:" not in got and "[Types:" in got

    def test_defs_mode_has_no_types(self, distrib_record):
        got = format_symbols_prompt(distrib_record.symbols, "defs")
        assert "[Types:" not in got and "[Defs:" in got

    def test_missing_def_renders_none(self):
        s = SignatureEntry("X.f", fun(OCTO, OCTO), None)
        assert "X.f := <none>" in format_symbols_prompt([s], "defs")

    def test_newlines_flattened(self):
        s = SignatureEntry("X.f", fun(OCTO, OCTO), "line one\nline two")
        assert "X.f := line one line two" in format_symbols_prompt([s], "defs")

    def test_empty_symbols(self):
        assert format_symbols_prompt([], "types") == "[Symbols: ] [Types: ]"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            format_symbols_prompt([], "nonsense")


class TestMakeDatapoint:
    def test_template_target(self, distrib_record, lemma_distrib_left):
        dp = make_datapoint(distrib_record, "types+defs", "template")
        assert dp.target == abstract(lemma_distrib_left).canonical
        assert parse_template(dp.target) == abstract(lemma_distrib_left)

    def test_lemma_target_round_trips(self, distrib_record, lemma_distrib_left):
        dp = make_datapoint(distrib_record, "types", "lemma")
        assert alpha_equal(parse_term(dp.target), lemma_distrib_left)

    def test_unknown_kind(self, distrib_record):
        with pytest.raises(ValueError):
            make_datapoint(distrib_record, "types", "proof")


def _records(n_theories, per_theory=3):
    sig = Signature([SignatureEntry("X.f", fun(OCTO, fun(OCTO, OCTO)), None)])
    term = parse_term(
        '(app (app (const "HOL.eq" (tc "fun" (tc "Octonions.octo")'
        ' (tc "fun" (tc "Octonions.octo") (tc "HOL.bool"))))'
        ' (app (app (const "X.f" (tc "fun" (tc "Octonions.octo")'
        ' (tc "fun" (tc "Octonions.octo") (tc "Octonions.octo"))))'
        ' (free "a" (tc "Octonions.octo"))) (free "b" (tc "Octonions.octo"))))'
        ' (free "a" (tc "Octonions.octo")))'
    )
    out = []
    for t in range(n_theories):
        for i in range(per_theory):
            out.append(
                make_record(f"T{t}.l{i}", f"T{t}", f"l{i}", term, sig)
            )
    return out


class TestSplit:
    def test_ratio_counts(self):
        parts = split_filewise(_records(10), (0.8, 0.1, 0.1), seed=7)
        theory_counts = [len({r.theory for r in p}) for p in parts]
        assert theory_counts == [8, 1, 1]

    def test_deterministic(self):
        a = split_filewise(_records(10), (0.8, 0.1, 0.1), seed=3)
        b = split_filewise(_records(10), (0.8, 0.1, 0.1), seed=3)
        assert [[r.id for r in p] for p in a] == [[r.id for r in p] for p in b]

    def test_theory_closed_partition(self):
        records = _records(9)
        parts = split_filewise(records, (0.5, 0.3, 0.2), seed=11)
        seen = {}
        total = 0
        for i, p in enumerate(parts):
            for r in p:
                total += 1
                assert seen.setdefault(r.theory, i) == i
        assert total == len(records)

    def test_too_few_theories(self):
        with pytest.raises(FewerTheoriesThanPartitions):
            split_filewise(_records(2), (0.5, 0.3, 0.2), seed=0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_filewise(_records(5), (0.5, 0.6), seed=0)


class TestJsonl:
    def test_record_round_trip(self, distrib_record, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_records(path, [distrib_record])
        loaded = load_records(path)
        assert loaded == [distrib_record]

    def test_json_line_sorts_keys_and_keeps_non_ascii(self):
        line = json_line({"b": "ü\n", "a": [1, None, {"d": True, "c": 0.5}]})
        assert line == '{"a": [1, null, {"c": 0.5, "d": true}], "b": "ü\\n"}'

    def test_datapoint_round_trip(self, distrib_record):
        dp = make_datapoint(distrib_record, "types", "template")
        assert datapoint_from_dict(datapoint_to_dict(dp)) == dp

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(LemmakitError) as exc:
            read_jsonl(path)
        assert ":2:" in str(exc.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("term"), "field 'term' must be a string"),
            (lambda d: d.update(id=3), "field 'id' must be a string"),
            (lambda d: d.update(symbols={}), "field 'symbols' must be a list"),
            (lambda d: d["symbols"].append(1), "symbol 2: expected an object"),
            (lambda d: d["symbols"][1].pop("type"),
             "symbol 1: field 'type' must be a string"),
            (lambda d: d.update(term="(App"), "field 'term': "),
            (lambda d: d["symbols"][1].update(type="(Type"),
             "symbol 1: field 'type': "),
        ],
    )
    def test_bad_record_names_file_line_and_field(
        self, distrib_record, tmp_path, edit, message
    ):
        good = record_to_dict(distrib_record)
        bad = record_to_dict(distrib_record)
        edit(bad)
        path = tmp_path / "corpus.jsonl"
        path.write_text(f"{json.dumps(good)}\n\n{json.dumps(bad)}\n")
        with pytest.raises(LemmakitError) as exc:
            load_records(path)
        assert f"{path}:3: {message}" in str(exc.value)
        with pytest.raises(LemmakitError) as exc:
            record_from_dict(bad)
        assert f"record: {message}" in str(exc.value)

    @pytest.mark.parametrize(
        "field", ["id", "theory", "mode", "target_kind", "input", "target"]
    )
    def test_bad_datapoint_names_field(self, distrib_record, field):
        d = datapoint_to_dict(make_datapoint(distrib_record, "types", "template"))
        del d[field]
        with pytest.raises(LemmakitError) as exc:
            datapoint_from_dict(d)
        assert f"datapoint: field {field!r} must be a string" in str(exc.value)
        with pytest.raises(LemmakitError):
            datapoint_from_dict([d])

    def test_record_dict_schema(self, distrib_record):
        d = record_to_dict(distrib_record)
        assert set(d) == {"id", "theory", "name", "term", "symbols"}
        assert set(d["symbols"][0]) == {"name", "type", "def"}


class TestLoadSignature:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(
            [{"name": "f", "type": '(tc "int")', "def": None},
             {"name": "g", "type": '(tv "a")', "def": "g x = x"}]
        ))
        assert list(load_signature(path)) == [
            SignatureEntry("f", TCon("int"), None),
            SignatureEntry("g", TVar("a"), "g x = x"),
        ]

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"a": 1}, "expected a JSON array"),
            (["f"], "entry 0: expected an object"),
            ([{"name": "f", "type": '(tc "int")'}, {"type": '(tc "int")'}],
             "entry 1: field 'name' must be a string"),
            ([{"name": "f", "type": 3}], "entry 0: field 'type' must be a string"),
            ([{"name": "f", "type": '(tc "int")', "def": 1}],
             "entry 0: field 'def' must be a string or null"),
            ([{"name": "f", "type": '(tc "int")'}, {"name": "g", "type": "(tc"}],
             "entry 1: field 'type': "),
            # A quickspec signature file names the symbol, as its loader does.
            ({"symbols": [{"name": "f", "type": '(tc "int")'}, {"name": "g", "type": 3}]},
             "symbol 1: field 'type' must be a string"),
            ({"symbols": [{"name": "f", "type": '(tc "int")'}, "g"]},
             "symbol 1: expected an object"),
        ],
    )
    def test_bad_shape_names_file_entry_and_field(self, tmp_path, content, message):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(content))
        with pytest.raises(LemmakitError) as exc:
            load_signature(path)
        assert str(path) in str(exc.value) and message in str(exc.value)


_SHARED_TYPES = [
    {"name": "f", "type": '(tc "fun" (tc "int") (tc "int"))', "def": None},
    {"name": "c", "type": '(tc "int")', "def": None},
    {"name": "g", "type": '(tc "fun" (tc "int") (tc "int"))', "def": None},
    {"name": "p", "type": '(tc "fun" (tc "int") (tc "bool"))', "def": None},
    {"name": "d", "type": '(tc "int")', "def": "d = 0"},
]


def _assert_shared(entries):
    """Equal types are one object; unequal ones are distinct objects."""
    assert [e.name for e in entries] == ["f", "c", "g", "p", "d"]
    f, c, g, p, d = (e.type for e in entries)
    assert f is g and c is d
    assert len({id(f), id(c), id(p)}) == 3
    assert f.args[0] is not c  # only whole symbol types are shared
    assert entries == [
        SignatureEntry(x["name"], parse_type(x["type"]), x["def"]) for x in _SHARED_TYPES
    ]


class TestSharedTypes:
    def test_load_signature_shares_equal_types(self, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(_SHARED_TYPES))
        _assert_shared(list(load_signature(path)))

    def test_records_share_equal_symbol_types(self, tmp_path):
        d = {"id": "r", "theory": "T", "name": "n", "term": '(free "x" (tc "int"))',
             "symbols": _SHARED_TYPES}
        _assert_shared(list(record_from_dict(d).symbols))
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(d) + "\n")
        _assert_shared(list(load_records(path)[0].symbols))

    def test_one_type_object_per_text_across_a_corpus_file(self, tmp_path):
        """Every record's symbol types are the very objects of the first
        record's with the same text, spelled alike or not."""
        _, heldout = build_synthetic_corpus()
        lines = [record_to_dict(r) for r in heldout]
        # One symbol's type in every other record written with other
        # whitespace: a text of its own for an equal type.
        for d in lines[::2]:
            d["symbols"][0]["type"] = d["symbols"][0]["type"].replace(" ", "  ")
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in lines))
        first = {}
        for d, r in zip(lines, load_records(path)):
            for s, entry in zip(d["symbols"], r.symbols):
                assert first.setdefault(s["type"], entry.type) is entry.type
                assert entry.type == parse_type(s["type"])
        by_value = {}
        for ty in first.values():
            assert by_value.setdefault(ty, ty) is ty
        assert len(by_value) < len(first) < sum(len(d["symbols"]) for d in lines)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"name": "h", "type": "(tc"},
             "2: field 'type': unexpected end of input (at offset 3)"),
            ({"name": "h", "type": '(tc "fun" (tc "int") (tc "int")'},
             "2: field 'type': unexpected end of input (at offset 31)"),
            ({"name": "h"}, "2: field 'type' must be a string"),
        ],
    )
    def test_errors_after_shared_types_are_unchanged(self, tmp_path, bad, message):
        symbols = _SHARED_TYPES[:2] + [bad] + _SHARED_TYPES[2:]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(symbols))
        with pytest.raises(LemmakitError) as exc:
            load_signature(path)
        assert str(exc.value) == f"{path}: entry {message}"
        d = {"id": "r", "theory": "T", "name": "n", "term": '(free "x" (tc "int"))',
             "symbols": symbols}
        with pytest.raises(LemmakitError) as exc:
            record_from_dict(d)
        assert str(exc.value) == f"record: symbol {message}"


class TestLoadLines:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "types.txt"
        path.write_text('# header\n\n(tc "int")  # trailing\n   \n(tv "a")\n')
        assert load_lines(path, parse_type) == [TCon("int"), TVar("a")]

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "types.txt"
        path.write_text('(tc "int")\n# comment\n(tc\n')
        with pytest.raises(LemmakitError) as exc:
            load_lines(path, parse_type)
        assert str(exc.value).startswith(f"{path}:3: ")



def _holds_surrogate(value) -> bool:
    """Whether a decoded JSON value holds a string (a key included) with a
    surrogate code point, which only a lone surrogate escape gives."""
    if isinstance(value, str):
        return any("\ud800" <= ch <= "\udfff" for ch in value)
    if isinstance(value, dict):
        return any(map(_holds_surrogate, value)) or any(map(_holds_surrogate, value.values()))
    return isinstance(value, list) and any(map(_holds_surrogate, value))


def _esc(*codes: int) -> str:
    """The JSON escapes of the UTF-16 code units `codes`."""
    return "".join(f"\\u{c:04x}" for c in codes)


_HIGH, _LOW = _esc(0xD800), _esc(0xDC00)
# What a JSON string is drawn from: surrogate halves in both cases, a pair,
# backslashes before a `u`, other escapes, and plain characters.
_STRING_TOKENS = [
    _HIGH, "\\u" + "DBFF", _LOW, "\\u" + "DFFF", _esc(0xD83D, 0xDE00), _esc(0xE9), _esc(0x41),
    _esc(0xE000), r"\\", r"\\u", r"\"", r"\n", "u", "d800", "a", "é",
]


class TestLoneSurrogates:
    """A string holding a lone surrogate is an input error wherever JSON is
    read, named by its place in the text: no UTF-8 output can hold it."""

    @pytest.mark.parametrize(
        "text, escape, where",
        [
            (f'"{_HIGH}"', _HIGH, "line 1 column 2 (char 1)"),
            (f'"{_LOW}"', _LOW, "line 1 column 2 (char 1)"),
            ('"\\uD800' + _esc(0x41) + '"', "\\uD800", "line 1 column 2 (char 1)"),
            (f'["{_HIGH}{_HIGH}{_LOW}"]', _HIGH, "line 1 column 3 (char 2)"),
            (f'["ok",\n {{"k\\\\{_esc(0xDBFF)}": 1}}]', _esc(0xDBFF), "line 2 column 7 (char 13)"),
            (f'["{_esc(0xD83D, 0xDE00)}",\n "{_LOW}{_HIGH}"]', _LOW, "line 2 column 3 (char 19)"),
        ],
    )
    def test_refused_naming_the_place(self, text, escape, where):
        with pytest.raises(LemmakitError) as exc:
            parse_json(text, "f.json")
        assert str(exc.value) == (
            f"f.json: malformed JSON: lone surrogate {escape} in a string: {where}"
        )
        assert parse_json(text, "f.json", lone_surrogates=True) == json.loads(text)

    def test_refused_exactly_when_json_decodes_one(self):
        """Against the decoded value, over random strings of escapes, as
        array items and object keys."""
        rng = random.Random(33)
        refused = 0
        for _ in range(3000):
            items = [
                '"' + "".join(rng.choices(_STRING_TOKENS, k=rng.randint(0, 5))) + '"'
                for _ in range(rng.randint(1, 3))
            ]
            text = f"[{items[0]}, {{{items[-1]}: [{', '.join(items)}]}}]"
            value = json.loads(text)
            try:
                assert parse_json(text, "f.json") == value
            except LemmakitError:
                refused += 1
                assert _holds_surrogate(value)
            else:
                assert not _holds_surrogate(value)
        assert 500 < refused < 2500

    def test_a_jsonl_line_is_named(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(f'{{"ok": "{_esc(0xD83D, 0xDE00)}"}}\n\n{{"id": "a{_esc(0xDFFF)}"}}\n')
        with pytest.raises(LemmakitError) as exc:
            read_jsonl(path)
        assert str(exc.value) == (
            f"{path}:3: malformed JSON line: lone surrogate {_esc(0xDFFF)} in a string: "
            "line 1 column 10 (char 9)"
        )
