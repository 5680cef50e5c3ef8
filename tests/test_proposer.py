import json
import random
import sys

import pytest

from lemmakit import instantiation
from lemmakit import proposer as proposer_mod
from lemmakit.cli import main
from lemmakit.corpus import Datapoint, json_line
from lemmakit.evaluation import evaluate_suite, make_task
from lemmakit.proposer import (
    HttpProposerConfig,
    ProposalRequest,
    TemplateIndex,
    TransportError,
    UnparseableTarget,
    build_index,
    load_templates_file,
    propose_fixed,
    propose_http,
    propose_retrieval,
)
from lemmakit.templates import abstract
from lemmakit.terms import (
    App,
    Const,
    DuplicateSymbols,
    Free,
    LemmakitError,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    fun,
    render_type,
)

from synthetic import build_synthetic_corpus, build_train_datapoints

OCTO = TCon("Octonions.octo")
BINOP = fun(OCTO, fun(OCTO, OCTO))

OCTO_SYMBOLS = (
    SignatureEntry("Octonions.octo_plus", BINOP, None),
    SignatureEntry("Octonions.octo_times", BINOP, None),
)


@pytest.fixture
def octo_templates(lemma_noncommutative, lemma_distrib_left, lemma_assoc_plus):
    return {
        "noncomm": abstract(lemma_noncommutative),
        "distrib": abstract(lemma_distrib_left),
        "assoc": abstract(lemma_assoc_plus),
    }


def _datapoints(canonical_counts):
    out = []
    i = 0
    for canonical, count in canonical_counts:
        for _ in range(count):
            out.append(
                Datapoint(
                    id=f"d{i}",
                    input="[Symbols: ]",
                    target_kind="template",
                    target=canonical,
                    mode="types",
                    theory="T",
                )
            )
            i += 1
    return out


class TestIndex:
    def test_counts(self, octo_templates):
        idx = build_index(
            _datapoints([(octo_templates["assoc"].canonical, 2)])
        )
        assert idx.counts[octo_templates["assoc"].canonical] == 2
        assert idx.total == 2

    def test_empty(self):
        idx = build_index([])
        assert idx.counts == {} and idx.total == 0

    def test_total_is_input_length(self, octo_templates):
        dps = _datapoints(
            [(t.canonical, n) for t, n in zip(octo_templates.values(), (3, 2, 1))]
        )
        assert build_index(dps).total == len(dps)

    def test_unparseable_target(self):
        with pytest.raises(UnparseableTarget) as exc:
            build_index(_datapoints([("(((", 1)]))
        assert exc.value.id == "d0"

    def test_save_load(self, octo_templates, tmp_path):
        idx = build_index(
            _datapoints([(t.canonical, 2) for t in octo_templates.values()])
        )
        path = tmp_path / "index.jsonl"
        idx.save(path)
        again = TemplateIndex.load(path)
        assert again.counts == idx.counts and again.total == idx.total
        assert path.read_text(encoding="utf-8") == "".join(
            json_line({"template": c, "count": n}) + "\n" for c, n in sorted(idx.counts.items())
        )


    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"template": "%s"}', "field 'count' must be an integer"),
            ('{"template": "%s", "count": true}', "field 'count' must be an integer"),
            ('{"count": 1}', "field 'template' must be a string"),
            ('["%s", 1]', "expected an object"),
            ("{", "malformed JSON line"),
            ('{"template": "(bogus", "count": 1}', "field 'template': "),
        ],
    )
    def test_load_bad_line_names_file_line_and_field(
        self, octo_templates, tmp_path, line, message
    ):
        canonical = json.dumps(octo_templates["assoc"].canonical)[1:-1]
        path = tmp_path / "index.jsonl"
        good = json.dumps({"template": octo_templates["assoc"].canonical, "count": 2})
        path.write_text(good + "\n" + line.replace("%s", canonical) + "\n")
        with pytest.raises(LemmakitError) as exc:
            TemplateIndex.load(path)
        assert f"{path}:2: " in str(exc.value) and message in str(exc.value)


    @pytest.mark.parametrize("count", [0, -5])
    def test_counts_must_be_positive(self, octo_templates, tmp_path, count):
        canonical = octo_templates["assoc"].canonical
        idx = TemplateIndex()
        with pytest.raises(ValueError):
            idx.add(canonical, count)
        assert idx.counts == {} and idx.total == 0
        path = tmp_path / "index.jsonl"
        good = json.dumps({"template": canonical, "count": 2})
        bad = json.dumps({"template": canonical, "count": count})
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(LemmakitError) as exc:
            TemplateIndex.load(path)
        assert str(exc.value) == f"{path}:2: field 'count' must be a positive integer"


class TestRetrieval:
    def test_octonion_symbols_get_all_three(self, octo_templates):
        idx = build_index(
            _datapoints([(t.canonical, 1) for t in octo_templates.values()])
        )
        got = propose_retrieval(ProposalRequest(symbols=OCTO_SYMBOLS), idx)
        assert sorted(p.template.canonical for p in got.proposals) == sorted(
            t.canonical for t in octo_templates.values()
        )

    def test_unary_only_symbols_get_nothing(self, octo_templates):
        idx = build_index(_datapoints([(octo_templates["distrib"].canonical, 1)]))
        sin = SignatureEntry(
            "Transcendental.sin", fun(TCon("Real.real"), TCon("Real.real")), None
        )
        got = propose_retrieval(ProposalRequest(symbols=(sin,)), idx)
        assert got.proposals == []

    def test_frequency_ranking_and_k(self, octo_templates):
        idx = build_index(
            _datapoints(
                [
                    (octo_templates["assoc"].canonical, 3),
                    (octo_templates["distrib"].canonical, 5),
                ]
            )
        )
        got = propose_retrieval(
            ProposalRequest(symbols=OCTO_SYMBOLS, k=1), idx
        )
        assert [p.template.canonical for p in got.proposals] == [octo_templates["distrib"].canonical]
        assert got.proposals[0].score == pytest.approx(5 / 8)

    def test_scores_descending(self, octo_templates):
        idx = build_index(
            _datapoints(
                [(t.canonical, n) for t, n in zip(octo_templates.values(), (4, 2, 1))]
            )
        )
        got = propose_retrieval(ProposalRequest(symbols=OCTO_SYMBOLS), idx)
        scores = [p.score for p in got.proposals]
        assert scores == sorted(scores, reverse=True)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ProposalRequest(symbols=(), k=0)

    def test_duplicate_names_raise_even_when_memoized(self, octo_templates):
        idx = build_index(_datapoints([(octo_templates["assoc"].canonical, 1)]))
        propose_retrieval(ProposalRequest(symbols=OCTO_SYMBOLS), idx)
        twice = (OCTO_SYMBOLS[0], SignatureEntry(OCTO_SYMBOLS[0].name, BINOP, None))
        with pytest.raises(ValueError):
            propose_retrieval(ProposalRequest(symbols=twice), idx)


def _count_feasible(monkeypatch) -> list:
    """Route proposer.feasible through a recorder; returns the call log."""
    calls = []
    real = proposer_mod.feasible

    def counted(tpl, candidates, *args):
        calls.append(tpl.canonical)
        return real(tpl, candidates, *args)

    monkeypatch.setattr(proposer_mod, "feasible", counted)
    return calls


def _ranking_without_memo(req, idx):
    """propose_retrieval's ranking with one feasibility search per template."""
    ranked = [
        (c, n) for c, n in idx.counts.items()
        if instantiation.feasible(idx.template(c), list(req.symbols))
    ]
    ranked.sort(key=lambda cn: (-cn[1], idx.template(cn[0]).hole_count, cn[0]))
    return [(c, n / idx.total) for c, n in ranked[: req.k]]


def _ranking(got):
    return [(p.template.canonical, p.score) for p in got.proposals]


def _searches_until_k(reqs, idx) -> int:
    """The feasibility searches that `reqs`, asked in turn, need when each
    walks the rank order only up to its k-th feasible template: one per
    (template, candidate type set) pair that some request reaches."""
    order = sorted(idx.counts, key=lambda c: (-idx.counts[c], idx.template(c).hole_count, c))
    reached = set()
    for req in reqs:
        types = frozenset(s.type for s in req.symbols)
        found = 0
        for c in order:
            if found == req.k:
                break
            reached.add((c, types))
            found += instantiation.feasible(idx.template(c), list(req.symbols))
    return len(reached)


S, T = TCon("S"), TCon("T")
LIST = lambda a: TCon("List.list", (a,))  # noqa: E731
# Candidate type pool; "a" and "b" stand for type variables, named anew per list.
TYPE_POOL = [
    lambda a, b: fun(S, S),
    lambda a, b: fun(T, T),
    lambda a, b: fun(S, T),
    lambda a, b: fun(a, a),
    lambda a, b: fun(a, b),
    lambda a, b: fun(S, fun(S, S)),
    lambda a, b: fun(a, fun(a, a)),
    lambda a, b: fun(T, fun(T, fun(T, T))),
    lambda a, b: fun(a, fun(b, fun(a, a))),
    lambda a, b: fun(LIST(a), a),
    lambda a, b: fun(LIST(a), LIST(a)),
    lambda a, b: S,
    lambda a, b: a,
]


class TestFeasibilityMemo:
    def test_one_search_per_template_and_type_set(self, monkeypatch):
        idx = build_index(build_train_datapoints())
        _, heldout = build_synthetic_corpus()
        calls = _count_feasible(monkeypatch)
        reqs = [ProposalRequest(symbols=r.symbols) for r in heldout]
        for req in reqs:
            got = propose_retrieval(req, idx)
            assert _ranking(got) == _ranking_without_memo(req, idx)
        type_sets = {frozenset(render_type(s.type) for s in r.symbols) for r in heldout}
        # The mixed theories list their two symbols in either order.
        assert len({r.symbols for r in heldout}) == 31 and len(type_sets) == 20
        # Of the 30 * 20 (template, type set) pairs, the walks to k reach 330.
        assert len(calls) == _searches_until_k(reqs, idx) == 330
        assert len(set(calls)) == len(idx.counts)

    def test_matches_unmemoized_ranking_on_random_lists(self, monkeypatch):
        idx = build_index(build_train_datapoints())
        rng = random.Random(4)
        calls = _count_feasible(monkeypatch)
        reqs = []
        for _ in range(25):
            picks = rng.sample(range(len(TYPE_POOL)), rng.randint(1, 4))
            for _ in range(4):
                # Renamed type variables and symbols, reordered, with repeats.
                tvs = rng.sample(["a", "b", "c", "'x", "?f1", "a0"], 2)
                types = [TYPE_POOL[i](TVar(tvs[0]), TVar(tvs[1])) for i in picks]
                types += rng.sample(types, rng.randint(0, len(types)))
                rng.shuffle(types)
                tag = rng.randrange(10**6)
                symbols = tuple(
                    SignatureEntry(f"c{tag}_{i}", ty, None) for i, ty in enumerate(types)
                )
                req = ProposalRequest(symbols=symbols, k=rng.randint(1, 8))
                reqs.append(req)
                got = propose_retrieval(req, idx)
                assert _ranking(got) == _ranking_without_memo(req, idx)
        assert len(calls) == _searches_until_k(reqs, idx) == 839

    def test_k_beyond_the_feasible_searches_every_template_once(self, monkeypatch):
        idx = build_index(build_train_datapoints())
        _, heldout = build_synthetic_corpus()
        req = ProposalRequest(symbols=heldout[0].symbols, k=len(idx.counts) + 1)
        calls = _count_feasible(monkeypatch)
        got = propose_retrieval(req, idx)
        assert 0 < len(got.proposals) < len(idx.counts)
        assert _ranking(got) == _ranking_without_memo(req, idx)
        assert sorted(calls) == sorted(idx.counts)
        again = propose_retrieval(req, idx)
        assert [p.template.canonical for p in again.proposals] == [
            p.template.canonical for p in got.proposals
        ]
        assert len(calls) == len(idx.counts)

    def test_one_table_per_request(self, monkeypatch, table_builds):
        """The request builds its `Signature` table, and every feasibility
        search of every proposal for it reads that one; retrieval builds
        none."""
        idx = build_index(build_train_datapoints())
        _, heldout = build_synthetic_corpus()
        table_builds.clear()  # the corpus builder's signatures
        req = ProposalRequest(symbols=heldout[0].symbols, k=len(idx.counts))
        assert table_builds == [tuple(c.name for c in heldout[0].symbols)]
        tables = []
        real = proposer_mod.feasible

        def recorded(tpl, candidates, *args):
            tables.append(candidates)
            return real(tpl, candidates, *args)

        monkeypatch.setattr(proposer_mod, "feasible", recorded)
        for _ in range(2):
            propose_retrieval(req, idx)
        assert len(tables) == len(idx.counts) > 1
        assert all(t is req.symbols for t in tables)
        assert len(table_builds) == 1

    def test_request_holds_one_table(self, table_builds):
        """A list or tuple becomes a `Signature` table, a table is kept as
        it is, and repeated names are refused when the request is made, so
        no proposer, not even one over an empty index, is asked."""
        table = Signature(OCTO_SYMBOLS)
        assert ProposalRequest(symbols=table).symbols is table
        for symbols in (OCTO_SYMBOLS, list(OCTO_SYMBOLS)):
            req = ProposalRequest(symbols=symbols)
            assert isinstance(req.symbols, Signature)
            assert list(req.symbols) == list(OCTO_SYMBOLS)
            assert len(req.symbols) == len(OCTO_SYMBOLS)
        assert len(table_builds) == 3
        with pytest.raises(DuplicateSymbols):
            ProposalRequest(symbols=OCTO_SYMBOLS * 2)
        with pytest.raises(ValueError, match="k must be >= 1"):
            ProposalRequest(symbols=OCTO_SYMBOLS * 2, k=0)

    def test_request_prints_and_compares_its_symbols(self):
        """A request shows its symbols and compares by value: two requests
        over equal lists are equal, whatever the lists' container, and a
        change of order or of one entry tells them apart."""
        a = ProposalRequest(symbols=OCTO_SYMBOLS, k=3)
        b = ProposalRequest(symbols=list(OCTO_SYMBOLS), k=3)
        assert a == b and hash(a) == hash(b) and a.symbols is not b.symbols
        assert repr(a) == repr(b)
        assert f"symbols=Signature({list(OCTO_SYMBOLS)!r})" in repr(a)
        assert repr(Signature()) == "Signature([])"
        assert a != ProposalRequest(symbols=OCTO_SYMBOLS[::-1], k=3)
        assert a != ProposalRequest(symbols=OCTO_SYMBOLS[:-1], k=3)
        assert a != ProposalRequest(symbols=OCTO_SYMBOLS, k=4)
        assert Signature(OCTO_SYMBOLS) != list(OCTO_SYMBOLS)

    def test_add_after_a_proposal_joins_the_ranking(self, octo_templates):
        idx = build_index(_datapoints([(octo_templates["assoc"].canonical, 3)]))
        req = ProposalRequest(symbols=OCTO_SYMBOLS, k=1)
        assert [p.template.canonical for p in propose_retrieval(req, idx).proposals] == [
            octo_templates["assoc"].canonical
        ]
        idx.add(octo_templates["distrib"].canonical, 5)
        assert [t.canonical for t, _ in idx.ranked()] == [
            octo_templates["distrib"].canonical, octo_templates["assoc"].canonical
        ]
        got = propose_retrieval(req, idx)
        assert _ranking(got) == _ranking_without_memo(req, idx)
        assert _ranking(got) == [(octo_templates["distrib"].canonical, 5 / 8)]

    def test_type_constructors_are_part_of_the_key(self, monkeypatch):
        x = Free("x", S)
        eq = Const("HOL.eq", fun(S, fun(S, TCon("HOL.bool"))))
        tpl = abstract(App(App(eq, App(Const("u", fun(S, S)), x)), x))
        calls = _count_feasible(monkeypatch)
        fits, misfits = fun(S, S), fun(S, TCon("X"))
        for order in ((fits, misfits), (misfits, fits)):
            idx = build_index(_datapoints([(tpl.canonical, 1)]))
            got = [
                [
                    p.template.canonical
                    for p in propose_retrieval(
                        ProposalRequest(symbols=(SignatureEntry("u", ty, None),)), idx
                    ).proposals
                ]
                for ty in order
            ]
            assert got == [[tpl.canonical] if ty == fits else [] for ty in order]
        assert len(calls) == 4

    def test_threads_share_the_memo(self):
        _, heldout = build_synthetic_corpus()
        tasks = [make_task(r) for r in heldout]
        serial_idx = build_index(build_train_datapoints())
        serial = evaluate_suite(tasks, lambda req: propose_retrieval(req, serial_idx))
        shared = build_index(build_train_datapoints())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = evaluate_suite(
                tasks, lambda req: propose_retrieval(req, shared), workers=8
            )
        finally:
            sys.setswitchinterval(interval)
        assert threaded.to_json() == serial.to_json()
        assert shared._feasible == serial_idx._feasible
        assert len(shared._feasible) == 330


class TestHttp:
    def test_pass_through(self, stub_server, octo_templates):
        stub_server.completions = [octo_templates["assoc"].canonical]
        got = propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS),
            HttpProposerConfig(url=stub_server.url),
        )
        assert [p.template.canonical for p in got.proposals] == [octo_templates["assoc"].canonical]
        assert got.parse_failures == 0

    def test_invalid_completion_counted(self, stub_server, octo_templates):
        stub_server.completions = [
            octo_templates["assoc"].canonical,
            "not a template at all",
        ]
        got = propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS),
            HttpProposerConfig(url=stub_server.url),
        )
        assert len(got.proposals) == 1
        assert got.parse_failures == 1

    def test_non_decimal_digit_counted(self, stub_server, octo_templates):
        stub_server.completions = ["(bound \u00b2)", octo_templates["assoc"].canonical]
        got = propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS),
            HttpProposerConfig(url=stub_server.url),
        )
        assert [p.template.canonical for p in got.proposals] == [octo_templates["assoc"].canonical]
        assert got.parse_failures == 1

    def test_duplicates_removed(self, stub_server, octo_templates):
        c = octo_templates["assoc"].canonical
        stub_server.completions = [c, c]
        got = propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS),
            HttpProposerConfig(url=stub_server.url),
        )
        assert len(got.proposals) == 1

    def test_wire_contract(self, stub_server, octo_templates):
        stub_server.completions = []
        propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS, mode="types", k=3),
            HttpProposerConfig(url=stub_server.url, token="sekrit", max_tokens=99),
        )
        seen = stub_server.requests_seen[-1]
        assert seen["body"]["n"] == 3
        assert seen["body"]["max_tokens"] == 99
        assert seen["body"]["prompt"].startswith("[Symbols: Octonions.octo_plus")
        assert seen["auth"] == "Bearer sekrit"

    def test_redirect_drops_the_token(self, stub_servers, octo_templates):
        target, source = stub_servers(), stub_servers()
        target.completions = [octo_templates["assoc"].canonical]
        source.status = 302
        source.headers = {"Location": target.url}
        got = propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS),
            HttpProposerConfig(url=source.url, token="sekrit"),
        )
        assert [p.template.canonical for p in got.proposals] == [octo_templates["assoc"].canonical]
        assert source.requests_seen[0]["auth"] == "Bearer sekrit"
        assert [r["auth"] for r in target.requests_seen] == [None]

    def test_redirect_to_ftp_raises_transport(self, stub_server):
        stub_server.status = 302
        stub_server.headers = {"Location": "ftp://127.0.0.1:9/x"}
        with pytest.raises(TransportError, match="unsupported URL scheme 'ftp'"):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url=stub_server.url),
            )

    def test_http_error_raises_transport(self, stub_server):
        stub_server.status = 500
        with pytest.raises(TransportError):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url=stub_server.url),
            )

    @pytest.mark.parametrize(
        "body, message",
        [
            ('{"completions": [null, 3]}', "completion 0 must be a string"),
            ('["(hole 1 (tv \\"a\\"))"]', "expected a JSON object"),
            ('{"completions": "abc"}', "'completions' must be a list"),
            ('{"choices": []}', "'completions' must be a list"),
            ("not json", "malformed response body"),
            ("", "malformed response body"),
            (b"\xff\xfe", "malformed response body"),
            pytest.param(
                '{"completions": ' + "[" * 100_000,
                "malformed response body",
                id="nested-100000-deep",
            ),
        ],
    )
    def test_malformed_body_raises_transport(
        self, stub_server, tmp_path, monkeypatch, capsys, body, message
    ):
        stub_server.raw_body = body
        with pytest.raises(TransportError) as exc:
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url=stub_server.url),
            )
        assert message in str(exc.value)
        monkeypatch.setenv("LEMMAKIT_LLM_URL", stub_server.url)
        monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
        symbols = tmp_path / "symbols.json"
        symbols.write_text(json.dumps(
            [{"name": s.name, "type": render_type(s.type)} for s in OCTO_SYMBOLS]
        ))
        assert main(["propose", str(symbols), "--proposer", "http"]) == 2
        assert message in capsys.readouterr().err

    def test_invalid_utf8_spoils_one_completion(self, stub_server, octo_templates):
        stub_server.raw_body = json.dumps(
            {"completions": [octo_templates["assoc"].canonical, "BAD"]}
        ).encode().replace(b"BAD", b"\xff")
        got = propose_http(
            ProposalRequest(symbols=OCTO_SYMBOLS),
            HttpProposerConfig(url=stub_server.url),
        )
        assert [p.template.canonical for p in got.proposals] == [octo_templates["assoc"].canonical]
        assert got.parse_failures == 1

    def test_non_200_success_raises_transport(self, stub_server):
        stub_server.status = 201
        with pytest.raises(TransportError, match="endpoint returned HTTP 201"):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url=stub_server.url),
            )

    @pytest.mark.parametrize(
        "url, message",
        [
            ("localhost:8080", "unsupported URL scheme 'localhost'"),
            ("nonsense", "unknown url type"),
            ("http://", "no host given"),
            ("ftp://x/y", "unsupported URL scheme 'ftp'"),
        ],
    )
    def test_unusable_url_raises_transport(
        self, url, message, tmp_path, monkeypatch, capsys
    ):
        with pytest.raises(TransportError, match=f"request to {url} failed"):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS), HttpProposerConfig(url=url)
            )
        monkeypatch.setenv("LEMMAKIT_LLM_URL", url)
        symbols = tmp_path / "symbols.json"
        symbols.write_text(json.dumps(
            [{"name": s.name, "type": render_type(s.type)} for s in OCTO_SYMBOLS]
        ))
        assert main(["propose", str(symbols), "--proposer", "http"]) == 2
        assert message in capsys.readouterr().err

    def test_timeout_raises_transport(self, stub_server):
        stub_server.delay = 0.3
        with pytest.raises(TransportError, match="timed out"):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url=stub_server.url, timeout_millis=50),
            )

    def test_garbled_status_line_raises_transport(self, stub_server):
        stub_server.raw_reply = b"NOT HTTP\r\n\r\n"
        with pytest.raises(TransportError, match="NOT HTTP"):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url=stub_server.url),
            )

    def test_unreachable_raises_transport(self):
        with pytest.raises(TransportError):
            propose_http(
                ProposalRequest(symbols=OCTO_SYMBOLS),
                HttpProposerConfig(url="http://127.0.0.1:1/nope", timeout_millis=500),
            )

    def test_config_from_env(self, monkeypatch):
        monkeypatch.setenv("LEMMAKIT_LLM_URL", "http://example.invalid")
        monkeypatch.setenv("LEMMAKIT_LLM_TOKEN", "tok")
        cfg = HttpProposerConfig.from_env()
        assert cfg.url == "http://example.invalid" and cfg.token == "tok"

    def test_config_from_env_requires_url(self, monkeypatch):
        monkeypatch.delenv("LEMMAKIT_LLM_URL", raising=False)
        with pytest.raises(TransportError):
            HttpProposerConfig.from_env()


class TestFixed:
    def test_file_order_and_truncation(self, octo_templates, tmp_path):
        path = tmp_path / "templates.txt"
        ordered = [
            octo_templates["noncomm"],
            octo_templates["distrib"],
            octo_templates["assoc"],
        ]
        path.write_text(
            "# regression templates\n"
            + "\n".join(t.canonical for t in ordered)
            + "\n"
        )
        got = propose_fixed(
            ProposalRequest(symbols=OCTO_SYMBOLS, k=2), load_templates_file(path)
        )
        assert [p.template.canonical for p in got.proposals] == [t.canonical for t in ordered[:2]]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        got = propose_fixed(
            ProposalRequest(symbols=OCTO_SYMBOLS), load_templates_file(path)
        )
        assert got.proposals == []

    def test_duplicate_lines_deduplicated(self, octo_templates, tmp_path):
        path = tmp_path / "dup.txt"
        c = octo_templates["assoc"].canonical
        path.write_text(f"{c}\n{c}\n")
        got = propose_fixed(
            ProposalRequest(symbols=OCTO_SYMBOLS), load_templates_file(path)
        )
        assert len(got.proposals) == 1
