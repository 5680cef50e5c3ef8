import dataclasses
import json
import os
import subprocess
import sys

import pytest

import lemmakit
from lemmakit import cli, instantiation
from lemmakit.cli import _conjecture_lines, main
from lemmakit.corpus import (
    Datapoint,
    json_line,
    load_records,
    load_signature,
    make_record,
    save_records,
)
from lemmakit.evaluation import (
    CATEGORY_FALSE,
    CATEGORY_GOLD,
    categorize,
    evaluate_suite,
    make_task,
)
from lemmakit.instantiation import Budget, instantiate
from lemmakit.proposer import ProposalRequest, ProposalSet, build_index, decode_completions
from lemmakit.quickspec import InterpretedSignature, IntModSort, load_interpreted_signature
from lemmakit.templates import BOOL, abstract, load_whitelist, parse_template
from lemmakit.terms import (
    MAX_DEPTH,
    App,
    Const,
    DuplicateSymbols,
    Free,
    Hole,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    alpha_equal,
    fun,
    parse_term,
    render_term,
    render_type,
)

from synthetic import build_synthetic_corpus, build_train_datapoints

OCTO = TCon("Octonions.octo")
BINOP = fun(OCTO, fun(OCTO, OCTO))
INT = TCon("int")
INT_BINOP = fun(INT, fun(INT, INT))
LIST = TCon("list")
LIST_BINOP = fun(LIST, fun(LIST, LIST))


def _write_signature(path, entries):
    path.write_text(
        json.dumps(
            [
                {"name": e.name, "type": render_type(e.type), "def": e.definition}
                for e in entries
            ]
        )
    )
    return str(path)


@pytest.fixture
def octo_corpus(tmp_path, lemma_distrib_left, lemma_assoc_plus, octo_signature):
    records = [
        make_record("Octonions.d0", "Octonions", "distrib", lemma_distrib_left,
                    octo_signature),
        make_record("Octonions.a0", "Octonions", "assoc", lemma_assoc_plus,
                    octo_signature),
    ]
    path = tmp_path / "corpus.jsonl"
    save_records(path, records)
    return str(path), records


@pytest.fixture
def octo_symbols_file(tmp_path):
    return _write_signature(
        tmp_path / "symbols.json",
        [
            SignatureEntry("Octonions.octo_plus", BINOP, None),
            SignatureEntry("Octonions.octo_times", BINOP, None),
        ],
    )


@pytest.fixture
def octo_templates_file(tmp_path, lemma_distrib_left, lemma_assoc_plus):
    path = tmp_path / "templates.txt"
    path.write_text(
        abstract(lemma_distrib_left).canonical
        + "\n"
        + abstract(lemma_assoc_plus).canonical
        + "\n"
    )
    return str(path)


def _read_jsonl(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line]


class TestAbstract:
    def test_writes_template_per_record(self, octo_corpus, capsys):
        path, records = octo_corpus
        assert main(["abstract", path]) == 0
        rows = _read_jsonl(capsys)
        assert [r["id"] for r in rows] == ["Octonions.d0", "Octonions.a0"]
        assert rows[0]["template"] == abstract(records[0].term).canonical

    def test_empty_corpus(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["abstract", str(path)]) == 0
        assert capsys.readouterr().out == ""

    def test_malformed_corpus_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["abstract", str(path)]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_bad_record_exits_1_and_keeps_the_rest(self, octo_corpus, tmp_path, capsys):
        """A record that does not typecheck is reported by id; the templates
        of the other records are still written."""
        path, records = octo_corpus
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        bad = json.loads(lines[0])
        bad["id"] = "bad"
        bad["term"] = render_term(App(Const("f", OCTO), Free("x", OCTO)))
        corpus = tmp_path / "one_bad.jsonl"
        corpus.write_text(f"{lines[0]}\n{json.dumps(bad)}\n{lines[1]}\n")
        out = tmp_path / "templates.jsonl"
        assert main(["abstract", str(corpus), "-o", str(out)]) == 1
        assert f"{corpus}: record 'bad': " in capsys.readouterr().err
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == [r.id for r in records]

    def test_output_file(self, octo_corpus, tmp_path):
        path, _ = octo_corpus
        out = tmp_path / "templates.jsonl"
        assert main(["abstract", path, "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter, so an uncaught exception would
    show as a traceback on stderr."""
    src = os.path.dirname(os.path.dirname(lemmakit.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "lemmakit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


class TestConjecture:
    @pytest.mark.parametrize(
        "content, message",
        [
            ([{"name": "f"}], "entry 0: field 'type' must be a string"),
            ({"a": 1}, "expected a JSON array"),
        ],
    )
    def test_malformed_signature_exits_1(
        self, tmp_path, octo_templates_file, content, message
    ):
        sig_path = tmp_path / "bad.json"
        sig_path.write_text(json.dumps(content))
        proc = _run_cli(
            "conjecture", str(sig_path), "--proposer", "fixed",
            "--templates", octo_templates_file,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert str(sig_path) in proc.stderr and message in proc.stderr

    def test_fixed_proposer_distrib(
        self, octo_symbols_file, octo_templates_file, capsys, lemma_distrib_left
    ):
        code = main(
            [
                "conjecture",
                octo_symbols_file,
                "--proposer",
                "fixed",
                "--templates",
                octo_templates_file,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines() if line]
        assert all(r["proposer"] == "fixed" for r in rows)
        from lemmakit.terms import alpha_equal, parse_term

        terms = [parse_term(r["term"]) for r in rows]
        assert any(alpha_equal(t, lemma_distrib_left) for t in terms)
        # distrib template: 4 fillings; assoc template: 2
        assert len(rows) == 6
        assert "duplicates_removed=0" in captured.err

    def test_byte_identical_reruns(
        self, octo_symbols_file, octo_templates_file, tmp_path
    ):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            main(
                [
                    "conjecture",
                    octo_symbols_file,
                    "--proposer",
                    "fixed",
                    "--templates",
                    octo_templates_file,
                    "-o",
                    str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_one_table_for_every_template(
        self, octo_symbols_file, octo_templates_file, table_builds, capsys
    ):
        """The k templates' searches share one `Signature` table."""
        argv = ["conjecture", octo_symbols_file, "--proposer", "fixed",
                "--templates", octo_templates_file]
        assert main(argv) == 0
        assert "templates=2 " in capsys.readouterr().err
        assert len(table_builds) == 1

    def test_retrieval_needs_index(self, octo_symbols_file, capsys):
        assert main(["conjecture", octo_symbols_file]) == 1
        assert "--index" in capsys.readouterr().err


class TestOneTablePerSymbolList:
    """Each command builds one `Signature` table per symbol list it reads;
    the proposer's request and the instantiations share it."""

    OCTO_NAMES = ("Octonions.octo_plus", "Octonions.octo_times")

    @pytest.fixture
    def octo_index_file(self, tmp_path, lemma_distrib_left, lemma_assoc_plus):
        path = tmp_path / "index.jsonl"
        path.write_text("".join(
            json.dumps({"template": abstract(lemma).canonical, "count": 1}) + "\n"
            for lemma in (lemma_distrib_left, lemma_assoc_plus)
        ))
        return str(path)

    @pytest.fixture(scope="class")
    def synthetic(self, tmp_path_factory):
        """The held-out synthetic corpus, a retrieval index of the training
        corpus, and the name tuples of the corpus's symbol lists."""
        d = tmp_path_factory.mktemp("synthetic")
        _, heldout = build_synthetic_corpus()
        save_records(d / "corpus.jsonl", heldout)
        build_index(build_train_datapoints()).save(d / "index.jsonl")
        lists = dict.fromkeys(r.symbols for r in heldout)
        names = sorted(tuple(c.name for c in symbols) for symbols in lists)
        assert len(names) == 31
        return str(d / "corpus.jsonl"), str(d / "index.jsonl"), names

    def test_conjecture_with_retrieval(
        self, octo_symbols_file, octo_index_file, table_builds, capsys
    ):
        argv = ["conjecture", octo_symbols_file, "--index", octo_index_file]
        assert main(argv) == 0
        assert "templates=2 " in capsys.readouterr().err
        assert table_builds == [self.OCTO_NAMES]

    def test_propose(self, octo_symbols_file, octo_index_file, table_builds, capsys):
        assert main(["propose", octo_symbols_file, "--index", octo_index_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert table_builds == [self.OCTO_NAMES]

    def test_instantiate(self, octo_symbols_file, lemma_distrib_left, table_builds):
        argv = ["instantiate", octo_symbols_file,
                "--template", abstract(lemma_distrib_left).canonical]
        assert main(argv) == 0
        assert table_builds == [self.OCTO_NAMES]

    def test_quickspec(self, tmp_path, table_builds, capsys):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(QS_SIG))
        assert main(["quickspec", str(path), "--max-size", "3"]) == 0
        assert "emitted=" in capsys.readouterr().err
        assert table_builds == [("plus", "zero")]

    @pytest.mark.parametrize("workers", ["1", "4"])
    def test_eval(self, synthetic, table_builds, tmp_path, workers):
        corpus, index, names = synthetic
        argv = ["eval", corpus, "--index", index, "--instantiation-rate",
                "--workers", workers, "--report", str(tmp_path / "report.json")]
        assert main(argv) == 0
        assert sorted(table_builds) == names
        table_builds.clear()
        assert main(argv + ["--also-proposer", "retrieval", "--also-index", index]) == 0
        assert sorted(table_builds) == sorted(names * 2)

    def test_budget_flag_defaults_are_the_budget_defaults(self):
        parser = cli.build_parser()
        for argv in (["conjecture", "s.json"], ["eval", "c.jsonl"],
                     ["instantiate", "s.json", "--template", "(hole 0 (tv \"a\"))"]):
            assert cli._budget(parser.parse_args(argv)) == Budget()


def _many_theory_corpus(tmp_path, n_theories=10):
    sig_entries = [SignatureEntry("X.f", BINOP, None)]
    f = Const("X.f", BINOP)
    a, b = Free("a", OCTO), Free("b", OCTO)
    eq = Const("HOL.eq", fun(OCTO, fun(OCTO, TCon("HOL.bool"))))
    term = App(App(eq, App(App(f, a), b)), a)
    from lemmakit.terms import Signature

    sig = Signature(sig_entries)
    records = []
    for t in range(n_theories):
        for i in range(2):
            records.append(make_record(f"T{t}.l{i}", f"T{t}", f"l{i}", term, sig))
    path = tmp_path / "many.jsonl"
    save_records(path, records)
    return str(path)


class TestDataset:
    def test_split_files_and_determinism(self, tmp_path):
        corpus = _many_theory_corpus(tmp_path)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        for outdir in (out1, out2):
            assert main(["dataset", corpus, "--outdir", str(outdir)]) == 0
        for name, n_theories in (("train", 8), ("val", 1), ("test", 1)):
            text1 = (out1 / f"{name}.jsonl").read_bytes()
            assert text1 == (out2 / f"{name}.jsonl").read_bytes()
            rows = [json.loads(l) for l in text1.decode().splitlines()]
            assert len({r["theory"] for r in rows}) == n_theories
            assert len(rows) == n_theories * 2

    def test_lemma_targets(self, tmp_path):
        corpus = _many_theory_corpus(tmp_path)
        outdir = tmp_path / "lemma_ds"
        assert main(
            ["dataset", corpus, "--outdir", str(outdir), "--target", "lemma"]
        ) == 0
        row = json.loads((outdir / "train.jsonl").read_text().splitlines()[0])
        assert row["target_kind"] == "lemma"
        assert row["target"].startswith("(app")

    def test_every_partition_gets_a_theory(self, tmp_path, capsys):
        """0.98/0.01/0.01 of 20 theories rounds to 20/0/0; each empty
        partition then takes a theory from the largest, giving 18/1/1."""
        corpus = _many_theory_corpus(tmp_path, n_theories=20)
        outdir = tmp_path / "x"
        argv = ["dataset", corpus, "--outdir", str(outdir), "--split", "0.98/0.01/0.01"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        for name, n_theories in (("train", 18), ("val", 1), ("test", 1)):
            assert f"{outdir / name}.jsonl: {2 * n_theories} datapoints" in err
            text = (outdir / f"{name}.jsonl").read_text()
            rows = [json.loads(l) for l in text.splitlines()]
            assert len({r["theory"] for r in rows}) == n_theories

    def test_too_few_theories_exits_1(self, tmp_path, capsys):
        corpus = _many_theory_corpus(tmp_path, n_theories=2)
        assert main(["dataset", corpus, "--outdir", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("split", ["0/0", "1/-1"])
    def test_ratios_summing_to_zero_exit_1(self, tmp_path, split):
        corpus = _many_theory_corpus(tmp_path)
        outdir = tmp_path / "x"
        proc = _run_cli("dataset", corpus, "--outdir", str(outdir), "--split", split)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"--split {split}: ratios must sum to more than 0" in proc.stderr
        assert not outdir.exists()

    def test_bad_record_in_the_last_split_writes_nothing(self, tmp_path, capsys):
        """Every split's datapoints are built before any file is written."""
        corpus = _many_theory_corpus(tmp_path, n_theories=3)
        split = ["--split", "1/1/1"]
        assert main(["dataset", corpus, "--outdir", str(tmp_path / "ok"), *split]) == 0
        test_rows = (tmp_path / "ok" / "test.jsonl").read_text().splitlines()
        last = json.loads(test_rows[0])["theory"]
        with open(corpus, encoding="utf-8") as fh:
            bad = json.loads(fh.readline())
        bad.update(
            id=f"{last}.bad", theory=last,
            term=render_term(App(Const("f", OCTO), Free("x", OCTO))),
        )
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        capsys.readouterr()
        outdir = tmp_path / "x"
        assert main(["dataset", corpus, "--outdir", str(outdir), *split]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {corpus}: record '{last}.bad': ")
        assert "datapoints" not in captured.err
        assert not outdir.exists()


class TestEval:
    def test_fixed_proposer_full_success(
        self, octo_corpus, octo_templates_file, tmp_path
    ):
        path, _ = octo_corpus
        report_path = tmp_path / "report.json"
        code = main(
            [
                "eval",
                path,
                "--proposer",
                "fixed",
                "--templates",
                octo_templates_file,
                "--instantiation-rate",
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["aggregates"]["lemma_success_rate"] == 1.0
        assert report["aggregates"]["template_match_rate"] == 1.0
        assert report["aggregates"]["instantiation_rate"] == 1.0
        assert report["per_theory"] == {"Octonions": 1.0}
        assert len(report["per_task"]) == 2

    def test_repeated_symbol_names_error_one_task(
        self, octo_corpus, octo_templates_file, tmp_path
    ):
        """A record listing its symbols twice is one errored task, not an
        aborted suite."""
        path, _ = octo_corpus
        rows = [json.loads(l) for l in open(path, encoding="utf-8")]
        twice = dict(rows[0], id="Octonions.d1", symbols=rows[0]["symbols"] * 2)
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in (rows[0], twice, rows[1])))
        index = tmp_path / "index.jsonl"
        assert main(["abstract", path, "-o", str(index)]) == 0
        rows = [json.loads(l) for l in open(index, encoding="utf-8")]
        index.write_text(
            "".join(json.dumps({"template": r["template"], "count": 1}) + "\n" for r in rows)
        )
        report_path = tmp_path / "report.json"
        for argv in (
            ["--proposer", "fixed", "--templates", octo_templates_file],
            ["--index", str(index)],
        ):
            code = main(
                ["eval", str(corpus), *argv, "--instantiation-rate",
                 "--report", str(report_path)]
            )
            assert code == 0
            report = json.loads(report_path.read_text())
            assert report["aggregates"]["errored_tasks"] == 1
            assert report["aggregates"]["lemma_success_rate"] == 2 / 3
            assert report["aggregates"]["instantiation_rate"] == 2 / 3
            errors = {r["id"]: r["error"] for r in report["per_task"]}
            assert errors["Octonions.d1"] == "duplicate symbol names"

    def test_workers_do_not_change_report(
        self, octo_corpus, octo_templates_file, tmp_path
    ):
        path, _ = octo_corpus
        reports = []
        for i, workers in enumerate(("1", "8")):
            rp = tmp_path / f"r{i}.json"
            main(
                [
                    "eval",
                    path,
                    "--proposer",
                    "fixed",
                    "--templates",
                    octo_templates_file,
                    "--workers",
                    workers,
                    "--report",
                    str(rp),
                ]
            )
            reports.append(rp.read_bytes())
        assert reports[0] == reports[1]

    def test_ensemble_union(self, octo_corpus, tmp_path, lemma_distrib_left,
                            lemma_assoc_plus):
        path, _ = octo_corpus
        only_distrib = tmp_path / "d.txt"
        only_distrib.write_text(abstract(lemma_distrib_left).canonical + "\n")
        only_assoc = tmp_path / "a.txt"
        only_assoc.write_text(abstract(lemma_assoc_plus).canonical + "\n")
        rp = tmp_path / "union.json"
        code = main(
            [
                "eval",
                path,
                "--proposer",
                "fixed",
                "--templates",
                str(only_distrib),
                "--also-proposer",
                "fixed",
                "--also-templates",
                str(only_assoc),
                "--report",
                str(rp),
            ]
        )
        assert code == 0
        report = json.loads(rp.read_text())
        assert report["aggregates"]["lemma_success_rate"] == 1.0

    def test_ensemble_keeps_the_instantiation_rate(
        self, octo_corpus, tmp_path, lemma_distrib_left, lemma_assoc_plus
    ):
        """The gold-template rate does not depend on the proposer: the
        ensemble report carries the single-proposer rate."""
        path, _ = octo_corpus
        only_distrib = tmp_path / "d.txt"
        only_distrib.write_text(abstract(lemma_distrib_left).canonical + "\n")
        only_assoc = tmp_path / "a.txt"
        only_assoc.write_text(abstract(lemma_assoc_plus).canonical + "\n")
        single, union = tmp_path / "single.json", tmp_path / "union.json"
        argv = ["eval", path, "--proposer", "fixed", "--templates", str(only_distrib),
                "--instantiation-rate", "--max-results", "1"]
        assert main([*argv, "--report", str(single)]) == 0
        assert main([*argv, "--report", str(union), "--also-proposer", "fixed",
                     "--also-templates", str(only_assoc)]) == 0
        single = json.loads(single.read_text())["aggregates"]
        union = json.loads(union.read_text())["aggregates"]
        assert single["instantiation_rate"] == union["instantiation_rate"] == 0.5
        assert single["template_match_rate"] == 0.5
        assert union["template_match_rate"] == 1.0

    @pytest.mark.parametrize(
        "broken, message",
        [
            ("corpus", ":2: field 'term' must be a string"),
            ("index", ":1: field 'count' must be an integer"),
            ("templates", ":2: "),
        ],
    )
    def test_malformed_input_exits_1_before_any_task(
        self, octo_corpus, octo_templates_file, tmp_path, broken, message
    ):
        """A bad corpus line, index line or fixed template list stops eval
        with exit 1 and a message naming the file, not a traceback."""
        path, records = octo_corpus
        files = {}
        if broken == "corpus":
            lines = open(path, encoding="utf-8").read().splitlines()
            row = json.loads(lines[1])
            del row["term"]
            files["corpus"] = tmp_path / "bad_corpus.jsonl"
            files["corpus"].write_text(lines[0] + "\n" + json.dumps(row) + "\n")
            argv = ["--proposer", "fixed", "--templates", octo_templates_file]
        elif broken == "index":
            files["index"] = tmp_path / "bad_index.jsonl"
            canonical = abstract(records[0].term).canonical
            files["index"].write_text(json.dumps({"template": canonical}) + "\n")
            argv = ["--index", str(files["index"])]
        else:
            files["templates"] = tmp_path / "bad_templates.txt"
            good = open(octo_templates_file, encoding="utf-8").readline()
            files["templates"].write_text(good + "(((\n")
            argv = ["--proposer", "fixed", "--templates", str(files["templates"])]
        report = tmp_path / "report.json"
        proc = _run_cli(
            "eval", str(files.get("corpus", path)), *argv, "--report", str(report)
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{files[broken]}{message}" in proc.stderr
        assert not report.exists()

    def test_non_decimal_digit_in_corpus_names_file_and_line(
        self, octo_corpus, octo_templates_file, tmp_path
    ):
        path, _ = octo_corpus
        lines = open(path, encoding="utf-8").read().splitlines()
        row = json.loads(lines[1])
        row["term"] = "(bound \u00b2)"
        bad = tmp_path / "bad_corpus.jsonl"
        bad.write_text(lines[0] + "\n" + json.dumps(row) + "\n")
        proc = _run_cli(
            "eval", str(bad), "--proposer", "fixed", "--templates", octo_templates_file
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"error: {bad}:2: field 'term': unexpected character" in proc.stderr
        assert "(at offset 7)" in proc.stderr

    def test_retrieval_from_index(self, octo_corpus, tmp_path):
        from lemmakit.corpus import load_records, make_datapoint

        path, _ = octo_corpus
        dps = [make_datapoint(r, "types", "template") for r in load_records(path)]
        idx = build_index(dps)
        index_path = tmp_path / "index.jsonl"
        idx.save(index_path)
        rp = tmp_path / "retr.json"
        code = main(
            ["eval", path, "--index", str(index_path), "--report", str(rp)]
        )
        assert code == 0
        report = json.loads(rp.read_text())
        assert report["aggregates"]["lemma_success_rate"] == 1.0


class TestWhitelistRoundTrip:
    """Templates that `abstract --whitelist W` writes keep W's constants, and
    `eval --whitelist W` reads them back through every proposer's loader."""

    NAT = TCon("Nat.nat")

    @pytest.fixture
    def files(self, tmp_path):
        nat = self.NAT
        plus = Const("Groups.plus", fun(nat, fun(nat, nat)))
        suc = Const("Nat.Suc", fun(nat, nat))
        x, y = Free("x", nat), Free("y", nat)
        eq = Const("HOL.eq", fun(nat, fun(nat, TCon("HOL.bool"))))
        lhs = App(App(plus, App(suc, x)), y)
        rhs = App(suc, App(App(plus, x), y))
        sig = Signature([SignatureEntry(c.name, c.type) for c in (plus, suc)])
        w = tmp_path / "whitelist.txt"
        w.write_text("HOL.\nPure.\nGroups.plus\n")
        record = make_record("Nat.r0", "Nat", "add_Suc", App(App(eq, lhs), rhs), sig,
                             load_whitelist(w))
        corpus = tmp_path / "corpus.jsonl"
        save_records(corpus, [record])
        return {"corpus": str(corpus), "w": str(w), "dir": tmp_path}

    def test_abstract_then_eval(self, files, capsys):
        d, corpus, w = files["dir"], files["corpus"], files["w"]
        out = d / "templates.jsonl"
        assert main(["abstract", corpus, "--whitelist", w, "-o", str(out)]) == 0
        templates = [json.loads(line)["template"] for line in out.read_text().splitlines()]
        assert len(templates) == 1 and '"Groups.plus"' in templates[0]
        index = d / "index.jsonl"
        index.write_text(json.dumps({"template": templates[0], "count": 1}) + "\n")
        listed = d / "templates.txt"
        listed.write_text(templates[0] + "\n")
        capsys.readouterr()
        for source in (["--index", str(index)], ["--proposer", "fixed", "--templates", str(listed)]):
            report = d / "report.json"
            argv = ["eval", corpus, *source, "--report", str(report)]
            assert main([*argv, "--whitelist", w]) == 0, capsys.readouterr().err
            assert json.loads(report.read_text())["aggregates"]["lemma_success_rate"] == 1.0
            # Without the flag the default whitelist still applies.
            assert main(argv) == 1
            assert "non-whitelist constant 'Groups.plus' in template" in capsys.readouterr().err

    def test_commands_that_read_templates_take_the_whitelist(self, files, capsys):
        """`conjecture`, `propose` and `instantiate` read the template that
        `abstract --whitelist W` wrote under `--whitelist W`, and refuse it
        under the default whitelist."""
        d, w = files["dir"], files["w"]
        record = load_records(files["corpus"])[0]
        canonical = abstract(record.term, load_whitelist(w)).canonical
        index = d / "index.jsonl"
        index.write_text(json.dumps({"template": canonical, "count": 1}) + "\n")
        suc = SignatureEntry("Nat.Suc", fun(self.NAT, self.NAT))
        symbols = _write_signature(d / "symbols.json", [suc])
        runs = {
            "conjecture": ["conjecture", symbols, "--index", str(index), "-k", "1"],
            "propose": ["propose", symbols, "--index", str(index), "-k", "1"],
            "instantiate": ["instantiate", symbols, "--template", canonical],
        }
        for command, argv in runs.items():
            capsys.readouterr()
            assert main([*argv, "--whitelist", w]) == 0, capsys.readouterr().err
            rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            assert len(rows) == 1 and rows[0]["template"] == canonical, command
            if command != "propose":
                assert alpha_equal(parse_term(rows[0]["term"]), record.term)
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "non-whitelist constant 'Groups.plus' in template" in captured.err
            assert captured.out == ""

    def test_http_completions_under_the_whitelist(self, files):
        w = load_whitelist(files["w"])
        record = load_records(files["corpus"])[0]
        canonical = abstract(record.term, w).canonical
        raw = json.dumps({"completions": [canonical]}).encode()
        got = decode_completions(raw, "http://stub", w)
        assert [p.template.canonical for p in got.proposals] == [canonical]
        assert decode_completions(raw, "http://stub").parse_failures == 1


class TestDistinctHoles:
    """--distinct-holes decides which templates retrieval finds feasible:
    distributivity (the more frequent) needs two distinct operators, so over
    one operator the k=1 proposal is associativity."""

    @pytest.fixture
    def index_file(self, tmp_path, lemma_distrib_left, lemma_assoc_plus):
        path = tmp_path / "index.jsonl"
        path.write_text(
            json.dumps({"template": abstract(lemma_distrib_left).canonical, "count": 5})
            + "\n"
            + json.dumps({"template": abstract(lemma_assoc_plus).canonical, "count": 1})
            + "\n"
        )
        return str(path)

    @pytest.mark.parametrize("distinct", [False, True])
    def test_conjecture(
        self, tmp_path, index_file, capsys, distinct, lemma_distrib_left,
        lemma_assoc_plus,
    ):
        symbols = _write_signature(
            tmp_path / "one_op.json", [SignatureEntry("g.op", BINOP, None)]
        )
        argv = ["conjecture", symbols, "--index", index_file, "-k", "1"]
        assert main(argv + ["--distinct-holes"] * distinct) == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        expected = lemma_assoc_plus if distinct else lemma_distrib_left
        assert {r["template"] for r in rows} == {abstract(expected).canonical}
        assert "conjectures=1 " in captured.err

    @pytest.mark.parametrize("distinct, success", [(False, 0.5), (True, 1.0)])
    def test_eval(self, octo_corpus, index_file, tmp_path, distinct, success):
        path, _ = octo_corpus
        rp = tmp_path / "report.json"
        argv = ["eval", path, "--index", index_file, "-k", "1", "--report", str(rp)]
        assert main(argv + ["--distinct-holes"] * distinct) == 0
        report = json.loads(rp.read_text())
        assert report["aggregates"]["lemma_success_rate"] == success


QS_SIG = {
    "sorts": [{"name": "int", "mod": 5}],
    "symbols": [
        {
            "name": "plus",
            "type": render_type(INT_BINOP),
            "builtin": "int_add",
            "infix": "+",
        },
        {"name": "zero", "type": render_type(INT), "value": 0},
    ],
    "vars_per_sort": 2,
}


class TestQuickspec:
    def test_laws_emitted(self, tmp_path, capsys):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(QS_SIG))
        assert main(["quickspec", str(sig_path), "--max-size", "3"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert any("zero" in l and l.endswith("= x1") for l in lines)
        assert "emitted=" in captured.err

    def test_gold_precision_reported(self, tmp_path, capsys):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(QS_SIG))
        plus = Const("plus", INT_BINOP)
        x1, z = Free("x1", INT), Const("zero", INT)
        eq = Const("HOL.eq", fun(INT, fun(INT, TCon("HOL.bool"))))
        identity = App(App(eq, App(App(plus, x1), z)), x1)
        gold_path = tmp_path / "gold.txt"
        gold_path.write_text("# identity law\n" + render_term(identity) + "\n")
        jsonl_path = tmp_path / "laws.jsonl"
        code = main(
            [
                "quickspec",
                str(sig_path),
                "--max-size",
                "3",
                "--gold",
                str(gold_path),
                "--jsonl",
                str(jsonl_path),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "matched_gold=1" in err and "precision=" in err
        rows = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert all(set(r) == {"lhs", "rhs", "size"} for r in rows)

    def test_bad_signature_exits_1(self, tmp_path):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps({"sorts": [{"name": "odd"}], "symbols": []}))
        assert main(["quickspec", str(sig_path)]) == 1

    def test_bad_gold_line_names_file_and_line(self, tmp_path):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(QS_SIG))
        gold_path = tmp_path / "gold.txt"
        gold_path.write_text('(app (const "plus" (tc "int"))\n')
        proc = _run_cli(
            "quickspec", str(sig_path), "--max-size", "3", "--gold", str(gold_path)
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{gold_path}:1: unexpected end of input" in proc.stderr

    def test_symbol_that_raises_exits_1(self, tmp_path):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps({
            "sorts": [{"name": "int", "min": -2, "max": 2}],
            "symbols": [{"name": "pow", "type": render_type(INT_BINOP), "builtin": "int_pow"}],
        }))
        proc = _run_cli("quickspec", str(sig_path), "--max-size", "3", "--tests", "50")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: symbol 'pow' raised ")

    @pytest.mark.parametrize(
        "gold, message",
        [
            ("x = y\n", "{gold}:1: unexpected character '=' (at offset 2)"),
            (render_term(Free("x1", INT)) + "\n", "gold laws must be equations"),
        ],
    )
    def test_bad_gold_exits_1_before_writing_anything(self, tmp_path, gold, message):
        """The gold file is checked before the run: no law reaches stdout,
        `-o` or `--jsonl`."""
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(QS_SIG))
        gold_path = tmp_path / "gold.txt"
        gold_path.write_text(gold)
        laws, jsonl = tmp_path / "laws.txt", tmp_path / "laws.jsonl"
        argv = ["quickspec", str(sig_path), "--max-size", "4", "--tests", "50",
                "--gold", str(gold_path), "--jsonl", str(jsonl)]
        for output in ([], ["-o", str(laws)]):
            proc = _run_cli(*argv, *output)
            assert proc.returncode == 1
            assert proc.stderr == f"error: {message.format(gold=gold_path)}\n"
            assert proc.stdout == ""
            assert not laws.exists() and not jsonl.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({}, "field 'sorts' must be a list"),
            ([1], "expected an object"),
            (
                {"sorts": [{"max": "x"}], "symbols": []},
                "sort 0: field 'name' must be a string",
            ),
            (
                {"sorts": [{"name": "n", "max": "x"}], "symbols": []},
                "sort 0: field 'max' must be an integer or null",
            ),
            (
                {"sorts": QS_SIG["sorts"], "symbols": [{"name": "zero", "value": 0}]},
                "symbol 0: field 'type' must be a string",
            ),
            (
                {"sorts": QS_SIG["sorts"], "symbols": [
                    {"name": "plus", "type": render_type(INT_BINOP)}
                ]},
                "symbol 0: field 'builtin' must name a builtin evaluator",
            ),
            (
                {"sorts": QS_SIG["sorts"], "symbols": [
                    {"name": "zero", "type": render_type(INT), "value": {"a": 1}}
                ]},
                "symbol 0: field 'value' must be a scalar or a list of scalars",
            ),
            (
                {"sorts": [{"name": "list", "max_len": 3}], "symbols": [
                    {"name": "rev", "type": render_type(LIST_BINOP),
                     "builtin": "list_rev"}
                ]},
                "symbol 0: field 'type' must be list => list for builtin 'list_rev', "
                "not list => list => list",
            ),
            (
                {"sorts": QS_SIG["sorts"], "symbols": [
                    {"name": "rev", "type": render_type(fun(INT, INT)),
                     "builtin": "list_rev"}
                ]},
                "symbol 0: field 'type' must be list => list for builtin 'list_rev', "
                "not int => int",
            ),
            (
                {"sorts": QS_SIG["sorts"] + [{"name": "list", "max_len": 3}],
                 "symbols": [
                    {"name": "phi", "type": render_type(fun(LIST, INT)),
                     "builtin": "totient"}
                ]},
                "symbol 0: field 'type' must be int => int for builtin 'totient', "
                "not list => int",
            ),
            (
                {"sorts": QS_SIG["sorts"] + [{"name": "list", "max_len": 3}],
                 "symbols": [
                    {"name": "plus", "type": render_type(LIST_BINOP),
                     "builtin": "int_add"}
                ]},
                "symbol 0: field 'type' must be int => int => int for builtin "
                "'int_add', not list => list => list",
            ),
            (
                {"sorts": QS_SIG["sorts"], "symbols": [
                    QS_SIG["symbols"][0],
                    {"name": "zero", "type": render_type(INT), "value": [1, 2]},
                ]},
                "symbol 1: field 'value' must be an integer for sort 'int'",
            ),
            (
                {"sorts": QS_SIG["sorts"], "symbols": [
                    {"name": "plus", "type": render_type(INT_BINOP), "value": 0}
                ]},
                "symbol 0: field 'type' must be a sort for a symbol with a 'value'",
            ),
            ({**QS_SIG, "vars_per_sort": -1}, "field 'vars_per_sort' must be at least 0"),
        ],
    )
    def test_malformed_signature_names_file_and_field(self, tmp_path, content, message):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps(content))
        proc = _run_cli("quickspec", str(sig_path), "--max-size", "3")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {sig_path}")
        assert message in proc.stderr

    @pytest.mark.parametrize(
        "ty, shown",
        [(fun(TCon("nat"), INT), '(tc "nat")'), (fun(TVar("a"), INT), '(tv "a")')],
        ids=["constructor", "variable"],
    )
    def test_undeclared_sort_is_named_as_a_type(self, tmp_path, capsys, ty, shown):
        sig_path = tmp_path / "sig.json"
        sig_path.write_text(json.dumps({
            "sorts": QS_SIG["sorts"],
            "symbols": [{"name": "f", "type": render_type(ty), "builtin": "totient"}],
        }))
        assert main(["quickspec", str(sig_path), "--max-size", "2"]) == 1
        assert capsys.readouterr().err == (
            f"error: {sig_path}: symbol 'f' mentions undeclared sort {shown}\n"
        )


class TestErrorExits:
    """A bad flag value or input file that argument parsing lets through
    exits 1 with one error line, before any output."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["instantiate", "{sym}", "--template", '(const "abc'],
                "unterminated string (at offset 7)", id="unterminated-string",
            ),
            pytest.param(
                ["instantiate", "{sym}", "--template", '(const "a\\q" (tc "octo"))'],
                "bad escape (at offset 9)", id="bad-escape",
            ),
            pytest.param(
                ["instantiate", "{sym}", "--template", '(hole 0 (tv "a"))'],
                "hole index must be positive (at offset 6)", id="hole-0",
            ),
            pytest.param(
                ["instantiate", "{sym}", "--template", "{tpl}", "--timeout-ms", "0"],
                "timeout_millis must be positive", id="timeout-0",
            ),
            pytest.param(
                ["instantiate", "{sym}", "--template", "{tpl}", "--max-results", "0"],
                "max_results must be positive", id="max-results-0",
            ),
            pytest.param(
                ["conjecture", "{sym}", "--proposer", "fixed"],
                "fixed proposer needs --templates", id="fixed-without-templates",
            ),
            pytest.param(
                ["quickspec", "{dup_sort}"], "{dup_sort}: duplicate sort 'int'",
                id="duplicate-sort",
            ),
            pytest.param(
                ["quickspec", "{dup_symbol}"], "{dup_symbol}: duplicate symbol names",
                id="duplicate-symbol",
            ),
            pytest.param(
                ["quickspec", "{shadow}"],
                "{shadow}: symbol 'HOL.eq' shadows a logical constant",
                id="symbol-shadows-a-logical-constant",
            ),
            pytest.param(
                ["quickspec", "{sig}", "--max-size", "0"], "max_size must be >= 1",
                id="max-size-0",
            ),
            pytest.param(
                ["quickspec", "{sig}", "--tests", "0"], "num_tests must be >= 1",
                id="tests-0",
            ),
            pytest.param(
                ["quickspec", "{sig}", "--max-size", "3", "--gold", "{gold}"],
                "gold laws must be equations", id="gold-not-an-equation",
            ),
        ],
    )
    def test_exits_1_with_message(
        self, tmp_path, capsys, octo_symbols_file, lemma_assoc_plus, argv, message
    ):
        paths = {"sym": octo_symbols_file, "tpl": abstract(lemma_assoc_plus).canonical}
        signatures = {
            "sig": QS_SIG,
            "dup_sort": dict(QS_SIG, sorts=QS_SIG["sorts"] * 2),
            "dup_symbol": dict(QS_SIG, symbols=QS_SIG["symbols"] * 2),
            "shadow": dict(QS_SIG, symbols=[dict(QS_SIG["symbols"][0], name="HOL.eq")]),
        }
        for name, content in signatures.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(content))
            paths[name] = str(path)
        gold = tmp_path / "gold.txt"
        gold.write_text(render_term(Const("zero", INT)) + "\n")
        paths["gold"] = str(gold)
        assert main([a.format(**paths) for a in argv]) == 1
        assert f"error: {message.format(**paths)}\n" in capsys.readouterr().err


    @pytest.mark.parametrize("records", [2, 0], ids=["corpus", "empty-corpus"])
    def test_eval_k_0_exits_1_before_reading_the_corpus(
        self, tmp_path, capsys, monkeypatch, octo_corpus, octo_templates_file, records
    ):
        path, _ = octo_corpus
        if not records:
            path = tmp_path / "empty.jsonl"
            path.write_text("")
        report = tmp_path / "report.json"
        argv = ["eval", str(path), "-k", "0", "--proposer", "fixed",
                "--templates", octo_templates_file, "--report", str(report)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: k must be >= 1\n")
        assert not report.exists()
        # The check comes first: the corpus is not read at all.
        monkeypatch.setattr(cli.corpus_mod, "load_records", None)
        assert main(argv) == 1


class TestDeepJson:
    """JSON nested past the decoder's recursion limit is an input error."""

    @pytest.mark.parametrize("command", ["conjecture", "eval", "quickspec"])
    def test_deep_nesting_exits_1(self, tmp_path, command, octo_templates_file):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        argv = {
            "conjecture": ["--proposer", "fixed", "--templates", octo_templates_file],
            "eval": ["--proposer", "fixed", "--templates", octo_templates_file],
            "quickspec": [],
        }[command]
        proc = _run_cli(command, str(path), *argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        where = f"{path}:1" if command == "eval" else f"{path}"
        assert f"error: {where}: JSON" in proc.stderr
        assert "nested too deeply" in proc.stderr


class TestInstantiate:
    def test_template_flag(
        self, octo_symbols_file, capsys, lemma_distrib_left
    ):
        canonical = abstract(lemma_distrib_left).canonical
        assert main(
            ["instantiate", octo_symbols_file, "--template", canonical]
        ) == 0
        rows = _read_jsonl(capsys)
        assert len(rows) == 4
        assert {r["assignment"]["1"] for r in rows} == {
            "Octonions.octo_plus",
            "Octonions.octo_times",
        }

    def test_template_file_flag(
        self, octo_symbols_file, tmp_path, capsys, lemma_assoc_plus
    ):
        tf = tmp_path / "one.txt"
        tf.write_text(abstract(lemma_assoc_plus).canonical + "\n")
        assert main(
            ["instantiate", octo_symbols_file, "--template-file", str(tf)]
        ) == 0
        assert len(_read_jsonl(capsys)) == 2

    def test_requires_some_template(self, octo_symbols_file):
        with pytest.raises(SystemExit) as exc:
            main(["instantiate", octo_symbols_file])
        assert exc.value.code == 1

    def test_rejects_both_template_flags(
        self, octo_symbols_file, tmp_path, capsys, lemma_distrib_left
    ):
        """A --template-file next to --template is not silently ignored."""
        tf = tmp_path / "garbage.txt"
        tf.write_text("garbage\n")
        canonical = abstract(lemma_distrib_left).canonical
        with pytest.raises(SystemExit) as exc:
            main(["instantiate", octo_symbols_file, "--template", canonical,
                  "--template-file", str(tf)])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["instantiate"], ["eval"], ["instantiate", "s.json", "--no-such-flag"],
         ["eval", "c.jsonl", "--workers", "two"], ["no-such-command"], []],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: lemmakit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["instantiate", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: lemmakit" in capsys.readouterr().out

    def test_too_deep_template_exits_1(self, octo_symbols_file, tmp_path):
        """A template nested 3000 deep is a syntax error, not a crash."""
        unary = '(hole 1 (tc "fun" (tv "a0") (tv "a0")))'
        text = '(free "x1" (tv "a0"))'
        for _ in range(3000):
            text = f"(app {unary} {text})"
        tf = tmp_path / "deep.txt"
        tf.write_text(text + "\n")
        proc = _run_cli("instantiate", octo_symbols_file, "--template-file", str(tf))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"nesting deeper than {MAX_DEPTH}" in proc.stderr

    def test_invalid_template_exits_1(self, octo_symbols_file, capsys):
        assert main(
            ["instantiate", octo_symbols_file, "--template", "((("]
        ) == 1


def _chain_template(holes):
    """`x1 = h1 (h2 (... (h<holes> x1)))` over one sort, as a canonical."""
    s = TCon("S.s")
    body = Free("x1", s)
    for i in reversed(range(1, holes + 1)):
        body = App(Hole(i, fun(s, s)), body)
    return render_term(
        App(App(Const("HOL.eq", fun(s, fun(s, TCon("HOL.bool")))), Free("x1", s)), body)
    )


# Symbol names that JSON must escape, or that stay as they are only because
# the output is not ASCII-escaped.
_ODD_NAMES = ['Ünï.f', 'q"uote', "back\\slash", "日本.g", "tab\tand\nline", "\u2028sep"]


def _json_dumps_lines(conjectures, proposer):
    """Reference: each output line as `json_line` gives it."""
    out = []
    for c in conjectures:
        d = {
            "term": render_term(c.term),
            "template": c.template_canonical,
            "assignment": {str(i): n for i, n in c.assignment.mapping},
        }
        if proposer:
            d["proposer"] = c.source_proposer
        out.append(json_line(d))
    return out


class TestConjectureLines:
    """`instantiate` and `conjecture` build each output line from parts; the
    lines are byte-equal to `json_line` of the conjecture's object, which is
    `json.dumps(sort_keys=True, ensure_ascii=False)`."""

    def _conjectures(self, holes=12, n=60):
        s = TCon("S.s")
        pool = [SignatureEntry(name, fun(s, s), None) for name in _ODD_NAMES]
        tpl = parse_template(_chain_template(holes))
        res = instantiate(tpl, pool, Budget(max_results=n))
        assert len(res.conjectures) == min(n, len(pool) ** holes)
        assert tpl.hole_count == holes
        return pool, res.conjectures

    @pytest.mark.parametrize("holes", [1, 9, 12])
    def test_lines_equal_json_dumps(self, holes):
        _, conjectures = self._conjectures(holes)
        sources = ["retrieval", 'fi"xed\\', "ünï", ""]
        conjectures = [
            dataclasses.replace(c, source_proposer=sources[i % len(sources)])
            for i, c in enumerate(conjectures)
        ]
        for proposer in (False, True):
            got = list(_conjecture_lines(conjectures, proposer=proposer))
            assert got == _json_dumps_lines(conjectures, proposer)
        assert list(_conjecture_lines([])) == []

    def test_hole_keys_in_string_order(self):
        _, conjectures = self._conjectures()
        line = next(_conjecture_lines(conjectures))
        keys = list(json.loads(line)["assignment"])
        assert keys == sorted(str(i) for i in range(1, 13)) != [
            str(i) for i in range(1, 13)
        ]

    def test_instantiate_command_writes_the_same_bytes(self, tmp_path, monkeypatch):
        """`lemmakit instantiate` writes the lines of `instantiate`'s
        conjectures, capped or not, and builds no term to write them."""
        def refuse(*args):
            raise AssertionError("a term was built")

        for holes, cap in ((12, 40), (3, None)):
            pool, conjectures = self._conjectures(holes, cap or 1000)
            expected = "".join(line + "\n" for line in _json_dumps_lines(conjectures, False))
            assert expected == "".join(line + "\n" for line in _conjecture_lines(conjectures))
            symbols = _write_signature(tmp_path / "odd.json", pool)
            out = tmp_path / "out.jsonl"
            argv = ["instantiate", symbols, "--template", _chain_template(holes), "-o", str(out)]
            monkeypatch.setattr(instantiation, "_build", refuse)
            monkeypatch.setattr(instantiation._Leaf, "build", refuse)
            assert main(argv + ["--max-results", str(cap)] * bool(cap)) == 0
            monkeypatch.undo()
            assert out.read_bytes() == expected.encode("utf-8")


class TestPropose:
    def test_fixed(self, octo_symbols_file, octo_templates_file, capsys,
                   lemma_distrib_left):
        assert main(
            [
                "propose",
                octo_symbols_file,
                "--proposer",
                "fixed",
                "--templates",
                octo_templates_file,
            ]
        ) == 0
        rows = _read_jsonl(capsys)
        assert rows[0]["template"] == abstract(lemma_distrib_left).canonical
        assert rows[0]["source"] == "fixed"

    def test_non_positive_index_count_exits_1(
        self, octo_symbols_file, tmp_path, lemma_assoc_plus
    ):
        index = tmp_path / "index.jsonl"
        canonical = abstract(lemma_assoc_plus).canonical
        index.write_text(json.dumps({"template": canonical, "count": -5}) + "\n")
        proc = _run_cli(
            "propose", octo_symbols_file, "--proposer", "retrieval",
            "--index", str(index),
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"{index}:1: field 'count' must be a positive integer" in proc.stderr
        assert proc.stdout == ""

    def test_unreachable_http_exits_2(
        self, octo_symbols_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("LEMMAKIT_LLM_URL", "http://127.0.0.1:1/nope")
        monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
        assert main(
            ["propose", octo_symbols_file, "--proposer", "http"]
        ) == 2
        assert "transport error" in capsys.readouterr().err

    def test_long_json_integer_in_first_http_reply_errors_one_task(
        self, octo_corpus, monkeypatch, stub_server, tmp_path
    ):
        """`eval` asks for Octonions.d0 first; its reply holds an integer
        longer than `int` converts, and only that task is errored."""
        corpus, records = octo_corpus
        monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
        monkeypatch.setenv("LEMMAKIT_LLM_URL", stub_server.url)
        stub_server.bodies = ['{"completions": [], "n": ' + "1" * 5000 + "}"]
        stub_server.completions = [abstract(r.term).canonical for r in records]
        report = tmp_path / "report.json"
        proc = _run_cli("eval", corpus, "--proposer", "http", "--report", str(report))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rows = {r["id"]: r for r in json.loads(report.read_text())["per_task"]}
        assert rows["Octonions.d0"]["error"].startswith(
            f"malformed response body: {stub_server.url}: malformed JSON: "
        )
        assert rows["Octonions.a0"]["error"] is None
        assert rows["Octonions.a0"]["lemma_success"]
        assert len(stub_server.requests_seen) == 2

    def test_deep_http_body_exits_2(self, octo_symbols_file, monkeypatch, stub_server):
        monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
        stub_server.raw_body = '{"completions": ' + "[" * 100_000
        monkeypatch.setenv("LEMMAKIT_LLM_URL", stub_server.url)
        proc = _run_cli("propose", octo_symbols_file, "--proposer", "http")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("transport error: malformed response body")
        assert "nested too deeply" in proc.stderr


# The list signature of the quickspec acceptance test, as a file.
LIST_QS_SIG = {
    "sorts": [{"name": "list", "max_len": 5, "elem_mod": 10}, {"name": "int", "min": 0, "max": 25}],
    "symbols": [
        {"name": "append", "type": render_type(LIST_BINOP), "builtin": "list_append",
         "infix": "@"},
        {"name": "rev", "type": render_type(fun(LIST, LIST)), "builtin": "list_rev"},
        {"name": "len", "type": render_type(fun(LIST, INT)), "builtin": "list_len"},
        {"name": "plus", "type": render_type(INT_BINOP), "builtin": "int_add", "infix": "+"},
        {"name": "zero", "type": render_type(INT), "value": 0},
    ],
}


def _rev_append(swapped):
    """rev (x1 @ x2) = rev x2 @ rev x1 if swapped, else the false
    rev (x1 @ x2) = rev x1 @ rev x2."""
    rev, app = Const("rev", fun(LIST, LIST)), Const("append", LIST_BINOP)
    x1, x2 = Free("x1", LIST), Free("x2", LIST)
    first, second = (x2, x1) if swapped else (x1, x2)
    lhs = App(rev, App(App(app, x1), x2))
    rhs = App(App(app, App(rev, first)), App(rev, second))
    return App(App(Const("HOL.eq", fun(LIST, fun(LIST, BOOL))), lhs), rhs)


class TestOneSignatureFile:
    """One quickspec signature file serves every command that reads symbols,
    and its symbols are one description for instantiation and testing."""

    @pytest.fixture
    def files(self, tmp_path):
        sig = tmp_path / "list.json"
        sig.write_text(json.dumps(LIST_QS_SIG))
        templates = tmp_path / "templates.txt"
        templates.write_text(
            "".join(abstract(_rev_append(s)).canonical + "\n" for s in (True, False))
        )
        return str(sig), str(templates)

    def test_every_command_reads_it(self, files, capsys):
        sig, templates = files
        runs = [
            ["quickspec", sig, "--max-size", "5", "--tests", "100"],
            ["instantiate", sig, "--template", abstract(_rev_append(False)).canonical],
            ["conjecture", sig, "--proposer", "fixed", "--templates", templates],
            ["propose", sig, "--proposer", "fixed", "--templates", templates],
        ]
        outs = []
        for argv in runs:
            assert main(argv) == 0, capsys.readouterr().err
            outs.append(capsys.readouterr().out.splitlines())
        assert "rev (rev x1) = x1" in outs[0]
        assert [len(out) for out in outs[1:]] == [1, 2, 2]

    def test_refuted_instance_over_the_shared_symbols(self, files):
        sig = load_interpreted_signature(files[0])
        assert load_signature(files[0]) == sig.symbols
        gold, wrong = _rev_append(True), _rev_append(False)
        conjectures = [
            c for law in (gold, wrong) for c in instantiate(abstract(law), sig.symbols).conjectures
        ]
        assert [alpha_equal(c.term, law) for c, law in zip(conjectures, (gold, wrong))] == [
            True, True,
        ]
        labels, _ = categorize(conjectures, gold, sig)
        assert labels == [CATEGORY_GOLD, CATEGORY_FALSE]


class TestRepeatedSymbolNames:
    """A signature file that names a symbol twice is refused, naming the
    file, by every command that reads symbols, in either file shape."""

    @pytest.mark.parametrize(
        "shape, command",
        [("array", c) for c in ("instantiate", "conjecture", "propose")]
        + [("object", c) for c in ("instantiate", "conjecture", "propose", "quickspec")],
    )
    def test_refused_before_the_run(
        self, tmp_path, capsys, octo_templates_file, lemma_assoc_plus, shape, command
    ):
        zero = QS_SIG["symbols"][1]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(
            [zero, zero] if shape == "array" else dict(QS_SIG, symbols=[zero, zero])
        ))
        rest = {
            "instantiate": ["--template", abstract(lemma_assoc_plus).canonical],
            "conjecture": ["--proposer", "fixed", "--templates", octo_templates_file],
            "propose": ["--proposer", "fixed", "--templates", octo_templates_file],
            "quickspec": ["--max-size", "2"],
        }[command]
        assert main([command, str(path), *rest]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: duplicate symbol names\n"
        assert captured.out == ""

    READERS = [
        "Signature", "load_signature", "load_interpreted_signature",
        "InterpretedSignature", "ProposalRequest", "instantiate", "evaluate_suite",
        "cli-conjecture", "cli-instantiate", "cli-propose", "cli-quickspec",
    ]

    @pytest.mark.parametrize("reader", READERS)
    def test_one_message_through_one_class(
        self, tmp_path, capsys, monkeypatch, octo_templates_file, lemma_assoc_plus, reader
    ):
        """Every reader of a symbol list refuses a repeated name with the
        message of one `DuplicateSymbols`, made where the `Signature` is
        built; a reader of a file puts the file's name before it."""
        made = []
        real = DuplicateSymbols.__init__

        def init(self, *args):
            real(self, *args)
            made.append(str(self))

        monkeypatch.setattr(DuplicateSymbols, "__init__", init)
        zero = QS_SIG["symbols"][1]
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(dict(QS_SIG, symbols=[zero, zero])))
        twice = [SignatureEntry("zero", INT), SignatureEntry("zero", INT)]
        record = build_synthetic_corpus()[1][0]
        record = dataclasses.replace(record, symbols=record.symbols * 2)
        shows_path = reader.startswith(("load_", "cli-"))
        message = f"{path}: duplicate symbol names" if shows_path else "duplicate symbol names"
        library = {
            "Signature": lambda: Signature(twice),
            "load_signature": lambda: load_signature(path),
            "load_interpreted_signature": lambda: load_interpreted_signature(path),
            "InterpretedSignature": lambda: InterpretedSignature(
                [IntModSort("int", 5)], twice, {"zero": 0}
            ),
            "ProposalRequest": lambda: ProposalRequest(symbols=twice),
            "instantiate": lambda: instantiate(abstract(lemma_assoc_plus), twice),
        }
        if reader in library:
            with pytest.raises(DuplicateSymbols) as exc:
                library[reader]()
            shown = str(exc.value)
        elif reader == "evaluate_suite":
            report = evaluate_suite([make_task(record)], lambda req: ProposalSet())
            [row] = report.per_task
            shown = row.error
        else:
            command = reader[len("cli-"):]
            rest = {
                "instantiate": ["--template", abstract(lemma_assoc_plus).canonical],
                "conjecture": ["--proposer", "fixed", "--templates", octo_templates_file],
                "propose": ["--proposer", "fixed", "--templates", octo_templates_file],
                "quickspec": ["--max-size", "2"],
            }[command]
            assert main([command, str(path), *rest]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            shown = captured.err[len("error: "):-1]
        assert shown == message
        assert made and made[-1] == message


class TestBadSymbolMessage:
    """A bad symbol in a quickspec signature file gets one message from
    every command that reads the file: its index is a "symbol" index, as
    quickspec names it.  An array file names an "entry"."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"name": "zero", "type": 5, "value": 0}, "field 'type' must be a string"),
            ({"type": render_type(INT), "value": 0}, "field 'name' must be a string"),
            ({"name": "zero", "type": "(tc", "value": 0}, "field 'type': "),
        ],
    )
    def test_same_message_from_every_command(
        self, tmp_path, capsys, octo_templates_file, lemma_assoc_plus, bad, message
    ):
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(dict(QS_SIG, symbols=[QS_SIG["symbols"][0], bad])))
        runs = {
            "quickspec": ["--max-size", "2"],
            "instantiate": ["--template", abstract(lemma_assoc_plus).canonical],
            "conjecture": ["--proposer", "fixed", "--templates", octo_templates_file],
            "propose": ["--proposer", "fixed", "--templates", octo_templates_file],
        }
        errors = set()
        for command, rest in runs.items():
            assert main([command, str(path), *rest]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.add(captured.err)
        assert len(errors) == 1
        assert errors.pop().startswith(f"error: {path}: symbol 1: {message}")
        path.write_text(json.dumps([QS_SIG["symbols"][0], bad]))
        assert main(["instantiate", str(path), *runs["instantiate"]]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: entry 1: {message}")


def _swap_x1_x2(t):
    """t with its free variables x1 and x2 named the other way round."""
    text = render_term(t).replace('(free "x1"', '(free "$"')
    text = text.replace('(free "x2"', '(free "x1"').replace('(free "$"', '(free "x2"')
    return parse_term(text)


class TestOneLemmaWhateverItsFreeNames:
    """A lemma's free variables are universally quantified, so a gold whose
    free names are permuted, or are not `x1..xn`, is still regenerated and
    matched: by `eval`, by `categorize` and by `quickspec --gold`."""

    @pytest.mark.parametrize("names", [("x2", "x1"), ("x2", "y")])
    def test_eval_regenerates_the_gold(self, tmp_path, capsys, names):
        plus = Const("plus", INT_BINOP)
        a, b = (Free(n, INT) for n in names)
        eq = Const("HOL.eq", fun(INT, fun(INT, BOOL)))
        gold = App(App(eq, App(App(plus, a), b)), App(App(plus, b), a))
        sig = Signature([SignatureEntry("plus", INT_BINOP)])
        record = make_record("C.l0", "C", "comm", gold, sig)
        corpus = tmp_path / "corpus.jsonl"
        save_records(corpus, [record])
        templates = tmp_path / "templates.txt"
        templates.write_text(abstract(gold).canonical + "\n")
        argv = ["eval", str(corpus), "--proposer", "fixed", "--templates", str(templates),
                "--instantiation-rate"]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "lemma_success_rate=1.0000 template_match_rate=1.0000 "
            "instantiation_rate=1.0000\n"
        )

    def test_categorize_labels_the_swapped_gold(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps(LIST_QS_SIG))
        sig = load_interpreted_signature(str(path))
        gold = _swap_x1_x2(_rev_append(True))
        conjectures = instantiate(abstract(gold), sig.symbols).conjectures
        assert not alpha_equal(conjectures[0].term, gold)
        labels, _ = categorize(conjectures, gold, sig)
        assert labels == [CATEGORY_GOLD]

    def test_quickspec_matches_every_renamed_law(self, tmp_path, capsys):
        """Each emitted law, with x1 and x2 swapped, is a gold law it
        matches."""
        sig = tmp_path / "list.json"
        sig.write_text(json.dumps(dict(LIST_QS_SIG, vars_per_sort=3)))
        laws = tmp_path / "laws.jsonl"
        run = ["--seed", "3", "quickspec", str(sig), "--max-size", "6", "--jsonl", str(laws)]
        assert main(run) == 0
        capsys.readouterr()
        eq = Const("HOL.eq", fun(TCon("?"), fun(TCon("?"), BOOL)))
        golds = [
            _swap_x1_x2(App(App(eq, parse_term(r["lhs"])), parse_term(r["rhs"])))
            for r in map(json.loads, laws.read_text().splitlines())
        ]
        gold = tmp_path / "gold.txt"
        gold.write_text("".join(render_term(g) + "\n" for g in golds))
        assert main(run + ["--gold", str(gold)]) == 0
        err = capsys.readouterr().err
        assert f"emitted={len(golds)} matched_gold={len(golds)} " in err
        assert len(golds) == 11


class TestFailingRecordIsNamed:
    """`eval` and `dataset` name a record that `abstract` fails on, as the
    `abstract` command does."""

    @pytest.mark.parametrize("kind", ["ill-typed", "hole"])
    def test_same_prefix_as_abstract(self, tmp_path, capsys, octo_templates_file, kind):
        corpus = _many_theory_corpus(tmp_path)
        with open(corpus, encoding="utf-8") as fh:
            bad = json.loads(fh.readline())
        bad["id"] = "T0.bad"
        if kind == "ill-typed":
            bad["term"] = render_term(App(Const("f", OCTO), Free("x", OCTO)))
        else:
            bad["term"] = render_term(Hole(1, OCTO))
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        assert main(["abstract", corpus, "-o", str(tmp_path / "t.jsonl")]) == 1
        message = capsys.readouterr().err
        assert message.startswith(f"{corpus}: record 'T0.bad': ")
        runs = [
            ["eval", corpus, "--proposer", "fixed", "--templates", octo_templates_file],
            ["dataset", corpus, "--outdir", str(tmp_path / "ds")],
        ]
        for argv in runs:
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}"
