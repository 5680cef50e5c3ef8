"""`cli.main` runs each command with the cycle collector off.

That is sound only while no command leaves reference cycles that grow with
its input, so each subcommand is run at two input sizes and must leave the
same number of cyclic objects (argparse's parser and a few stdlib ones) at
both.  And the collector must be back in its former state however the
command ends.
"""

import gc
import json

import pytest

from lemmakit import cli
from lemmakit.cli import main
from lemmakit.corpus import save_records
from lemmakit.proposer import build_index
from lemmakit.templates import abstract
from lemmakit.terms import SignatureEntry, TCon, fun, render_type

from synthetic import build_synthetic_corpus, build_train_datapoints

OCTO = TCon("Octonions.octo")
LIST, INT = TCon("list"), TCon("int")

LIST_SIGNATURE = {
    "sorts": [
        {"name": "list", "max_len": 5, "elem_mod": 10},
        {"name": "int", "min": 0, "max": 25},
    ],
    "symbols": [
        {"name": "append", "type": render_type(fun(LIST, fun(LIST, LIST))),
         "builtin": "list_append", "infix": "@"},
        {"name": "rev", "type": render_type(fun(LIST, LIST)), "builtin": "list_rev"},
        {"name": "len", "type": render_type(fun(LIST, INT)), "builtin": "list_len"},
        {"name": "plus", "type": render_type(fun(INT, fun(INT, INT))),
         "builtin": "int_add", "infix": "+"},
        {"name": "zero", "type": render_type(INT), "value": 0},
    ],
    "vars_per_sort": 3,
}


def _signature_json(entries):
    return json.dumps(
        [{"name": e.name, "type": render_type(e.type), "def": None} for e in entries]
    )


@pytest.fixture(scope="module")
def files(tmp_path_factory, lemma_distrib_left):
    """Input files for every subcommand, in one directory."""
    d = tmp_path_factory.mktemp("collector")
    _, heldout = build_synthetic_corpus()
    # Five tasks per theory: 3 and 9 theories.
    for n in (15, 45):
        save_records(d / f"corpus{n}.jsonl", heldout[:n])
    build_index(build_train_datapoints()).save(d / "index.jsonl")
    binop = fun(OCTO, fun(OCTO, OCTO))
    ops = [SignatureEntry(f"op{i}", binop, None) for i in range(6)]
    (d / "symbols.json").write_text(_signature_json(ops))
    (d / "distrib.txt").write_text(abstract(lemma_distrib_left).canonical + "\n")
    (d / "signature.json").write_text(json.dumps(LIST_SIGNATURE))
    (d / "completions.txt").write_text(
        "\n".join(abstract(r.term).canonical for r in heldout[:5]) + "\n"
    )
    return d


def _cyclic_after(argv) -> tuple[int, int]:
    """(exit code, objects the collector frees afterwards) of `main(argv)`,
    run with automatic collection off from a clean heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        code = main(argv)
        return code, gc.collect()
    finally:
        if enabled:
            gc.enable()


def _argv(command, d, large):
    """`command`'s arguments on its small or its large input."""
    p = lambda name: str(d / name)
    corpus = p("corpus45.jsonl" if large else "corpus15.jsonl")
    cap = "40" if large else "10"
    if command == "abstract":
        return ["abstract", corpus, "-o", p("out.jsonl")]
    if command == "conjecture":
        return ["conjecture", p("symbols.json"), "--proposer", "fixed",
                "--templates", p("distrib.txt"), "--max-results", cap,
                "-o", p("out.jsonl")]
    if command == "dataset":
        return ["dataset", corpus, "--outdir", p("dataset")]
    if command in ("eval-workers-1", "eval-workers-4"):
        return ["eval", corpus, "--index", p("index.jsonl"),
                "--workers", command[-1], "--instantiation-rate",
                "--report", p("report.json")]
    if command in ("eval-http", "eval-http-malformed"):
        return ["eval", corpus, "--proposer", "http", "--workers", "2",
                "--report", p("report.json")]
    if command == "instantiate":
        return ["instantiate", p("symbols.json"), "--template-file",
                p("distrib.txt"), "--max-results", cap, "-o", p("out.jsonl")]
    if command == "propose":
        return ["propose", p("symbols.json"), "--index", p("index.jsonl"),
                "-k", "4" if large else "1", "-o", p("out.jsonl")]
    assert command == "quickspec"
    return ["quickspec", p("signature.json"), "--max-size", "5" if large else "4",
            "--tests", "50", "-o", p("out.txt"), "--jsonl", p("out.jsonl")]


COMMANDS = [
    "abstract", "conjecture", "dataset", "eval-workers-1", "eval-workers-4",
    "eval-http", "eval-http-malformed", "instantiate", "propose", "quickspec",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_cyclic_objects_do_not_grow_with_the_input(
    command, files, stub_server, monkeypatch
):
    if command.startswith("eval-http"):
        stub_server.completions = (files / "completions.txt").read_text().splitlines()
        if command == "eval-http-malformed":
            stub_server.raw_body = '{"completions": [1, '
        monkeypatch.setenv("LEMMAKIT_LLM_URL", stub_server.url)
        monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
    small, large = _argv(command, files, False), _argv(command, files, True)
    # A first call may fill caches that later calls reuse.
    assert _cyclic_after(small)[0] == 0
    code, at_small = _cyclic_after(small)
    assert code == 0
    asked = len(stub_server.requests_seen)
    code, at_large = _cyclic_after(large)
    assert code == 0
    assert at_small == at_large
    if command.startswith("eval-http"):
        assert len(stub_server.requests_seen) - asked == 45


def test_the_larger_inputs_do_more_work(files, capsys):
    """Each pair of sizes above differs in what it produces, so the equal
    counts compare a small run with a larger one."""
    def output(command, large):
        out = files / "out.jsonl"
        if out.exists():
            out.unlink()
        assert main(_argv(command, files, large)) == 0
        err = capsys.readouterr().err
        return out.read_text() if out.exists() else err

    for command in ("abstract", "conjecture", "instantiate", "propose", "quickspec"):
        small, large = output(command, False), output(command, True)
        assert len(small) < len(large), command


class TestCollectorState:
    """`main` leaves the collector as it found it, on every exit path, and
    has it off while the command runs."""

    @pytest.fixture(params=[True, False], ids=["was-on", "was-off"])
    def collecting(self, request):
        before = gc.isenabled()
        if request.param:
            gc.enable()
        else:
            gc.disable()
        yield request.param
        if before:
            gc.enable()
        else:
            gc.disable()

    def _quickspec(self, files, *extra):
        return ["quickspec", str(files / "signature.json"), "--max-size", "3",
                "--tests", "20", *extra]

    def test_exit_0(self, collecting, files, capsys):
        assert main(self._quickspec(files)) == 0
        assert gc.isenabled() == collecting

    def test_exit_1_input_error(self, collecting, files, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["quickspec", str(bad)]) == 1
        assert gc.isenabled() == collecting

    def test_exit_2_transport_error(self, collecting, files, monkeypatch, capsys):
        monkeypatch.setenv("LEMMAKIT_LLM_URL", "http://127.0.0.1:1/nope")
        monkeypatch.delenv("LEMMAKIT_LLM_TOKEN", raising=False)
        assert main(["propose", str(files / "symbols.json"), "--proposer", "http"]) == 2
        assert gc.isenabled() == collecting

    @pytest.mark.parametrize("argv", [["quickspec"], ["--help"], ["nosuchcommand"]])
    def test_usage_error(self, collecting, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        assert gc.isenabled() == collecting

    def test_unexpected_exception(self, collecting, files, monkeypatch):
        seen = []

        def broken(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_quickspec", broken)
        with pytest.raises(RuntimeError, match="boom"):
            main(self._quickspec(files))
        assert seen == [False]
        assert gc.isenabled() == collecting
