"""Command-line surface: definitions in, conjectures out, plus dataset
construction, evaluation and the enumerative baseline.

Exit codes: 0 success, 1 input/data error, 2 transport error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from json.encoder import encode_basestring

from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import quickspec as qs
from .instantiation import Budget, instantiate, instantiate_texts
from .proposer import (
    HttpProposerConfig,
    ProposalRequest,
    TemplateIndex,
    TransportError,
    load_templates_file,
    propose_fixed,
    propose_http,
    propose_retrieval,
)
from .templates import abstract, default_whitelist, load_whitelist, parse_template
from .terms import LemmakitError, parse_term, render_term, render_terms


def _whitelist(args):
    if getattr(args, "whitelist", None):
        return load_whitelist(args.whitelist)
    return default_whitelist()


def _per_record(fn, records, path: str) -> list:
    """fn(r) for each record r of the corpus file `path`; an error names r as `abstract` does."""
    return [corpus_mod.parse_at(fn, r, f"{path}: record {r.id!r}") for r in records]


def _budget(args) -> Budget:
    """The budget of `_add_budget_flags`' flags."""
    return Budget(args.timeout_ms, args.max_results, args.distinct_holes)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout-ms", type=int, default=Budget.timeout_millis,
                   help="instantiation timeout per template (milliseconds)")
    p.add_argument("--max-results", type=int, default=Budget.max_results,
                   help="conjecture cap per template")
    p.add_argument("--distinct-holes", action="store_true",
                   help="forbid two holes sharing a symbol")


def _add_proposer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--proposer", choices=("retrieval", "http", "fixed"),
                   default="retrieval", help="template proposal backend")
    p.add_argument("--index", default=None,
                   help="template frequency index (JSONL) for retrieval")
    p.add_argument("--templates", default=None,
                   help="template list file for the fixed proposer")


def _make_proposer(kind: str, index_path, templates_path, w=None):
    """The proposer `kind`, whose templates are checked against the
    whitelist `w` (the default one when None)."""
    if kind == "retrieval":
        if not index_path:
            raise LemmakitError("retrieval proposer needs --index")
        idx = TemplateIndex.load(index_path, w)
        return lambda req: propose_retrieval(req, idx)
    if kind == "fixed":
        if not templates_path:
            raise LemmakitError("fixed proposer needs --templates")
        templates = load_templates_file(templates_path, w)
        return lambda req: propose_fixed(req, templates)
    config = HttpProposerConfig.from_env()
    return lambda req: propose_http(req, config, w)


def _out(args):
    if args.output and args.output != "-":
        return open(args.output, "w", encoding="utf-8")
    return sys.stdout


def _write_lines(fh, lines) -> None:
    for line in lines:
        fh.write(line)
        fh.write("\n")
    if fh is not sys.stdout:
        fh.close()


def _conjecture_lines(conjectures, proposer: bool = False):
    """Each conjecture's output line, from `_lines`.  The terms are rendered
    together, through one memo."""
    texts = render_terms([c.term for c in conjectures])
    return _lines(
        ((c.assignment, c.source_proposer, c.template_canonical, text)
         for c, text in zip(conjectures, texts)),
        proposer,
    )


def _lines(rows, proposer: bool = False):
    """The output line of each (assignment, proposer name, template
    canonical, term text) row, as `corpus.json_line` gives the conjecture's
    object: `assignment` (hole index -> symbol, keys in string order),
    `proposer` when asked for, `template` and `term`.

    Lines are built from parts and yielded one by one, so that a caller can
    write each before the next is built.  Each term text is escaped once;
    every other string (symbol and proposer names, template canonicals) is
    escaped once per call.
    """
    quoted: dict[str, str] = {}

    def quote(text: str) -> str:
        got = quoted.get(text)
        if got is None:
            got = quoted[text] = encode_basestring(text)
        return got

    for assignment, source, template, text in rows:
        holes = sorted((str(i), n) for i, n in assignment.mapping)
        parts = ", ".join(f'"{i}": {quote(n)}' for i, n in holes)
        src = f'"proposer": {quote(source)}, ' if proposer else ""
        yield (
            f'{{"assignment": {{{parts}}}, {src}'
            f'"template": {quote(template)}, '
            f'"term": {encode_basestring(text)}}}'
        )


# ---------------------------------------------------------------------------
# Commands


def cmd_abstract(args) -> int:
    w = _whitelist(args)
    records = corpus_mod.load_records(args.corpus)
    lines = []
    failures = 0
    for r in records:
        try:
            tpl = abstract(r.term, w)
        except LemmakitError as e:
            failures += 1
            print(f"{args.corpus}: record {r.id!r}: {e}", file=sys.stderr)
            continue
        lines.append(corpus_mod.json_line({"id": r.id, "template": tpl.canonical}))
    _write_lines(_out(args), lines)
    return 1 if failures else 0


def cmd_conjecture(args) -> int:
    symbols = corpus_mod.load_signature(args.symbols)
    prop = _make_proposer(args.proposer, args.index, args.templates, _whitelist(args))
    budget = _budget(args)
    req = ProposalRequest(symbols=symbols, mode=args.mode, k=args.k,
                          distinct_holes=budget.distinct_holes)
    proposals = prop(req)
    all_conjectures = []
    capped = False
    timed_out = False
    for p in proposals.proposals:
        res = instantiate(p.template, req.symbols, budget)
        capped = capped or res.capped
        timed_out = timed_out or res.timed_out
        for c in res.conjectures:
            all_conjectures.append(replace(c, source_proposer=p.source))
    deduped, removed = eval_mod.dedupe(all_conjectures)
    _write_lines(_out(args), _conjecture_lines(deduped, proposer=True))
    summary = (
        f"templates={len(proposals.proposals)} conjectures={len(deduped)} "
        f"duplicates_removed={removed} capped={capped} timed_out={timed_out}"
    )
    print(summary, file=sys.stderr)
    return 0


def cmd_dataset(args) -> int:
    w = _whitelist(args)
    records = corpus_mod.load_records(args.corpus)
    ratios = tuple(float(x) for x in args.split.split("/"))
    total = sum(ratios)
    if not total > 0:
        raise LemmakitError(f"--split {args.split}: ratios must sum to more than 0")
    ratios = tuple(r / total for r in ratios)
    parts = corpus_mod.split_filewise(records, ratios, args.seed)
    names = ["train", "val", "test"][: len(parts)]
    names += [f"part{i}" for i in range(len(names), len(parts))]
    # Build every split before writing any, so a bad record leaves no output.
    splits = [
        _per_record(
            lambda r: corpus_mod.make_datapoint(r, args.mode, args.target, w), part, args.corpus
        )
        for part in parts
    ]
    os.makedirs(args.outdir, exist_ok=True)
    for name, datapoints in zip(names, splits):
        path = os.path.join(args.outdir, f"{name}.jsonl")
        corpus_mod.write_jsonl(
            path, (corpus_mod.datapoint_to_dict(d) for d in datapoints)
        )
        print(f"{path}: {len(datapoints)} datapoints", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    # ProposalRequest's own check, made before the corpus is read.
    if args.k < 1:
        raise ValueError("k must be >= 1")
    w = _whitelist(args)
    records = corpus_mod.load_records(args.corpus)
    tasks = _per_record(
        lambda r: eval_mod.make_task(r, mode=args.mode, k=args.k, w=w), records, args.corpus
    )
    budget = _budget(args)
    prop = _make_proposer(args.proposer, args.index, args.templates, w)
    report = eval_mod.evaluate_suite(
        tasks, prop, budget, workers=args.workers,
        strict_denominator=args.strict_denominator,
        with_instantiation_rate=args.instantiation_rate,
    )
    if args.also_proposer:
        other = _make_proposer(
            args.also_proposer, args.also_index, args.also_templates, w
        )
        other_report = eval_mod.evaluate_suite(
            tasks, other, budget, workers=args.workers,
            strict_denominator=args.strict_denominator,
        )
        report = eval_mod.combine_reports([report, other_report])
    text = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        print(text)
    print(
        f"lemma_success_rate={report.lemma_success_rate:.4f} "
        f"template_match_rate={report.template_match_rate:.4f}"
        + (
            f" instantiation_rate={report.instantiation_rate:.4f}"
            if report.instantiation_rate is not None
            else ""
        ),
        file=sys.stderr,
    )
    return 0


def cmd_quickspec(args) -> int:
    sig = qs.load_interpreted_signature(args.signature)
    # The gold laws are checked before the run, so a bad file writes nothing.
    if args.gold:
        golds = qs.gold_equations(corpus_mod.load_lines(args.gold, parse_term))
    terms = qs.enumerate_terms(sig, args.max_size)
    classes = qs.test_partition(terms, sig, args.tests, args.seed)
    laws = qs.emit_laws(classes)
    laws = qs.reverify_laws(laws, sig, args.tests, args.seed)
    lines = [qs.pretty_law(law, sig) for law in laws]
    fh = _out(args)
    _write_lines(fh, lines)
    if args.jsonl:
        corpus_mod.write_jsonl(
            args.jsonl,
            (
                {"lhs": render_term(l.lhs), "rhs": render_term(l.rhs), "size": l.size}
                for l in laws
            ),
        )
    if args.gold:
        stats = qs.baseline_precision(laws, golds)
        print(
            f"emitted={stats['emitted']} matched_gold={stats['matched_gold']} "
            f"precision={stats['precision']:.1%}",
            file=sys.stderr,
        )
    else:
        print(f"emitted={len(laws)} laws", file=sys.stderr)
    return 0


def cmd_instantiate(args) -> int:
    w = _whitelist(args)
    if args.template is not None:
        tpl = parse_template(args.template, w)
    else:
        with open(args.template_file, encoding="utf-8") as fh:
            tpl = corpus_mod.parse_at(
                lambda text: parse_template(text, w), fh.read().strip(), args.template_file
            )
    symbols = corpus_mod.load_signature(args.symbols)
    res = instantiate_texts(tpl, symbols, _budget(args))
    rows = ((a, "", tpl.canonical, text) for a, text in res.texts)
    _write_lines(_out(args), _lines(rows))
    print(
        f"conjectures={len(res.texts)} capped={res.capped} "
        f"timed_out={res.timed_out}",
        file=sys.stderr,
    )
    return 0


def cmd_propose(args) -> int:
    symbols = corpus_mod.load_signature(args.symbols)
    prop = _make_proposer(args.proposer, args.index, args.templates, _whitelist(args))
    req = ProposalRequest(symbols=symbols, mode=args.mode, k=args.k)
    result = prop(req)
    lines = [
        corpus_mod.json_line(
            {"template": p.template.canonical, "score": p.score, "source": p.source}
        )
        for p in result.proposals
    ]
    _write_lines(_out(args), lines)
    if result.parse_failures:
        print(f"parse_failures={result.parse_failures}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, an input error, since
    exit 2 means a transport error.  Subparsers are of the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lemmakit",
        description="Template-based lemma conjecturing toolkit.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("abstract", help="extract templates from a lemma corpus")
    p.add_argument("corpus", help="corpus JSONL file")
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p.add_argument("--whitelist", help="constant whitelist file")
    p.set_defaults(fn=cmd_abstract)

    p = sub.add_parser("conjecture", help="propose templates and instantiate them")
    p.add_argument("symbols", help="signature JSON file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("-k", type=int, default=5, help="number of template proposals")
    p.add_argument("--mode", choices=corpus_mod.MODES, default="types+defs")
    p.add_argument("--whitelist", help="constant whitelist file")
    _add_proposer_flags(p)
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("dataset", help="build prompt/target datasets with splits")
    p.add_argument("corpus")
    p.add_argument("--outdir", required=True)
    p.add_argument("--mode", choices=corpus_mod.MODES, default="types+defs")
    p.add_argument("--target", choices=corpus_mod.TARGET_KINDS, default="template")
    p.add_argument("--split", default="0.8/0.1/0.1", help="ratio list, e.g. 0.8/0.1/0.1")
    p.add_argument("--whitelist")
    p.set_defaults(fn=cmd_dataset)

    p = sub.add_parser("eval", help="gold-lemma regeneration evaluation")
    p.add_argument("corpus")
    p.add_argument("--report", help="report JSON output path")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--mode", choices=corpus_mod.MODES, default="types+defs")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strict-denominator", action="store_true",
                   help="exclude errored tasks from rate denominators "
                   "(the instantiation rate still divides by every task)")
    p.add_argument("--instantiation-rate", action="store_true",
                   help="also compute the gold-template instantiation rate")
    p.add_argument("--whitelist")
    _add_proposer_flags(p)
    p.add_argument("--also-proposer", choices=("retrieval", "http", "fixed"),
                   help="second backend; the report is the ensemble union")
    p.add_argument("--also-index")
    p.add_argument("--also-templates")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("quickspec", help="enumerative law discovery baseline")
    p.add_argument("signature", help="interpreted signature JSON file")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--max-size", type=int, default=7)
    p.add_argument("--tests", type=int, default=400)
    p.add_argument("--gold", help="gold law terms, one s-expression per line")
    p.add_argument("--jsonl", help="also write laws as JSONL here")
    p.set_defaults(fn=cmd_quickspec)

    p = sub.add_parser("instantiate", help="instantiate one template")
    p.add_argument("symbols", help="signature JSON file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--template", help="template as a canonical s-expression")
    source.add_argument("--template-file", help="file holding one template")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("--whitelist", help="constant whitelist file")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_instantiate)

    p = sub.add_parser("propose", help="run a proposer without instantiating")
    p.add_argument("symbols")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--mode", choices=corpus_mod.MODES, default="types+defs")
    p.add_argument("--whitelist", help="constant whitelist file")
    _add_proposer_flags(p)
    p.set_defaults(fn=cmd_propose)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  The cycle collector is off while it runs, and back
    in its former state afterwards: the library builds no reference cycles
    (the tests pin this), so a collection would only walk live objects."""
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except TransportError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return 2
    except (LemmakitError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
