"""Command-line surface: definitions in, conjectures out, plus dataset
construction, evaluation and the enumerative baseline.

Exit codes: 0 success, 1 input/data error, 2 transport error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import quickspec as qs
from .instantiation import Budget, instantiate
from .proposer import (
    HttpProposerConfig,
    ProposalRequest,
    TemplateIndex,
    TransportError,
    propose_fixed,
    propose_http,
    propose_retrieval,
)
from .templates import abstract, default_whitelist, load_whitelist, parse_template
from .terms import LemmakitError, render_term


def _whitelist(args):
    if getattr(args, "whitelist", None):
        return load_whitelist(args.whitelist)
    return default_whitelist()


def _budget(args) -> Budget:
    return Budget(
        timeout_millis=args.timeout_ms,
        max_results=args.max_results,
        distinct_holes=getattr(args, "distinct_holes", False),
    )


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout-ms", type=int, default=60_000,
                   help="instantiation timeout per template (milliseconds)")
    p.add_argument("--max-results", type=int, default=1000,
                   help="conjecture cap per template")
    p.add_argument("--distinct-holes", action="store_true",
                   help="forbid two holes sharing a symbol")


def _add_proposer_flags(p: argparse.ArgumentParser, prefix: str = "") -> None:
    dash = f"--{prefix}" if prefix else "--"
    p.add_argument(f"{dash}proposer", choices=("retrieval", "http", "fixed"),
                   default=None if prefix else "retrieval",
                   help="template proposal backend")
    p.add_argument(f"{dash}index", default=None,
                   help="template frequency index (JSONL) for retrieval")
    p.add_argument(f"{dash}templates", default=None,
                   help="template list file for the fixed proposer")


def _make_proposer(kind: str, index_path, templates_path):
    if kind == "retrieval":
        if not index_path:
            raise LemmakitError("retrieval proposer needs --index")
        idx = TemplateIndex.load(index_path)
        return lambda req: propose_retrieval(req, idx)
    if kind == "fixed":
        if not templates_path:
            raise LemmakitError("fixed proposer needs --templates")
        return lambda req: propose_fixed(req, templates_path)
    config = HttpProposerConfig.from_env()
    return lambda req: propose_http(req, config)


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


def _jdump(d: dict) -> str:
    return json.dumps(d, sort_keys=True, ensure_ascii=False)


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
        lines.append(_jdump({"id": r.id, "template": tpl.canonical}))
    _write_lines(_out(args), lines)
    return 1 if failures else 0


def cmd_conjecture(args) -> int:
    symbols = corpus_mod.load_signature(args.symbols)
    prop = _make_proposer(args.proposer, args.index, args.templates)
    req = ProposalRequest(symbols=tuple(symbols), mode=args.mode, k=args.k)
    proposals = prop(req)
    budget = _budget(args)
    all_conjectures = []
    capped = False
    timed_out = False
    for p in proposals.proposals:
        res = instantiate(p.template, symbols, budget)
        capped = capped or res.capped
        timed_out = timed_out or res.timed_out
        for c in res.conjectures:
            all_conjectures.append(replace(c, source_proposer=p.source))
    deduped, removed = eval_mod.dedupe(all_conjectures)
    lines = [
        _jdump(
            {
                "term": render_term(c.term),
                "template": c.template_canonical,
                "assignment": {str(i): n for i, n in c.assignment.mapping},
                "proposer": c.source_proposer,
            }
        )
        for c in deduped
    ]
    _write_lines(_out(args), lines)
    summary = (
        f"templates={len(proposals.proposals)} conjectures={len(deduped)} "
        f"duplicates_removed={removed} capped={capped} timed_out={timed_out}"
    )
    print(summary, file=sys.stderr)
    return 0


def cmd_dataset(args) -> int:
    import os

    w = _whitelist(args)
    records = corpus_mod.load_records(args.corpus)
    ratios = tuple(float(x) for x in args.split.split("/"))
    total = sum(ratios)
    ratios = tuple(r / total for r in ratios)
    parts = corpus_mod.split_filewise(records, ratios, args.seed)
    names = ["train", "val", "test"][: len(parts)]
    names += [f"part{i}" for i in range(len(names), len(parts))]
    os.makedirs(args.outdir, exist_ok=True)
    for name, part in zip(names, parts):
        datapoints = [
            corpus_mod.make_datapoint(r, args.mode, args.target, w) for r in part
        ]
        path = os.path.join(args.outdir, f"{name}.jsonl")
        corpus_mod.write_jsonl(
            path, (corpus_mod.datapoint_to_dict(d) for d in datapoints)
        )
        print(f"{path}: {len(datapoints)} datapoints", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    w = _whitelist(args)
    records = corpus_mod.load_records(args.corpus)
    tasks = [eval_mod.make_task(r, mode=args.mode, k=args.k, w=w) for r in records]
    budget = _budget(args)
    prop = _make_proposer(args.proposer, args.index, args.templates)
    report = eval_mod.evaluate_suite(
        tasks, prop, budget, workers=args.workers,
        strict_denominator=args.strict_denominator,
    )
    if args.also_proposer:
        other = _make_proposer(
            args.also_proposer, args.also_index, args.also_templates
        )
        other_report = eval_mod.evaluate_suite(
            tasks, other, budget, workers=args.workers,
            strict_denominator=args.strict_denominator,
        )
        report = eval_mod.combine_reports([report, other_report])
    if args.instantiation_rate:
        report.instantiation_rate = eval_mod.instantiation_rate(tasks, budget)
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
    terms = qs.enumerate_terms(sig, args.max_size)
    classes = qs.test_partition(terms, sig, args.tests, args.seed)
    laws = qs.emit_laws(classes)
    laws = qs.reverify_laws(laws, sig, args.tests, args.seed)
    lines = [qs.pretty_law(law, sig) for law in laws]
    fh = _out(args)
    _write_lines(fh, lines)
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as jfh:
            for law in laws:
                jfh.write(
                    _jdump(
                        {
                            "lhs": render_term(law.lhs),
                            "rhs": render_term(law.rhs),
                            "size": law.size,
                        }
                    )
                )
                jfh.write("\n")
    if args.gold:
        from .terms import parse_term

        golds = []
        with open(args.gold, encoding="utf-8") as gfh:
            for line in gfh:
                line = line.split("#", 1)[0].strip()
                if line:
                    golds.append(parse_term(line))
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
    if args.template:
        tpl = parse_template(args.template)
    else:
        with open(args.template_file, encoding="utf-8") as fh:
            tpl = parse_template(fh.read().strip())
    symbols = corpus_mod.load_signature(args.symbols)
    res = instantiate(tpl, symbols, _budget(args))
    lines = [
        _jdump(
            {
                "term": render_term(c.term),
                "template": c.template_canonical,
                "assignment": {str(i): n for i, n in c.assignment.mapping},
            }
        )
        for c in res.conjectures
    ]
    _write_lines(_out(args), lines)
    print(
        f"conjectures={len(res.conjectures)} capped={res.capped} "
        f"timed_out={res.timed_out}",
        file=sys.stderr,
    )
    return 0


def cmd_propose(args) -> int:
    symbols = corpus_mod.load_signature(args.symbols)
    prop = _make_proposer(args.proposer, args.index, args.templates)
    req = ProposalRequest(symbols=tuple(symbols), mode=args.mode, k=args.k)
    result = prop(req)
    lines = [
        _jdump({"template": p.template.canonical, "score": p.score, "source": p.source})
        for p in result.proposals
    ]
    _write_lines(_out(args), lines)
    if result.parse_failures:
        print(f"parse_failures={result.parse_failures}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
                   help="exclude errored tasks from rate denominators")
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
    p.add_argument("--template", help="template as a canonical s-expression")
    p.add_argument("--template-file", help="file holding one template")
    p.add_argument("-o", "--output", default="-")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_instantiate)

    p = sub.add_parser("propose", help="run a proposer without instantiating")
    p.add_argument("symbols")
    p.add_argument("-o", "--output", default="-")
    p.add_argument("-k", type=int, default=5)
    p.add_argument("--mode", choices=corpus_mod.MODES, default="types+defs")
    _add_proposer_flags(p)
    p.set_defaults(fn=cmd_propose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "instantiate":
        if not args.template and not args.template_file:
            parser.error("instantiate needs --template or --template-file")
    try:
        return args.fn(args)
    except TransportError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return 2
    except (LemmakitError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
