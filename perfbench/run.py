"""lemmakit benchmark: four CLI workloads, timed end to end, with a traced
mode that reports per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lemmakit checkout.  The benchmark generates the
workload's inputs from the seed, then runs `lemmakit.cli.main(argv)` once per
worker process, one process after another (a fresh process per pass, as a
user's CLI call would be), until S seconds have passed.  The first pass's
outputs are checked against independent references; later passes must
reproduce them byte for byte.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.  With --trace 1,
traced and untraced passes alternate, and the difference of their median
pass times is the tracing overhead.

Speed scaling.  On a shared machine the speed of one core drifts by a
quarter or more over minutes, so raw wall times of runs made minutes apart
disagree by more than any useful bound.  With --trace 0 every pass is
followed by a fixed reference workload that does not use lemmakit
(worker.py `reference`).  pass_s and items_per_s are scaled by
REF_NOMINAL_S / (median reference time of the run): they read as wall times
at a fixed machine speed.  The report line before the JSON gives the raw
wall-clock median as well.  setup_s is raw wall time: it is dominated by
process start-up, which the reference does not track.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 5
# Median time of worker.py's reference workload on the machine the baseline
# was taken on (perfbench/baseline.json); it only sets the scale of pass_s.
REF_NOMINAL_S = 0.2
WORKER_TIMEOUT_S = 120
QUICKSPEC_SIZE, QUICKSPEC_TESTS = 6, 400
EVAL_SCALE = 1  # one renamed copy of the 20 held-out theories: 100 tasks
WIDE_K, WIDE_MAX_RESULTS = 5, 50


def cli_argv(workload: str, seed: int, d: str) -> tuple[list[str], list[str]]:
    """The CLI arguments of one pass and the output files it writes."""
    p = lambda name: os.path.join(d, name)
    if workload == "eval_retrieval":
        return (["eval", p("corpus.jsonl"), "--proposer", "retrieval",
                 "--index", p("index.jsonl"), "--instantiation-rate",
                 "--workers", "1", "--report", p("report.json")],
                [p("report.json")])
    if workload == "conjecture_wide":
        return (["conjecture", p("symbols.json"), "--proposer", "retrieval",
                 "--index", p("index.jsonl"), "-k", str(WIDE_K),
                 "--max-results", str(WIDE_MAX_RESULTS), "-o", p("out.jsonl")],
                [p("out.jsonl")])
    if workload == "instantiate_dense":
        return (["instantiate", p("symbols.json"), "--template-file",
                 p("template.txt"), "--max-results", "100000000",
                 "-o", p("out.jsonl")],
                [p("out.jsonl")])
    assert workload == "quickspec_list"
    return (["--seed", str(seed), "quickspec", p("signature.json"),
             "--max-size", str(QUICKSPEC_SIZE), "--tests", str(QUICKSPEC_TESTS),
             "--gold", os.path.join(HERE, "list_gold.txt"),
             "-o", p("laws.txt"), "--jsonl", p("laws.jsonl")],
            [p("laws.txt"), p("laws.jsonl")])


WORKLOADS = ("eval_retrieval", "conjecture_wide", "instantiate_dense", "quickspec_list")


def run_worker(args: list[str]) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")] + args,
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"rc": -9, "stderr": f"killed after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode or 1, "stderr": proc.stderr[-2000:]}
    return json.loads(lines[-1])


def setup(workload: str, seed: int, d: str) -> tuple[float, dict]:
    """Generate inputs and import lemmakit in a fresh process (building the
    retrieval index there), SETUP_REPS times; median wall seconds."""
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        shutil.rmtree(d, ignore_errors=True)
        facts = inputs.write_inputs(workload, seed, d, EVAL_SCALE)
        res = run_worker(["prepare", d])
        times.append(time.perf_counter() - start)
        if res["rc"] != 0:
            raise RuntimeError(f"set-up failed: {res.get('stderr', '')}")
    return statistics.median(times), facts


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except FileNotFoundError:
            h.update(b"<missing>")
    return h.hexdigest()


def check_outputs(workload: str, seed: int, d: str, facts: dict,
                  outputs: list[str]) -> tuple[list[str], int]:
    """Failures of the output checks, and the pass's item count."""
    import checks

    if workload == "eval_retrieval":
        return checks.check_eval(outputs[0], facts["tasks"]), facts["tasks"]
    if workload == "quickspec_list":
        with open(os.path.join(d, "signature.json"), encoding="utf-8") as fh:
            terms = checks.count_terms(json.load(fh), QUICKSPEC_SIZE)
        return checks.check_quickspec(outputs[0], outputs[1], seed), terms
    if workload == "conjecture_wide":
        expected, uncapped = WIDE_K * WIDE_MAX_RESULTS, False
    else:
        expected, uncapped = facts["expected_conjectures"], True
    errors = checks.check_conjectures(outputs[0], facts["symbols"], expected,
                                      seed, uncapped)
    return errors, expected


def gold_precision(stderr: str) -> float:
    """matched_gold / emitted from the quickspec summary line."""
    fields = dict(f.split("=", 1) for f in stderr.split() if "=" in f)
    return int(fields["matched_gold"]) / int(fields["emitted"])


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in tracing.SPAN_NAMES:
        specs += [(f"{name}.calls", "count", "lower"),
                  (f"{name}.ms", "ms", "lower"),
                  (f"{name}.self_ms", "ms", "lower")]
    specs += [
        ("proposer.feasible.true_frac", "frac", "higher"),
        ("instantiation.instantiate.conjectures", "count", "higher"),
        ("instantiation.instantiate.capped", "count", "lower"),
        ("instantiation.instantiate.timed_out", "count", "lower"),
        ("instantiation.instantiate.ms_per_conjecture", "ms", "lower"),
        ("instantiation.resolve.calls", "count", "lower"),
        ("evaluation.evaluate_task.p50_ms", "ms", "lower"),
        ("evaluation.evaluate_task.p90_ms", "ms", "lower"),
        ("evaluation.dedupe.in", "count", "lower"),
        ("evaluation.dedupe.removed_frac", "frac", "higher"),
        ("terms.alpha_equal.true_frac", "frac", "higher"),
        ("quickspec.enumerate_terms.terms", "count", "lower"),
        ("quickspec.test_partition.classes", "count", "lower"),
        ("quickspec.emit_laws.laws", "count", "lower"),
        ("quickspec.make_valuations.calls", "count", "lower"),
        ("quickspec.is_instance_of.calls", "count", "lower"),
        ("quickspec.gold_precision", "frac", "higher"),
        ("runtime.gc_ms", "ms", "lower"),
        ("runtime.gc_gen2_collections", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return specs


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(result: dict, workload: str) -> dict[str, float]:
    """Per-layer values of one traced pass (overhead is added later)."""
    tr = result["trace"]
    spans, facts, counts = tr["spans"], tr["facts"], tr["counts"]
    out: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        s = spans.get(name, {})
        for stat in ("calls", "ms", "self_ms"):
            out[f"{name}.{stat}"] = s.get(stat, 0)
    feas = facts.get("proposer.feasible", {})
    inst = facts.get("instantiation.instantiate", {})
    dedupe = facts.get("evaluation.dedupe", {})
    alpha = facts.get("terms.alpha_equal", {})
    task = spans.get("evaluation.evaluate_task", {})
    out.update({
        "proposer.feasible.true_frac":
            _ratio(feas.get("true", 0), out["proposer.feasible.calls"]),
        "instantiation.instantiate.conjectures": inst.get("conjectures", 0),
        "instantiation.instantiate.capped": inst.get("capped", 0),
        "instantiation.instantiate.timed_out": inst.get("timed_out", 0),
        "instantiation.instantiate.ms_per_conjecture":
            _ratio(out["instantiation.instantiate.ms"], inst.get("conjectures", 0)),
        "instantiation.resolve.calls": counts.get("instantiation.resolve", 0),
        "evaluation.evaluate_task.p50_ms": task.get("p50_ms", 0),
        "evaluation.evaluate_task.p90_ms": task.get("p90_ms", 0),
        "evaluation.dedupe.in": dedupe.get("in", 0),
        "evaluation.dedupe.removed_frac":
            _ratio(dedupe.get("removed", 0), dedupe.get("in", 0)),
        "terms.alpha_equal.true_frac":
            _ratio(alpha.get("true", 0), out["terms.alpha_equal.calls"]),
        "quickspec.enumerate_terms.terms":
            facts.get("quickspec.enumerate_terms", {}).get("terms", 0),
        "quickspec.test_partition.classes":
            facts.get("quickspec.test_partition", {}).get("classes", 0),
        "quickspec.emit_laws.laws": facts.get("quickspec.emit_laws", {}).get("laws", 0),
        "quickspec.make_valuations.calls": counts.get("quickspec.make_valuations", 0),
        "quickspec.is_instance_of.calls": counts.get("quickspec.is_instance_of", 0),
        "quickspec.gold_precision":
            gold_precision(result["stderr"]) if workload == "quickspec_list" else 0,
        "runtime.gc_ms": tr["gc_ms"],
        "runtime.gc_gen2_collections": tr["gc_gen2_collections"],
    })
    return out


def print_layer_report(workload: str, values: dict[str, float]) -> None:
    """Self time, share of the pass, calls and inclusive time per span."""
    total = values[f"{tracing.ROOT}.ms"] or 1.0
    print(f"# per-layer report, {workload} (median of traced passes)")
    print(f"# {'span':34} {'calls':>9} {'ms':>10} {'self_ms':>10} {'share':>6}")
    for name in tracing.SPAN_NAMES:
        calls = values[f"{name}.calls"]
        if calls:
            print(f"# {name:34} {calls:9.0f} {values[f'{name}.ms']:10.1f} "
                  f"{values[f'{name}.self_ms']:10.1f} "
                  f"{values[f'{name}.ms'] / total:6.1%}")
    span_keys = {f"{name}.{stat}" for name in tracing.SPAN_NAMES
                 for stat in ("calls", "ms", "self_ms")}
    for key in sorted(values):
        if key not in span_keys and values[key]:
            print(f"# {key} = {values[key]:.6g}")


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in ("src/lemmakit/cli.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found; run from a lemmakit checkout",
                  file=sys.stderr)
            return 2

    d = os.path.join(WORK, args.workload)
    setup_s, facts = setup(args.workload, args.seed, d)
    argv_cli, outputs = cli_argv(args.workload, args.seed, d)

    passes: list[dict] = []  # {"traced", "result", "ok"}
    refs: list[float] = []
    errors: list[str] = []
    first_digest = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        res = run_worker(["pass", d, "1" if traced else "0", "--"] + argv_cli)
        ok = res["rc"] == 0
        if not ok:
            errors.append(f"pass {len(passes)}: exit {res['rc']}: {res.get('stderr', '')}")
        elif first_digest is None:
            first_digest = digest(outputs)
            for path in outputs:
                shutil.copy(path, path + ".first")
        elif digest(outputs) != first_digest:
            errors.append(f"pass {len(passes)}: output differs from the first pass")
            ok = False
        passes.append({"traced": traced, "result": res, "ok": ok})
        if not args.trace:
            refs.append(run_worker(["reference", d])["ref_s"])
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() - start >= args.seconds:
            break

    # Every good pass wrote the first pass's bytes, so checking those checks
    # them all.  A failed check fails every good pass.
    items = 0
    if first_digest is not None:
        failures, items = check_outputs(args.workload, args.seed, d, facts,
                                        [path + ".first" for path in outputs])
        errors += failures
        if failures:
            for p in passes:
                p["ok"] = False
    failed = sum(1 for p in passes if not p["ok"])
    for e in errors:
        print(f"# check failed: {e}")
    # Timings come from every pass that exited 0, checked or not.
    ran = [p for p in passes if p["result"]["rc"] == 0]
    plain = [p["result"] for p in ran if not p["traced"]]
    if not plain or (args.trace and len(ran) == len(plain)):
        print(json.dumps({"correct": False, "attempted": len(passes),
                          "failed": failed, "metrics": {}}))
        return 1

    pass_s = statistics.median(r["pass_s"] for r in plain)
    print(f"# {args.workload}: seed={args.seed} items={items} passes={len(plain)} "
          f"wall pass_s median={pass_s:.4f} min={min(r['pass_s'] for r in plain):.4f} "
          f"max={max(r['pass_s'] for r in plain):.4f} setup_s={setup_s:.4f} "
          f"failed_frac={failed / len(passes):.4f}")
    if args.trace:
        traced = [p["result"] for p in ran if p["traced"]]
        per_pass = [layer_values(r, args.workload) for r in traced]
        values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
        traced_s = statistics.median(r["pass_s"] for r in traced)
        values["trace.overhead_s"] = traced_s - pass_s
        values["trace.overhead_frac"] = (traced_s - pass_s) / pass_s
        missing = traced[0]["trace"]["missing"]
        if missing:
            print(f"# not traced (no such binding): {', '.join(missing)}")
        print_layer_report(args.workload, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layer_specs()}
    else:
        scale = REF_NOMINAL_S / statistics.median(refs)
        print(f"# reference median={statistics.median(refs):.4f} s over {len(refs)} runs; "
              f"scale={scale:.4f}; scaled pass_s={pass_s * scale:.4f}")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s * scale, "unit": "s"},
            "items_per_s": {"value": statistics.median(items / r["pass_s"] for r in plain)
                            / scale, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "ok_frac": {"value": 1.0 - failed / len(passes), "unit": "frac"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
