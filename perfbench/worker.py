"""One benchmark step in a fresh process: set-up or one CLI pass.

    python3 perfbench/worker.py prepare WORKDIR
    python3 perfbench/worker.py pass WORKDIR TRACE -- CLI_ARGV...
    python3 perfbench/worker.py repeat WORKDIR N -- CLI_ARGV...
    python3 perfbench/worker.py reference WORKDIR

`prepare` imports lemmakit and, when WORKDIR holds an index sample, builds
the retrieval index from it with `lemmakit abstract`.  `pass` runs
`lemmakit.cli.main(CLI_ARGV)` once, traced when TRACE is 1.  `repeat` runs it
N times in this one process (for measuring in-process drift).  `reference`
times a fixed pure-Python workload that does not use lemmakit.  Each prints
one JSON object as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def prepare(workdir: str) -> dict:
    from lemmakit import cli

    sample = os.path.join(workdir, "index_sample.jsonl")
    if not os.path.exists(sample):
        return {"rc": 0}
    templates = os.path.join(workdir, "index_templates.jsonl")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["abstract", sample, "-o", templates])
    if rc != 0:
        return {"rc": rc, "stderr": err.getvalue()[-2000:]}
    with open(os.path.join(workdir, "index_counts.json"), encoding="utf-8") as fh:
        counts = json.load(fh)
    index: dict[str, int] = {}
    with open(templates, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            index[row["template"]] = index.get(row["template"], 0) + counts[row["id"]]
    with open(os.path.join(workdir, "index.jsonl"), "w", encoding="utf-8") as fh:
        for canonical in sorted(index):
            fh.write(json.dumps({"template": canonical, "count": index[canonical]}))
            fh.write("\n")
    return {"rc": 0, "templates": len(index)}


def _ref_tree(depth: int, i: int):
    if depth == 0:
        return ("const", f"c{i % 7}")
    return ("app", _ref_tree(depth - 1, i * 2), _ref_tree(depth - 1, i * 2 + 1))


def _ref_render(t) -> str:
    if t[0] == "const":
        return f"(const {t[1]!r})"
    return f"(app {_ref_render(t[1])} {_ref_render(t[2])})"


def _ref_count(t, counts: dict) -> None:
    if t[0] == "const":
        counts[t[1]] = counts.get(t[1], 0) + 1
    else:
        _ref_count(t[1], counts)
        _ref_count(t[2], counts)


def reference(rounds: int = 120) -> dict:
    """Build, render and count nested tuples, keeping every tree alive:
    allocation, garbage collection, recursion and string work like
    lemmakit's, with a working set of tens of MB, in a fixed amount."""
    start = time.perf_counter()
    kept = []
    total = 0
    for i in range(rounds):
        tree = _ref_tree(10, i)
        kept.append(tree)
        total += len(_ref_render(tree))
        counts: dict = {}
        _ref_count(tree, counts)
        total += len(counts)
    return {"rc": 0, "ref_s": time.perf_counter() - start, "total": total}


def run_pass(trace: bool, argv: list[str]) -> dict:
    from lemmakit import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = tracer.call_root(cli.main, argv) if tracer else cli.main(argv)
        pass_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    return {
        "rc": rc,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout": out.getvalue()[-2000:],
        "stderr": err.getvalue()[-2000:],
        "trace": tracer.summary() if tracer else None,
    }


def main() -> int:
    mode, workdir = sys.argv[1], sys.argv[2]
    if mode == "prepare":
        result = prepare(workdir)
    elif mode == "reference":
        result = reference()
    elif mode == "repeat":
        argv = sys.argv[sys.argv.index("--") + 1:]
        result = {"pass_s": [run_pass(False, argv)["pass_s"]
                             for _ in range(int(sys.argv[3]))]}
    else:
        trace = sys.argv[3] == "1"
        result = run_pass(trace, sys.argv[sys.argv.index("--") + 1:])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
