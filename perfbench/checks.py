"""Output checks for the benchmark workloads.

Each check compares a pass's output files with a reference that does not
come from the code under test: counts computed from the generated inputs,
the brute-force oracles in tests/oracles.py, and a list-signature evaluator
and instance matcher written here.  Each returns a list of failure messages.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from lemmakit.templates import parse_template  # noqa: E402
from lemmakit.terms import (  # noqa: E402
    Abs,
    App,
    Const,
    Free,
    Hole,
    Signature,
    SignatureEntry,
    TCon,
    TVar,
    base_signature,
    parse_term,
    parse_type,
    typecheck,
)
from oracles import (  # noqa: E402
    RobinsonFail,
    alpha_oracle,
    exhaustive_instantiations,
    robinson,
)

BASE_SCHEMES = {e.name: e.type for e in base_signature()}
BOOL = TCon("HOL.bool")
ORACLE_SAMPLE = 40
ORACLE_POOL = 60


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# eval_retrieval


def check_eval(report_path: str, tasks: int) -> list[str]:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    agg = report["aggregates"]
    errors = []
    if len(report["per_task"]) != tasks:
        errors.append(f"report has {len(report['per_task'])} tasks, expected {tasks}")
    if agg["errored_tasks"]:
        errors.append(f"{agg['errored_tasks']} tasks errored")
    for key in ("lemma_success_rate", "template_match_rate"):
        if agg[key] < 0.90:
            errors.append(f"{key}={agg[key]} < 0.90")
    return errors


# ---------------------------------------------------------------------------
# conjecture_wide and instantiate_dense


def _subst(sub: dict, ty):
    if isinstance(ty, TVar):
        got = sub.get(ty.name)
        return _subst(sub, got) if got is not None else ty
    return TCon(ty.name, tuple(_subst(sub, a) for a in ty.args))


def _fresh(ty, tag: str):
    if isinstance(ty, TVar):
        return TVar(f"?{tag}.{ty.name}")
    return TCon(ty.name, tuple(_fresh(a, tag) for a in ty.args))


def expected_term(tpl, names: dict[int, str], types: dict[str, object]):
    """The template with its holes filled by `names`, typed by Robinson
    unification of hole types, symbol types and retained-constant schemes."""
    sub: dict = {}
    nodes = [tpl.body]
    k = 0
    while nodes:
        node = nodes.pop()
        if isinstance(node, App):
            nodes += [node.fn, node.arg]
        elif isinstance(node, Abs):
            nodes.append(node.body)
        elif isinstance(node, Const) and node.name in BASE_SCHEMES:
            k += 1
            sub = robinson(_fresh(BASE_SCHEMES[node.name], f"b{k}"), node.type, sub)
    for idx in sorted(tpl.hole_types):
        sub = robinson(tpl.hole_types[idx], _fresh(types[names[idx]], f"h{idx}"), sub)

    def fill(t):
        if isinstance(t, Hole):
            return Const(names[t.index], _subst(sub, t.type))
        if isinstance(t, Const):
            return Const(t.name, _subst(sub, t.type))
        if isinstance(t, Free):
            return Free(t.name, _subst(sub, t.type))
        if isinstance(t, Abs):
            return Abs(t.binder, _subst(sub, t.binder_type), fill(t.body))
        if isinstance(t, App):
            return App(fill(t.fn), fill(t.arg))
        return t

    return fill(tpl.body)


def check_conjectures(
    out_path: str,
    symbols: list[dict],
    expected_count: int,
    seed: int,
    uncapped: bool,
) -> list[str]:
    """Every emitted term re-parses and typechecks to bool; on a sample, its
    assignment is one the exhaustive oracle admits and its term is
    alpha-equivalent (by the brute-force oracle) to the template filled by
    hand; no two sampled conjectures are alpha-equivalent.  With
    `uncapped` output, the assignments drawn from a random pool of candidates
    must equal, in order, the oracle's exhaustive enumeration over the pool."""
    rows = _read_jsonl(out_path)
    errors = []
    if len(rows) != expected_count:
        errors.append(f"{len(rows)} conjectures, expected {expected_count}")
    entries = [SignatureEntry(s["name"], parse_type(s["type"]), s.get("def"))
               for s in symbols]
    sig = Signature(entries)
    types = {e.name: e.type for e in entries}
    terms = []
    for i, row in enumerate(rows):
        term = parse_term(row["term"])
        ty = _subst({}, typecheck(term, sig))
        if ty != BOOL:
            errors.append(f"conjecture {i} has type {ty}, not bool")
        terms.append(term)
    templates = {c: parse_template(c) for c in {r["template"] for r in rows}}

    rng = random.Random(seed)
    if uncapped:
        for canonical, tpl in templates.items():
            pool = sorted(rng.sample(range(len(entries)), min(ORACLE_POOL, len(entries))))
            names = {entries[i].name for i in pool}
            got = [a for a in (tuple(r["assignment"][str(i)] for i in sorted(tpl.hole_types))
                               for r in rows if r["template"] == canonical)
                   if names.issuperset(a)]
            want = exhaustive_instantiations(tpl, [entries[i] for i in pool], BASE_SCHEMES)
            if got != want:
                errors.append(f"assignments over a {len(pool)}-candidate pool differ "
                              f"from the exhaustive oracle ({len(got)} emitted, "
                              f"{len(want)} expected)")

    sample = rng.sample(range(len(rows)), min(ORACLE_SAMPLE, len(rows)))
    for i in sample:
        row = rows[i]
        tpl = templates[row["template"]]
        names = {int(k): v for k, v in row["assignment"].items()}
        used = sorted(set(names.values()))
        pool = [e for e in entries if e.name in used]
        admitted = exhaustive_instantiations(tpl, pool, BASE_SCHEMES)
        if tuple(names[h] for h in sorted(tpl.hole_types)) not in admitted:
            errors.append(f"conjecture {i}: assignment {names} is ill-typed")
            continue
        try:
            want = expected_term(tpl, names, types)
        except RobinsonFail as e:
            errors.append(f"conjecture {i}: cannot type the filled template: {e}")
            continue
        if not alpha_oracle(terms[i], want):
            errors.append(f"conjecture {i} is not the template filled by {names}")
    for i, j in zip(sample, sample[1:]):
        if alpha_oracle(terms[i], terms[j]):
            errors.append(f"conjectures {i} and {j} are alpha-equivalent")
    return errors[:20]


# ---------------------------------------------------------------------------
# quickspec_list: an evaluator and matcher for the list signature, written
# independently of lemmakit.quickspec.

_TOKEN = re.compile(r'\(|\)|"(?:[^"\\]|\\.)*"|[^\s()"]+')


def read_sexp(text: str):
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        elif tok.startswith('"'):
            stack[-1].append(json.loads(tok))
        else:
            stack[-1].append(tok)
    return stack[0][0]


def first_order(node):
    """s-expression term -> ("v", name, sort) or ("f", name, args)."""
    args = []
    while node[0] == "app":
        args.append(first_order(node[2]))
        node = node[1]
    if node[0] == "free":
        return ("v", node[1], node[2][1])
    return ("f", node[1], tuple(reversed(args)))


LIST_OPS = {
    "append": lambda a, b: a + b,
    "rev": lambda a: a[::-1],
    "len": len,
    "plus": lambda a, b: a + b,
}


def _value(t, env):
    if t[0] == "v":
        return env[t[1]]
    if t[1] == "zero":
        return 0
    return LIST_OPS[t[1]](*(_value(a, env) for a in t[2]))


def _sample(sort: str, rng: random.Random):
    if sort == "list":
        return tuple(rng.randrange(10) for _ in range(rng.randint(0, 5)))
    return rng.randint(0, 25)


def _match(pattern, target, sub) -> bool:
    if pattern[0] == "v":
        bound = sub.setdefault(pattern[1], target)
        return bound == target
    return (
        target[0] == "f"
        and target[1] == pattern[1]
        and len(target[2]) == len(pattern[2])
        and all(_match(p, t, sub) for p, t in zip(pattern[2], target[2]))
    )


def _instance(law, general) -> bool:
    for gl, gr in ((general[0], general[1]), (general[1], general[0])):
        sub: dict = {}
        if _match(gl, law[0], sub) and _match(gr, law[1], sub):
            return True
    return False


REQUIRED_LAWS = [
    ("x1 @ (x2 @ x3) = (x1 @ x2) @ x3", "(x1 @ x2) @ x3 = x1 @ (x2 @ x3)"),
    ("rev (rev x1) = x1",),
    ("(len x1) + (len x2) = len (x1 @ x2)", "len (x1 @ x2) = (len x1) + (len x2)"),
]


def check_quickspec(pretty_path: str, jsonl_path: str, seed: int,
                    fresh_tests: int = 200) -> list[str]:
    """test_7's required laws are present; no law fails on `fresh_tests`
    valuations from a seed the program never saw; no law is a substitution
    instance of an earlier one."""
    with open(pretty_path, encoding="utf-8") as fh:
        pretty = {line.rstrip("\n") for line in fh}
    errors = [f"missing law {variants[0]!r}" for variants in REQUIRED_LAWS
              if not any(v in pretty for v in variants)]
    laws = [(first_order(read_sexp(r["lhs"])), first_order(read_sexp(r["rhs"])))
            for r in _read_jsonl(jsonl_path)]
    if len(laws) != len(pretty):
        errors.append(f"{len(laws)} JSONL laws but {len(pretty)} printed laws")

    rng = random.Random(f"fresh-{seed}")
    sorts = {f"x{i}": ("list" if i <= 3 else "int") for i in range(1, 7)}
    envs = [{v: _sample(s, rng) for v, s in sorts.items()} for _ in range(fresh_tests)]
    for lhs, rhs in laws:
        for env in envs:
            if _value(lhs, env) != _value(rhs, env):
                errors.append(f"counterexample {env} to {lhs} = {rhs}")
                break
    for i, law in enumerate(laws):
        if any(_instance(law, earlier) for earlier in laws[:i]):
            errors.append(f"law {i} is an instance of an earlier law")
    return errors[:20]


def count_terms(signature: dict, max_size: int) -> int:
    """Number of well-typed fully applied terms of size <= max_size: the
    quickspec workload's item count, by dynamic programming over sizes."""
    arity = {}
    for s in signature["symbols"]:
        ty, args = read_sexp(s["type"]), []
        while ty[1] == "fun":
            args.append(ty[2][1])
            ty = ty[3]
        arity[s["name"]] = (args, ty[1])
    sorts = [s["name"] for s in signature["sorts"]]
    count = {(s, 1): signature["vars_per_sort"]
             + sum(1 for a, r in arity.values() if not a and r == s) for s in sorts}
    for size in range(2, max_size + 1):
        for s in sorts:
            total = 0
            for args, res in arity.values():
                if not args or res != s:
                    continue
                for split in itertools.product(range(1, size), repeat=len(args)):
                    if sum(split) == size - 1:
                        prod = 1
                        for a, k in zip(args, split):
                            prod *= count[(a, k)]
                        total += prod
            count[(s, size)] = total
    return sum(count.values())
