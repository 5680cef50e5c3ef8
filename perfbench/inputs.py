"""Seeded input generators for the four benchmark workloads.

Each generator is a pure function of its seed and writes plain files in the
formats the lemmakit CLI reads.  Nothing here imports lemmakit: terms and
types are written directly as the CLI's s-expressions.  The seed only renames
symbols and reorders inputs, so every seed gives the same amount of work.
"""

from __future__ import annotations

import json
import os
import random
import re

# ---------------------------------------------------------------------------
# S-expression builders (the grammar of lemmakit.terms.parse_term)


def _q(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def tc(name: str, *args: str) -> str:
    return " ".join([f"(tc {_q(name)}"] + list(args)) + ")"


def fun(a: str, b: str) -> str:
    return tc("fun", a, b)


def const(name: str, ty: str) -> str:
    return f"(const {_q(name)} {ty})"


def free(name: str, ty: str) -> str:
    return f"(free {_q(name)} {ty})"


def app(fn: str, *args: str) -> str:
    for a in args:
        fn = f"(app {fn} {a})"
    return fn


BOOL = tc("HOL.bool")


def equation(sort: str, lhs: str, rhs: str) -> str:
    return app(const("HOL.eq", fun(sort, fun(sort, BOOL))), lhs, rhs)


_CONST_RE = re.compile(r'\(const "([^"]+)"')


def _tag(rng: random.Random, used: set[str]) -> str:
    """A fresh fixed-length name part, so renaming never changes the work."""
    while True:
        tag = f"{rng.getrandbits(24):06x}"
        if tag not in used:
            used.add(tag)
            return tag


# ---------------------------------------------------------------------------
# Synthetic multi-theory corpus (same families as the test suite's held-out
# retrieval corpus): 20 families over 6 symbol-shape profiles sharing 30
# templates, 5 per profile.

# profile -> (symbol kinds, number of families, lemma copies per training theory)
PROFILES = {
    "unary": (("u",), 3, 1),
    "binary": (("f",), 3, 1),
    "mixed2": (("u", "f"), 4, 3),
    "ternary": (("g",), 3, 1),
    "mixed3": (("f", "g"), 4, 3),
    "mixed13": (("u", "g"), 3, 3),
}

_ARITY = {"u": 1, "f": 2, "g": 3}


def _kind_type(kind: str, sort: str) -> str:
    ty = sort
    for _ in range(_ARITY[kind]):
        ty = fun(sort, ty)
    return ty


def _shapes(profile: str, u, f, g, x) -> list[tuple[str, str]]:
    """Five (lhs, rhs) equations per profile over x[1]..x[4]."""
    if profile == "unary":
        return [
            (u(x[1]), x[1]),
            (u(u(x[1])), x[1]),
            (u(u(x[1])), u(x[1])),
            (u(u(u(x[1]))), x[1]),
            (u(u(u(x[1]))), u(x[1])),
        ]
    if profile == "binary":
        return [
            (f(x[1], x[2]), f(x[2], x[1])),
            (f(x[1], f(x[2], x[3])), f(f(x[1], x[2]), x[3])),
            (f(x[1], x[1]), x[1]),
            (f(x[1], f(x[1], x[2])), f(x[1], x[2])),
            (f(f(x[1], x[2]), x[1]), f(x[1], x[2])),
        ]
    if profile == "mixed2":
        return [
            (u(f(x[1], x[2])), f(u(x[1]), u(x[2]))),
            (u(f(x[1], x[2])), f(x[1], x[2])),
            (f(u(x[1]), x[2]), f(x[1], u(x[2]))),
            (u(f(x[1], x[1])), u(x[1])),
            (f(u(x[1]), u(x[2])), f(x[2], x[1])),
        ]
    if profile == "ternary":
        return [
            (g(x[1], x[2], x[3]), g(x[3], x[2], x[1])),
            (g(x[1], x[2], x[3]), g(x[2], x[1], x[3])),
            (g(x[1], x[1], x[2]), g(x[1], x[2], x[2])),
            (g(x[1], x[2], x[3]), g(x[1], x[3], x[2])),
            (g(g(x[1], x[2], x[3]), x[2], x[3]), g(x[1], x[2], x[3])),
        ]
    if profile == "mixed3":
        return [
            (g(x[1], x[2], f(x[1], x[2])), f(x[1], x[2])),
            (f(g(x[1], x[2], x[3]), x[1]), g(x[1], x[2], x[3])),
            (g(f(x[1], x[1]), x[2], x[3]), g(x[1], x[2], x[3])),
            (f(g(x[1], x[1], x[1]), x[2]), f(x[1], x[2])),
            (g(x[1], f(x[2], x[3]), x[1]), g(x[1], x[2], x[3])),
        ]
    assert profile == "mixed13"
    return [
        (u(g(x[1], x[2], x[3])), g(u(x[1]), x[2], x[3])),
        (u(g(x[1], x[2], x[3])), g(x[1], x[2], x[3])),
        (g(u(x[1]), x[2], x[3]), g(x[1], x[2], u(x[3]))),
        (u(g(x[1], x[1], x[2])), u(x[2])),
        (g(u(x[1]), u(x[2]), u(x[3])), g(x[1], x[2], x[3])),
    ]


FREE_NAME_SETS = [("a", "b", "c", "d"), ("p", "q", "r", "s"), ("m", "n", "k", "l")]


def _theory_records(profile: str, family: str, theory: str, names) -> list[dict]:
    """One corpus record (the CLI's JSONL record format) per template shape."""
    sort = tc(f"{family}.sort")
    kinds = PROFILES[profile][0]
    entries = {
        k: {"name": f"{family}.{k}", "type": _kind_type(k, sort),
            "def": f"{k} = <defn in {family}>"}
        for k in kinds
    }

    def applicator(kind):
        e = entries.get(kind)
        if e is None:
            return None
        return lambda *args: app(const(e["name"], e["type"]), *args)

    u, f, g = applicator("u"), applicator("f"), applicator("g")
    x = {i + 1: free(names[i], sort) for i in range(4)}
    by_name = {e["name"]: e for e in entries.values()}
    records = []
    for j, (lhs, rhs) in enumerate(_shapes(profile, u, f, g, x)):
        term = equation(sort, lhs, rhs)
        used = []
        for name in _CONST_RE.findall(term):
            if name in by_name and name not in used:
                used.append(name)
        records.append({
            "id": f"{theory}.lemma{j}c0",
            "theory": theory,
            "name": f"lemma{j}c0",
            "term": term,
            "symbols": [by_name[n] for n in used],
        })
    return records


def heldout_corpus(seed: int, scale: int) -> list[dict]:
    """`scale` renamed copies of the 20 held-out theories: 100 * scale tasks.

    The 5 tasks of one theory share one symbol list, as in the test suite.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    records = []
    for _ in range(scale):
        for profile, (_, n_families, _) in PROFILES.items():
            for _ in range(n_families):
                family = f"Fam{_tag(rng, used)}"
                names = FREE_NAME_SETS[rng.randrange(len(FREE_NAME_SETS))]
                records.extend(
                    _theory_records(profile, family, f"{family}.Heldout", names)
                )
    rng.shuffle(records)
    return records


def index_sample(seed: int) -> tuple[list[dict], dict[str, int]]:
    """One training lemma per template shape, plus each one's corpus count.

    The retrieval index is these 30 lemmas' templates weighted by how often
    the full training corpus (2 theories per family, profile copy counts)
    contains them.
    """
    rng = random.Random(seed ^ 0x5EED)
    used: set[str] = set()
    records: list[dict] = []
    counts: dict[str, int] = {}
    for profile, (_, n_families, copies) in PROFILES.items():
        family = f"Idx{_tag(rng, used)}"
        for r in _theory_records(profile, family, f"{family}.Theory1",
                                 FREE_NAME_SETS[0]):
            records.append(r)
            counts[r["id"]] = n_families * 2 * copies
    return records, counts


# ---------------------------------------------------------------------------
# Wide and dense signatures


def wide_signature(seed: int, sorts: int = 20, per_kind: int = 5) -> list[dict]:
    """`per_kind` unary, binary and ternary symbols on each of `sorts` sorts."""
    rng = random.Random(seed)
    used: set[str] = set()
    out = []
    for _ in range(sorts):
        family = f"W{_tag(rng, used)}"
        sort = tc(f"{family}.sort")
        for kind in ("u", "f", "g"):
            for i in range(per_kind):
                out.append({"name": f"{family}.{kind}{i}",
                            "type": _kind_type(kind, sort),
                            "def": None})
    return out


# Left distributivity, abstracted from `a * (b + c) = a * b + a * c` on
# octonions: both holes are binary operators on one shared element type.
_H1 = '(hole 1 (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a0"))))'
_H2 = '(hole 2 (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a0"))))'
_EQ = '(const "HOL.eq" (tc "fun" (tv "a0") (tc "fun" (tv "a0") (tv "a1"))))'
_X1, _X2, _X3 = (f'(free "x{i}" (tv "a0"))' for i in (1, 2, 3))
DISTRIB_TEMPLATE = (
    f"(app (app {_EQ} (app (app {_H1} {_X1}) (app (app {_H2} {_X2}) {_X3})))"
    f" (app (app {_H2} (app (app {_H1} {_X1}) {_X2}))"
    f" (app (app {_H1} {_X1}) {_X3})))"
)


def dense_signature(seed: int, binaries=(30, 30, 30), unaries=(37, 37, 36)):
    """Binary and unary candidates on 3 sorts, in seeded order.

    Returns the signature and the expected distributivity conjecture count,
    the sum over sorts of (binary candidates on that sort) squared.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    out = []
    for n_bin, n_un in zip(binaries, unaries):
        family = f"D{_tag(rng, used)}"
        sort = tc(f"{family}.sort")
        out += [{"name": f"{family}.op{i}", "type": _kind_type("f", sort),
                 "def": None} for i in range(n_bin)]
        out += [{"name": f"{family}.un{i}", "type": _kind_type("u", sort),
                 "def": None} for i in range(n_un)]
    rng.shuffle(out)
    return out, sum(b * b for b in binaries)


# ---------------------------------------------------------------------------
# The interpreted list signature of the quickspec acceptance test

LIST, INT = tc("list"), tc("int")

LIST_SIGNATURE = {
    "sorts": [
        {"name": "list", "max_len": 5, "elem_mod": 10},
        {"name": "int", "min": 0, "max": 25},
    ],
    "symbols": [
        {"name": "append", "type": fun(LIST, fun(LIST, LIST)),
         "builtin": "list_append", "infix": "@"},
        {"name": "rev", "type": fun(LIST, LIST), "builtin": "list_rev"},
        {"name": "len", "type": fun(LIST, INT), "builtin": "list_len"},
        {"name": "plus", "type": fun(INT, fun(INT, INT)),
         "builtin": "int_add", "infix": "+"},
        {"name": "zero", "type": INT, "value": 0},
    ],
    "vars_per_sort": 3,
}


# ---------------------------------------------------------------------------
# Writing a workload's files


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)


def write_inputs(workload: str, seed: int, workdir: str, scale: int) -> dict:
    """Write `workload`'s input files into `workdir` (`scale` sets the size of
    the eval corpus); return facts the output checks need."""
    os.makedirs(workdir, exist_ok=True)
    p = lambda name: os.path.join(workdir, name)
    facts: dict = {}
    if workload in ("eval_retrieval", "conjecture_wide"):
        sample, counts = index_sample(seed)
        _write_jsonl(p("index_sample.jsonl"), sample)
        _write_json(p("index_counts.json"), counts)
    if workload == "eval_retrieval":
        records = heldout_corpus(seed, scale)
        _write_jsonl(p("corpus.jsonl"), records)
        facts["tasks"] = len(records)
    elif workload == "conjecture_wide":
        sig = wide_signature(seed)
        _write_json(p("symbols.json"), sig)
        facts["symbols"] = sig
    elif workload == "instantiate_dense":
        sig, expected = dense_signature(seed)
        _write_json(p("symbols.json"), sig)
        with open(p("template.txt"), "w", encoding="utf-8") as fh:
            fh.write(DISTRIB_TEMPLATE + "\n")
        facts["symbols"] = sig
        facts["expected_conjectures"] = expected
    elif workload == "quickspec_list":
        _write_json(p("signature.json"), LIST_SIGNATURE)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return facts
