"""Corpus records, prompt formatting, datapoint construction and file-wise splits.

Interchange is JSONL so an external exporter can produce records without
depending on this package.  Record line schema, with the symbol object that
`read_symbols` reads wherever one appears:

    {"id": s, "theory": s, "name": s, "term": s-expr,
     "symbols": [{"name": s, "type": s-expr, "def": s|null}]}

A signature file is a JSON array of symbol objects, or a quickspec signature
file (`quickspec.load_interpreted_signature`), whose "symbols" list holds them.

Datapoint line schema:

    {"id": s, "theory": s, "mode": s, "target_kind": s, "input": s, "target": s}
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

from .templates import Whitelist, abstract, default_whitelist
from .terms import (
    DuplicateSymbols,
    LemmakitError,
    Signature,
    SignatureEntry,
    Term,
    TypeExpr,
    const_names,
    parse_term,
    parse_type,
    render_term,
    render_type,
    typecheck,
)

MODES = ("types+defs", "types", "defs")
TARGET_KINDS = ("template", "lemma")


class FewerTheoriesThanPartitions(LemmakitError):
    pass


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    theory: str
    lemma_name: str
    term: Term
    symbols: tuple[SignatureEntry, ...]


@dataclass(frozen=True)
class Datapoint:
    """One prompt/target pair; its fields are its JSON line's keys."""

    id: str
    theory: str
    mode: str
    target_kind: str
    input: str
    target: str


def make_record(
    id: str,
    theory: str,
    name: str,
    t: Term,
    sig: Signature,
    w: Whitelist | None = None,
) -> CorpusRecord:
    """Record with symbols = the distinct non-whitelist constants of t, in
    first-occurrence order, with types and definitions copied from sig."""
    if w is None:
        w = default_whitelist()
    typecheck(t, sig)
    symbols = []
    for cname in const_names(t):
        if w.contains(cname):
            continue
        entry = sig[cname]
        symbols.append(entry)
    return CorpusRecord(id=id, theory=theory, lemma_name=name, term=t, symbols=tuple(symbols))


def format_symbols_prompt(symbols, mode: str) -> str:
    """The prompt string for a symbol list.

    Exact shape: `[Symbols: n1, n2] [Types: n1 : T1 ; n2 : T2]
    [Defs: n1 := D1 ;; n2 := D2]`, sections per mode; a missing definition
    renders as `<none>`; definition newlines are flattened to spaces.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    sections = [f"[Symbols: {', '.join(s.name for s in symbols)}]"]
    if mode in ("types+defs", "types"):
        types = " ; ".join(f"{s.name} : {render_type(s.type)}" for s in symbols)
        sections.append(f"[Types: {types}]")
    if mode in ("types+defs", "defs"):
        def flat(d: str | None) -> str:
            if d is None:
                return "<none>"
            return " ".join(d.splitlines())

        defs = " ;; ".join(f"{s.name} := {flat(s.definition)}" for s in symbols)
        sections.append(f"[Defs: {defs}]")
    return " ".join(sections)


def make_datapoint(
    r: CorpusRecord, mode: str, target_kind: str, w: Whitelist | None = None
) -> Datapoint:
    if target_kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {target_kind!r}")
    if target_kind == "template":
        target = abstract(r.term, w).canonical
    else:
        target = render_term(r.term)
    return Datapoint(
        id=r.id,
        input=format_symbols_prompt(r.symbols, mode),
        target_kind=target_kind,
        target=target,
        mode=mode,
        theory=r.theory,
    )


def split_filewise(
    records: list[CorpusRecord], ratios: tuple[float, ...], seed: int
) -> tuple[list[CorpusRecord], ...]:
    """Partition records by theory so no theory straddles two partitions.

    Theory counts approximate the ratios (floor allocation, remainders to the
    largest fractional parts); deterministic given the seed.
    """
    if any(r <= 0 for r in ratios):
        raise ValueError("ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must sum to 1")
    theories = sorted({r.theory for r in records})
    if len(theories) < len(ratios):
        raise FewerTheoriesThanPartitions(
            f"{len(theories)} theories cannot fill {len(ratios)} partitions"
        )
    rng = random.Random(seed)
    rng.shuffle(theories)

    n = len(theories)
    raw = [n * r for r in ratios]
    counts = [int(x) for x in raw]
    remainder = n - sum(counts)
    by_frac = sorted(range(len(ratios)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in by_frac[:remainder]:
        counts[i] += 1
    # Every partition must be nonempty.
    for i in range(len(counts)):
        while counts[i] == 0:
            j = max(range(len(counts)), key=lambda k: counts[k])
            counts[j] -= 1
            counts[i] += 1

    parts: list[list[CorpusRecord]] = []
    start = 0
    for c in counts:
        chunk = set(theories[start : start + c])
        start += c
        parts.append([r for r in records if r.theory in chunk])
    return tuple(parts)


# ---------------------------------------------------------------------------
# JSONL


def record_to_dict(r: CorpusRecord) -> dict:
    return {
        "id": r.id,
        "theory": r.theory,
        "name": r.lemma_name,
        "term": render_term(r.term),
        "symbols": [
            {"name": s.name, "type": render_type(s.type), "def": s.definition}
            for s in r.symbols
        ],
    }


_KINDS = {
    "a string": lambda v: isinstance(v, str),
    "a string or null": lambda v: v is None or isinstance(v, str),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "an integer or null": lambda v: v is None or _KINDS["an integer"](v),
    "a list": lambda v: isinstance(v, list),
}

_SYMBOL_FIELDS = {"name": "a string", "type": "a string", "def": "a string or null"}
_RECORD_FIELDS = {
    "id": "a string",
    "theory": "a string",
    "name": "a string",
    "term": "a string",
    "symbols": "a list",
}
_DATAPOINT_FIELDS = {f.name: "a string" for f in fields(Datapoint)}


def check_fields(d, fields: dict[str, str], where: str) -> None:
    """Raise LemmakitError, prefixed by `where`, unless d is an object whose
    fields hold values of the kinds named in `fields` (keys of _KINDS)."""
    if not isinstance(d, dict):
        raise LemmakitError(f"{where}: expected an object")
    for key, kind in fields.items():
        if not _KINDS[kind](d.get(key)):
            raise LemmakitError(f"{where}: field {key!r} must be {kind}")


def parse_at(parse, text, where: str):
    """parse(text), with a LemmakitError it raises prefixed by `where`."""
    try:
        return parse(text)
    except LemmakitError as e:
        raise LemmakitError(f"{where}: {e}") from e


class _TypeTable:
    """Symbol types parsed once per distinct text, with equal types as one
    object, for all the symbols of one file."""

    def __init__(self):
        self.by_text: dict[str, TypeExpr] = {}
        self.by_value: dict[TypeExpr, TypeExpr] = {}

    def parse(self, text: str, where: str) -> TypeExpr:
        """The type `text` spells; a syntax error is prefixed by `where`."""
        ty = self.by_text.get(text)
        if ty is None:
            ty = parse_at(parse_type, text, where)
            ty = self.by_text[text] = self.by_value.setdefault(ty, ty)
        return ty


def read_symbols(items, where: str, types: _TypeTable | None = None) -> list[SignatureEntry]:
    """The symbols of a list of symbol objects.  An object of another shape
    raises LemmakitError prefixed by `where`, its index and the field.  Each
    type text is parsed once per `types` table, so equal types are one object."""
    types = types or _TypeTable()
    symbols = []
    for i, d in enumerate(items):
        check_fields(d, _SYMBOL_FIELDS, f"{where} {i}")
        ty = types.parse(d["type"], f"{where} {i}: field 'type'")
        symbols.append(SignatureEntry(d["name"], ty, d.get("def")))
    return symbols


def record_from_dict(
    d: dict, where: str = "record", types: _TypeTable | None = None
) -> CorpusRecord:
    """A corpus record from its JSON object; equal symbol types come back as
    one shared object, as in `load_signature`.  `types` extends that sharing
    to every record read through it."""
    check_fields(d, _RECORD_FIELDS, where)
    return CorpusRecord(
        id=d["id"],
        theory=d["theory"],
        lemma_name=d["name"],
        term=parse_at(parse_term, d["term"], f"{where}: field 'term'"),
        symbols=tuple(read_symbols(d["symbols"], f"{where}: symbol", types)),
    )


def datapoint_to_dict(d: Datapoint) -> dict:
    return dict(vars(d))


def datapoint_from_dict(d: dict) -> Datapoint:
    check_fields(d, _DATAPOINT_FIELDS, "datapoint")
    return Datapoint(**{key: d[key] for key in _DATAPOINT_FIELDS})


def parse_json(text: str, where: str, what: str = "JSON", lone_surrogates: bool = False):
    """json.loads(text).  Text that is not JSON (an integer longer than
    `int` converts included), or JSON nested too deeply for the decoder,
    raises LemmakitError prefixed by `where`; `what` names the kind of input
    in the message.  So does a string holding a lone surrogate, which no
    UTF-8 output can hold, unless `lone_surrogates`."""
    try:
        value = json.loads(text)
        # Each backslash of valid JSON starts an escape: blank each `\\`, and `\u` starts one.
        escapes = "" if lone_surrogates or "\\u" not in text else text.replace("\\\\", "  ")
        i = escapes.find("\\u")
        while i >= 0:
            code = int(escapes[i + 2 : i + 6], 16)
            if 0xD800 <= code < 0xDC00 and escapes[i + 6 : i + 8] == "\\u" and (
                0xDC00 <= int(escapes[i + 8 : i + 12], 16) < 0xE000
            ):
                i += 6  # a pair: go on after its second half
            elif 0xD800 <= code < 0xE000:
                raise json.JSONDecodeError(f"lone surrogate {text[i:i + 6]} in a string", text, i)
            i = escapes.find("\\u", i + 2)
        return value
    except ValueError as e:  # JSONDecodeError, or an integer too long
        raise LemmakitError(f"{where}: malformed {what}: {e}") from e
    except RecursionError:
        raise LemmakitError(f"{where}: {what} nested too deeply") from None


def load_json(path):
    """The JSON value of a whole file, read through `parse_json`."""
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh.read(), str(path))


def read_jsonl(path) -> list[tuple[int, object]]:
    """(line number, parsed value) for each non-blank line; a line that is not
    JSON, or is nested too deeply, raises LemmakitError naming the file and
    the line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                out.append((i, parse_json(line, f"{path}:{i}", "JSON line")))
    return out


def load_lines(path, parse) -> list:
    """parse(line) for each line of a text file, with '#' comments stripped
    and blank lines skipped.  A LemmakitError from parse is raised again
    naming the file and the line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if line:
                out.append(parse_at(parse, line, f"{path}:{i}"))
    return out


def json_line(d: dict) -> str:
    """d as one line of JSON: keys sorted, non-ASCII text kept as it is."""
    return json.dumps(d, sort_keys=True, ensure_ascii=False)


def write_jsonl(path, dicts) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for d in dicts:
            fh.write(json_line(d))
            fh.write("\n")


def load_records(path) -> list[CorpusRecord]:
    """Records of a JSONL corpus; a line of the wrong shape raises
    LemmakitError naming the file, the line and the field.  Each distinct
    symbol type text is parsed once, and equal symbol types are one object
    across the file."""
    types = _TypeTable()
    return [record_from_dict(d, f"{path}:{i}", types) for i, d in read_jsonl(path)]


def save_records(path, records) -> None:
    write_jsonl(path, (record_to_dict(r) for r in records))


def load_signature(path) -> Signature:
    """The symbols of a signature file, as one `Signature`: a JSON array of
    symbol objects, or a quickspec signature file, whose "symbols" list
    holds them.

    A file of any other shape raises LemmakitError naming the file, the
    index and the field, and a name given twice raises `DuplicateSymbols`
    naming the file.  The index is an "entry" of an array, and a "symbol"
    of a quickspec file, as the quickspec loader names it.  Each distinct
    type text is parsed once, and equal types come back as one shared
    object, so `instantiate` unifies each of them once per search node.
    """
    data = load_json(path)
    where = f"{path}: entry"
    if isinstance(data, dict) and isinstance(data.get("symbols"), list):
        data, where = data["symbols"], f"{path}: symbol"
    elif not isinstance(data, list):
        raise LemmakitError(f"{path}: expected a JSON array of symbol objects or a 'symbols' list")
    try:
        return Signature(read_symbols(data, where))
    except DuplicateSymbols as e:
        raise DuplicateSymbols(f"{path}: {e}") from None
