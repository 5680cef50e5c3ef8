"""Template proposal backends behind one interface.

A proposer takes a ProposalRequest (theory symbols + budget k) and returns a
ProposalSet of validated, deduplicated templates.  Three backends:

  * retrieval — ranks corpus templates by frequency, filtered by a fast
    instantiation feasibility check (symbolic stand-in for a trained model);
  * http — forwards the formatted prompt to an external completion endpoint
    and validates each completion;
  * fixed — a template list from a file, for regression and ensembles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from http.client import HTTPException
from urllib.error import URLError
from urllib.request import BaseHandler, Request, build_opener

from .corpus import (
    check_fields,
    format_symbols_prompt,
    load_lines,
    parse_json,
    read_jsonl,
    write_jsonl,
)
from .instantiation import feasible
from .templates import NonCanonical, Template, Whitelist, parse_template
from .terms import LemmakitError, Signature, TermSyntaxError, TypeExpr

ENV_LLM_URL = "LEMMAKIT_LLM_URL"
ENV_LLM_TOKEN = "LEMMAKIT_LLM_TOKEN"


class UnparseableTarget(LemmakitError):
    def __init__(self, id: str, reason: str):
        super().__init__(f"datapoint {id!r}: {reason}")
        self.id = id


class TransportError(LemmakitError):
    pass


@dataclass(frozen=True)
class ProposalRequest:
    symbols: Signature  # every search's table; a list or tuple becomes one
    mode: str = "types+defs"
    k: int = 5
    distinct_holes: bool = False  # the instantiation budget's, for feasibility

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not isinstance(self.symbols, Signature):
            object.__setattr__(self, "symbols", Signature(self.symbols))


@dataclass(frozen=True)
class Proposal:
    template: Template
    score: float
    source: str


@dataclass
class ProposalSet:
    proposals: list[Proposal] = field(default_factory=list)
    parse_failures: int = 0

    def templates(self) -> list[Template]:
        return [p.template for p in self.proposals]


class TemplateIndex:
    """Frequency map over canonical template strings.

    `ranked` gives the templates in retrieval's rank order, sorted once and
    again only after an `add`.  The index also remembers propose_retrieval's
    feasibility answers, keyed by (canonical, set of candidate types), so the
    memo holds at most one entry per template and distinct candidate type set.
    A search that hit its deadline is remembered as False, the answer
    `feasible` gave.  Worker threads share the memo: a dict read or write is
    atomic, and two threads that miss on one key store the same answer.

    Templates are checked against the whitelist `w`, the default one when
    None: it must be the one they were abstracted with.
    """

    def __init__(self, w: Whitelist | None = None):
        self.whitelist = w
        self.counts: dict[str, int] = {}
        self.total = 0
        self._parsed: dict[str, Template] = {}
        self._ranked: list[tuple[Template, int]] | None = None
        self._feasible: dict[tuple[str, frozenset[TypeExpr]], bool] = {}

    def add(self, canonical: str, count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"template count must be positive, got {count}")
        tpl = parse_template(canonical, self.whitelist)
        self.counts[tpl.canonical] = self.counts.get(tpl.canonical, 0) + count
        self.total += count
        self._parsed[tpl.canonical] = tpl
        self._ranked = None

    def template(self, canonical: str) -> Template:
        return self._parsed[canonical]

    def ranked(self) -> list[tuple[Template, int]]:
        """(template, count) pairs by frequency (desc), then fewer holes, then
        canonical string."""
        if self._ranked is None:
            self._ranked = sorted(
                ((self._parsed[c], n) for c, n in self.counts.items()),
                key=lambda tc: (-tc[1], tc[0].hole_count, tc[0].canonical),
            )
        return self._ranked

    def save(self, path) -> None:
        write_jsonl(
            path, ({"template": c, "count": n} for c, n in sorted(self.counts.items()))
        )

    @classmethod
    def load(cls, path, w: Whitelist | None = None) -> "TemplateIndex":
        """JSONL of {"template": canonical, "count": positive int}, checked
        against the whitelist `w`; a line of any other shape raises
        LemmakitError naming the file, the line and the field."""
        idx = cls(w)
        for i, d in read_jsonl(path):
            check_fields(
                d, {"template": "a string", "count": "an integer"}, f"{path}:{i}"
            )
            if d["count"] < 1:
                raise LemmakitError(
                    f"{path}:{i}: field 'count' must be a positive integer"
                )
            try:
                idx.add(d["template"], d["count"])
            except LemmakitError as e:
                raise LemmakitError(f"{path}:{i}: field 'template': {e}") from e
        return idx


def build_index(datapoints) -> TemplateIndex:
    """Index of template targets; raises UnparseableTarget on a bad line."""
    idx = TemplateIndex()
    for dp in datapoints:
        if dp.target_kind != "template":
            raise UnparseableTarget(dp.id, f"target kind {dp.target_kind!r}")
        try:
            idx.add(dp.target)
        except (NonCanonical, TermSyntaxError) as e:
            raise UnparseableTarget(dp.id, str(e)) from e
    return idx


def propose_retrieval(req: ProposalRequest, idx: TemplateIndex) -> ProposalSet:
    """The first req.k feasible index templates in `idx.ranked()` order:
    by frequency (desc), then fewer holes, then canonical string; scores are
    corpus frequencies.  The walk stops at the k-th feasible template, so
    the templates ranked below it are never searched.

    Feasibility is memoized on idx.  Only the set of candidate types can
    change the answer: without distinct holes the candidates' names, order
    and repeats do not decide whether an assignment exists.  With distinct
    holes, how many candidates share a type does, so nothing is memoized.
    Every search reads the request's table, `req.symbols`.
    """
    types = frozenset(c.type for c in req.symbols)
    total = idx.total or 1
    proposals = []
    for tpl, count in idx.ranked():
        if len(proposals) == req.k:
            break
        if req.distinct_holes:
            ok = feasible(tpl, req.symbols, distinct_holes=True)
        else:
            key = (tpl.canonical, types)
            ok = idx._feasible.get(key)
            if ok is None:
                ok = idx._feasible[key] = feasible(tpl, req.symbols)
        if ok:
            proposals.append(
                Proposal(template=tpl, score=count / total, source="retrieval")
            )
    return ProposalSet(proposals=proposals)


@dataclass(frozen=True)
class HttpProposerConfig:
    url: str
    token: str | None = None
    timeout_millis: int = 120_000
    max_tokens: int = 512

    @classmethod
    def from_env(cls) -> "HttpProposerConfig":
        url = os.environ.get(ENV_LLM_URL)
        if not url:
            raise TransportError(f"{ENV_LLM_URL} is not set")
        return cls(url=url, token=os.environ.get(ENV_LLM_TOKEN))


class _HttpOnly(BaseHandler):
    """Refuses every URL scheme but http and https, redirect targets
    included; the default opener also opens ftp:, file: and data: URLs."""

    def default_open(self, req):
        if req.type not in ("http", "https"):
            raise URLError(f"unsupported URL scheme {req.type!r}")


# One opener for every request: an opener and its handlers refer to each
# other, so one built per request would leave a reference cycle behind.
_OPENER = build_opener(_HttpOnly())


def propose_http(
    req: ProposalRequest, config: HttpProposerConfig, w: Whitelist | None = None
) -> ProposalSet:
    """POST {"prompt", "n", "max_tokens"}; expect {"completions": [str, ...]},
    which `decode_completions` turns into proposals under the whitelist `w`.

    Any status other than 200 raises TransportError, as does any URL,
    redirect targets included, that is not http or https.  The token is not
    sent on after a redirect.
    """
    body = {
        "prompt": format_symbols_prompt(req.symbols, req.mode),
        "n": req.k,
        "max_tokens": config.max_tokens,
    }
    try:
        request = Request(
            config.url, json.dumps(body).encode(), {"Content-Type": "application/json"}
        )
        if config.token:
            # Unredirected: a redirect must not carry the token to another host.
            request.add_unredirected_header("Authorization", f"Bearer {config.token}")
        with _OPENER.open(request, timeout=config.timeout_millis / 1000.0) as resp:
            status, raw = resp.status, resp.read()
    except (OSError, ValueError, HTTPException) as e:
        raise TransportError(f"request to {config.url} failed: {e}") from e
    if status != 200:
        raise TransportError(f"endpoint returned HTTP {status}")
    return decode_completions(raw, config.url, w)


def decode_completions(raw: bytes, source: str, w: Whitelist | None = None) -> ProposalSet:
    """The proposals in an HTTP proposer's reply body `raw`, which `source`
    (the endpoint URL) names in JSON syntax errors.  Completions are checked
    against the whitelist `w`, the default one when None.

    The body is read as UTF-8, an invalid byte becoming U+FFFD, so it spoils
    only the completion that holds it, as a lone surrogate escape does.
    Completions failing template validation are dropped and counted;
    completion order is the ranking.  A body of any shape other than
    {"completions": [str, ...]} raises TransportError.
    """
    try:
        body = parse_json(raw.decode("utf-8", errors="replace"), source, lone_surrogates=True)
    except LemmakitError as e:
        raise TransportError(f"malformed response body: {e}") from e
    if not isinstance(body, dict):
        raise TransportError("malformed response body: expected a JSON object")
    completions = body.get("completions")
    if not isinstance(completions, list):
        raise TransportError("malformed response body: 'completions' must be a list")

    templates = []
    failures = 0
    for i, text in enumerate(completions):
        if not isinstance(text, str):
            raise TransportError(
                f"malformed response body: completion {i} must be a string"
            )
        try:
            text.encode("utf-8")  # refuses a lone surrogate, which no output can hold
            templates.append(parse_template(text.strip(), w))
        except (LemmakitError, UnicodeEncodeError):
            failures += 1
    return ProposalSet(_ranked(templates, "http"), failures)


def load_templates_file(path, w: Whitelist | None = None) -> list[Template]:
    """Text file of canonical template strings, one per line, '#' comments,
    checked against the whitelist `w`, the default one when None.

    A line that is not a canonical template raises LemmakitError naming the
    file and the line.
    """
    return load_lines(path, lambda text: parse_template(text, w))


def propose_fixed(req: ProposalRequest, templates: list[Template]) -> ProposalSet:
    """The first req.k distinct templates of a loaded list, in list order."""
    return ProposalSet(_ranked(templates, "fixed", req.k))


def _ranked(templates: list[Template], source: str, k: int | None = None) -> list[Proposal]:
    """The first k distinct templates (by canonical string) in list order,
    all of them without k, each scored 1/rank."""
    distinct: dict[str, Template] = {}
    for tpl in templates:
        if len(distinct) == k:
            break
        distinct.setdefault(tpl.canonical, tpl)
    return [
        Proposal(template=tpl, score=1.0 / rank, source=source)
        for rank, tpl in enumerate(distinct.values(), 1)
    ]
