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

import requests

from .corpus import format_symbols_prompt
from .instantiation import feasible
from .templates import NonCanonical, Template, parse_template
from .terms import LemmakitError, SignatureEntry, TermSyntaxError

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
    symbols: tuple[SignatureEntry, ...]
    mode: str = "types+defs"
    k: int = 5

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


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

    def canonicals(self) -> list[str]:
        return [p.template.canonical for p in self.proposals]


class TemplateIndex:
    """Frequency map over canonical template strings."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.total = 0
        self._parsed: dict[str, Template] = {}

    def add(self, canonical: str, count: int = 1) -> None:
        tpl = parse_template(canonical)
        self.counts[tpl.canonical] = self.counts.get(tpl.canonical, 0) + count
        self.total += count
        self._parsed[tpl.canonical] = tpl

    def template(self, canonical: str) -> Template:
        return self._parsed[canonical]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for canonical in sorted(self.counts):
                fh.write(
                    json.dumps(
                        {"template": canonical, "count": self.counts[canonical]},
                        ensure_ascii=False,
                    )
                )
                fh.write("\n")

    @classmethod
    def load(cls, path) -> "TemplateIndex":
        idx = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                d = json.loads(line)
                idx.add(d["template"], d["count"])
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


def propose_retrieval(
    req: ProposalRequest, idx: TemplateIndex, feas_timeout_millis: int = 1000
) -> ProposalSet:
    """Feasible index templates ranked by frequency (desc), then fewer holes,
    then canonical string; scores are corpus frequencies."""
    candidates = list(req.symbols)
    ranked = []
    for canonical, count in idx.counts.items():
        tpl = idx.template(canonical)
        if feasible(tpl, candidates, feas_timeout_millis):
            ranked.append((tpl, count))
    ranked.sort(key=lambda tc: (-tc[1], tc[0].hole_count, tc[0].canonical))
    total = idx.total or 1
    return ProposalSet(
        proposals=[
            Proposal(template=tpl, score=count / total, source="retrieval")
            for tpl, count in ranked[: req.k]
        ]
    )


@dataclass(frozen=True)
class HttpProposerConfig:
    url: str
    token: str | None = None
    timeout_millis: int = 120_000
    max_tokens: int = 512

    @classmethod
    def from_env(cls, timeout_millis: int = 120_000) -> "HttpProposerConfig":
        url = os.environ.get(ENV_LLM_URL)
        if not url:
            raise TransportError(f"{ENV_LLM_URL} is not set")
        return cls(
            url=url,
            token=os.environ.get(ENV_LLM_TOKEN),
            timeout_millis=timeout_millis,
        )


def propose_http(req: ProposalRequest, config: HttpProposerConfig) -> ProposalSet:
    """POST {"prompt", "n", "max_tokens"}; expect {"completions": [str, ...]}.

    Completions failing template validation are dropped and counted;
    completion order is preserved as the ranking.
    """
    headers = {}
    if config.token:
        headers["Authorization"] = f"Bearer {config.token}"
    body = {
        "prompt": format_symbols_prompt(req.symbols, req.mode),
        "n": req.k,
        "max_tokens": config.max_tokens,
    }
    try:
        resp = requests.post(
            config.url, json=body, headers=headers, timeout=config.timeout_millis / 1000.0
        )
    except requests.RequestException as e:
        raise TransportError(f"request to {config.url} failed: {e}") from e
    if resp.status_code != 200:
        raise TransportError(f"endpoint returned HTTP {resp.status_code}")
    try:
        completions = resp.json()["completions"]
    except (ValueError, KeyError) as e:
        raise TransportError(f"malformed response body: {e}") from e

    out = ProposalSet()
    seen: set[str] = set()
    for i, text in enumerate(completions):
        try:
            tpl = parse_template(text.strip())
        except LemmakitError:
            out.parse_failures += 1
            continue
        if tpl.canonical in seen:
            continue
        seen.add(tpl.canonical)
        out.proposals.append(
            Proposal(template=tpl, score=1.0 / (len(out.proposals) + 1), source="http")
        )
    return out


def load_templates_file(path) -> list[Template]:
    """Text file of canonical template strings, one per line, '#' comments."""
    out: list[Template] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            out.append(parse_template(line))
    return out


def propose_fixed(req: ProposalRequest, path) -> ProposalSet:
    templates = load_templates_file(path)
    out = ProposalSet()
    seen: set[str] = set()
    for tpl in templates:
        if tpl.canonical in seen:
            continue
        seen.add(tpl.canonical)
        out.proposals.append(
            Proposal(template=tpl, score=1.0 / (len(out.proposals) + 1), source="fixed")
        )
        if len(out.proposals) >= req.k:
            break
    return out
