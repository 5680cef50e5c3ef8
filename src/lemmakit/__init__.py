"""Template-based lemma conjecturing toolkit.

Pipeline pieces: typed lambda terms (terms), template abstraction
(templates), symbolic hole instantiation (instantiation), dataset and prompt
construction (corpus), template proposal backends (proposer), the evaluation
harness (evaluation), and a desk-scale enumerative baseline (quickspec).
"""

from .evaluation import (
    EvalReport,
    EvalTask,
    categorize,
    combine_reports,
    dedupe,
    evaluate_suite,
    evaluate_task,
    instantiation_rate,
    make_task,
)
from .instantiation import Budget, Conjecture, InstantiationResult, instantiate
from .templates import Template, Whitelist, abstract, default_whitelist, parse_template
from .terms import (
    LemmakitError,
    Signature,
    SignatureEntry,
    alpha_equal,
    parse_term,
    parse_type,
    render_term,
    render_terms,
    render_type,
    typecheck,
)

__all__ = [
    "Budget",
    "Conjecture",
    "EvalReport",
    "EvalTask",
    "InstantiationResult",
    "LemmakitError",
    "Signature",
    "SignatureEntry",
    "Template",
    "Whitelist",
    "abstract",
    "alpha_equal",
    "categorize",
    "combine_reports",
    "dedupe",
    "default_whitelist",
    "evaluate_suite",
    "evaluate_task",
    "instantiate",
    "instantiation_rate",
    "make_task",
    "parse_template",
    "parse_term",
    "parse_type",
    "render_term",
    "render_terms",
    "render_type",
    "typecheck",
]

__version__ = "0.1.0"
