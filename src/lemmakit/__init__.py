"""Template-based lemma conjecturing toolkit.

Pipeline pieces: typed lambda terms (terms), template abstraction
(templates), symbolic hole instantiation (instantiation), dataset and prompt
construction (corpus), template proposal backends (proposer), the evaluation
harness (evaluation), and a desk-scale enumerative baseline (quickspec).
"""

from .corpus import datapoint_from_dict, make_record, save_records
from .evaluation import (
    EvalReport,
    EvalTask,
    categorize,
    combine_reports,
    dedupe,
    evaluate_suite,
    make_task,
)
from .instantiation import (
    Budget,
    Conjecture,
    InstantiationResult,
    instantiate,
)
from .proposer import build_index
from .templates import (
    Template,
    Whitelist,
    abstract,
    default_whitelist,
    parse_template,
    pretty_template,
)
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
    unify_types,
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
    "build_index",
    "categorize",
    "combine_reports",
    "datapoint_from_dict",
    "dedupe",
    "default_whitelist",
    "evaluate_suite",
    "instantiate",
    "make_record",
    "make_task",
    "parse_template",
    "parse_term",
    "parse_type",
    "pretty_template",
    "render_term",
    "render_terms",
    "render_type",
    "save_records",
    "typecheck",
    "unify_types",
]

__version__ = "0.1.0"
