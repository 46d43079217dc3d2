"""Toolkit for measuring and eliminating constraint violations in generated API calls."""

from .constraints import (
    ConstraintSignature,
    ViolationRates,
    ViolationReport,
    check,
    check_call,
    violation_rates,
)
from .decode import (
    DecodeState,
    Vocab,
    advance,
    allowed_tokens,
    mock_decode,
    new_session,
    overhead_report,
)
from .expr import ApiCall, ArgPair, FlatCall, Nested, ParseError, StringLit, flatten, parse, serialize
from .metrics import EvalPair, evaluate, exact_match, intent_f1, slot_f1
from .retrieval import (
    DemoIndex,
    HashedBowEmbedder,
    PrecomputedEmbedder,
    build_index,
    build_prompt,
    retrieve,
)
from .spec import ApiSpec, derive_from_corpus, load_spec, save_spec
from .topconvert import Example, parse_top, spis_sample, to_api_call

__all__ = [
    "ApiCall",
    "ApiSpec",
    "ArgPair",
    "ConstraintSignature",
    "DecodeState",
    "DemoIndex",
    "EvalPair",
    "Example",
    "FlatCall",
    "HashedBowEmbedder",
    "Nested",
    "ParseError",
    "PrecomputedEmbedder",
    "StringLit",
    "ViolationRates",
    "ViolationReport",
    "Vocab",
    "advance",
    "allowed_tokens",
    "build_index",
    "build_prompt",
    "check",
    "check_call",
    "derive_from_corpus",
    "evaluate",
    "exact_match",
    "flatten",
    "intent_f1",
    "load_spec",
    "mock_decode",
    "new_session",
    "overhead_report",
    "parse",
    "parse_top",
    "retrieve",
    "save_spec",
    "serialize",
    "slot_f1",
    "spis_sample",
    "to_api_call",
    "violation_rates",
]

__version__ = "0.1.0"
