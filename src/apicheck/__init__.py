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
from .expr import ApiCall, FlatCall, ParseError, flatten, parse, serialize
from .metrics import EvalPair, evaluate
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
    "ConstraintSignature",
    "DecodeState",
    "DemoIndex",
    "EvalPair",
    "Example",
    "FlatCall",
    "HashedBowEmbedder",
    "ParseError",
    "PrecomputedEmbedder",
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
    "flatten",
    "load_spec",
    "mock_decode",
    "new_session",
    "overhead_report",
    "parse",
    "parse_top",
    "retrieve",
    "save_spec",
    "serialize",
    "spis_sample",
    "to_api_call",
    "violation_rates",
]

__version__ = "0.1.0"
