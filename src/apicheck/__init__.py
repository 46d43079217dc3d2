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
from .expr import ApiCall, ParseError, parse, serialize
from .metrics import evaluate
from .retrieval import (
    DemoIndex,
    HashedBowEmbedder,
    PrecomputedEmbedder,
    build_index,
    build_prompt,
    retrieve,
)
from .spec import ApiSpec, derive_from_corpus, load_spec, save_spec
from .topconvert import Example, spis_sample, top_to_call

__all__ = [
    "ApiCall",
    "ApiSpec",
    "ConstraintSignature",
    "DecodeState",
    "DemoIndex",
    "Example",
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
    "load_spec",
    "mock_decode",
    "new_session",
    "overhead_report",
    "parse",
    "retrieve",
    "save_spec",
    "serialize",
    "spis_sample",
    "top_to_call",
    "violation_rates",
]

__version__ = "0.1.0"
