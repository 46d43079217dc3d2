"""Exact match and micro-averaged intent/slot F1 for gold/predicted call pairs.

Intents are the multiset of flattened function names. Slots are the multiset
of (argument name, value token) pairs, where a nested-call value contributes
the child function name as its value token. Unparseable predictions count as
zero true positives and |gold| false negatives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .expr import ApiCall, FlatCall, ParseError, flatten, parse


@dataclass(frozen=True)
class EvalPair:
    gold: str
    predicted: str
    utterance: str = ""


@dataclass(frozen=True)
class MetricsReport:
    exact_match: float
    intent_f1: float
    slot_f1: float
    n: int


def intent_multiset(flats: list[FlatCall]) -> Counter:
    return Counter(flat.function for flat in flats)


def slot_multiset(flats: list[FlatCall]) -> Counter:
    return Counter(
        (name, value if isinstance(value, str) else flats[value].function)
        for flat in flats
        for name, value in flat.args
    )


def _try_parse(text: str) -> ApiCall | None:
    try:
        return parse(text)
    except ParseError:
        return None


def _micro_f1(multisets: list[tuple[Counter, Counter]]) -> float:
    tp = fp = fn = 0
    for gold, pred in multisets:
        overlap = sum((gold & pred).values())
        tp += overlap
        fp += sum(pred.values()) - overlap
        fn += sum(gold.values()) - overlap
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if tp + fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def evaluate_calls(calls: list[tuple[ApiCall, ApiCall | None]]) -> MetricsReport:
    """Metrics over already-parsed (gold, prediction) calls; None is an unparseable prediction.

    Exact match compares the calls themselves: ``parse(serialize(c)) == c``
    makes the canonical form injective, so two calls are equal exactly when
    their canonical strings are.
    """
    if not calls:
        raise ValueError("evaluation requires at least one pair")
    # An unparseable prediction scores as an empty call list.
    flats = [(flatten(gold), [] if pred is None else flatten(pred)) for gold, pred in calls]
    return MetricsReport(
        sum(pred == gold for gold, pred in calls) / len(calls),
        _micro_f1([(intent_multiset(g), intent_multiset(p)) for g, p in flats]),
        _micro_f1([(slot_multiset(g), slot_multiset(p)) for g, p in flats]),
        len(calls),
    )


def evaluate(pairs: list[EvalPair]) -> MetricsReport:
    """Parse each gold and each prediction once and score them.

    A bad gold raises ParseError, and an empty list raises ValueError.
    """
    return evaluate_calls([(parse(p.gold), _try_parse(p.predicted)) for p in pairs])
