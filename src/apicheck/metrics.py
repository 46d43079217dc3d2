"""Exact match and micro-averaged intent/slot F1 for gold/predicted call pairs.

Intents are the multiset of flattened function names. Slots are the multiset
of (argument name, value token) pairs, where a nested-call value contributes
the child function name as its value token. Unparseable predictions count as
zero true positives and |gold| false negatives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .expr import ApiCall, Grounded, ParseError, flatten, parse


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


def intent_multiset(call: ApiCall) -> Counter:
    return Counter(flat.function for flat in flatten(call))


def slot_multiset(call: ApiCall) -> Counter:
    flats = flatten(call)
    slots: Counter = Counter()
    for flat in flats:
        for name, value in flat.args:
            if isinstance(value, Grounded):
                slots[(name, value.text)] += 1
            else:
                slots[(name, flats[value.child_index].function)] += 1
    return slots


def _try_parse(text: str) -> ApiCall | None:
    try:
        return parse(text)
    except ParseError:
        return None


def _micro_f1(
    calls: list[tuple[ApiCall, ApiCall | None]], multiset: Callable[[ApiCall], Counter]
) -> float:
    tp = fp = fn = 0
    for gold_call, pred_call in calls:
        gold = multiset(gold_call)
        if pred_call is None:
            fn += sum(gold.values())
            continue
        pred = multiset(pred_call)
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
    em = sum(pred == gold for gold, pred in calls) / len(calls) if calls else 0.0
    return MetricsReport(
        em, _micro_f1(calls, intent_multiset), _micro_f1(calls, slot_multiset), len(calls)
    )


def evaluate(pairs: list[EvalPair]) -> MetricsReport:
    """Parse each gold and each prediction once and score them; a bad gold raises ParseError."""
    return evaluate_calls([(parse(p.gold), _try_parse(p.predicted)) for p in pairs])


def exact_match(pairs: list[EvalPair]) -> float:
    """Fraction of pairs whose prediction canonicalizes to the gold call."""
    return evaluate(pairs).exact_match


def intent_f1(pairs: list[EvalPair]) -> float:
    return evaluate(pairs).intent_f1


def slot_f1(pairs: list[EvalPair]) -> float:
    return evaluate(pairs).slot_f1
