"""Exact match and micro-averaged intent/slot F1 for gold/predicted call pairs.

Intents are the multiset of function names of a call and every call nested in
it (``expr.calls_in``). Slots are the multiset of (argument name, value token)
pairs, where a nested-call value contributes the child function name as its
value token. The scorer takes parsed calls; an unparseable prediction is passed
as None (``constraints.parse_and_check`` returns it so) and counts as zero true
positives and |gold| false negatives.
"""

from __future__ import annotations

from typing import NamedTuple

from .expr import ApiCall, calls_in


class MetricsReport(NamedTuple):
    exact_match: float
    intent_f1: float
    slot_f1: float
    n: int


def intents_and_slots(call: ApiCall | None) -> tuple[list[str], list[tuple[str, str]]]:
    """The intent and slot multisets of ``call`` as lists in no set order; None,
    an unparseable prediction, has neither."""
    intents, slots = [], []
    for c in [] if call is None else calls_in(call):
        intents.append(c.function)
        for name, value in c.args:
            slots.append((name, value if isinstance(value, str) else value.function))
    return intents, slots


def _micro_f1(pairs: list[tuple[list, list]]) -> float:
    tp = fp = fn = 0
    for gold, pred in pairs:
        left: dict = {}
        for item in gold:
            left[item] = left.get(item, 0) + 1
        overlap = 0
        for item in pred:
            n = left.get(item)
            if n:
                left[item] = n - 1
                overlap += 1
        tp += overlap
        fp += len(pred) - overlap
        fn += len(gold) - overlap
    # With no true positive, F1 is 1 when gold and predictions are both empty, else 0.
    if tp == 0:
        return float(fp == fn == 0)
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def evaluate(calls: list[tuple[ApiCall, ApiCall | None]]) -> MetricsReport:
    """Metrics over already-parsed (gold, prediction) calls; None is an unparseable prediction.

    Exact match compares the calls themselves: ``parse(serialize(c)) == c``
    makes the canonical form injective, so two calls are equal exactly when
    their canonical strings are.
    """
    if not calls:
        raise ValueError("evaluation requires at least one pair")
    labels = [(intents_and_slots(gold), intents_and_slots(pred)) for gold, pred in calls]
    return MetricsReport(
        sum(pred == gold for gold, pred in calls) / len(calls),
        _micro_f1([(g[0], p[0]) for g, p in labels]),
        _micro_f1([(g[1], p[1]) for g, p in labels]),
        len(calls),
    )
