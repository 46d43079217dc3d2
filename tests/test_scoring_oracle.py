"""The tree-walking scorers against the flatten-based scorers they replaced.

``check_call_oracle`` and ``evaluate_oracle`` (with ``intent_multiset``,
``slot_multiset`` and ``_micro_f1_oracle``) are the earlier ``constraints`` and
``metrics`` code kept verbatim: they read names from ``expr.flatten`` and count
multisets with ``Counter``.
"""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from apicheck.constraints import ConstraintSignature, ViolationReport, check_call
from apicheck.expr import ApiCall, FlatCall, flatten
from apicheck.metrics import MetricsReport, evaluate
from apicheck.spec import ApiSpec


def check_call_oracle(call: ApiCall, spec: ApiSpec) -> ViolationReport:
    """Check an already-parsed call (structural bit is 1 by construction)."""
    bad_fns: set[str] = set()
    bad_args: set[str] = set()
    bad_pairs: set[tuple[str, str]] = set()
    for flat in flatten(call):
        if flat.function not in spec.functions:
            bad_fns.add(flat.function)
        for name, _value in flat.args:
            if name not in spec.arguments:
                bad_args.add(name)
            if name not in spec.args_for(flat.function):
                bad_pairs.add((flat.function, name))
    sig = ConstraintSignature(
        1,
        int(not bad_fns),
        int(not bad_args),
        int(not bad_pairs),
    )
    return ViolationReport(
        sig,
        tuple(sorted(bad_fns)),
        tuple(sorted(bad_args)),
        tuple(sorted(bad_pairs)),
    )


def intent_multiset(flats: list[FlatCall]) -> Counter:
    return Counter(flat.function for flat in flats)


def slot_multiset(flats: list[FlatCall]) -> Counter:
    return Counter(
        (name, value if isinstance(value, str) else flats[value].function)
        for flat in flats
        for name, value in flat.args
    )


def _micro_f1_oracle(multisets: list[tuple[Counter, Counter]]) -> float:
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


def evaluate_oracle(calls: list[tuple[ApiCall, ApiCall | None]]) -> MetricsReport:
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
        _micro_f1_oracle([(intent_multiset(g), intent_multiset(p)) for g, p in flats]),
        _micro_f1_oracle([(slot_multiset(g), slot_multiset(p)) for g, p in flats]),
        len(calls),
    )


# Small name pools, so that calls repeat function and argument names, and a
# drawn spec leaves some of each pool unknown.
FUNCTIONS = ["F", "G", "H", "K"]
ARGUMENTS = ["A", "B", "C", "D"]


def _subsets(items):
    return st.frozensets(st.sampled_from(sorted(items))) if items else st.just(frozenset())


@st.composite
def specs(draw):
    """A spec over part of each pool; some of its functions have no association
    key, and some have an empty one."""
    functions = draw(_subsets(FUNCTIONS))
    arguments = draw(_subsets(ARGUMENTS))
    keyed = draw(_subsets(functions))
    return ApiSpec(functions, arguments, {f: draw(_subsets(arguments)) for f in sorted(keyed)})


def _call(function, args):
    return ApiCall(function, tuple(args))


def _calls(values):
    return st.builds(
        _call,
        st.sampled_from(FUNCTIONS),
        st.lists(st.tuples(st.sampled_from(ARGUMENTS), values), max_size=3),
    )


calls = _calls(st.recursive(st.sampled_from(["x", "y", ""]), _calls, max_leaves=8))


@st.composite
def scored_pairs(draw):
    """A (gold, prediction) pair; the prediction is None (it did not parse),
    the gold itself, or another call."""
    gold = draw(calls)
    return gold, draw(st.one_of(st.none(), st.just(gold), calls))


G = ApiCall("G", (("B", "x"),))
F_NESTED = ApiCall("F", (("A", G), ("A", "y"), ("C", ApiCall("F", ()))))


@settings(max_examples=300)
@given(specs(), st.lists(scored_pairs(), min_size=1, max_size=5))
@example(  # G has no association; K, C and D are unknown; F repeats
    ApiSpec({"F", "G"}, {"A", "B"}, {"F": {"A"}}),
    [(F_NESTED, None), (F_NESTED, ApiCall("F", (("A", ApiCall("K", (("D", ""),))),))),
     (G, G)],
)
@example(ApiSpec(), [(ApiCall("F", ()), None)])
@example(ApiSpec(), [(ApiCall("F", ()), ApiCall("G", (("A", "x"),)))])  # no gold slot
def test_scorers_match_flatten_oracles(spec, pairs):
    for gold, pred in pairs:
        for call in (gold, pred):
            if call is not None:
                assert check_call(call, spec) == check_call_oracle(call, spec)
    assert evaluate(pairs) == evaluate_oracle(pairs)
