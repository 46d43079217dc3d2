from collections import Counter

import pytest
from hypothesis import given
import hypothesis.strategies as st

from apicheck.metrics import evaluate, intents_and_slots
from apicheck.expr import parse, serialize
from conftest import api_calls
from genutil import f1, parse_pairs


def score(pairs):
    return evaluate(parse_pairs(pairs))


def test_identical_pair():
    report = score([('F ( A = "x" )', 'F ( A = "x" )')])
    assert (report.exact_match, report.intent_f1, report.slot_f1) == (1.0, 1.0, 1.0)


def test_whitespace_only_difference_matches():
    assert score([('F ( A = "x" )', 'F(A="x")')]).exact_match == 1.0


def test_unparseable_prediction():
    report = score([('F ( A = "x" )', "broken (")])
    assert report.exact_match == 0.0
    # tp=0 fp=0 fn=1 for both intents and slots
    assert report.intent_f1 == pytest.approx(f1(0, 0, 1))
    assert report.slot_f1 == pytest.approx(f1(0, 0, 1))


def test_right_intent_zero_slots():
    report = score([('F ( A = "x" , B = "y" )', "F ( )")])
    assert report.intent_f1 == 1.0
    # slot precision denominator empty with non-empty gold: treated as 0
    assert report.slot_f1 == pytest.approx(f1(0, 0, 2)) == 0.0


def test_swapped_slot_name_batch():
    report = score([
        ('F ( A = "x" , B = "y" )', 'F ( A = "x" , C = "y" )'),
        ('G ( A = "z" )', 'G ( A = "z" )'),
    ])
    # hand count: pair 1 slots tp=1 fp=1 fn=1; pair 2 tp=1
    assert report.slot_f1 == pytest.approx(f1(2, 1, 1))
    assert report.intent_f1 == 1.0
    assert report.exact_match == 0.5


def test_both_empty_slots_is_perfect():
    assert score([("F ( )", "F ( )")]).slot_f1 == 1.0


def test_nested_value_contributes_child_function_name():
    gold = 'F ( A = G ( B = "x" ) )'
    slots = Counter(intents_and_slots(parse(gold))[1])
    assert slots == {("A", "G"): 1, ("B", "x"): 1}
    report = score([(gold, 'F ( A = H ( B = "x" ) )')])
    # intents: gold {F,G} pred {F,H} -> tp=1 fp=1 fn=1
    assert report.intent_f1 == pytest.approx(f1(1, 1, 1))
    # slots: (A,G) vs (A,H) mismatch, (B,x) matches
    assert report.slot_f1 == pytest.approx(f1(1, 1, 1))


def test_duplicate_intents_are_multiset_counted():
    gold = 'F ( A = F ( ) )'
    assert Counter(intents_and_slots(parse(gold))[0]) == {"F": 2}
    assert score([(gold, "F ( )")]).intent_f1 == pytest.approx(f1(1, 0, 1))


def test_evaluate_report_fields():
    pairs = [("F ( )", "F ( )"), ("F ( )", "broken")]
    report = score(pairs)
    assert report.n == 2
    assert report.exact_match == 0.5
    assert 0.0 <= report.intent_f1 <= 1.0
    assert 0.0 <= report.slot_f1 <= 1.0


def test_empty_pair_list_raises():
    with pytest.raises(ValueError, match="requires at least one pair"):
        evaluate([])


@given(st.lists(api_calls, min_size=1, max_size=5), st.randoms())
def test_permutation_invariance(calls, rnd):
    pairs = [(serialize(c), serialize(c)) for c in calls]
    # corrupt half the predictions deterministically
    pairs = [
        (gold, "broken (" if i % 2 else predicted)
        for i, (gold, predicted) in enumerate(pairs)
    ]
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    report, shuffled_report = score(pairs), score(shuffled)
    assert shuffled_report.exact_match == report.exact_match
    assert shuffled_report.intent_f1 == pytest.approx(report.intent_f1)
    assert shuffled_report.slot_f1 == pytest.approx(report.slot_f1)


@given(st.lists(api_calls, min_size=1, max_size=5))
def test_exact_match_one_implies_perfect_f1(calls):
    report = score([(serialize(c), serialize(c)) for c in calls])
    assert (report.exact_match, report.intent_f1, report.slot_f1) == (1.0, 1.0, 1.0)
