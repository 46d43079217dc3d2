import pytest
from hypothesis import given
import hypothesis.strategies as st

from apicheck.constraints import (
    ConstraintSignature,
    check,
    check_call,
    format_report_line,
    format_summary,
    violation_rates,
)
from apicheck.decode import Vocab, new_session
from apicheck.expr import parse, serialize
from apicheck.metrics import evaluate
from apicheck.spec import ApiSpec, derive_from_corpus
from conftest import api_calls
from genutil import GET_ALARMS_SPEC


def test_worked_example_signature():
    report = check('SHOW_ALARMS ( DATE_TIME = "tomorrow" )', GET_ALARMS_SPEC)
    assert report.signature == ConstraintSignature(1, 0, 1, 0)
    assert report.offending_functions == ("SHOW_ALARMS",)
    assert report.offending_arguments == ()
    assert report.offending_pairs == (("SHOW_ALARMS", "DATE_TIME"),)


def test_self_consistency():
    fig1 = parse(
        'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) '
        ', PATH = "1st ave" )'
    )
    spec = derive_from_corpus([fig1])
    assert check(serialize(fig1), spec).signature == ConstraintSignature(1, 1, 1, 1)


def test_unparseable_text():
    report = check("GET_ALARMS ( (", GET_ALARMS_SPEC)
    assert report.signature == ConstraintSignature(0, 0, 0, 0)
    assert report.parse_error is not None
    assert report.offending_functions == ()


def test_bad_argument_name():
    report = check('GET_ALARMS ( WRONG = "x" )', GET_ALARMS_SPEC)
    assert report.signature == ConstraintSignature(1, 1, 0, 0)
    assert report.offending_arguments == ("WRONG",)
    assert report.offending_pairs == (("GET_ALARMS", "WRONG"),)


def test_bad_association_only():
    spec = ApiSpec(
        frozenset({"F", "G"}),
        frozenset({"A", "B"}),
        {"F": frozenset({"A"}), "G": frozenset({"B"})},
    )
    report = check('F ( B = "x" )', spec)
    assert report.signature == ConstraintSignature(1, 1, 1, 0)
    assert report.offending_pairs == (("F", "B"),)


def test_violation_rates_all_clean():
    reports = [check("GET_ALARMS ( )", GET_ALARMS_SPEC)] * 4
    assert tuple(violation_rates(reports)) == (0.0, 0.0, 0.0, 0.0)


def test_violation_rates_counting():
    reports = [check("GET_ALARMS ( )", GET_ALARMS_SPEC)] * 3
    reports.append(check('SHOW_ALARMS ( DATE_TIME = "x" )', GET_ALARMS_SPEC))
    rates = violation_rates(reports)
    assert tuple(rates) == (0.0, 0.25, 0.0, 0.25)


def test_records_are_tuples_and_a_state_belongs_to_its_session():
    spec = ApiSpec(frozenset({"F"}))
    report = check("G ( )", spec)
    assert report.signature == (1, 0, 1, 1)
    assert violation_rates([report]) == (0.0, 1.0, 0.0, 0.0)
    exact_match, intent_f1, slot_f1, n = evaluate([(parse("F ( )"), parse("F ( )"))])
    assert (exact_match, intent_f1, slot_f1, n) == (1.0, 1.0, 1.0, 1)
    vocab = Vocab.from_texts(["F", " ", "(", ")"])
    assert new_session(spec, vocab) != new_session(spec, vocab)


def test_violation_rates_empty_errors():
    with pytest.raises(ValueError):
        violation_rates([])


def test_rates_equal_one_minus_mean_bit():
    texts = [
        "GET_ALARMS ( )",
        'SHOW_ALARMS ( DATE_TIME = "x" )',
        'GET_ALARMS ( WRONG = "x" )',
        "oops",
        'GET_ALARMS ( DATE_TIME = "x" )',
    ] * 2
    reports = [check(t, GET_ALARMS_SPEC) for t in texts]
    rates = violation_rates(reports)
    for rate, bit in zip(
        tuple(rates),
        zip(*(r.signature.as_tuple() for r in reports)),
    ):
        assert rate == pytest.approx(1 - sum(bit) / len(bit))


def test_report_rendering():
    report = check('SHOW_ALARMS ( DATE_TIME = "x" )', GET_ALARMS_SPEC)
    line = format_report_line(report)
    assert line.startswith("1 0 1 0 ")
    assert "functions:SHOW_ALARMS" in line
    summary = format_summary(violation_rates([report] * 4))
    assert "C_f violation rate: 100.00%" in summary
    assert "C_s violation rate: 0.00%" in summary


@given(st.lists(api_calls, min_size=1, max_size=5))
def test_corpus_members_are_clean(calls):
    spec = derive_from_corpus(calls)
    for call in calls:
        assert check(serialize(call), spec).signature.as_tuple() == (1, 1, 1, 1)


@given(api_calls, st.lists(api_calls, max_size=4), st.lists(api_calls, max_size=3))
def test_signature_monotone_in_spec(call, base, extra):
    small = derive_from_corpus(base)
    big = derive_from_corpus(base + extra)
    sig_small = check_call(call, small).signature.as_tuple()
    sig_big = check_call(call, big).signature.as_tuple()
    for lo, hi in zip(sig_small, sig_big):
        assert hi >= lo


def test_removing_offender_raises_bits():
    spec = GET_ALARMS_SPEC
    bad = 'GET_ALARMS ( DATE_TIME = "x" , WRONG = "y" )'
    fixed = 'GET_ALARMS ( DATE_TIME = "x" )'
    sig_bad = check(bad, spec).signature.as_tuple()
    sig_fixed = check(fixed, spec).signature.as_tuple()
    for lo, hi in zip(sig_bad, sig_fixed):
        assert hi >= lo
