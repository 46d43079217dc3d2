import gc
import string

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from apicheck.expr import (
    ApiCall,
    FlatCall,
    ParseError,
    ParseErrorKind,
    flatten,
    is_identifier,
    non_identifiers,
    parse,
    serialize,
)
from conftest import api_calls

FIG1 = (
    'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) '
    ', PATH = "1st ave" )'
)


def test_parse_flat_call():
    call = parse('SHOW_ALARMS ( DATE_TIME = "tomorrow" )')
    assert call == ApiCall("SHOW_ALARMS", (("DATE_TIME", "tomorrow"),))


def test_parse_empty_args():
    assert parse("F ( )") == ApiCall("F", ())


def test_parse_nested():
    call = parse(FIG1)
    assert call.function == "GET_DIRECTIONS"
    assert call.args[0] == (
        "DESTINATION", ApiCall("GET_LOCATION", (("CATEGORY_LOCATION", "auditorium"),))
    )
    assert call.args[1] == ("PATH", "1st ave")


def test_parse_whitespace_insensitive():
    assert parse('F(A="x")') == parse('F ( A = "x" )')
    assert parse('F (\n  A\t= "x" )') == parse('F ( A = "x" )')


def test_parse_truncated_input():
    text = "SHOW_ALARMS ( DATE_TIME ="
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.kind in (
        ParseErrorKind.UNEXPECTED_TOKEN,
        ParseErrorKind.UNBALANCED_PAREN,
    )
    assert err.value.offset == len(text)


@pytest.mark.parametrize(
    "text, kind",
    [
        ("", ParseErrorKind.EMPTY_INPUT),
        ("   ", ParseErrorKind.EMPTY_INPUT),
        ('f ( A = "x" )', ParseErrorKind.BAD_IDENTIFIER),
        ('F ( A = "x" ) trailing', ParseErrorKind.TRAILING_INPUT),
        ('F ( A = "x', ParseErrorKind.UNTERMINATED_STRING),
        ('F ( A = "x"', ParseErrorKind.UNBALANCED_PAREN),
        ("F ( A = ", ParseErrorKind.UNEXPECTED_TOKEN),
        ("F A", ParseErrorKind.UNEXPECTED_TOKEN),
        ('F ( A "x" )', ParseErrorKind.UNEXPECTED_TOKEN),
        ('F ( A = "\\n" )', ParseErrorKind.UNEXPECTED_TOKEN),
        ("GET_ALARMS ( (", ParseErrorKind.BAD_IDENTIFIER),
    ],
)
def test_parse_errors(text, kind):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.kind == kind
    assert 0 <= err.value.offset <= len(text)


_IDENT_START = set(string.ascii_uppercase + "_")
_IDENT_CHARS = _IDENT_START | set(string.digits)


@given(st.lists(st.text(alphabet="AZaz_09 -(\t\nÄßǅ", max_size=5), max_size=5))
@example([])
@example(["GET", "A_1", "_"])
@example(["GET", ""])
@example(["A\nB"])
@example(["get", "1A", "A-B", "TWO WORDS", "get"])
def test_identifier_rule_matches_reference(names):
    # The reference steps each character through the grammar's character sets.
    def reference(name):
        return name[:1] in _IDENT_START and _IDENT_CHARS.issuperset(name)

    assert [is_identifier(n) for n in names] == [reference(n) for n in names]
    assert non_identifiers(names) == sorted({n for n in names if not reference(n)})


def test_string_escapes_round_trip():
    call = parse('F ( A = "say \\"hi\\" \\\\ done" )')
    assert call.args[0] == ("A", 'say "hi" \\ done')
    text = serialize(call)
    assert '\\"hi\\"' in text
    assert parse(text) == call


def test_serialize_empty_call():
    assert serialize(ApiCall("F", ())) == "F ( )"


def test_serialize_canonical_fig1():
    assert serialize(parse(FIG1)) == FIG1


def test_flatten_single():
    call = ApiCall("F", (("A", "x"),))
    assert flatten(call) == [FlatOf(0, "F", (("A", "x"),))]


def FlatOf(index, function, args):
    return FlatCall(index, function, args)


def test_flatten_fig1():
    flats = flatten(parse(FIG1))
    assert flats == [
        FlatOf(0, "GET_DIRECTIONS", (("DESTINATION", 1), ("PATH", "1st ave"))),
        FlatOf(1, "GET_LOCATION", (("CATEGORY_LOCATION", "auditorium"),)),
    ]


def test_flatten_leaves_no_reference_cycles():
    # A recursive closure refers to itself through its cell, so every list it
    # built, FlatCalls included, would wait for the cyclic GC.
    call = parse('F ( A = G ( B = "x" ) )')
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(flatten(call)) == 2
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, FlatCall)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic


def test_flatten_three_level_chain():
    call = parse('F ( A = G ( B = H ( C = "x" ) ) )')
    flats = flatten(call)
    assert [f.function for f in flats] == ["F", "G", "H"]
    assert flats[0].args == (("A", 1),)
    assert flats[1].args == (("B", 2),)
    assert flats[2].args == (("C", "x"),)


def _count_functions(call: ApiCall) -> int:
    total = 1
    for _name, value in call.args:
        if not isinstance(value, str):
            total += _count_functions(value)
    return total


@given(api_calls)
def test_round_trip(call):
    assert parse(serialize(call)) == call


@given(api_calls)
def test_parse_deterministic(call):
    text = serialize(call)
    assert parse(text) == parse(text)


@given(api_calls)
def test_flatten_structure(call):
    flats = flatten(call)
    assert len(flats) == _count_functions(call)
    assert [f.index for f in flats] == list(range(len(flats)))
    referenced = []
    for flat in flats:
        for _name, value in flat.args:
            if not isinstance(value, str):
                assert value > flat.index
                referenced.append(value)
    # every non-root flat is referenced by exactly one child index
    assert sorted(referenced) == list(range(1, len(flats)))


def test_duplicate_argument_names_preserved():
    call = parse('F ( A = "x" , A = "y" )')
    assert call.args == (("A", "x"), ("A", "y"))
    assert flatten(call)[0].args == (("A", "x"), ("A", "y"))
