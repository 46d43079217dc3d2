import re
import string

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from apicheck.expr import (
    ApiCall,
    ParseError,
    ParseErrorKind,
    calls_in,
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


_ERROR_ROWS = [
    ("", ParseErrorKind.EMPTY_INPUT, 0),
    ("   ", ParseErrorKind.EMPTY_INPUT, 3),
    ('f ( A = "x" )', ParseErrorKind.BAD_IDENTIFIER, 0),
    ('F ( A = "x" ) trailing', ParseErrorKind.TRAILING_INPUT, 14),
    ('F ( A = "x', ParseErrorKind.UNTERMINATED_STRING, 10),
    ('F ( A = "x"', ParseErrorKind.UNBALANCED_PAREN, 11),
    ("F ( A = ", ParseErrorKind.UNEXPECTED_TOKEN, 8),
    ("F A", ParseErrorKind.UNEXPECTED_TOKEN, 2),
    ('F ( A "x" )', ParseErrorKind.UNEXPECTED_TOKEN, 6),
    ('F ( A = "\\n" )', ParseErrorKind.UNEXPECTED_TOKEN, 10),
        ("GET_ALARMS ( (", ParseErrorKind.BAD_IDENTIFIER, 13),
]


@pytest.mark.parametrize(
    "text, kind, offset", _ERROR_ROWS, ids=[f"{text}-{kind}" for text, kind, _ in _ERROR_ROWS]
)
def test_parse_errors(text, kind, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.kind == kind
    assert err.value.offset == offset


# The character-at-a-time parser that ``parse`` replaced, kept verbatim as the
# reference for the differential test below.
_WHITESPACE = " \t\n\r"
_IDENT = re.compile(r"[A-Z_][A-Z0-9_]*")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def _peek(self) -> str | None:
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _fail(self, kind: ParseErrorKind, detail: str = "") -> None:
        raise ParseError(kind, self.pos, detail)

    def parse(self) -> ApiCall:
        self._skip_ws()
        if self._peek() is None:
            self._fail(ParseErrorKind.EMPTY_INPUT)
        call = self._parse_call()
        self._skip_ws()
        if self._peek() is not None:
            self._fail(ParseErrorKind.TRAILING_INPUT)
        return call

    def _parse_ident(self) -> str:
        m = _IDENT.match(self.text, self.pos)
        if m is None:
            self._fail(ParseErrorKind.BAD_IDENTIFIER, "expected identifier")
        self.pos = m.end()
        return m.group()

    def _parse_call(self) -> ApiCall:
        name = self._parse_ident()
        self._skip_ws()
        if self._peek() != "(":
            self._fail(ParseErrorKind.UNEXPECTED_TOKEN, "expected '('")
        self.pos += 1
        self._skip_ws()
        args: list[tuple[str, str | ApiCall]] = []
        if self._peek() == ")":
            self.pos += 1
            return ApiCall(name, ())
        while True:
            if self._peek() is None:
                self._fail(ParseErrorKind.UNBALANCED_PAREN, "unclosed call")
            args.append(self._parse_arg())
            self._skip_ws()
            c = self._peek()
            if c == ",":
                self.pos += 1
                self._skip_ws()
            elif c == ")":
                self.pos += 1
                return ApiCall(name, tuple(args))
            elif c is None:
                self._fail(ParseErrorKind.UNBALANCED_PAREN, "unclosed call")
            else:
                self._fail(ParseErrorKind.UNEXPECTED_TOKEN, "expected ',' or ')'")

    def _parse_arg(self) -> tuple[str, str | ApiCall]:
        name = self._parse_ident()
        self._skip_ws()
        if self._peek() != "=":
            self._fail(ParseErrorKind.UNEXPECTED_TOKEN, "expected '='")
        self.pos += 1
        self._skip_ws()
        c = self._peek()
        if c == '"':
            return name, self._parse_string()
        if _IDENT.match(self.text, self.pos):
            return name, self._parse_call()
        self._fail(ParseErrorKind.UNEXPECTED_TOKEN, "expected string or nested call")
        raise AssertionError("unreachable")

    def _parse_string(self) -> str:
        self.pos += 1  # opening quote
        out: list[str] = []
        while True:
            c = self._peek()
            if c is None:
                self._fail(ParseErrorKind.UNTERMINATED_STRING)
            if c == '"':
                self.pos += 1
                return "".join(out)
            if c == "\\":
                self.pos += 1
                e = self._peek()
                if e not in ('"', "\\"):
                    self._fail(ParseErrorKind.UNEXPECTED_TOKEN, "bad escape")
                out.append(e)
                self.pos += 1
            else:
                out.append(c)
                self.pos += 1


def parse_oracle(text: str) -> ApiCall:
    return _Parser(text).parse()


def _outcome(parser, text):
    try:
        return parser(text)
    except ParseError as e:
        return e.kind, e.offset, str(e)


_SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n "]
_EDITS = ['"', "\\", '\\"', "\\\\", "(", ")", ",", "=", " ", "\t", "A", "_", "9", "a", "\\n"]


@st.composite
def mutated_calls(draw):
    """A serialized call with its tokens re-spaced, then up to three truncations,
    single-character deletions, replacements or insertions."""
    tokens = serialize(draw(api_calls)).split(" ")
    text = "".join(draw(st.sampled_from(_SEPARATORS)) + token for token in tokens)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["truncate", "delete", "replace", "insert"]))
        piece = draw(st.sampled_from(_EDITS))
        if edit == "truncate":
            text = text[:i]
        elif edit == "delete":
            text = text[:i] + text[i + 1 :]
        elif edit == "replace":
            text = text[:i] + piece + text[i + 1 :]
        else:
            text = text[:i] + piece + text[i:]
    return text


@settings(max_examples=100)
@given(mutated_calls())
@example('F(A="x",B=G(C="a \\"b\\" \\\\"),D="")')
@example('F ( A = "x" B')
@example('F ( A = "x\\')
@example('F ( A = "x\\q" )')
@example("F ( A = G ( ) , )")
@example("F ( A = 1 )")
def test_parse_matches_oracle(text):
    # Equal calls, or errors of equal kind, offset and message.
    assert _outcome(parse, text) == _outcome(parse_oracle, text)


def _deepest_chain(parser) -> int:
    """The deepest ``F ( A = F ( A = ... ) )`` chain ``parser`` parses under the
    interpreter's recursion limit, found by bisection."""
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parser("F ( A = " * mid + 'F ( A = "x" )' + " )" * mid)
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


def test_parse_recurses_no_deeper_than_oracle():
    assert _deepest_chain(parse) >= _deepest_chain(parse_oracle)


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


@given(api_calls)
def test_round_trip(call):
    assert parse(serialize(call)) == call


@given(api_calls)
def test_parse_deterministic(call):
    text = serialize(call)
    assert parse(text) == parse(text)


def test_duplicate_argument_names_preserved():
    call = parse('F ( A = "x" , A = "y" )')
    assert call.args == (("A", "x"), ("A", "y"))


def test_calls_in_is_breadth_first():
    # Siblings come before grandchildren, unlike the pre-order of ``apicheck flatten``.
    call = parse("F ( A = G ( C = H ( ) ) , B = K ( ) )")
    assert [c.function for c in calls_in(call)] == ["F", "G", "K", "H"]
