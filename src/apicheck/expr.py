"""API-call expression AST, parser, and canonical serializer.

Grammar:

    call   := IDENT '(' [arg (',' arg)*] ')'
    arg    := IDENT '=' (STRING | call)
    IDENT  := [A-Z_][A-Z0-9_]*
    STRING := double-quoted, escapes limited to \\" and \\\\

Whitespace between tokens is ignored on parse. The parser is a recursive
descent over offsets, one level per nested call: a name is one regex match
with the whitespace after it, and so is a whole argument whose value is a
string without escapes. The canonical serialized form uses single spaces
between all tokens, e.g. ``F ( A = "v" , B = G ( ) )``.

An argument is a ``(name, value)`` pair, and a value is a ``str`` or an
``ApiCall``.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Collection
from contextlib import contextmanager
from typing import NamedTuple

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


class ApiCall(NamedTuple):
    function: str
    args: tuple[tuple[str, str | ApiCall], ...] = ()


_SPACES = r"[ \t\n\r]*"
_WS = re.compile(_SPACES)
# A name and the whitespace after it, so skipping whitespace costs no extra match.
_NAME = re.compile(rf"({_IDENT.pattern}){_SPACES}")
# An argument's ``NAME =`` and, when its value is a string without escapes
# followed by ``,`` or ``)``, the rest of the argument with the whitespace after it.
_ARG = re.compile(
    rf'({_IDENT.pattern}){_SPACES}={_SPACES}(?:"([^"\\]*)"{_SPACES}([,)]){_SPACES})?'
)
_RUN = re.compile(r'[^"\\]*')


def _call(text: str, pos: int) -> tuple[ApiCall, int]:
    """The call at ``pos``, and the offset after its ``)`` and the whitespace after it."""
    m = _NAME.match(text, pos)
    if m is None:
        raise ParseError(ParseErrorKind.BAD_IDENTIFIER, pos, "expected identifier")
    pos = m.end()
    if not text.startswith("(", pos):
        raise ParseError(ParseErrorKind.UNEXPECTED_TOKEN, pos, "expected '('")
    pos = _WS.match(text, pos + 1).end()
    if text.startswith(")", pos):
        return ApiCall(m.group(1), ()), _WS.match(text, pos + 1).end()
    args: list[tuple[str, str | ApiCall]] = []
    while True:
        a = _ARG.match(text, pos)
        if a is None:
            if pos == len(text):
                raise ParseError(ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed call")
            n = _NAME.match(text, pos)
            if n is None:
                raise ParseError(ParseErrorKind.BAD_IDENTIFIER, pos, "expected identifier")
            raise ParseError(ParseErrorKind.UNEXPECTED_TOKEN, n.end(), "expected '='")
        name, value, close = a.groups()
        pos = a.end()
        if close is None:
            if text.startswith('"', pos):
                value, pos = _string(text, pos + 1)
            elif _IDENT.match(text, pos):
                value, pos = _call(text, pos)
            else:
                raise ParseError(
                    ParseErrorKind.UNEXPECTED_TOKEN, pos, "expected string or nested call"
                )
            close = text[pos : pos + 1]
            if not close:
                raise ParseError(ParseErrorKind.UNBALANCED_PAREN, pos, "unclosed call")
            if close not in ",)":
                raise ParseError(ParseErrorKind.UNEXPECTED_TOKEN, pos, "expected ',' or ')'")
            pos = _WS.match(text, pos + 1).end()
        args.append((name, value))
        if close == ")":
            return ApiCall(m.group(1), tuple(args)), pos


def _string(text: str, pos: int) -> tuple[str, int]:
    """The string whose content starts at ``pos``, and the offset after its
    closing quote and the whitespace after it."""
    parts = []
    while True:
        run = _RUN.match(text, pos)
        parts.append(run.group())
        pos = run.end()
        if text.startswith('"', pos):
            return "".join(parts), _WS.match(text, pos + 1).end()
        if pos == len(text):
            raise ParseError(ParseErrorKind.UNTERMINATED_STRING, pos)
        escaped = text[pos + 1 : pos + 2]  # pos holds a backslash
        if escaped not in ('"', "\\"):
            raise ParseError(ParseErrorKind.UNEXPECTED_TOKEN, pos + 1, "bad escape")
        parts.append(escaped)
        pos += 2


def parse(text: str) -> ApiCall:
    """Parse an API-call expression; raises ParseError on malformed input."""
    return _parse(text)


# ``parse`` looks this up at each call, so a test can count the parses made
# through every module's ``parse``.
def _parse(text: str) -> ApiCall:
    pos = _WS.match(text).end()
    if pos == len(text):
        raise ParseError(ParseErrorKind.EMPTY_INPUT, pos)
    call, pos = _call(text, pos)
    if pos < len(text):
        raise ParseError(ParseErrorKind.TRAILING_INPUT, pos)
    return call


def escape_string(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _tokens(call: ApiCall, out: list[str]) -> None:
    out.append(call.function)
    out.append("(")
    for i, (name, value) in enumerate(call.args):
        if i:
            out.append(",")
        out.append(name)
        out.append("=")
        if isinstance(value, str):
            out.append('"' + escape_string(value) + '"')
        else:
            _tokens(value, out)
    out.append(")")


def serialize(call: ApiCall) -> str:
    """Canonical single-space rendering; parse(serialize(c)) == c."""
    toks: list[str] = []
    _tokens(call, toks)
    return " ".join(toks)


def calls_in(call: ApiCall) -> list[ApiCall]:
    """``call`` and every call nested in it, breadth-first (so parents come
    first); the scorers walk this list."""
    out = [call]
    for c in out:
        for _, value in c.args:
            if not isinstance(value, str):
                out.append(value)
    return out


@contextmanager
def reading(path):
    """Re-raise a UnicodeDecodeError of the block as a ValueError that starts with ``path``."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: not UTF-8 ({e.reason})") from None
