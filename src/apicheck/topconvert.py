"""TOP bracketed-parse handling: convert to API calls, SPIS sampling, IO.

TOP format: ``[IN:LABEL ... ]`` / ``[SL:LABEL ... ]`` spans over whitespace
separated utterance tokens. ``top_to_call`` converts a TOP string to an API
call in one left-to-right pass, with no intermediate tree. Intent labels
become function names, slot labels become argument names. A slot holding a
nested intent becomes a nested call; a slot holding tokens becomes a string
value of the tokens joined by single spaces (no stop-word trimming). Carrier
tokens directly under an intent are dropped. Every malformed string raises
``TopFormatError`` with the character offset where it was found.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .expr import ApiCall, ParseError, calls_in, is_identifier, parse, serialize


class TopFormatError(ValueError):
    """Malformed TOP bracket string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# One match per lexeme after optional whitespace: an opener with its label,
# any other "[", a "]", or a token.
_TOP_LEXEME = re.compile(r"\s*(?:(\[(?:IN|SL):)([^\s\[\]]*)|(\[)|(\])|([^\s\[\]]+))")


def top_to_call(text: str) -> ApiCall:
    """Convert a bracketed TOP string with one intent root to an API call."""
    roots: list[ApiCall] = []
    # Open spans as (is_intent, label, items): an intent's items are its
    # (slot, value) pairs, a slot's are its tokens and child calls.
    stack: list[tuple[bool, str, list]] = []
    for m in _TOP_LEXEME.finditer(text):
        opener, label, bad, close, token = m.groups()
        if opener:
            pos = m.start(1)
            if not is_identifier(label):
                raise TopFormatError(f"bad label {label!r}", m.start(2))
            in_intent = bool(stack) and stack[-1][0]
            if opener == "[IN:":
                if in_intent:
                    raise TopFormatError("intent nested directly under intent", pos)
            elif not in_intent:
                raise TopFormatError("slot must be nested under an intent", pos)
            stack.append((opener == "[IN:", label, []))
        elif bad:
            raise TopFormatError("bad bracket prefix (expected [IN: or [SL:)", m.start(3))
        elif close:
            if not stack:
                raise TopFormatError("unbalanced ']'", m.start(4))
            is_intent, label, items = stack.pop()
            if is_intent:
                (stack[-1][2] if stack else roots).append(ApiCall(label, tuple(items)))
                continue
            calls = [item for item in items if isinstance(item, ApiCall)]
            if len(calls) > 1:
                raise TopFormatError("slot with multiple intent children", m.start(4))
            if calls and len(items) > 1:
                raise TopFormatError(f"slot {label!r} mixes intent and token children", m.start(4))
            stack[-1][2].append((label, calls[0] if calls else " ".join(items)))
        elif not stack:
            raise TopFormatError("token outside brackets", m.start(5))
        elif not stack[-1][0]:
            stack[-1][2].append(token)  # intents drop their carrier tokens
    if stack:
        raise TopFormatError("unbalanced '['", len(text))
    if len(roots) != 1:
        raise TopFormatError(f"expected exactly one root span, got {len(roots)}", 0)
    return roots[0]


@dataclass(frozen=True)
class Example:
    id: str
    domain: str
    utterance: str
    api_call: str | None = None
    top_parse: str | None = None


class ExampleFormatError(ValueError):
    """Malformed line-delimited JSON record file."""


def _example_labels(example: Example) -> set[str]:
    if example.api_call is None:
        raise ExampleFormatError(f"example {example.id!r} has no api_call")
    calls = calls_in(parse(example.api_call))
    return {c.function for c in calls} | {name for c in calls for name, _ in c.args}


def spis_sample(examples: list[Example], n: int, seed: int) -> list[Example]:
    """Greedy samples-per-intent-and-slot subset over a seeded permutation.

    Keeps an example iff it contains any function or argument label whose
    kept-count is still below n. Every label ends up covered at least
    min(n, #examples containing it) times. Output preserves pool order.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if not examples:
        raise ValueError("examples must be non-empty")
    labels = [_example_labels(e) for e in examples]
    order = list(range(len(examples)))
    random.Random(seed).shuffle(order)
    counts: dict[str, int] = {}
    kept: set[int] = set()
    for i in order:
        if any(counts.get(label, 0) < n for label in labels[i]):
            kept.add(i)
            for label in labels[i]:
                counts[label] = counts.get(label, 0) + 1
    return [examples[i] for i in range(len(examples)) if i in kept]


def iter_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` for each non-blank line of a JSON-object-per-line file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ExampleFormatError(f"{path}:{lineno}: invalid JSON: {e.msg}") from e
            if not isinstance(rec, dict):
                raise ExampleFormatError(f"{path}:{lineno}: record must be an object")
            yield lineno, rec


def load_examples(path: str | Path, require_api_call: bool = False) -> list[Example]:
    """Read line-delimited example records; validates api_call parses."""
    out: list[Example] = []
    for lineno, rec in iter_records(path):
        for key in ("id", "domain", "utterance"):
            if not isinstance(rec.get(key), str):
                raise ExampleFormatError(f"{path}:{lineno}: missing string field {key!r}")
        api_call = rec.get("api_call")
        top_parse = rec.get("top_parse")
        for key, value in (("api_call", api_call), ("top_parse", top_parse)):
            if value is not None and not isinstance(value, str):
                raise ExampleFormatError(f"{path}:{lineno}: field {key!r} must be a string")
        if api_call is None and top_parse is None:
            raise ExampleFormatError(f"{path}:{lineno}: record needs api_call or top_parse")
        if require_api_call and api_call is None:
            raise ExampleFormatError(f"{path}:{lineno}: record lacks api_call")
        if api_call is not None:
            try:
                parse(api_call)
            except ParseError as e:
                raise ExampleFormatError(f"{path}:{lineno}: api_call does not parse ({e})") from e
        out.append(Example(rec["id"], rec["domain"], rec["utterance"], api_call, top_parse))
    return out


def dump_example(e: Example) -> str:
    """One JSONL record without the newline; absent api_call/top_parse are left out."""
    rec = {"id": e.id, "domain": e.domain, "utterance": e.utterance}
    if e.api_call is not None:
        rec["api_call"] = e.api_call
    if e.top_parse is not None:
        rec["top_parse"] = e.top_parse
    return json.dumps(rec, sort_keys=True)


def write_examples(examples: Iterable[Example], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in examples:
            fh.write(dump_example(e) + "\n")


def convert_example(example: Example) -> Example:
    """Fill in api_call from the record's top_parse."""
    if example.top_parse is None:
        raise ExampleFormatError(f"example {example.id!r} has no top_parse")
    call = top_to_call(example.top_parse)
    return Example(
        example.id, example.domain, example.utterance, serialize(call), example.top_parse
    )
