"""TOP bracketed-parse handling: convert to API calls, SPIS sampling, IO.

TOP format: ``[IN:LABEL ... ]`` / ``[SL:LABEL ... ]`` spans over whitespace
separated utterance tokens. ``top_to_call`` lexes a TOP string with one
``findall`` and converts it to an API call in one pass, with no intermediate
tree. Intent labels become function names, slot labels become argument names.
A slot holding a nested intent becomes a nested call; a slot holding tokens
becomes a string value of the tokens joined by single spaces (no stop-word
trimming). Carrier tokens directly under an intent are dropped. Every malformed
string raises ``TopFormatError`` with the character offset where it was found.
An ``Example`` carries its parsed call, so each pool call is built once.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .expr import ApiCall, ParseError, calls_in, is_identifier, parse, reading, serialize


class TopFormatError(ValueError):
    """Malformed TOP bracket string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# A lexeme is an opener with its label, any other "[", a "]", or a token. One
# findall lists them: match objects cost about half the time of a pass.
_TOP_LEXEME = re.compile(r"\[(?:IN|SL):[^\s\[\]]*|\[|\]|[^\s\[\]]+")


def _lexeme_error(text: str, index: int, message: str, shift: int = 0) -> TopFormatError:
    """The error ``shift`` characters into lexeme ``index``, found by a re-scan."""
    return TopFormatError(message, list(_TOP_LEXEME.finditer(text))[index].start() + shift)


def top_to_call(text: str) -> ApiCall:
    """Convert a bracketed TOP string with one intent root to an API call."""
    roots: list[ApiCall] = []
    # Open spans as (is_intent, label, items): an intent's items are its
    # (slot, value) pairs, a slot's are its tokens and child calls.
    stack: list[tuple[bool, str, list]] = []
    for i, lexeme in enumerate(_TOP_LEXEME.findall(text)):
        if lexeme[0] == "[":
            if lexeme == "[":
                raise _lexeme_error(text, i, "bad bracket prefix (expected [IN: or [SL:)")
            label = lexeme[4:]
            if not is_identifier(label):
                raise _lexeme_error(text, i, f"bad label {label!r}", 4)
            is_intent = lexeme[1] == "I"
            if is_intent == (bool(stack) and stack[-1][0]):
                raise _lexeme_error(text, i, "intent nested directly under intent" if is_intent
                                    else "slot must be nested under an intent")
            stack.append((is_intent, sys.intern(label), []))
        elif lexeme == "]":
            if not stack:
                raise _lexeme_error(text, i, "unbalanced ']'")
            is_intent, label, items = stack.pop()
            if is_intent:
                (stack[-1][2] if stack else roots).append(ApiCall(label, tuple(items)))
                continue
            calls = [item for item in items if isinstance(item, ApiCall)]
            if len(calls) > 1:
                raise _lexeme_error(text, i, "slot with multiple intent children")
            if calls and len(items) > 1:
                raise _lexeme_error(text, i, f"slot {label!r} mixes intent and token children")
            stack[-1][2].append((label, calls[0] if calls else " ".join(items)))
        elif not stack:
            raise _lexeme_error(text, i, "token outside brackets")
        elif not stack[-1][0]:
            stack[-1][2].append(lexeme)  # intents drop their carrier tokens
    if stack:
        raise TopFormatError("unbalanced '['", len(text))
    if len(roots) != 1:
        raise TopFormatError(f"expected exactly one root span, got {len(roots)}", 0)
    return roots[0]


@dataclass(frozen=True, slots=True)
class Example:
    id: str
    domain: str
    utterance: str
    api_call: str | None = None
    top_parse: str | None = None
    # Always ``parse(api_call)``, left out of ==, hash, repr and the JSONL. It is
    # not an argument, so ``replace`` parses a new api_call again.
    call: ApiCall | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "call", None if self.api_call is None else parse(self.api_call))

    @classmethod
    def _parsed(cls, id, domain, utterance, api_call, top_parse, call) -> Example:
        """An ``Example`` whose ``call``, already ``parse(api_call)``, is not parsed again."""
        example, set_field = object.__new__(cls), object.__setattr__
        set_field(example, "id", id)
        set_field(example, "domain", domain)
        set_field(example, "utterance", utterance)
        set_field(example, "api_call", api_call)
        set_field(example, "top_parse", top_parse)
        set_field(example, "call", call)
        return example


class ExampleFormatError(ValueError):
    """Malformed example record, or line-delimited JSON record file."""


def _example_labels(example: Example) -> set[str]:
    if example.call is None:
        raise ExampleFormatError(f"example {example.id!r} has no api_call")
    calls = calls_in(example.call)
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
    with reading(path), open(path, encoding="utf-8-sig") as fh:
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
    """Read line-delimited example records; validates api_call parses and ids are unique."""
    out: list[Example] = []
    ids: set[str] = set()
    for lineno, rec in iter_records(path):
        for key in ("id", "domain", "utterance"):
            if not isinstance(rec.get(key), str):
                raise ExampleFormatError(f"{path}:{lineno}: missing string field {key!r}")
        if rec["id"] in ids:
            raise ExampleFormatError(f"{path}:{lineno}: duplicate id {rec['id']!r}")
        ids.add(rec["id"])
        api_call = rec.get("api_call")
        top_parse = rec.get("top_parse")
        for key, value in (("api_call", api_call), ("top_parse", top_parse)):
            if value is not None and not isinstance(value, str):
                raise ExampleFormatError(f"{path}:{lineno}: field {key!r} must be a string")
        if api_call is None and top_parse is None:
            raise ExampleFormatError(f"{path}:{lineno}: record needs api_call or top_parse")
        if require_api_call and api_call is None:
            raise ExampleFormatError(f"{path}:{lineno}: record lacks api_call")
        try:  # the constructor parses api_call
            out.append(Example(rec["id"], rec["domain"], rec["utterance"], api_call, top_parse))
        except ParseError as e:
            raise ExampleFormatError(f"{path}:{lineno}: api_call does not parse ({e})") from e
    return out


def dump_example(e: Example, with_top_parse: bool = True) -> str:
    """One JSONL record without the newline; absent api_call/top_parse are left
    out, and so is top_parse unless ``with_top_parse``."""
    rec = {"id": e.id, "domain": e.domain, "utterance": e.utterance,
           "api_call": e.api_call, "top_parse": e.top_parse if with_top_parse else None}
    return json.dumps({k: v for k, v in rec.items() if v is not None}, sort_keys=True)


def write_examples(examples: Iterable[Example], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in examples:
            fh.write(dump_example(e) + "\n")


def convert_example(example: Example) -> Example:
    """Fill in api_call from the record's top_parse. A malformed top_parse raises
    ``ExampleFormatError`` naming the example, caused by the ``TopFormatError``."""
    if example.top_parse is None:
        raise ExampleFormatError(f"example {example.id!r} has no top_parse")
    try:
        call = top_to_call(example.top_parse)
    except TopFormatError as e:
        raise ExampleFormatError(f"example {example.id!r}: {e}") from e
    return Example._parsed(
        example.id, example.domain, example.utterance, serialize(call), example.top_parse, call
    )
