"""TOP bracketed-parse handling: convert to API calls, SPIS sampling, IO.

TOP format: ``[IN:LABEL ... ]`` / ``[SL:LABEL ... ]`` spans over whitespace
separated utterance tokens. ``top_to_call`` splits a TOP string at its brackets
with one ``re.split`` and converts it to an API call in one pass, with no tree.
Intent labels become function names, slot labels become argument names. A slot
holding a nested intent becomes a nested call; a slot holding tokens becomes a
string value of the tokens joined by single spaces (no stop-word trimming).
Carrier tokens directly under an intent are dropped. Every malformed string
raises ``TopFormatError`` with the character offset where it was found. An
``Example`` carries its parsed call, so each pool call is built once.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .expr import _IDENT, ApiCall, ParseError, calls_in, is_identifier, parse, reading, serialize


class TopFormatError(ValueError):
    """Malformed TOP bracket string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# A bracket: an opener with its label, any other "[", or a "]".
_BRACKETS = re.compile(r"(\[(?:IN|SL):[^\s\[\]]*|\[|\])")
# An opener whose label is not one whole identifier.
_BAD_LABEL = re.compile(rf"\[(?:IN|SL):(?!{_IDENT.pattern}(?![^\s\[\]]))")


def _error(pieces: list[str], i: int, message: str, shift: int = 0) -> TopFormatError:
    """The error ``shift`` characters into piece ``i``."""
    return TopFormatError(message, sum(map(len, pieces[:i])) + shift)


def top_to_call(text: str) -> ApiCall:
    """Convert a bracketed TOP string with one intent root to an API call."""
    pieces = _BRACKETS.split(text)
    check_labels = _BAD_LABEL.search(text) is not None  # else no label is checked alone
    roots: list[ApiCall] = []
    # Open spans as (is_intent, label, items): an intent's items are its (slot,
    # value) pairs, a slot's are its runs of words with a call between each two.
    stack: list[tuple[bool, str, list]] = []
    for i in range(1, len(pieces) + 1, 2):  # bracket i after its run of words i - 1
        run = pieces[i - 1]
        if not stack and run.strip():
            raise _error(pieces, i - 1, "token outside brackets", len(run) - len(run.lstrip()))
        if stack and not stack[-1][0]:
            stack[-1][2].append(run)  # intents drop their carrier runs
        if i == len(pieces):
            break
        bracket = pieces[i]
        if bracket == "]":
            if not stack:
                raise _error(pieces, i, "unbalanced ']'")
            is_intent, label, items = stack.pop()
            if is_intent:
                call = tuple.__new__(ApiCall, (label, tuple(items)))
                (stack[-1][2] if stack else roots).append(call)
            elif len(items) == 1:
                stack[-1][2].append((label, " ".join(items[0].split())))
            elif len(items) > 3 or (items[0] + items[2]).split():
                raise _error(pieces, i, "slot with multiple intent children" if len(items) > 3
                             else f"slot {label!r} mixes intent and token children")
            else:
                stack[-1][2].append((label, items[1]))
        elif bracket == "[":
            raise _error(pieces, i, "bad bracket prefix (expected [IN: or [SL:)")
        else:
            label = bracket[4:]
            if check_labels and not is_identifier(label):
                raise _error(pieces, i, f"bad label {label!r}", 4)
            is_intent = bracket[1] == "I"
            if is_intent == (bool(stack) and stack[-1][0]):
                raise _error(pieces, i, "intent nested directly under intent" if is_intent
                             else "slot must be nested under an intent")
            stack.append((is_intent, sys.intern(label), []))
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
    for e in examples:
        if e.call is None:
            raise ExampleFormatError(f"example {e.id!r} has no api_call")
    order = list(range(len(examples)))
    random.Random(seed).shuffle(order)
    counts: dict[str, int] = {}
    kept: set[int] = set()
    for i in order:
        calls = calls_in(examples[i].call)
        labels = {c.function for c in calls} | {name for c in calls for name, _ in c.args}
        if any(counts.get(label, 0) < n for label in labels):
            kept.add(i)
            for label in labels:
                counts[label] = counts.get(label, 0) + 1
    return [examples[i] for i in range(len(examples)) if i in kept]


def iter_records(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield ``(lineno, record)`` for each non-blank line of a JSON-object-per-line file."""
    # A line ends at "\n" alone: a lone "\r" is JSON whitespace, and strip() drops a CRLF's.
    with reading(path), open(path, encoding="utf-8-sig", newline="\n") as fh:
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
