"""TOP bracketed-parse handling: parse, convert to API calls, SPIS sampling, IO.

TOP format: ``[IN:LABEL ... ]`` / ``[SL:LABEL ... ]`` spans over whitespace
separated utterance tokens. Intent labels become function names, slot labels
become argument names. A slot holding a nested intent becomes a nested call;
a slot holding tokens becomes a string value of the tokens joined by single
spaces (no stop-word trimming). Carrier tokens directly under an intent are
dropped.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .expr import (
    ApiCall,
    ArgPair,
    Nested,
    ParseError,
    StringLit,
    flatten,
    is_identifier,
    parse,
    serialize,
)


class TopKind(enum.Enum):
    INTENT = "intent"
    SLOT = "slot"
    TOKEN = "token"


@dataclass(frozen=True)
class TopNode:
    kind: TopKind
    label: str
    children: tuple["TopNode", ...] = ()


class TopFormatError(ValueError):
    """Malformed TOP bracket string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class TopConvertError(ValueError):
    """TOP tree that cannot be converted to an API call."""


def parse_top(text: str) -> TopNode:
    """Parse a bracketed TOP string into a tree."""
    pos = 0
    n = len(text)
    # (kind, label, children) frames; root sentinel collects the single tree
    stack: list[tuple[TopKind | None, str, list[TopNode]]] = [(None, "", [])]

    while pos < n:
        c = text[pos]
        if c.isspace():
            pos += 1
            continue
        if c == "[":
            if text.startswith("[IN:", pos):
                kind, skip = TopKind.INTENT, 4
            elif text.startswith("[SL:", pos):
                kind, skip = TopKind.SLOT, 4
            else:
                raise TopFormatError("bad bracket prefix (expected [IN: or [SL:)", pos)
            start = pos + skip
            end = start
            while end < n and not text[end].isspace() and text[end] not in "[]":
                end += 1
            label = text[start:end]
            if not is_identifier(label):
                raise TopFormatError(f"bad label {label!r}", start)
            parent_kind = stack[-1][0]
            if kind is TopKind.INTENT and parent_kind is TopKind.INTENT:
                raise TopFormatError("intent nested directly under intent", pos)
            if kind is TopKind.SLOT and parent_kind is not TopKind.INTENT:
                raise TopFormatError("slot must be nested under an intent", pos)
            stack.append((kind, label, []))
            pos = end
        elif c == "]":
            if len(stack) == 1:
                raise TopFormatError("unbalanced ']'", pos)
            kind, label, children = stack.pop()
            if kind is TopKind.SLOT:
                intents = [ch for ch in children if ch.kind is TopKind.INTENT]
                if len(intents) > 1:
                    raise TopFormatError("slot with multiple intent children", pos)
            stack[-1][2].append(TopNode(kind, label, tuple(children)))  # type: ignore[arg-type]
            pos += 1
        else:
            end = pos
            while end < n and not text[end].isspace() and text[end] not in "[]":
                end += 1
            if len(stack) == 1:
                raise TopFormatError("token outside brackets", pos)
            stack[-1][2].append(TopNode(TopKind.TOKEN, text[pos:end]))
            pos = end

    if len(stack) > 1:
        raise TopFormatError("unbalanced '['", n)
    roots = stack[0][2]
    if len(roots) != 1:
        raise TopFormatError(f"expected exactly one root span, got {len(roots)}", 0)
    return roots[0]


def to_api_call(tree: TopNode) -> ApiCall:
    """Convert an intent-rooted TOP tree to an API call."""
    if tree.kind is not TopKind.INTENT:
        raise TopConvertError("root must be an intent")
    args: list[ArgPair] = []
    for child in tree.children:
        if child.kind is TopKind.TOKEN:
            continue  # carrier words
        intents = [ch for ch in child.children if ch.kind is TopKind.INTENT]
        tokens = [ch for ch in child.children if ch.kind is TopKind.TOKEN]
        if intents and tokens:
            raise TopConvertError(
                f"slot {child.label!r} mixes intent and token children"
            )
        if intents:
            args.append(ArgPair(child.label, Nested(to_api_call(intents[0]))))
        else:
            args.append(ArgPair(child.label, StringLit(" ".join(t.label for t in tokens))))
    return ApiCall(tree.label, tuple(args))


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
    labels: set[str] = set()
    for flat in flatten(parse(example.api_call)):
        labels.add(flat.function)
        labels.update(name for name, _ in flat.args)
    return labels


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
        raise TopConvertError(f"example {example.id!r} has no top_parse")
    call = to_api_call(parse_top(example.top_parse))
    return Example(
        example.id, example.domain, example.utterance, serialize(call), example.top_parse
    )
