"""Seeded random generators for calls, specs, and vocabularies used in tests,
and the small reference helpers that more than one test module uses."""

from __future__ import annotations

import math
import random
import string

from apicheck.constraints import parse_and_check
from apicheck.decode import Vocab
from apicheck.expr import ApiCall, calls_in, parse
from apicheck.spec import ApiSpec, derive_from_corpus
from apicheck.topconvert import Example

NAME_ALPHABET = string.ascii_uppercase + "_" + string.digits
STRING_ALPHABET = "abcdefgh "
STRUCTURAL_CHARS = ' (),="'

GET_ALARMS_SPEC = ApiSpec(
    frozenset({"GET_ALARMS"}),
    frozenset({"DATE_TIME"}),
    {"GET_ALARMS": frozenset({"DATE_TIME"})},
)


def f1(tp: int, fp: int, fn: int) -> float:
    """F1 from counts; precision and recall are 1.0 when there is nothing to
    predict and nothing was predicted, and 0.0 when only one side is empty."""
    if tp + fp == 0:
        p = 1.0 if tp + fn == 0 else 0.0
    else:
        p = tp / (tp + fp)
    if tp + fn == 0:
        r = 1.0 if tp + fp == 0 else 0.0
    else:
        r = tp / (tp + fn)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def cosine(a, b) -> float:
    """Pairwise-summed cosine of two vectors; 0.0 if either is all zeros."""
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return 0.0 if na == 0 or nb == 0 else dot / (na * nb)


def spis_labels(example: Example) -> set[str]:
    """Every function and argument name in an example's call: the labels SPIS covers."""
    labels = set()
    for c in calls_in(parse(example.api_call)):
        labels.add(c.function)
        labels.update(name for name, _ in c.args)
    return labels


def random_identifier(rng: random.Random, max_len: int = 8) -> str:
    first = rng.choice(string.ascii_uppercase + "_")
    rest = "".join(rng.choice(NAME_ALPHABET) for _ in range(rng.randint(0, max_len - 1)))
    return first + rest


def parse_pairs(pairs: list[tuple[str, str]]) -> list[tuple[ApiCall, ApiCall | None]]:
    """(gold, prediction) strings as the calls ``metrics.evaluate`` scores: a
    prediction that does not parse is None, as ``parse_and_check`` decides."""
    return [(parse(gold), parse_and_check(pred, ApiSpec())[0]) for gold, pred in pairs]


def random_toy_spec(
    rng: random.Random,
    max_functions: int = 8,
    max_arguments: int = 12,
    max_args_per_function: int = 3,
) -> ApiSpec:
    n_fn = rng.randint(1, max_functions)
    n_arg = rng.randint(1, max_arguments)
    functions = set()
    while len(functions) < n_fn:
        functions.add(random_identifier(rng, 6))
    arguments = set()
    while len(arguments) < n_arg:
        arguments.add(random_identifier(rng, 6))
    arg_list = sorted(arguments)
    associations = {
        f: frozenset(rng.sample(arg_list, rng.randint(0, min(max_args_per_function, len(arg_list)))))
        for f in functions
    }
    used_args = set().union(*associations.values()) if associations else set()
    return ApiSpec(frozenset(functions), frozenset(used_args) or frozenset(arguments),
                   {f: a for f, a in associations.items()})


def random_call(rng: random.Random, spec: ApiSpec, max_depth: int = 3) -> ApiCall:
    function = rng.choice(sorted(spec.functions))
    candidates = sorted(spec.args_for(function))
    args = []
    for name in candidates:
        if rng.random() < 0.6:
            continue
        if max_depth > 1 and rng.random() < 0.4:
            args.append((name, random_call(rng, spec, max_depth - 1)))
        else:
            text = "".join(rng.choice(STRING_ALPHABET) for _ in range(rng.randint(0, 6)))
            args.append((name, text))
    return ApiCall(function, tuple(args))


def random_corpus_spec(rng: random.Random, n_calls: int = 20, **kw) -> tuple[ApiSpec, list[ApiCall]]:
    base = random_toy_spec(rng, **kw)
    calls = [random_call(rng, base) for _ in range(n_calls)]
    return derive_from_corpus(calls) if calls else base, calls


def _name_chars(spec: ApiSpec) -> set[str]:
    chars: set[str] = set()
    for name in spec.functions | spec.arguments:
        chars.update(name)
    return chars


def char_vocab(spec: ApiSpec, extra: str = STRING_ALPHABET) -> Vocab:
    texts = sorted(_name_chars(spec) | set(STRUCTURAL_CHARS) | set(extra) | {"\\"})
    return Vocab.from_texts(texts)


def merge_vocab(spec: ApiSpec, rng: random.Random, n_merges: int = 12) -> Vocab:
    """Character vocab plus random 2-char substrings of the spec's names."""
    base = sorted(_name_chars(spec) | set(STRUCTURAL_CHARS) | set(STRING_ALPHABET) | {"\\"})
    names = sorted(spec.functions | spec.arguments)
    merges: set[str] = set()
    for _ in range(n_merges * 3):
        name = rng.choice(names)
        if len(name) >= 2:
            i = rng.randint(0, len(name) - 2)
            merges.add(name[i : i + 2])
        if len(merges) >= n_merges:
            break
    return Vocab.from_texts(base + sorted(merges))


def spanning_vocab(spec: ApiSpec, rng: random.Random) -> Vocab:
    """Character vocab plus tokens spanning name/structural boundaries."""
    base = sorted(_name_chars(spec) | set(STRUCTURAL_CHARS) | set(STRING_ALPHABET) | {"\\"})
    spans: set[str] = {" ( ", " )", '" )', ' = "', " , "}
    for name in sorted(spec.functions):
        spans.add(name[-2:] + " (")
    for name in sorted(spec.arguments):
        spans.add(name[-1] + " = ")
    return Vocab.from_texts(base + sorted(spans))
