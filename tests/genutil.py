"""Seeded random generators for calls, specs, and vocabularies used in tests."""

from __future__ import annotations

import random
import string

from apicheck.decode import Vocab
from apicheck.expr import ApiCall
from apicheck.spec import ApiSpec, derive_from_corpus

NAME_ALPHABET = string.ascii_uppercase + "_" + string.digits
STRING_ALPHABET = "abcdefgh "
STRUCTURAL_CHARS = ' (),="'


def random_identifier(rng: random.Random, max_len: int = 8) -> str:
    first = rng.choice(string.ascii_uppercase + "_")
    rest = "".join(rng.choice(NAME_ALPHABET) for _ in range(rng.randint(0, max_len - 1)))
    return first + rest


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
