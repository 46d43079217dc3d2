"""API-aware constrained decoding over an arbitrary subtoken vocabulary.

The engine tracks a character-level configuration over the canonical call
syntax (single spaces around structural tokens, as emitted by
``expr.serialize``). A vocabulary token is allowed at a step iff feeding its
characters through the configuration keeps the emitted text a prefix of some
call that satisfies all four constraints. Character survival is exact at the
token level only when every character the automaton consumes outside strings,
and ``"``, is a single-character token; otherwise a decode can reach a config
that no token continues (spec ``{AB}``, vocab ``{AB, A, " ", "(", ")"}``: 93 of
200 ``mock_decode`` seeds dead-end).

Tokens may span a name boundary into structural text (e.g. ``ARMS (``): the
name-spelling cursor simply hands the residual characters to the grammar.
Names are spelled through a prefix table per name set: it maps each prefix of
a name, the empty one included, to the characters that may follow it, and a
whole name is followed by ``" "``. ``ApiSpec`` guarantees that spec names are
identifiers, so no name holds ``" "`` and every emitted name parses back.

``advance`` and the mask share one survival rule, ``step_text``: it steps one
character at a time, but plain string content (a ``[^"\\]*`` run, no escape
pending) in one step, which survives exactly when it fits the room left. The
mask walks the sorted token texts as an implicit trie: each distinct next
character of a range is stepped once, and a dead one drops its whole range.
Inside a string, or past ``_WALK_DEPTH`` characters, the walk steps each text
of a range on its own through ``step_text`` instead, so it never recurses
through string content. The InString mask is no walk: a plain token is one
run, so when the room fits the longest, the mask is a view over the session's
one shared set of them, not a copy; every other token is grouped by its run's
length and the rest, and one text per group is stepped.

A session's vocabulary half (sorted texts, string tables, the texts spellability
reads) is a ``VocabIndex``, built in bulk from the ``Vocab`` alone.

``iter_steps`` is the one decode loop: ``mock_decode``, ``overhead_report`` and
the CLI's ``mask`` step through it with their own choosers.
"""

from __future__ import annotations

import enum
import random
import re
import time
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterator, Set
from dataclasses import FrozenInstanceError
from itertools import chain, islice, repeat
from operator import eq
from pathlib import Path
from typing import NamedTuple

from .expr import _RUN, reading  # _RUN: a plain run of string content, no quote or backslash
from .spec import ApiSpec

_QUOTE = '"'
_BACKSLASH = "\\"
# The default decode limits of sessions, ``overhead_report`` and the CLI: string
# characters, calls open at once (both bounded, the config space is finite), and
# tokens per ``mock_decode``.
DEFAULT_MAX_STRING_LEN = 64
DEFAULT_MAX_DEPTH = 3
DEFAULT_MAX_STEPS = 4096
# The trie walk recurses once per character; a range deeper than this, far
# longer than any real token, is stepped text by text instead.
_WALK_DEPTH = 256


class DecodeError(ValueError):
    pass


class EmptySpecError(DecodeError):
    """No functions in the spec; nothing is generable."""


class UnspellableNameError(DecodeError):
    def __init__(self, names: list[str]):
        super().__init__(f"names unspellable under vocab: {', '.join(names)}")
        self.names = names


class DisallowedTokenError(DecodeError):
    pass


class IncompleteDecodeError(DecodeError):
    def __init__(self, emitted: str, steps: int):
        super().__init__(f"decode incomplete after {steps} steps: {emitted!r}")
        self.emitted = emitted
        self.steps = steps


class Mode(enum.Enum):
    EXPECT_FUNCTION = "ExpectFunction"
    EXPECT_OPEN = "ExpectOpen"
    EXPECT_ARG_OR_CLOSE = "ExpectArgOrClose"
    EXPECT_EQUALS = "ExpectEquals"
    EXPECT_VALUE = "ExpectValue"
    IN_STRING = "InString"
    EXPECT_COMMA_OR_CLOSE = "ExpectCommaOrClose"
    COMPLETE = "Complete"


# config tuple layout: (mode, stack, name_prefix, pending_lit, allow_close,
# string_len, escape_pending). The automaton compares modes with ``is`` against
# these module-level aliases: looking up ``Mode.X`` per character instead about
# doubled the mask time at V=32,000 (CPython 3.11).
_M_FUNC = Mode.EXPECT_FUNCTION
_M_OPEN = Mode.EXPECT_OPEN
_M_ARG_OR_CLOSE = Mode.EXPECT_ARG_OR_CLOSE
_M_EQUALS = Mode.EXPECT_EQUALS
_M_VALUE = Mode.EXPECT_VALUE
_M_STRING = Mode.IN_STRING
_M_COMMA_OR_CLOSE = Mode.EXPECT_COMMA_OR_CLOSE
_M_COMPLETE = Mode.COMPLETE


class Vocab:
    """Token ids to texts, one dict in vocab order, and the EOS id. Immutable,
    and compared, hashed and shown by its (id, text) pairs, ``tokens``, which
    may also be given as such a dict. ``tokens``, ``hash`` and ``repr`` build
    the pairs anew at each call; ``==`` compares the dicts and their key order."""

    def __init__(self, tokens: tuple[tuple[int, str], ...] | dict[int, str], eos_id: int):
        text_by_id = dict(tokens)
        if len(text_by_id) != len(tokens):
            raise ValueError("duplicate token ids in vocab")
        if eos_id not in text_by_id:
            raise ValueError(f"eos_id {eos_id} not among token ids")
        self.__dict__.update(_text_by_id=text_by_id, eos_id=eos_id)

    @classmethod
    def from_texts(cls, texts: list[str]) -> "Vocab":
        return cls((*enumerate(texts), (len(texts), "")), len(texts))

    @property
    def tokens(self) -> tuple[tuple[int, str], ...]:
        return tuple(self._text_by_id.items())

    def text_of(self, token_id: int) -> str:
        return self._text_by_id[token_id]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._text_by_id, other._text_by_id
        return self.eos_id == other.eos_id and mine == theirs and all(map(eq, mine, theirs))

    def __hash__(self):
        return hash((self.tokens, self.eos_id))

    def __repr__(self):
        return f"{type(self).__qualname__}(tokens={self.tokens!r}, eos_id={self.eos_id!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class VocabFormatError(ValueError):
    pass


# The vocab TSV's escapes, each character to its two-character escape, and back.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {escape: c for c, escape in _ESCAPES.items()}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_ESCAPE = re.compile("|".join(map(re.escape, _UNESCAPES)))
# Read from the left, an escaped text is plain characters and known escapes.
_ESCAPED_TEXT = re.compile(f"(?:[^\\\\]|{_ESCAPE.pattern})*")


def _escape_token(text: str) -> str:
    return text.translate(_ESCAPE_TABLE)


def _unescape_token(text: str, where: str = "") -> str:
    if not _ESCAPED_TEXT.fullmatch(text):
        raise VocabFormatError(f"{where}bad escape in token text {text!r}")
    return _ESCAPE.sub(lambda m: _UNESCAPES[m[0]], text)


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"eos_id\t{vocab.eos_id}\n")
        for tid, text in vocab.tokens:
            fh.write(f"{tid}\t{_escape_token(text)}\n")


def load_vocab(path: str | Path) -> Vocab:
    # At "\n" only: str.splitlines and universal newlines also split at "\x0c",
    # "\u2028", a lone "\r" and the like. An LF file pays one scan for a "\r".
    with reading(path), open(path, encoding="utf-8-sig", newline="") as fh:
        text = fh.read()
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    del text
    if not lines[0].startswith("eos_id\t"):
        raise VocabFormatError(f"{path}: first line must be 'eos_id<TAB>N'")
    # An id is read only in the form save_vocab writes, str(int(s)) == s: int()
    # alone would also take " 7", "+7", "07" and "1_0".
    eos_str = lines[0].split("\t", 1)[1]
    try:
        eos_id = int(eos_str)
    except ValueError as e:
        raise VocabFormatError(f"{path}:1: bad eos_id") from e
    if str(eos_id) != eos_str:
        raise VocabFormatError(f"{path}:1: bad eos_id")
    text_by_id: dict[int, str] = {}
    blank = 0
    for lineno, line in enumerate(islice(lines, 1, None), 2):
        tid_str, tab, text = line.partition("\t")
        if not tab:
            if not line:
                blank += 1
                continue
            raise VocabFormatError(f"{path}:{lineno}: expected token_id<TAB>text")
        try:
            tid = int(tid_str)
        except ValueError as e:
            raise VocabFormatError(f"{path}:{lineno}: bad token id {tid_str!r}") from e
        if str(tid) != tid_str:
            raise VocabFormatError(f"{path}:{lineno}: bad token id {tid_str!r}")
        if "\\" in text:
            text = _unescape_token(text, f"{path}:{lineno}: ")
        text_by_id[tid] = text
    if len(text_by_id) != len(lines) - 1 - blank:
        raise VocabFormatError(f"{path}: duplicate token ids in vocab")
    del lines
    try:
        return Vocab(text_by_id, eos_id)
    except ValueError as e:
        raise VocabFormatError(f"{path}: {e}") from e


def _spellable(name: str, texts: set[str]) -> bool:
    """Whether some sequence of ``texts`` concatenates to ``name``.

    Reachability over offsets: O(len(name)**2) substring lookups, where listing
    every sequence would be exponential in the length.
    """
    n = len(name)
    reached = [True] + [False] * n
    for i in range(n):
        if reached[i]:
            for j in range(i + 1, n + 1):
                if name[i:j] in texts:
                    reached[j] = True
    return n > 0 and reached[n]


class VocabIndex:
    """The tables of a session that depend on the vocab alone.

    ``ids``, ``texts``: the spendable tokens (not the EOS, not empty) in text
    order, an implicit trie. ``plain_by_len[n]``: the ids of the length-n texts
    with no quote or backslash; ``plain``: all of them. ``quoted``: each other
    text's (plain-run length, rest) to a text and ids. ``name_texts``: the texts
    that start with ``[0-9A-Z_]``, as every piece of a name does.
    """

    def __init__(self, vocab: Vocab):
        text_by_id = vocab._text_by_id
        ids = sorted(text_by_id, key=text_by_id.__getitem__)  # stable: equal texts keep vocab order
        texts = list(map(text_by_id.__getitem__, ids))
        eos = ids.index(vocab.eos_id, bisect_left(texts, text_by_id[vocab.eos_id]))
        del ids[eos], texts[eos]
        empty = bisect_right(texts, "")  # the empty texts sort first
        unspendable = [vocab.eos_id, *ids[:empty]]
        del ids[:empty], texts[:empty]
        self.ids, self.texts = ids, texts
        self.quoted: dict[tuple[int, str], tuple[str, list[int]]] = {}
        lengths = list(map(len, texts))
        for i in [i for i, t in enumerate(texts) if _QUOTE in t or _BACKSLASH in t]:
            k = _RUN.match(texts[i]).end()
            self.quoted.setdefault((k, texts[i][k:]), (texts[i], []))[1].append(ids[i])
            lengths[i] = 0  # into bucket 0, which is emptied below
        self.plain_by_len = by_len = [[] for _ in range(max(lengths, default=0) + 1)]
        for tid, n in zip(ids, lengths):
            by_len[n].append(tid)
        by_len[0] = []
        # Every id but the unspendable and quoted ones; a copy of the dict is sized once.
        self.plain = frozenset(text_by_id).difference(unspendable, *(q for _, q in self.quoted.values()))
        # Each range ends at the character after its last ("9" < ":", "Z" < "[", "_" < "`").
        ranges = [(bisect_left(texts, lo), bisect_left(texts, hi)) for lo, hi in ("0:", "A[", "_`")]
        self.name_texts = set(chain.from_iterable(texts[lo:hi] for lo, hi in ranges))


class _StringMask(Set):
    """An InString allowed set: the session's shared plain ids plus the quoted
    ids that survive. The two frozensets are disjoint, so the view answers
    ``in``, ``len`` and iteration without a copy; set operators return sets."""

    __slots__ = ("_base", "_extra")

    def __init__(self, base: frozenset[int], extra: frozenset[int]):
        self._base = base
        self._extra = extra

    def __contains__(self, tid) -> bool:
        return tid in self._base or tid in self._extra

    def __len__(self) -> int:
        return len(self._base) + len(self._extra)

    def __iter__(self) -> Iterator[int]:
        return chain(self._base, self._extra)

    @classmethod
    def _from_iterable(cls, it) -> set[int]:
        return set(it)


def _next_chars(names: frozenset[str]) -> dict[str, str]:
    """Each prefix of ``names``, ``""`` included, to the sorted characters that
    may follow it; a whole name is followed by ``" "``."""
    follow = {"": ""}
    # In sorted order a name comes before the names it prefixes, and each
    # prefix meets its next characters in order, so a repeat is the last one.
    for name in sorted(names):
        for i, ch in enumerate(name):
            prefix = name[:i]
            have = follow.get(prefix, "")
            if have[-1:] != ch:
                follow[prefix] = have + ch
        follow[name] = " "
    return follow


class DecodeSession:
    """Immutable compiled tables shared by all states of one decoding run.

    ``max_string_len`` bounds the characters between a string's quotes as
    written, an escape counting two; ``max_depth`` bounds how deep calls nest."""

    def __init__(
        self,
        spec: ApiSpec,
        vocab: Vocab,
        max_string_len: int = DEFAULT_MAX_STRING_LEN,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ):
        if not spec.functions:
            raise EmptySpecError("spec has no functions; nothing to generate")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if max_string_len < 0:
            raise ValueError("max_string_len must be >= 0")
        names = sorted(spec.functions | spec.arguments)
        index = VocabIndex(vocab)
        unspellable = [name for name in names if not _spellable(name, index.name_texts)]
        if unspellable:
            raise UnspellableNameError(unspellable)
        self.spec = spec
        self.vocab = vocab
        self.max_string_len = max_string_len
        self.max_depth = max_depth
        self._fn_next = _next_chars(spec.functions)
        self._arg_next = {f: _next_chars(spec.args_for(f)) for f in spec.functions}
        # The vocabulary's tables, read by the walk and the string masks.
        self._ids, self._texts = index.ids, index.texts
        self._plain_by_len, self._plain, self._quoted = index.plain_by_len, index.plain, index.quoted

    # -- character automaton ------------------------------------------------

    def _close(self, stack: tuple[str, ...]):
        remaining = stack[:-1]
        if remaining:
            return (_M_COMMA_OR_CLOSE, remaining, "", " ", False, 0, False)
        return (_M_COMPLETE, (), "", "", False, 0, False)

    def _step_char(self, cfg, ch: str):
        mode, stack, prefix, lit, allow_close, str_len, esc = cfg
        if lit:
            if ch != lit[0]:
                return None
            lit = lit[1:]
            if lit:
                return (mode, stack, prefix, lit, allow_close, str_len, esc)
            if mode is _M_OPEN:
                return (_M_ARG_OR_CLOSE, stack, "", "", True, 0, False)
            if mode is _M_EQUALS:
                return (_M_VALUE, stack, "", "", False, 0, False)
            return (mode, stack, prefix, "", allow_close, str_len, esc)
        if mode is _M_FUNC:
            if ch not in self._fn_next[prefix]:
                return None
            if ch == " ":
                return (_M_OPEN, stack + (prefix,), "", "( ", False, 0, False)
            return (_M_FUNC, stack, prefix + ch, "", False, 0, False)
        if mode is _M_ARG_OR_CLOSE:
            if ch == ")" and allow_close and not prefix:
                return self._close(stack)
            if ch not in self._arg_next[stack[-1]][prefix]:
                return None
            if ch == " ":
                return (_M_EQUALS, stack, "", "= ", False, 0, False)
            return (_M_ARG_OR_CLOSE, stack, prefix + ch, "", allow_close, 0, False)
        if mode is _M_VALUE:
            if ch == _QUOTE:
                return (_M_STRING, stack, "", "", False, 0, False)
            if len(stack) < self.max_depth and ch in self._fn_next[""]:
                return (_M_FUNC, stack, ch, "", False, 0, False)
            return None
        if mode is _M_STRING:
            if esc:
                if ch in (_QUOTE, _BACKSLASH):  # the escape is two characters as written
                    return (_M_STRING, stack, "", "", False, str_len + 2, False)
                return None
            if ch == _QUOTE:
                return (_M_COMMA_OR_CLOSE, stack, "", " ", False, 0, False)
            if ch == _BACKSLASH:
                if str_len + 2 <= self.max_string_len:
                    return (_M_STRING, stack, "", "", False, str_len, True)
                return None
            if str_len + 1 <= self.max_string_len:
                return (_M_STRING, stack, "", "", False, str_len + 1, False)
            return None
        if mode is _M_COMMA_OR_CLOSE:
            if ch == ",":
                return (_M_ARG_OR_CLOSE, stack, "", " ", False, 0, False)
            if ch == ")":
                return self._close(stack)
            return None
        return None

    def step_text(self, cfg, text: str):
        """``cfg`` after ``text``, or None if it dies; a plain string run is one step."""
        pos, end = 0, len(text)
        while pos < end:
            if cfg[0] is _M_STRING and not cfg[6] and text[pos] not in '"\\':
                stop = _RUN.match(text, pos).end()
                str_len = cfg[5] + stop - pos
                if str_len > self.max_string_len:
                    return None
                cfg = (_M_STRING, cfg[1], "", "", False, str_len, False)
                if stop == end:
                    return cfg
                pos = stop
            cfg = self._step_char(cfg, text[pos])
            if cfg is None:
                return None
            pos += 1
        return cfg

    # -- mask ---------------------------------------------------------------

    def _walk(self, cfg, lo: int, hi: int, depth: int, out: list[int]) -> None:
        """Append the ids in ``[lo, hi)`` whose text survives from ``cfg``.

        Every text in the range shares its first ``depth`` characters, which
        have already taken the automaton to ``cfg``. Inside a string, or past
        ``_WALK_DEPTH`` characters, each text's rest is stepped on its own by
        ``step_text``, so the recursion stays bounded. Otherwise the texts that
        go on with one character form one sub-range, found by bisection; the
        character is stepped once, and if it dies the whole sub-range is dropped.
        """
        texts, ids = self._texts, self._ids
        if cfg[0] is _M_STRING or depth > _WALK_DEPTH:
            for i in range(lo, hi):
                if self.step_text(cfg, texts[i][depth:]) is not None:
                    out.append(ids[i])
            return
        while lo < hi and len(texts[lo]) == depth:
            out.append(ids[lo])
            lo += 1
        while lo < hi:
            text = texts[lo]
            ch = text[depth]
            if ch == "\U0010ffff":  # no next character to bisect for
                end = hi
            else:
                end = bisect_left(texts, text[:depth] + chr(ord(ch) + 1), lo, hi)
            nxt = self._step_char(cfg, ch)
            if nxt is not None:
                self._walk(nxt, lo, end, depth + 1, out)
            lo = end

    def _string_mask(self, cfg) -> Set[int]:
        """The mask inside a string: the plain tokens that fit the room left and
        the quoted tokens whose group's text survives. A ``_StringMask`` view
        over the shared ``_plain`` set when the room fits them all, else a
        frozenset."""
        survivors: list[int] = []
        for text, ids in self._quoted.values():
            if self.step_text(cfg, text) is not None:
                survivors += ids
        room = 0 if cfg[6] else self.max_string_len - cfg[5]  # an escape admits no plain text
        if room >= len(self._plain_by_len) - 1:
            return _StringMask(self._plain, frozenset(survivors))
        return frozenset(survivors).union(*self._plain_by_len[1 : room + 1])


class DecodeState(NamedTuple):
    session: DecodeSession
    config: tuple = (_M_FUNC, (), "", "", False, 0, False)
    emitted: str = ""

    @property
    def mode(self) -> Mode:
        return self.config[0]

    @property
    def is_complete(self) -> bool:
        return self.config[0] is _M_COMPLETE

    @property
    def stack(self) -> tuple[str, ...]:
        return self.config[1]


def new_session(
    spec: ApiSpec,
    vocab: Vocab,
    max_string_len: int = DEFAULT_MAX_STRING_LEN,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> DecodeState:
    """Fresh state expecting a function name from the full valid-function set."""
    return DecodeState(DecodeSession(spec, vocab, max_string_len, max_depth))


def allowed_tokens(state: DecodeState) -> Set[int]:
    """Exact allowed-token set: tokens whose text keeps a valid completion live.

    The set is immutable: a frozenset, or inside a string a view that shares
    the session's plain-token set (see ``DecodeSession._string_mask``).
    """
    session = state.session
    if state.is_complete:
        return frozenset((session.vocab.eos_id,))
    cfg = state.config
    if cfg[0] is _M_STRING:
        return session._string_mask(cfg)
    out: list[int] = []
    session._walk(cfg, 0, len(session._texts), 0, out)
    return frozenset(out)


def advance(state: DecodeState, token_id: int) -> DecodeState:
    if type(token_id) is not int:
        raise DisallowedTokenError(f"token {token_id!r} is not an int id")
    session = state.session
    if state.is_complete:
        if token_id == session.vocab.eos_id:
            return state
        raise DisallowedTokenError(f"token {token_id} after completion")
    if token_id == session.vocab.eos_id:
        raise DisallowedTokenError("eos before completion")
    try:
        text = session.vocab.text_of(token_id)
    except KeyError:
        raise DisallowedTokenError(f"token {token_id!r} not in the vocab") from None
    cfg = session.step_text(state.config, text) if text else None
    if cfg is None:
        raise DisallowedTokenError(f"token {token_id} ({text!r}) not allowed here")
    return DecodeState(session, cfg, state.emitted + text)


def iter_steps(
    state: DecodeState, choose: Callable[[list[int]], int]
) -> Iterator[tuple[DecodeState, list[int]]]:
    """The decode loop: yield each state with its sorted allowed ids, then
    advance by ``choose(ids)``. Stops after a complete state or a dead end."""
    while True:
        ids = sorted(allowed_tokens(state))
        yield state, ids
        if state.is_complete or not ids:
            return
        state = advance(state, choose(ids))


def mock_decode(state: DecodeState, seed: int, max_steps: int = DEFAULT_MAX_STEPS) -> str:
    """Stand-in sampler: from ``state``, uniform seeded choice over allowed tokens
    until Complete. Raises ``IncompleteDecodeError`` at a dead end or when
    ``max_steps`` tokens do not complete the call."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    walk = iter_steps(state, random.Random(seed).choice)
    for step, (state, _ids) in zip(range(max_steps + 1), walk):
        if state.is_complete:
            return state.emitted
    raise IncompleteDecodeError(state.emitted, step)


class OverheadReport(NamedTuple):
    n_steps: int
    build_time_s: float
    constrained_per_step_s: float
    baseline_per_step_s: float
    ratio: float


def overhead_report(spec: ApiSpec, vocab: Vocab, n_steps: int, seed: int = 17) -> OverheadReport:
    """Mean per-step cost of mask+advance vs. an unconstrained sampling step.

    Sessions restart on completion until n_steps total steps are consumed.
    Build time (the name spellability check, the prefix tables, and the
    vocab's index: the sorted trie and the string tables) is reported apart
    from per-step time.
    The session takes the default decode limits, ``DEFAULT_MAX_STRING_LEN``
    and ``DEFAULT_MAX_DEPTH``.
    """
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    t0 = time.perf_counter()
    initial = new_session(spec, vocab)
    build_time = time.perf_counter() - t0

    rng = random.Random(seed)
    t0 = time.perf_counter()
    # Each state after a walk's first is one step; only the current one is kept.
    walks = (islice(iter_steps(initial, rng.choice), 1, None) for _ in repeat(None))
    for _ in islice(chain.from_iterable(walks), n_steps):
        pass
    constrained = time.perf_counter() - t0

    all_ids = list(vocab._text_by_id)
    rng2 = random.Random(seed)
    t0 = time.perf_counter()
    for _ in range(n_steps):
        rng2.choice(all_ids)
    baseline = time.perf_counter() - t0

    per_constrained = constrained / n_steps
    per_baseline = baseline / n_steps if baseline > 0 else 1e-12  # floored so ratio is finite
    return OverheadReport(
        n_steps, build_time, per_constrained, per_baseline, per_constrained / per_baseline
    )
