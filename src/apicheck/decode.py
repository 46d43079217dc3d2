"""API-aware constrained decoding over an arbitrary subtoken vocabulary.

The engine tracks a character-level configuration over the canonical call
syntax (single spaces around structural tokens, as emitted by
``expr.serialize``). A vocabulary token is allowed at a step iff feeding its
characters through the configuration keeps the emitted text a prefix of some
call that satisfies all four constraints. Because every live configuration
can be extended to a complete call, masking by character survival is exact.

Tokens may span a name boundary into structural text (e.g. ``ARMS (``): the
name-spelling cursor simply hands the residual characters to the grammar.
Names are spelled through a prefix table per name set: it maps each prefix of
a name, the empty one included, to the characters that may follow it, and a
whole name is followed by ``" "``. ``ApiSpec`` guarantees that spec names are
identifiers, so no name holds ``" "`` and every emitted name parses back.

The mask does not step every token on its own. The session keeps the token
texts sorted, so tokens sharing a prefix sit in one contiguous range: the mask
walks that implicit trie, feeds each distinct next character to the automaton
once, and skips a whole range at its first dead character. Inside a string, a
token without a quote or backslash is allowed exactly when it fits the
remaining length. So when the room left fits the longest such token, a step
returns a view over the session's one shared set of them instead of a copy.
Every other token is split at its first ``"`` or ``\\`` into a plain prefix
and a tail: it survives when the prefix fits and its tail survives from the
config the prefix leaves, so only the tails are stepped, once per distinct
``(prefix length, tail)``. The trie walk hands a range that enters a string to
the same rule, and so never recurses through string content.

``iter_steps`` is the one decode loop: ``mock_decode``, ``overhead_report`` and
the CLI's ``mask`` step through it with their own choosers.
"""

from __future__ import annotations

import enum
import random
import re
import time
from bisect import bisect_left
from collections.abc import Callable, Iterator, Set
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

from .spec import ApiSpec

_QUOTE = '"'
_BACKSLASH = "\\"
_CONTENT_STOP = re.compile(r'["\\]')
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


@dataclass(frozen=True)
class Vocab:
    tokens: tuple[tuple[int, str], ...]
    eos_id: int

    def __post_init__(self):
        text_by_id = dict(self.tokens)
        if len(text_by_id) != len(self.tokens):
            raise ValueError("duplicate token ids in vocab")
        if self.eos_id not in text_by_id:
            raise ValueError(f"eos_id {self.eos_id} not among token ids")
        object.__setattr__(self, "_text_by_id", text_by_id)

    @classmethod
    def from_texts(cls, texts: list[str], eos_text: str = "") -> "Vocab":
        tokens = [(i, t) for i, t in enumerate(texts)]
        eos_id = len(texts)
        tokens.append((eos_id, eos_text))
        return cls(tuple(tokens), eos_id)

    def text_of(self, token_id: int) -> str:
        return self._text_by_id[token_id]


class VocabFormatError(ValueError):
    pass


_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _escape_token(text: str) -> str:
    return "".join(_ESCAPES.get(c, c) for c in text)


def _unescape_token(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _UNESCAPES:
                raise VocabFormatError(f"bad escape in token text {text!r}")
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"eos_id\t{vocab.eos_id}\n")
        for tid, text in vocab.tokens:
            fh.write(f"{tid}\t{_escape_token(text)}\n")


def load_vocab(path: str | Path) -> Vocab:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("eos_id\t"):
        raise VocabFormatError(f"{path}: first line must be 'eos_id<TAB>N'")
    try:
        eos_id = int(lines[0].split("\t", 1)[1])
    except ValueError as e:
        raise VocabFormatError(f"{path}:1: bad eos_id") from e
    tokens: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line:
            continue
        if "\t" not in line:
            raise VocabFormatError(f"{path}:{lineno}: expected token_id<TAB>text")
        tid_str, _, text = line.partition("\t")
        try:
            tid = int(tid_str)
        except ValueError as e:
            raise VocabFormatError(f"{path}:{lineno}: bad token id {tid_str!r}") from e
        tokens.append((tid, _unescape_token(text)))
    try:
        return Vocab(tuple(tokens), eos_id)
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


def _split_plain(text: str) -> tuple[int, str]:
    """``text`` as the length of its plain prefix, the characters before the
    first ``"`` or ``\\``, and the rest, empty when there is no such character."""
    stop = _CONTENT_STOP.search(text)
    k = stop.start() if stop else len(text)
    return k, text[k:]


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
    """Immutable compiled tables shared by all states of one decoding run."""

    def __init__(
        self,
        spec: ApiSpec,
        vocab: Vocab,
        max_string_len: int = 256,
        max_depth: int | None = None,
    ):
        if not spec.functions:
            raise EmptySpecError("spec has no functions; nothing to generate")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if max_string_len < 0:
            raise ValueError("max_string_len must be >= 0")
        names = sorted(spec.functions | spec.arguments)
        spendable = [(tid, text) for tid, text in vocab.tokens if tid != vocab.eos_id and text]
        spendable.sort(key=itemgetter(1))
        texts = {text for _, text in spendable}
        unspellable = [name for name in names if not _spellable(name, texts)]
        if unspellable:
            raise UnspellableNameError(unspellable)
        self.spec = spec
        self.vocab = vocab
        self.max_string_len = max_string_len
        self.max_depth = max_depth
        self._fn_next = _next_chars(spec.functions)
        self._arg_next = {f: _next_chars(spec.args_for(f)) for f in spec.functions}
        # The trie: spendable ids and texts in text order, so the texts that
        # share a prefix form one contiguous range.
        self._ids = [tid for tid, _ in spendable]
        self._texts = [text for _, text in spendable]
        # String content: plain_by_len[n] holds the ids of the length-n texts
        # with no quote or backslash, and _plain all of them, shared by every
        # string step. _quoted groups every other token by _split_plain(text).
        self._plain_by_len: list[list[int]] = [[]]
        quoted: dict[tuple[int, str], list[int]] = {}
        for tid, text in spendable:
            if _QUOTE in text or _BACKSLASH in text:
                quoted.setdefault(_split_plain(text), []).append(tid)
                continue
            while len(self._plain_by_len) <= len(text):
                self._plain_by_len.append([])
            self._plain_by_len[len(text)].append(tid)
        self._plain = frozenset(tid for bucket in self._plain_by_len for tid in bucket)
        self._quoted = [(k, tail, ids) for (k, tail), ids in quoted.items()]

    # -- character automaton ------------------------------------------------

    def _close(self, stack: tuple[str, ...]):
        remaining = stack[:-1]
        if remaining:
            return (_M_COMMA_OR_CLOSE, remaining, "", " ", False, 0, False)
        return (_M_COMPLETE, (), "", "", False, 0, False)

    def _step_char(self, cfg, ch: str):
        mode, stack, prefix, lit, allow_close, str_len, esc = cfg
        if mode is _M_COMPLETE:
            return None
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
            if (self.max_depth is None or len(stack) < self.max_depth) and (
                ch in self._fn_next[""]
            ):
                return (_M_FUNC, stack, ch, "", False, 0, False)
            return None
        if mode is _M_STRING:
            if esc:
                if ch in (_QUOTE, _BACKSLASH):
                    return (_M_STRING, stack, "", "", False, str_len + 1, False)
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
        for ch in text:
            cfg = self._step_char(cfg, ch)
            if cfg is None:
                return None
        return cfg

    # -- mask ---------------------------------------------------------------

    def _walk(self, cfg, lo: int, hi: int, depth: int, out: list[int]) -> None:
        """Append the ids in ``[lo, hi)`` whose text survives from ``cfg``.

        Every text in the range shares its first ``depth`` characters, which
        have already taken the automaton to ``cfg``. The texts that go on with
        one character form one sub-range, found by bisection; the character is
        stepped once, and if it dies the whole sub-range is dropped. A
        sub-range that enters a string goes to ``_walk_string``. Past
        ``_WALK_DEPTH`` characters each text is stepped on its own, so the
        recursion stays bounded.
        """
        texts = self._texts
        if depth > _WALK_DEPTH:
            for i in range(lo, hi):
                if self.step_text(cfg, texts[i][depth:]) is not None:
                    out.append(self._ids[i])
            return
        while lo < hi and len(texts[lo]) == depth:
            out.append(self._ids[lo])
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
                walk = self._walk_string if nxt[0] is _M_STRING else self._walk
                walk(nxt, lo, end, depth + 1, out)
            lo = end

    def _walk_string(self, cfg, lo: int, hi: int, depth: int, out: list[int]) -> None:
        """Append the ids in ``[lo, hi)`` whose text from ``depth`` on survives
        from the InString ``cfg``, by the string rule of ``_survives_in_string``."""
        for i in range(lo, hi):
            k, tail = _split_plain(self._texts[i][depth:])
            if self._survives_in_string(cfg, k, tail):
                out.append(self._ids[i])

    def _survives_in_string(self, cfg, k: int, tail: str) -> bool:
        """Whether ``k`` plain characters, then ``tail``, survive from the
        InString ``cfg``. ``tail`` is empty or starts with ``"`` or ``\\``.

        The plain characters fit when the room left holds them and no escape
        is pending; only ``tail`` is stepped, from the config they leave.
        """
        if k:
            if cfg[6] or cfg[5] + k > self.max_string_len:
                return False
            cfg = (_M_STRING, cfg[1], "", "", False, cfg[5] + k, False)
        return self.step_text(cfg, tail) is not None

    def _string_mask(self, cfg) -> Set[int]:
        """The mask inside a string: the plain tokens that fit the room left,
        and the quoted tokens whose tail survives, stepped once per group.

        When the room fits the longest plain token, this is a ``_StringMask``
        view over the shared ``_plain`` set; otherwise a frozenset.
        """
        survivors: list[int] = []
        for k, tail, ids in self._quoted:
            if self._survives_in_string(cfg, k, tail):
                survivors += ids
        room = self.max_string_len - cfg[5]
        if cfg[6]:  # an escape is pending: only '"' or '\\' may follow
            return frozenset(survivors)
        if room >= len(self._plain_by_len) - 1:
            return _StringMask(self._plain, frozenset(survivors))
        return frozenset(survivors).union(*self._plain_by_len[1 : room + 1])


@dataclass(frozen=True)
class DecodeState:
    session: DecodeSession = field(compare=False, repr=False)
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
    max_string_len: int = 256,
    max_depth: int | None = None,
) -> DecodeState:
    """Fresh state expecting a function name from the full valid-function set."""
    session = DecodeSession(spec, vocab, max_string_len, max_depth)
    return DecodeState(session)


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
    session = state.session
    if state.is_complete:
        if token_id == session.vocab.eos_id:
            return state
        raise DisallowedTokenError(f"token {token_id} after completion")
    if token_id == session.vocab.eos_id:
        raise DisallowedTokenError("eos before completion")
    text = session.vocab.text_of(token_id)
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


def mock_decode(state: DecodeState, seed: int, max_steps: int = 4096) -> str:
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


@dataclass(frozen=True)
class OverheadReport:
    n_steps: int
    build_time_s: float
    constrained_time_s: float
    constrained_per_step_s: float
    baseline_time_s: float
    baseline_per_step_s: float
    ratio: float


def overhead_report(spec: ApiSpec, vocab: Vocab, n_steps: int, seed: int = 17) -> OverheadReport:
    """Mean per-step cost of mask+advance vs. an unconstrained sampling step.

    Sessions restart on completion until n_steps total steps are consumed.
    Build time (name spellability check and prefix tables) is reported
    separately from per-step time. Strings hold at most 64 characters and
    calls nest at most 3 deep.
    """
    if n_steps <= 0:
        raise ValueError("n_steps must be positive")
    t0 = time.perf_counter()
    initial = new_session(spec, vocab, max_string_len=64, max_depth=3)
    build_time = time.perf_counter() - t0

    rng = random.Random(seed)
    steps = 0
    t0 = time.perf_counter()
    while steps < n_steps:
        # Each state after the first is one step; a walk ends complete or dead.
        _first, *walked = islice(iter_steps(initial, rng.choice), n_steps - steps + 1)
        steps += len(walked)
    constrained = time.perf_counter() - t0

    all_ids = [tid for tid, _ in vocab.tokens]
    rng2 = random.Random(seed)
    t0 = time.perf_counter()
    for _ in range(n_steps):
        rng2.choice(all_ids)
    baseline = time.perf_counter() - t0

    per_constrained = constrained / n_steps
    per_baseline = baseline / n_steps if baseline > 0 else 1e-12  # floored so ratio is finite
    return OverheadReport(
        n_steps,
        build_time,
        constrained,
        per_constrained,
        baseline,
        per_baseline,
        per_constrained / per_baseline,
    )
