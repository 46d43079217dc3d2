import itertools
import random
import string
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from apicheck.constraints import check
from apicheck.decode import (
    _ESCAPES,
    _next_chars,
    DecodeSession,
    DecodeState,
    DisallowedTokenError,
    EmptySpecError,
    IncompleteDecodeError,
    Mode,
    UnspellableNameError,
    Vocab,
    VocabFormatError,
    advance,
    allowed_tokens,
    iter_steps,
    load_vocab,
    mock_decode,
    new_session,
    overhead_report,
    save_vocab,
)
from apicheck.expr import parse
from apicheck.spec import ApiSpec, SpecFormatError, derive_from_corpus

import genutil

GET_ALARMS_SPEC = ApiSpec(
    frozenset({"GET_ALARMS"}),
    frozenset({"DATE_TIME"}),
    {"GET_ALARMS": frozenset({"DATE_TIME"})},
)

FN_ONLY_SPEC = ApiSpec(frozenset({"GET_ALARMS"}), frozenset(), {})


def _texts(vocab, ids):
    return sorted(vocab.text_of(i) for i in ids)


# -- segmentations -----------------------------------------------------------


def segmentations(name: str, vocab: Vocab) -> set[tuple[int, ...]]:
    """All token-id sequences whose texts concatenate exactly to ``name``.

    Position-indexed dynamic programming over reachable offsets, with
    backtracking to reconstruct every viable sequence. Exponential in the
    length of ``name``: an oracle for the session's spellability check.
    """
    n = len(name)
    starts: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for tid, text in vocab.tokens:
        if tid == vocab.eos_id or not text:
            continue
        length = len(text)
        for i in range(n - length + 1):
            if name.startswith(text, i):
                starts[i].append((tid, length))
    reaches_end = [False] * (n + 1)
    reaches_end[n] = True
    for i in range(n - 1, -1, -1):
        reaches_end[i] = any(reaches_end[i + length] for _, length in starts[i])
    out: set[tuple[int, ...]] = set()
    if not reaches_end[0] or n == 0:
        return out

    acc: list[int] = []

    def walk(i: int) -> None:
        if i == n:
            out.add(tuple(acc))
            return
        for tid, length in starts[i]:
            if reaches_end[i + length]:
                acc.append(tid)
                walk(i + length)
                acc.pop()

    walk(0)
    return out


def test_segmentations_examples():
    v = Vocab.from_texts(["A", "B", "AB"])
    by_text = {t: i for i, t in v.tokens}
    assert segmentations("AB", v) == {
        (by_text["A"], by_text["B"]),
        (by_text["AB"],),
    }
    assert segmentations("AB", Vocab.from_texts(["A"])) == set()
    v2 = Vocab.from_texts(["A", "AA"])
    a, aa = 0, 1
    assert segmentations("AAA", v2) == {(a, a, a), (a, aa), (aa, a)}


def test_segmentations_every_sequence_concatenates():
    v = Vocab.from_texts(["GE", "T", "GET", "_AL", "ARMS", "_ALARMS"])
    segs = segmentations("GET_ALARMS", v)
    assert segs
    for seq in segs:
        assert "".join(v.text_of(i) for i in seq) == "GET_ALARMS"


def oracle_segmentations(name, vocab):
    """Forward enumeration with prefix pruning; independent of the DP."""
    results = set()
    spellable = [(i, t) for i, t in vocab.tokens if i != vocab.eos_id and t]

    def go(built, seq):
        if built == name:
            results.add(tuple(seq))
            return
        for tid, text in spellable:
            cand = built + text
            if name.startswith(cand):
                seq.append(tid)
                go(cand, seq)
                seq.pop()

    go("", [])
    return results


@given(st.data())
def test_segmentations_match_exhaustive_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    name = genutil.random_identifier(rng, max_len=8)
    texts = set()
    while len(texts) < rng.randint(1, 12):
        i = rng.randint(0, len(name) - 1)
        j = rng.randint(i + 1, min(len(name), i + 3))
        if rng.random() < 0.3:
            texts.add(genutil.random_identifier(rng, 2))
        else:
            texts.add(name[i:j])
    vocab = Vocab.from_texts(sorted(texts))
    assert segmentations(name, vocab) == oracle_segmentations(name, vocab)


# -- session construction ----------------------------------------------------


def test_new_session_char_vocab():
    spec = derive_from_corpus([parse('GET_DIRECTIONS ( PATH = "1st ave" )')])
    state = new_session(spec, genutil.char_vocab(spec))
    assert state.mode is Mode.EXPECT_FUNCTION
    assert state.emitted == ""


def test_new_session_unspellable_name():
    vocab = Vocab.from_texts(list("GETALARMS_ ("))  # cannot spell DATE_TIME
    with pytest.raises(UnspellableNameError) as err:
        new_session(GET_ALARMS_SPEC, vocab)
    assert "DATE_TIME" in err.value.names


@given(st.data())
def test_unspellable_names_match_segmentation_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    names = sorted({genutil.random_identifier(rng, max_len=6) for _ in range(4)})
    texts = set()
    for _ in range(rng.randint(1, 15)):
        name = rng.choice(names)
        i = rng.randrange(len(name))
        texts.add(name[i : rng.randint(i + 1, min(len(name), i + 3))])
    vocab = Vocab.from_texts(sorted(texts), eos_text=rng.choice(["", names[0][:2]]))
    spec = ApiSpec(frozenset(names[:1]), frozenset(names[1:]), {})
    expected = [name for name in names if not segmentations(name, vocab)]
    if not expected:
        new_session(spec, vocab)
        return
    with pytest.raises(UnspellableNameError) as err:
        new_session(spec, vocab)
    assert err.value.names == expected


def test_long_name_session_build_is_fast():
    # Every <=4-char substring is a token: about 2e8 segmentations of the name.
    name = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_ABC"
    texts = {name[i:j] for i in range(len(name)) for j in range(i + 1, min(len(name), i + 4) + 1)}
    vocab = Vocab.from_texts(sorted(texts) + [" ", "(", ")"])
    start = time.perf_counter()
    state = new_session(ApiSpec(frozenset({name})), vocab)
    assert time.perf_counter() - start < 0.5
    assert _texts(vocab, allowed_tokens(state)) == ["A", "AB", "ABC", "ABCD"]


def test_next_chars_table():
    assert _next_chars(frozenset({"AC", "B", "A", "AB_1", "AB"})) == {
        "": "AB", "A": " BC", "AB": " _", "AB_": "1", "AB_1": " ", "AC": " ", "B": " ",
    }
    assert _next_chars(frozenset()) == {"": ""}


@pytest.mark.parametrize("vocab_texts", [None, ["G", "E", "T"]])
def test_new_session_rejects_names_that_are_not_identifiers(vocab_texts):
    # Emitted names must parse back: "get ( )" is no call, and a name holding
    # " " would read as complete in the prefix table. ApiSpec refuses such
    # names, so no session is built over them, whether the vocabulary can
    # spell them or not.
    functions, arguments = {"get", "GET"}, {"TWO WORDS", "A-B", "1A", "OK"}
    if vocab_texts is None:
        vocab_texts = sorted(set("".join(functions | arguments)) | set(genutil.STRUCTURAL_CHARS))
    vocab = Vocab.from_texts(vocab_texts)
    with pytest.raises(SpecFormatError) as err:
        new_session(ApiSpec(frozenset(functions), frozenset(arguments),
                            {"get": frozenset({"TWO WORDS"}), "GET": frozenset({"OK", "A-B", "1A"})}),
                    vocab)
    assert str(err.value) == "names are not identifiers: 1A, A-B, TWO WORDS, get"


def test_new_session_empty_spec():
    with pytest.raises(EmptySpecError):
        new_session(ApiSpec(), Vocab.from_texts(["A"]))


# -- allowed tokens / advance ------------------------------------------------


def test_fresh_session_allows_exactly_name_prefix_tokens():
    vocab = Vocab.from_texts(["GET", "_AL", "ARMS", "(", ")", ",", "=", '"', "x", " "])
    state = new_session(FN_ONLY_SPEC, vocab)
    assert _texts(vocab, allowed_tokens(state)) == ["GET"]


def test_expect_open_allows_only_structural_path():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    state = new_session(spec, vocab)
    for ch in "GET_ALARMS ":
        state = advance(state, dict((t, i) for i, t in vocab.tokens)[ch])
    assert state.mode is Mode.EXPECT_OPEN
    assert _texts(vocab, allowed_tokens(state)) == ["("]


def test_arg_position_allows_argument_prefixes_or_close():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab)
    for ch in "GET_ALARMS ( ":
        state = advance(state, by_text[ch])
    assert state.mode is Mode.EXPECT_ARG_OR_CLOSE
    assert _texts(vocab, allowed_tokens(state)) == [")", "D"]


def test_advance_through_full_name_reaches_expect_open():
    vocab = Vocab.from_texts(["GET", "_AL", "ARMS", " ( ", " )", '"', " "])
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(FN_ONLY_SPEC, vocab)
    for tok in ("GET", "_AL", "ARMS"):
        state = advance(state, by_text[tok])
    assert state.mode is Mode.EXPECT_FUNCTION  # name complete, separator pending
    state = advance(state, by_text[" ( "])
    assert state.mode is Mode.EXPECT_ARG_OR_CLOSE
    assert state.stack == ("GET_ALARMS",)


def test_close_at_top_level_completes_and_allows_only_eos():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab)
    for ch in "GET_ALARMS ( )":
        state = advance(state, by_text[ch])
    assert state.mode is Mode.COMPLETE
    assert allowed_tokens(state) == {vocab.eos_id}
    assert state.emitted == "GET_ALARMS ( )"
    assert parse(state.emitted)


def test_disallowed_token_raises():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab)
    with pytest.raises(DisallowedTokenError):
        advance(state, by_text["("])
    with pytest.raises(DisallowedTokenError):
        advance(state, vocab.eos_id)


def test_boundary_spanning_token():
    vocab = Vocab.from_texts(["GET_AL", "ARMS ( ", ")", "GET_ALARMS", " ", "("])
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(FN_ONLY_SPEC, vocab)
    state = advance(state, by_text["GET_AL"])
    state = advance(state, by_text["ARMS ( "])
    assert state.mode is Mode.EXPECT_ARG_OR_CLOSE
    state = advance(state, by_text[")"])
    assert state.is_complete
    assert check(state.emitted, FN_ONLY_SPEC).signature.as_tuple() == (1, 1, 1, 1)


def test_nested_value_candidates_respect_vfa_context():
    corpus = [parse('F ( A = "x" )'), parse('G ( B = "y" )')]
    spec = derive_from_corpus(corpus)
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab)
    for ch in "F ( ":
        state = advance(state, by_text[ch])
    # inside F only F's argument A (or close) is allowed, never G's B
    assert _texts(vocab, allowed_tokens(state)) == [")", "A"]
    for ch in 'A = ':
        state = advance(state, by_text[ch])
    # value position admits any function in V_f, or a string
    assert _texts(vocab, allowed_tokens(state)) == ['"', "F", "G"]


def test_string_mode_allows_content_and_close():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab, max_string_len=4)
    for ch in 'GET_ALARMS ( DATE_TIME = "':
        state = advance(state, by_text[ch])
    assert state.mode is Mode.IN_STRING
    allowed = _texts(vocab, allowed_tokens(state))
    assert '"' in allowed and "a" in allowed
    for ch in "abcd":  # hit the string budget
        state = advance(state, by_text[ch])
    assert _texts(vocab, allowed_tokens(state)) == ['"']


def test_escape_inside_string():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab)
    for ch in 'GET_ALARMS ( DATE_TIME = "\\"a" )':
        state = advance(state, by_text[ch])
    assert state.is_complete
    call = parse(state.emitted)
    assert call.args[0][1] == '"a'


def test_eos_only_when_complete():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    state = new_session(spec, vocab)
    for ch in "GET_ALARMS ( )":
        assert vocab.eos_id not in allowed_tokens(state)
        state = advance(state, by_text[ch])
    assert allowed_tokens(state) == {vocab.eos_id}
    assert advance(state, vocab.eos_id) == state


# -- the mask index against the linear scan ----------------------------------


def scan_oracle(state):
    """The linear scan the mask index replaced: step every spendable token's text."""
    session = state.session
    vocab = session.vocab
    if state.is_complete:
        return {vocab.eos_id}
    return {
        tid
        for tid, text in vocab.tokens
        if tid != vocab.eos_id and text and session.step_text(state.config, text) is not None
    }


# Quotes and backslashes at the start, middle and end; non-ASCII text, including
# the last code point, after which the walk has no next character to bisect
# for, and the one before the surrogates; plain prefixes of 1-4 characters
# before a quote, an escaped quote, an escaped backslash or two quotes, so the
# string rule is split at every room boundary; and texts that open a string
# and go on in it, which the walk hands to the same rule.
EDGE_TEXTS = ['a"', '"a', 'a"b', '\\"', '"\\', "a\\", "\\\\", 'b"\\c', '" )', "\u00e9", "\u00e9a",
              "\u65e5\u672c", "\U0010ffff", '"\U0010ffff', "a\U0010ffff", "\U0010ffffa", "\ud7ff",
              'abc"', 'a\\"', 'ab\\\\"', 'abcd\\\\', 'a"b"', 'ab""', 'xy = "', 'abcd"',
              '"ab"', '"abc\\"', '"a\\\\']


def _odd_vocab(spec, rng, style):
    """A vocab of one genutil style, bent: some single characters dropped,
    prefixes and extensions of its texts, repeated texts and EDGE_TEXTS added."""
    if style == "char":
        base = genutil.char_vocab(spec)
    elif style == "merge":
        base = genutil.merge_vocab(spec, rng)
    else:
        base = genutil.spanning_vocab(spec, rng)
    texts = [t for _, t in base.tokens if t]
    dropped = {t for t in texts if len(t) == 1 and rng.random() < 0.3}
    texts = [t for t in texts if t not in dropped]
    for _ in range(rng.randint(0, 12)):
        text = rng.choice(texts)
        if len(text) > 1 and rng.random() < 0.5:
            texts.append(text[: rng.randint(1, len(text) - 1)])  # a prefix of a token
        else:
            texts.append(text + rng.choice(texts))  # a token the first one prefixes
    texts += rng.sample(texts, min(len(texts), rng.randint(0, 4)))  # same text, new id
    texts += rng.sample(EDGE_TEXTS, rng.randint(0, len(EDGE_TEXTS)))
    rng.shuffle(texts)
    return texts


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["char", "merge", "span"]),
    st.integers(0, 5),
    st.sampled_from([None, 1, 2]),
)
def test_mask_index_matches_linear_scan(seed, style, max_string_len, max_depth):
    rng = random.Random(seed)
    spec, _calls = genutil.random_corpus_spec(rng, n_calls=6)
    texts = _odd_vocab(spec, rng, style)
    try:
        state = new_session(spec, Vocab.from_texts(texts), max_string_len, max_depth)
    except UnspellableNameError as err:  # a dropped character was needed: give those back
        texts += sorted(set("".join(err.names)))
        state = new_session(spec, Vocab.from_texts(texts), max_string_len, max_depth)
    session = state.session
    for _ in range(60):
        allowed = allowed_tokens(state)
        assert allowed == scan_oracle(state), (state.config, state.emitted)
        if state.is_complete or not allowed:
            break
        state = advance(state, rng.choice(sorted(allowed)))
    for stack in {(min(spec.functions),), state.stack or (max(spec.functions),)}:
        for str_len in range(max_string_len + 1):
            for esc in (False, True):
                cfg = (Mode.IN_STRING, stack, "", "", False, str_len, esc)
                in_string = DecodeState(session, cfg)
                assert allowed_tokens(in_string) == scan_oracle(in_string), (str_len, esc)


def test_mask_steps_few_characters_of_a_large_vocab(monkeypatch):
    # A count, not a time: a linear scan steps at least one character per token,
    # the walk one per live trie edge.
    rng = random.Random(8)
    spec = genutil.random_toy_spec(rng, max_functions=12, max_arguments=20, max_args_per_function=4)
    names = sorted(spec.functions | spec.arguments)
    texts = {n[i:j] for n in names for i in range(len(n))
             for j in range(i + 1, min(len(n), i + 4) + 1)}
    texts |= set(genutil.STRUCTURAL_CHARS) | set(genutil.STRING_ALPHABET) | {"\\", " ( ", '" )'}
    while len(texts) < 8000:
        filler = (rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 8)))
        texts.add("".join(filler))
    vocab = Vocab.from_texts(sorted(texts))
    total_chars = sum(len(t) for t in texts)
    by_text = {t: i for i, t in vocab.tokens}
    start = new_session(spec, vocab)
    in_call = start
    for ch in min(spec.functions) + " ( ":
        in_call = advance(in_call, by_text[ch])
    stepped = []
    step_char = DecodeSession._step_char
    monkeypatch.setattr(DecodeSession, "_step_char",
                        lambda self, cfg, ch: stepped.append(ch) or step_char(self, cfg, ch))
    for state, mode in [(start, Mode.EXPECT_FUNCTION), (in_call, Mode.EXPECT_ARG_OR_CLOSE)]:
        assert state.mode is mode
        stepped.clear()
        allowed = allowed_tokens(state)
        assert len(stepped) < 0.05 * total_chars, (mode, len(stepped), total_chars)
        assert allowed == scan_oracle(state)


def _in_string(session, str_len=0, esc=False):
    stack = (min(session.spec.functions),)
    return DecodeState(session, (Mode.IN_STRING, stack, "", "", False, str_len, esc))


def _quoted_groups(texts):
    """Each text holding '"' or '\\' as (plain prefix length, tail), deduplicated."""
    groups = set()
    for text in texts:
        stops = [i for i, ch in enumerate(text) if ch in '"\\']
        if stops:
            groups.add((stops[0], text[stops[0]:]))
    return groups


def test_string_step_steps_each_quoted_tail_once(monkeypatch):
    # A count and an allocation, not a time: a string step that steps every
    # quoted token, or copies the plain-token set, scales with V.
    rng = random.Random(9)
    spec = GET_ALARMS_SPEC
    texts = {t for _, t in genutil.char_vocab(spec).tokens if t} | {'" )', '" , ', ' = "'}
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    while len(texts) < 400:
        name = "".join(rng.choice(letters) for _ in range(rng.randint(2, 6)))
        texts.add(name + ' = "')
    while len(texts) < 8000:
        texts.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(rng.randint(2, 8))))
    vocab = Vocab.from_texts(sorted(texts))
    state = _in_string(new_session(spec, vocab).session)
    groups = _quoted_groups(texts)
    assert len(groups) < 20 < 300 < sum('"' in t for t in texts)
    stepped = []
    step_char = DecodeSession._step_char
    with monkeypatch.context() as patch:
        patch.setattr(DecodeSession, "_step_char",
                      lambda self, cfg, ch: stepped.append(ch) or step_char(self, cfg, ch))
        allowed_tokens(state)
    assert len(stepped) <= sum(len(tail) for _k, tail in groups), len(stepped)
    tracemalloc.start()
    try:
        allowed = allowed_tokens(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(set(range(len(texts)))) / 4, peak
    assert allowed == scan_oracle(state)


def test_string_mask_is_a_set_view():
    spec = GET_ALARMS_SPEC
    texts = [t for _, t in genutil.char_vocab(spec).tokens if t] + ['ab"', 'ME = "', '" )', "abc"]
    vocab = Vocab.from_texts(texts)
    session = new_session(spec, vocab).session
    view = allowed_tokens(_in_string(session))
    expected = scan_oracle(_in_string(session))
    assert not isinstance(view, (set, frozenset))
    assert view._base is session._plain  # shared, not copied
    assert view._base.isdisjoint(view._extra)
    assert view._extra
    assert view == expected and expected == view
    assert view == frozenset(expected) and view != expected - {min(expected)}
    assert len(view) == len(expected)
    assert all(tid in view for tid in expected) and vocab.eos_id not in view
    assert sorted(view) == sorted(expected)  # each id once
    some = {min(expected), vocab.eos_id}
    for got, want in [
        (view | some, expected | some), (some | view, expected | some),
        (view & some, expected & some), (some & view, expected & some),
        (view - some, expected - some), (some - view, some - expected),
    ]:
        assert type(got) is set and got == want
    # Short of the room for "abc" (or with an escape pending) the mask is a frozenset.
    short = max(len(t) for t in texts if '"' not in t and "\\" not in t) - 1
    for str_len, esc in [(session.max_string_len - short, False), (0, True)]:
        state = _in_string(session, str_len, esc)
        assert type(allowed_tokens(state)) is frozenset
        assert allowed_tokens(state) == scan_oracle(state)


@pytest.mark.parametrize("max_string_len", [1499, 1500, 5000])
def test_walk_does_not_recurse_through_string_content(max_string_len):
    # A token that opens a string and holds more characters than the recursion
    # limit: the walk must not recurse through string content.
    spec = ApiSpec(frozenset({"GET_ALARM"}), frozenset({"DATE_TIME"}),
                   {"GET_ALARM": frozenset({"DATE_TIME"})})
    long = '"' + "a" * 1500
    vocab = Vocab.from_texts([t for _, t in genutil.char_vocab(spec).tokens if t] + [long])
    by_text = {t: i for i, t in vocab.tokens}
    state = new_session(spec, vocab, max_string_len)
    for ch in "GET_ALARM ( DATE_TIME = ":
        state = advance(state, by_text[ch])
    assert state.mode is Mode.EXPECT_VALUE
    allowed = allowed_tokens(state)
    assert allowed == scan_oracle(state)
    assert (by_text[long] in allowed) == (max_string_len >= 1500)


@pytest.mark.parametrize("suffixes", [[""], ["", "x"]])
def test_walk_does_not_recurse_per_character_of_a_long_token(suffixes):
    # Tokens of 200 nested openings, 1,600 characters outside any string.
    nested = "F ( A = " * 200
    spec = ApiSpec(frozenset({"F"}), frozenset({"A"}), {"F": frozenset({"A"})})
    texts = [c for c in string.printable if c.isprintable()] + [nested + s for s in suffixes]
    state = new_session(spec, Vocab.from_texts(texts))
    allowed = allowed_tokens(state)
    assert allowed == scan_oracle(state)
    assert texts.index(nested) in allowed


# -- mock decoding -----------------------------------------------------------


def test_mock_decode_deterministic():
    spec = GET_ALARMS_SPEC
    start = new_session(spec, genutil.char_vocab(spec), max_string_len=8, max_depth=2)
    a = mock_decode(start, seed=42)
    b = mock_decode(start, seed=42)
    assert a == b


def test_mock_decode_output_is_always_clean():
    rng = random.Random(0)
    spec, _calls = genutil.random_corpus_spec(rng)
    start = new_session(spec, genutil.char_vocab(spec), max_string_len=8, max_depth=2)
    for seed in range(20):
        text = mock_decode(start, seed, max_steps=3000)
        assert check(text, spec).signature.as_tuple() == (1, 1, 1, 1)


def test_mock_decode_incomplete_on_tiny_budget():
    spec = GET_ALARMS_SPEC
    start = new_session(spec, genutil.char_vocab(spec))
    with pytest.raises(IncompleteDecodeError):
        mock_decode(start, seed=0, max_steps=2)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_mock_decode_rejects_max_steps_below_one(max_steps):
    start = new_session(GET_ALARMS_SPEC, genutil.char_vocab(GET_ALARMS_SPEC))
    with pytest.raises(ValueError, match="^max_steps must be >= 1$"):
        mock_decode(start, seed=0, max_steps=max_steps)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(["char", "merge", "span"]))
def test_zero_violation_property(spec_seed, decode_seed, style):
    rng = random.Random(spec_seed)
    spec, _calls = genutil.random_corpus_spec(rng, n_calls=10)
    if style == "char":
        vocab = genutil.char_vocab(spec)
    elif style == "merge":
        vocab = genutil.merge_vocab(spec, rng)
    else:
        vocab = genutil.spanning_vocab(spec, rng)
    start = new_session(spec, vocab, max_string_len=6, max_depth=2)
    text = mock_decode(start, decode_seed, max_steps=4000)
    assert check(text, spec).signature.as_tuple() == (1, 1, 1, 1)


# Two functions whose names differ in one word, each with its own argument.
NEAR_MISS_SPEC = ApiSpec(
    frozenset({"GET_ALARMS", "GET_DIRECTIONS"}),
    frozenset({"DATE_TIME", "DESTINATION"}),
    {"GET_ALARMS": frozenset({"DATE_TIME"}), "GET_DIRECTIONS": frozenset({"DESTINATION"})},
)

# Well-formed calls an adversary wants to emit, token by token: a function name
# one character short, or an argument of the other function.
ADVERSARIAL_PLANS = [
    ["GET_ALARM", " ( ", "DATE_TIME", " = ", '"', "x", '"', " )"],
    ["GET_ALARMS", " ( ", "DESTINATION", " = ", '"', "x", '"', " )"],
    ["GET_DIRECTION", " ( ", "DESTINATION", " = ", '"', "x", '"', " )"],
    ["GET_DIRECTIONS", " ( ", "DATE_TIME", " = ", "GET_ALARM", " ( ", " )", " )"],
]


def _adversary(vocab, plan, seed):
    """A chooser that takes the next token of ``plan``, then eos, whenever it is
    offered, and otherwise a seeded uniform pick."""
    by_text = {t: i for i, t in vocab.tokens}
    wanted = [by_text[t] for t in plan] + [vocab.eos_id]
    rng = random.Random(seed)

    def choose(ids):
        return wanted.pop(0) if wanted and wanted[0] in ids else rng.choice(ids)

    return choose


def test_adversarial_chooser_is_clean_only_under_the_mask():
    spec = NEAR_MISS_SPEC
    texts = {t for plan in ADVERSARIAL_PLANS for t in plan}
    vocab = Vocab.from_texts(sorted(texts | {t for _, t in genutil.char_vocab(spec).tokens if t}))
    start = new_session(spec, vocab, max_string_len=4, max_depth=2)
    all_ids = sorted(tid for tid, _ in vocab.tokens)
    for seed in range(40):
        plan = ADVERSARIAL_PLANS[seed % len(ADVERSARIAL_PLANS)]
        *_, (state, _ids) = itertools.islice(iter_steps(start, _adversary(vocab, plan, seed)), 4000)
        assert state.is_complete, state.emitted
        assert check(state.emitted, spec).signature.as_tuple() == (1, 1, 1, 1), state.emitted
        # The same chooser offered the whole vocabulary emits its plan.
        choose = _adversary(vocab, plan, seed)
        unmasked = ""
        while (tid := choose(all_ids)) != vocab.eos_id:
            unmasked += vocab.text_of(tid)
        assert unmasked == "".join(plan)
        signature = check(unmasked, spec).signature
        assert signature.c_s == 1 and 0 in signature.as_tuple(), unmasked


# -- vocab file IO -----------------------------------------------------------


def test_vocab_round_trip(tmp_path):
    escaped = [f"a{c}b" for c in _ESCAPES] + list(_ESCAPES) + ["".join(_ESCAPES)]
    vocab = Vocab.from_texts(["GET", " ( ", "a\tb", "line\nbreak", "back\\slash"] + escaped)
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab


@pytest.mark.parametrize(
    "content",
    [
        "",
        "5\tA\n",
        "eos_id\tx\n",
        "eos_id\t1\nnot_an_int\tA\n",
        "eos_id\t9\n0\tA\n",  # eos id missing from table
        "eos_id\t1\n0\tA\n1\t\n0\tB\n",  # duplicate id
        "eos_id\t0\n0\tx\\q\n",  # unknown escape
        "eos_id\t0\n0\tx\\\n",  # escape at the end of the text
    ],
)
def test_vocab_malformed(tmp_path, content):
    path = tmp_path / "vocab.tsv"
    path.write_text(content)
    with pytest.raises(VocabFormatError):
        load_vocab(path)


# -- overhead ----------------------------------------------------------------


def test_overhead_report_fields_and_ratio():
    spec = GET_ALARMS_SPEC
    vocab = genutil.char_vocab(spec)
    report = overhead_report(spec, vocab, n_steps=300)
    assert report.n_steps == 300
    assert report.build_time_s >= 0
    assert report.constrained_per_step_s > 0
    assert report.baseline_per_step_s > 0
    assert report.ratio >= 1.0


@pytest.mark.parametrize("n_steps", [0, -3])
def test_overhead_report_rejects_non_positive_steps(n_steps):
    spec = GET_ALARMS_SPEC
    with pytest.raises(ValueError, match="^n_steps must be positive$"):
        overhead_report(spec, genutil.char_vocab(spec), n_steps=n_steps)


def test_overhead_cost_nondecreasing_with_fanout():
    # larger V_fa fan-out on a fixed vocab should not get cheaper per step
    small = ApiSpec(frozenset({"F"}), frozenset({"AB"}), {"F": frozenset({"AB"})})
    args = {f"A{c}" for c in "BCDEFGH"}
    big = ApiSpec(frozenset({"F"}), frozenset(args), {"F": frozenset(args)})
    vocab = genutil.char_vocab(big)
    t_small = overhead_report(small, vocab, n_steps=400).constrained_per_step_s
    t_big = overhead_report(big, vocab, n_steps=400).constrained_per_step_s
    assert t_big >= t_small * 0.5  # generous: timing noise, but no collapse
