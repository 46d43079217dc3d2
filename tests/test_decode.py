import copy
import itertools
import pickle
import random
import re
import string
import sys
import time
import tracemalloc
from operator import itemgetter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from apicheck.constraints import check, check_call
from apicheck.decode import (
    _ESCAPES,
    _escape_token,
    _next_chars,
    _unescape_token,
    DEFAULT_MAX_DEPTH,
    DecodeSession,
    DecodeState,
    DisallowedTokenError,
    EmptySpecError,
    IncompleteDecodeError,
    Mode,
    UnspellableNameError,
    Vocab,
    VocabFormatError,
    VocabIndex,
    _spellable,
    advance,
    allowed_tokens,
    iter_steps,
    load_vocab,
    mock_decode,
    new_session,
    overhead_report,
    save_vocab,
)
from apicheck.expr import _RUN, ApiCall, escape_string, parse, serialize
from apicheck.spec import ApiSpec, SpecFormatError, derive_from_corpus, load_spec

import genutil
from genutil import GET_ALARMS_SPEC

FN_ONLY_SPEC = ApiSpec(frozenset({"GET_ALARMS"}), frozenset(), {})


def _texts(vocab, ids):
    return sorted(vocab.text_of(i) for i in ids)


# -- spelling names -----------------------------------------------------------


def oracle_segmentations(name, vocab):
    """All token-id sequences whose texts concatenate exactly to ``name``.

    Forward enumeration with prefix pruning, exponential in the length of
    ``name``: the reference for the session's spellability check.
    """
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


CALL_TEXTS = [" ", "(", ")"]  # what a call of a function without arguments adds to its name


def spells(name: str, vocab: Vocab) -> bool:
    """Whether ``new_session`` builds for the spec of the one function ``name``."""
    try:
        new_session(ApiSpec(frozenset({name})), vocab)
    except UnspellableNameError:
        return False
    return True


def test_segmentations_examples():
    v = Vocab.from_texts(["A", "B", "AB", *CALL_TEXTS])
    a, b, ab = 0, 1, 2
    assert oracle_segmentations("AB", v) == {(a, b), (ab,)}
    assert spells("AB", v)
    v1 = Vocab.from_texts(["A", *CALL_TEXTS])
    assert oracle_segmentations("AB", v1) == set()
    assert not spells("AB", v1)
    v2 = Vocab.from_texts(["A", "AA", *CALL_TEXTS])
    a, aa = 0, 1
    assert oracle_segmentations("AAA", v2) == {(a, a, a), (a, aa), (aa, a)}
    assert spells("AAA", v2)


def test_segmentations_every_sequence_concatenates():
    v = Vocab.from_texts(["GE", "T", "GET", "_AL", "ARMS", "_ALARMS"])
    segs = oracle_segmentations("GET_ALARMS", v)
    assert segs
    for seq in segs:
        assert "".join(v.text_of(i) for i in seq) == "GET_ALARMS"


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
    vocab = Vocab.from_texts(sorted(texts) + CALL_TEXTS)
    assert spells(name, vocab) == bool(oracle_segmentations(name, vocab))


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
    eos = (len(texts), rng.choice(["", names[0][:2]]))
    vocab = Vocab((*enumerate(sorted(texts)), eos), len(texts))
    spec = ApiSpec(frozenset(names[:1]), frozenset(names[1:]), {})
    expected = [name for name in names if not oracle_segmentations(name, vocab)]
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


def test_new_session_requires_a_depth_bound():
    vocab = genutil.char_vocab(GET_ALARMS_SPEC)
    assert new_session(GET_ALARMS_SPEC, vocab).session.max_depth == DEFAULT_MAX_DEPTH
    with pytest.raises(TypeError):
        new_session(GET_ALARMS_SPEC, vocab, max_depth=None)


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
    # A token the grammar refuses, the eos too early, ids the vocab does not hold,
    # and ids that are not ints, though a float or a bool hashes as an int does.
    for token_id, message in [
        (by_text["("], f"token {by_text['(']} ('(') not allowed here"),
        (vocab.eos_id, "eos before completion"),
        (99, "token 99 not in the vocab"),
        (-1, "token -1 not in the vocab"),
        ("x", "token 'x' is not an int id"),
        (1.0, "token 1.0 is not an int id"),
        (True, "token True is not an int id"),
        ([1], "token [1] is not an int id"),
    ]:
        with pytest.raises(DisallowedTokenError, match=f"^{re.escape(message)}$"):
            advance(state, token_id)


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


@pytest.mark.parametrize("max_string_len", range(4))
def test_max_string_len_counts_the_characters_between_the_quotes(max_string_len):
    # An escape takes two characters of the room, as written: a body of a, \"
    # and \\ completes exactly when its written length is within the limit,
    # stepped a character at a time through the mask and as one text.
    spec = ApiSpec(frozenset({"F"}), frozenset({"A"}), {"F": frozenset({"A"})})
    vocab = genutil.char_vocab(spec)
    by_text = dict((t, i) for i, t in vocab.tokens)
    start = new_session(spec, vocab, max_string_len=max_string_len)
    for n in range(max_string_len + 2):
        for body in map("".join, itertools.product(["a", '\\"', "\\\\"], repeat=n)):
            text, fits = f'F ( A = "{body}" )', len(body) <= max_string_len
            end = start.session.step_text(start.config, text)
            assert (end is not None and end[0] is Mode.COMPLETE) == fits, body
            state = start
            for ch in text:
                if by_text[ch] not in allowed_tokens(state):
                    break
                state = advance(state, by_text[ch])
            assert state.is_complete == fits, body


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
    with pytest.raises(DisallowedTokenError, match=f"token {by_text['G']} after completion"):
        advance(state, by_text["G"])


# -- the mask index against the linear scan ----------------------------------


def char_step(session, cfg, text):
    """``text`` stepped one character at a time through the automaton, apart
    from ``step_text`` and its runs: the config after it, or None."""
    for ch in text:
        cfg = session._step_char(cfg, ch)
        if cfg is None:
            return None
    return cfg


def scan_configs(state):
    """The linear scan the mask index replaced: each spendable id whose text
    survives ``char_step``, with the config it leaves."""
    session = state.session
    vocab = session.vocab
    if state.is_complete:
        return {vocab.eos_id: state.config}
    ends = {tid: char_step(session, state.config, text)
            for tid, text in vocab.tokens if tid != vocab.eos_id and text}
    return {tid: cfg for tid, cfg in ends.items() if cfg is not None}


def scan_oracle(state):
    return set(scan_configs(state))


def assert_mask_matches_scan(state):
    """The mask is the scan's id set, and ``advance`` by each allowed id
    leaves the config the scan found."""
    allowed = allowed_tokens(state)
    configs = scan_configs(state)
    assert allowed == set(configs), (state.config, state.emitted)
    for tid in allowed:
        assert advance(state, tid).config == configs[tid], (state.config, tid)
    return allowed


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
    st.sampled_from([1000, 1, 2]),
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
        allowed = assert_mask_matches_scan(state)
        if state.is_complete or not allowed:
            break
        state = advance(state, rng.choice(sorted(allowed)))
    for stack in {(min(spec.functions),), state.stack or (max(spec.functions),)}:
        for str_len in range(max_string_len + 1):
            for esc in (False, True):
                cfg = (Mode.IN_STRING, stack, "", "", False, str_len, esc)
                assert_mask_matches_scan(DecodeState(session, cfg))


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
    state = new_session(spec, Vocab.from_texts(texts), 256, 201)
    allowed = allowed_tokens(state)
    assert allowed == scan_oracle(state)
    assert texts.index(nested) in allowed


# -- step_text against character steps and the checker -----------------------


def _name_pieces(spec, rng):
    """Spec names whole, split at a random point, one character short or long,
    and followed by the text after a function name."""
    pieces = []
    for name in sorted(spec.functions | spec.arguments):
        k = rng.randint(0, len(name))
        pieces += [name, name[:k], name[k:], name[:-1], name + "_", name + " ( "]
    return [p for p in pieces if p]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_step_text_matches_char_step(seed, data):
    # Configs of a seeded decode, each also after '"' (into a string) and after
    # "\\" (an escape pending), stepped by texts that live and die anywhere.
    rng = random.Random(seed)
    spec, _calls = genutil.random_corpus_spec(rng, n_calls=6)
    start = new_session(spec, genutil.char_vocab(spec), rng.randint(0, 6), rng.randint(1, 3))
    session = start.session
    configs = []
    for _ in range(4):
        for state, _ids in itertools.islice(iter_steps(start, rng.choice), 30):
            configs += [state.config, char_step(session, state.config, '"'),
                        char_step(session, state.config, "\\")]
    configs = [cfg for cfg in configs if cfg is not None]
    pieces = EDGE_TEXTS + list(genutil.STRUCTURAL_CHARS + "\\") + _name_pieces(spec, rng)
    texts = data.draw(st.lists(st.lists(st.sampled_from(pieces), min_size=1, max_size=3)
                               .map("".join), min_size=1, max_size=8))
    for cfg in configs:
        for text in texts:
            got = session.step_text(cfg, text)
            assert got == char_step(session, cfg, text), (cfg, text)
            assert got is None or cfg[0] is not Mode.COMPLETE, (cfg, text)


def _call_depth(call):
    return 1 + max((_call_depth(v) for _, v in call.args if isinstance(v, ApiCall)), default=0)


def _strings_in(call):
    for _, value in call.args:
        yield from [value] if isinstance(value, str) else _strings_in(value)


def _near_name(rng, names):
    """A name of ``names`` or, one time in three, one just off them or any identifier."""
    name = rng.choice(names)
    roll = rng.random()
    if roll < 0.1 and len(name) > 1:
        return name[:-1]
    if roll < 0.2:
        return name + rng.choice(genutil.NAME_ALPHABET)
    return genutil.random_identifier(rng) if roll < 0.33 else name


def _any_call(rng, spec, depth):
    """A call whose names are in the spec or just off it, nested up to ``depth``,
    whose strings hold quotes and backslashes."""
    function = _near_name(rng, sorted(spec.functions))
    names = sorted(spec.args_for(function)) + sorted(spec.arguments)
    args = []
    for _ in range(rng.randint(0, 3)):
        if depth > 1 and rng.random() < 0.3:
            value = _any_call(rng, spec, depth - 1)
        else:
            value = "".join(rng.choice('ab "\\') for _ in range(rng.randint(0, 4)))
        args.append((_near_name(rng, names), value))
    return ApiCall(function, tuple(args))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_step_text_completes_exactly_the_calls_the_checker_passes(seed):
    # The automaton, bounded by the call's own depth and longest string as
    # written, must agree with check_call on every call: the mask's guarantee
    # rests on the one and the metrics on the other.
    rng = random.Random(seed)
    spec = genutil.random_toy_spec(rng)
    vocab = genutil.char_vocab(spec)
    for _ in range(20):
        call = _any_call(rng, spec, 3)
        max_string_len = max(map(len, map(escape_string, _strings_in(call))), default=0)
        start = new_session(spec, vocab, max_string_len, _call_depth(call))
        end = start.session.step_text(start.config, serialize(call))
        complete = end is not None and end[0] is Mode.COMPLETE
        clean = check_call(call, spec).signature.as_tuple() == (1, 1, 1, 1)
        assert complete == clean, (serialize(call), end)


# -- the vocabulary index against the per-token build ------------------------


def index_oracle(vocab):
    """The per-token build ``VocabIndex`` replaced, as ``DecodeSession`` made
    it: (ids, texts, plain_by_len, plain, quoted, the text set spellability read)."""
    spendable = [(tid, text) for tid, text in vocab.tokens if tid != vocab.eos_id and text]
    spendable.sort(key=itemgetter(1))
    texts = {text for _, text in spendable}
    ids = [tid for tid, _ in spendable]
    sorted_texts = [text for _, text in spendable]
    plain_by_len = [[]]
    quoted = {}
    for tid, text in spendable:
        if '"' in text or "\\" in text:
            k = _RUN.match(text).end()
            quoted.setdefault((k, text[k:]), (text, []))[1].append(tid)
            continue
        while len(plain_by_len) <= len(text):
            plain_by_len.append([])
        plain_by_len[len(text)].append(tid)
    plain = frozenset(tid for bucket in plain_by_len for tid in bucket)
    return ids, sorted_texts, plain_by_len, plain, quoted, texts


# Name characters at each end of the three name ranges, lowercase, a space,
# a quote and a backslash, and non-ASCII text up to the last code point.
_INDEX_TEXTS = st.text(alphabet='AZ_09az "\\\u00e9\U0010ffff', max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vocab_index_matches_the_per_token_build(data):
    texts = data.draw(st.lists(_INDEX_TEXTS, max_size=30))
    if texts:
        texts += data.draw(st.lists(st.sampled_from(texts), max_size=6))  # same text, new id
    eos_text = data.draw(st.sampled_from(["", *texts]) | _INDEX_TEXTS)
    ids = data.draw(st.permutations(range(0, 3 * len(texts) + 3, 3)))  # out of order, with gaps
    tokens = data.draw(st.permutations(list(zip(ids, texts + [eos_text]))))
    vocab = Vocab(tuple(tokens), ids[-1])
    index = VocabIndex(vocab)
    *tables, quoted, text_set = index_oracle(vocab)
    assert [index.ids, index.texts, index.plain_by_len, index.plain] == tables
    assert list(index.quoted.items()) == list(quoted.items())
    assert index.name_texts == {t for t in text_set if t[0] in genutil.NAME_ALPHABET}
    pieces = sorted(t for t in text_set if set(t) <= set(genutil.NAME_ALPHABET))
    names = data.draw(st.lists(st.from_regex(r"[AZ_][AZ_09]{0,5}", fullmatch=True), max_size=4))
    if pieces:  # names that need digit-initial or _-initial pieces
        names.append("A" + "".join(data.draw(st.lists(st.sampled_from(pieces), max_size=4))))
    for name in names:
        assert _spellable(name, index.name_texts) == _spellable(name, text_set), name
    if _spellable("A", text_set):  # texts longer than the string room, in and out of strings
        session = DecodeSession(ApiSpec(frozenset({"A"})), vocab, max_string_len=2)
        assert_mask_matches_scan(DecodeState(session))
        for str_len, esc in itertools.product(range(3), (False, True)):
            cfg = (Mode.IN_STRING, ("A",), "", "", False, str_len, esc)
            assert_mask_matches_scan(DecodeState(session, cfg))


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


# Line boundaries to str.splitlines, which token texts keep unescaped.
UNICODE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_vocab_round_trip(tmp_path):
    escaped = [f"a{c}b" for c in _ESCAPES] + list(_ESCAPES) + ["".join(_ESCAPES)]
    breaks = [f"x{c}y" for c in UNICODE_BREAKS] + list(UNICODE_BREAKS)
    vocab = Vocab.from_texts(["GET", " ( ", "a\tb", "line\nbreak", "back\\slash"] + escaped + breaks)
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab


def test_vocab_reads_a_crlf_file_as_its_lf_twin(tmp_path):
    rows = ["eos_id\t3", "0\tA", "1\tx\ry", "", "2\t\\r\t", "3\t"]
    vocabs = []
    for newline in ("\n", "\r\n"):
        path = tmp_path / "vocab.tsv"
        path.write_bytes(newline.join(rows).encode("utf-8"))
        vocabs.append(load_vocab(path))
    assert vocabs[0] == vocabs[1]
    # A lone "\r" stays in its token's text, as a raw tab does.
    assert vocabs[0].tokens == ((0, "A"), (1, "x\ry"), (2, "\r\t"), (3, ""))


# -- the Vocab contract --------------------------------------------------------

# Out of order, with gaps, and two ids for one text; the EOS is id 0.
_PAIRS = ((7, "b"), (2, "a"), (9, "b"), (0, ""), (4, '"'))


def test_vocab_tokens_are_the_pairs_in_the_given_order():
    vocab = Vocab(_PAIRS, 0)
    assert vocab.tokens == _PAIRS
    assert [vocab.text_of(tid) for tid, _ in _PAIRS] == ["b", "a", "b", "", '"']
    assert Vocab(dict(_PAIRS), 0).tokens == _PAIRS
    assert Vocab.from_texts(["b", "a"]).tokens == ((0, "b"), (1, "a"), (2, ""))


def test_vocab_equality_hash_and_repr_are_by_its_pairs(tmp_path):
    vocab = Vocab(_PAIRS, 0)
    save_vocab(vocab, tmp_path / "vocab.tsv")
    for twin in (Vocab(_PAIRS, 0), Vocab(dict(_PAIRS), 0), load_vocab(tmp_path / "vocab.tsv")):
        assert twin == vocab and hash(twin) == hash(vocab)
    assert hash(vocab) == hash((_PAIRS, 0))
    assert vocab != Vocab(_PAIRS[::-1], 0)  # the same pairs in another order
    assert vocab != Vocab(_PAIRS, 2)
    assert vocab != _PAIRS
    assert repr(vocab) == f"Vocab(tokens={_PAIRS!r}, eos_id=0)"


def test_vocab_is_immutable():
    vocab = Vocab(_PAIRS, 0)
    for name in ("tokens", "eos_id", "_text_by_id", "other"):
        with pytest.raises(AttributeError):
            setattr(vocab, name, None)
        with pytest.raises(AttributeError):
            delattr(vocab, name)
    assert vocab.tokens == _PAIRS and vocab.eos_id == 0


def test_vocab_pickles_and_copies():
    vocab = Vocab(_PAIRS, 0)
    for twin in (pickle.loads(pickle.dumps(vocab)), copy.copy(vocab), copy.deepcopy(vocab)):
        assert type(twin) is Vocab
        assert twin == vocab and hash(twin) == hash(vocab) and twin.tokens == _PAIRS
        assert twin.text_of(9) == "b" and VocabIndex(twin).ids == [4, 2, 7, 9]


_VOCAB_ERRORS = [
    (((0, "A"), (1, ""), (0, "B")), 1, "duplicate token ids in vocab"),
    (((0, "A"),), 9, "eos_id 9 not among token ids"),
]


@pytest.mark.parametrize("pairs, eos_id, message", _VOCAB_ERRORS)
def test_vocab_errors_from_the_constructor_and_the_loader(pairs, eos_id, message, tmp_path):
    with pytest.raises(ValueError) as err:
        Vocab(pairs, eos_id)
    assert str(err.value) == message
    path = tmp_path / "vocab.tsv"
    path.write_text(f"eos_id\t{eos_id}\n" + "".join(f"{i}\t{t}\n" for i, t in pairs))
    with pytest.raises(VocabFormatError) as err:
        load_vocab(path)
    assert str(err.value) == f"{path}: {message}"


def test_a_v32k_session_build_stays_small(v32k_inputs):
    # The vocab keeps one id-to-text dict, and its index builds its plain-id set
    # at its final size. The limits scale with the store's own size, its dict and
    # texts as this Python sizes them: 2.92 MiB on CPython 3.11, where the build
    # retains 1.95 and peaks at 2.35 times that, and keeping the (id, text) pairs
    # as well retained 2.97 and peaked at 3.28 times it.
    spec_path, vocab_path = v32k_inputs
    tracemalloc.start()
    try:
        state = new_session(load_spec(spec_path), load_vocab(vocab_path), 32, 3)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = state.session.vocab.tokens
    store = sys.getsizeof(dict(pairs)) + sum(sys.getsizeof(text) for _, text in pairs)
    assert len(pairs) == 32_000
    assert retained <= 2.4 * store and peak <= 2.9 * store, (retained / store, peak / store)


# The character-by-character escape functions the table-driven ones replaced,
# kept as the oracle.
_ORACLE_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_ORACLE_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _oracle_escape_token(text: str) -> str:
    return "".join(_ORACLE_ESCAPES.get(c, c) for c in text)


def _oracle_unescape_token(text: str) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _ORACLE_UNESCAPES:
                raise VocabFormatError(f"bad escape in token text {text!r}")
            out.append(_ORACLE_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _outcome(fn, text):
    try:
        return fn(text)
    except VocabFormatError as e:
        return ("error", str(e))


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="\\tnra\t\n\r", max_size=12))
def test_escapes_match_the_oracle(text):
    assert _escape_token(text) == _oracle_escape_token(text)
    assert _outcome(_unescape_token, text) == _outcome(_oracle_unescape_token, text)
    assert _unescape_token(_escape_token(text)) == text


# Each malformed file and the message it is refused with.
_MALFORMED_VOCABS = {
    "": "{path}: first line must be 'eos_id<TAB>N'",
    "5\tA\n": "{path}: first line must be 'eos_id<TAB>N'",
    "eos_id\tx\n": "{path}:1: bad eos_id",
    "eos_id\t\n0\tA\n": "{path}:1: bad eos_id",
    "eos_id\t1\nnot_an_int\tA\n": "{path}:2: bad token id 'not_an_int'",
    "eos_id\t9\n0\tA\n": "{path}: eos_id 9 not among token ids",
    "eos_id\t1\n0\tA\n1\t\n0\tB\n": "{path}: duplicate token ids in vocab",
    "eos_id\t0\n0\tx\\q\n": "{path}:2: bad escape in token text 'x\\\\q'",  # unknown escape
    "eos_id\t0\n0\tx\\\n": "{path}:2: bad escape in token text 'x\\\\'",  # at the end of the text
    # Blank lines are skipped, but still counted.
    "eos_id\t1\n\n0\tA\n\n\nno tab here\n": "{path}:6: expected token_id<TAB>text",
    "eos_id\t1\n\n0\tA\n\nx1\tB\n": "{path}:5: bad token id 'x1'",
    "eos_id\t1\n\n0\tA\n1\t\\t\n\n2\t\\x\n": "{path}:6: bad escape in token text '\\\\x'",
    # An id is read only as save_vocab writes it, though int() would take these.
    "eos_id\t1\n0\tA\n\n\n 7\tB\n": "{path}:5: bad token id ' 7'",
    "eos_id\t0\n0\tA\n1_0\tB\n": "{path}:3: bad token id '1_0'",
    "eos_id\t0\n0\tA\n+7\tB\n": "{path}:3: bad token id '+7'",
    "eos_id\t0\n0\tA\n07\tB\n": "{path}:3: bad token id '07'",
    "eos_id\t07\n7\tA\n": "{path}:1: bad eos_id",
    "eos_id\t+7\n7\tA\n": "{path}:1: bad eos_id",
    # A lone "\r" ends no line.
    "eos_id\t0\n0\tA\n1\tx\ry\n2\tx\\q\n": "{path}:4: bad escape in token text 'x\\\\q'",
}


@pytest.mark.parametrize("content", list(_MALFORMED_VOCABS))
def test_vocab_malformed(tmp_path, content):
    path = tmp_path / "vocab.tsv"
    path.write_text(content)
    with pytest.raises(VocabFormatError) as err:
        load_vocab(path)
    assert str(err.value) == _MALFORMED_VOCABS[content].format(path=path)


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


def test_overhead_report_holds_one_step():
    # Each string step sorts about V allowed ids; keeping them all for a walk
    # would grow the report's memory with the steps it takes.
    rng = random.Random(5)
    spec = GET_ALARMS_SPEC
    texts = {t for _, t in genutil.char_vocab(spec).tokens if t}
    while len(texts) < 5000:
        texts.add("".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(2, 8))))
    vocab = Vocab.from_texts(sorted(texts))
    tracemalloc.start()
    try:
        new_session(spec, vocab)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        overhead_report(spec, vocab, n_steps=400)
        report_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report_peak - build_peak < 4 * sys.getsizeof(list(range(5000))), report_peak - build_peak


def test_overhead_cost_nondecreasing_with_fanout():
    # larger V_fa fan-out on a fixed vocab should not get cheaper per step
    small = ApiSpec(frozenset({"F"}), frozenset({"AB"}), {"F": frozenset({"AB"})})
    args = {f"A{c}" for c in "BCDEFGH"}
    big = ApiSpec(frozenset({"F"}), frozenset(args), {"F": frozenset(args)})
    vocab = genutil.char_vocab(big)
    # The fastest of five alternating runs each, so one scheduler stall cannot decide it.
    runs = [[overhead_report(spec, vocab, n_steps=400).constrained_per_step_s
             for spec in (small, big)] for _ in range(5)]
    t_small, t_big = map(min, zip(*runs))
    assert t_big >= t_small * 0.5  # generous: timing noise, but no collapse
