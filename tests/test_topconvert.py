import copy
import dataclasses
import enum
import pickle
import re
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from apicheck.expr import ApiCall, ParseError, ParseErrorKind, calls_in, is_identifier, parse, serialize
from apicheck.retrieval import HashedBowEmbedder, build_index
from apicheck.topconvert import (
    Example,
    ExampleFormatError,
    TopFormatError,
    convert_example,
    dump_example,
    load_examples,
    spis_sample,
    top_to_call,
    write_examples,
)

import genutil

SHOW_ALARMS_TOP = "[IN:SHOW_ALARMS show my alarms [SL:DATE_TIME for tomorrow ]]"
FIG1_TOP = (
    "[IN:GET_DIRECTIONS Show me one way options to "
    "[SL:DESTINATION [IN:GET_LOCATION [SL:CATEGORY_LOCATION auditorium ] ] ] "
    "by 10am via [SL:PATH 1st ave ] ]"
)


# The reference converter: parse to a tree, then walk the tree to a call.
class _Kind(enum.Enum):
    INTENT = "intent"
    SLOT = "slot"
    TOKEN = "token"


@dataclass(frozen=True)
class _Node:
    kind: _Kind
    label: str
    children: tuple["_Node", ...] = ()


class MixedSlotError(ValueError):
    """A slot holding both an intent and tokens."""


def _parse_tree(text: str) -> _Node:
    pos = 0
    n = len(text)
    # (kind, label, children) frames; root sentinel collects the single tree
    stack: list[tuple[_Kind | None, str, list[_Node]]] = [(None, "", [])]

    while pos < n:
        c = text[pos]
        if c.isspace():
            pos += 1
            continue
        if c == "[":
            if text.startswith("[IN:", pos):
                kind = _Kind.INTENT
            elif text.startswith("[SL:", pos):
                kind = _Kind.SLOT
            else:
                raise TopFormatError("bad bracket prefix (expected [IN: or [SL:)", pos)
            start = pos + 4
            end = start
            while end < n and not text[end].isspace() and text[end] not in "[]":
                end += 1
            label = text[start:end]
            if not is_identifier(label):
                raise TopFormatError(f"bad label {label!r}", start)
            parent_kind = stack[-1][0]
            if kind is _Kind.INTENT and parent_kind is _Kind.INTENT:
                raise TopFormatError("intent nested directly under intent", pos)
            if kind is _Kind.SLOT and parent_kind is not _Kind.INTENT:
                raise TopFormatError("slot must be nested under an intent", pos)
            stack.append((kind, label, []))
            pos = end
        elif c == "]":
            if len(stack) == 1:
                raise TopFormatError("unbalanced ']'", pos)
            kind, label, children = stack.pop()
            if kind is _Kind.SLOT:
                intents = [ch for ch in children if ch.kind is _Kind.INTENT]
                if len(intents) > 1:
                    raise TopFormatError("slot with multiple intent children", pos)
            stack[-1][2].append(_Node(kind, label, tuple(children)))
            pos += 1
        else:
            end = pos
            while end < n and not text[end].isspace() and text[end] not in "[]":
                end += 1
            if len(stack) == 1:
                raise TopFormatError("token outside brackets", pos)
            stack[-1][2].append(_Node(_Kind.TOKEN, text[pos:end]))
            pos = end

    if len(stack) > 1:
        raise TopFormatError("unbalanced '['", n)
    roots = stack[0][2]
    if len(roots) != 1:
        raise TopFormatError(f"expected exactly one root span, got {len(roots)}", 0)
    return roots[0]


def _tree_to_call(tree: _Node) -> ApiCall:
    args: list[tuple[str, str | ApiCall]] = []
    for child in tree.children:
        if child.kind is _Kind.TOKEN:
            continue  # carrier words
        intents = [ch for ch in child.children if ch.kind is _Kind.INTENT]
        tokens = [ch for ch in child.children if ch.kind is _Kind.TOKEN]
        if intents and tokens:
            raise MixedSlotError(f"slot {child.label!r} mixes intent and token children")
        if intents:
            args.append((child.label, _tree_to_call(intents[0])))
        else:
            args.append((child.label, " ".join(t.label for t in tokens)))
    return ApiCall(tree.label, tuple(args))


def tree_oracle(text: str) -> ApiCall:
    """Two-stage TOP conversion, the reference for ``top_to_call``."""
    return _tree_to_call(_parse_tree(text))


def test_parse_top_flat():
    assert top_to_call(SHOW_ALARMS_TOP) == ApiCall("SHOW_ALARMS", (("DATE_TIME", "for tomorrow"),))


def test_parse_top_empty_intent():
    assert top_to_call("[IN:F ]") == ApiCall("F")


def test_parse_top_adjacent_brackets():
    # closing brackets need no whitespace separation
    assert top_to_call("[IN:F [SL:A x]]") == ApiCall("F", (("A", "x"),))


PARSE_ERRORS = {
    "[IN:F [SL:A [IN:G ] [IN:H ]]]": "slot with multiple intent children at offset 27",
    "[XX:F ]": "bad bracket prefix (expected [IN: or [SL:) at offset 0",
    "[IN:F ": "unbalanced '[' at offset 6",
    "[IN:F ]]": "unbalanced ']' at offset 7",
    "[IN:lower ]": "bad label 'lower' at offset 4",
    "[SL:A x ]": "slot must be nested under an intent at offset 0",
    "[IN:F [IN:G ]]": "intent nested directly under intent at offset 6",
    "stray [IN:F ]": "token outside brackets at offset 0",
    "[IN:F ] [IN:G ]": "expected exactly one root span, got 2 at offset 0",
    # Errors inside glued lexemes and after non-ASCII whitespace: each offset is
    # that of the lexeme's first character (a label's, for a bad label).
    "[IN:F x[ ]": "bad bracket prefix (expected [IN: or [SL:) at offset 7",
    "[IN:F\u2003[XX:G ]]": "bad bracket prefix (expected [IN: or [SL:) at offset 6",
    "[IN:F [SL:A x]]]": "unbalanced ']' at offset 15",
    "[IN:F\xa0[SL:A\u3000x]\u2028]]": "unbalanced ']' at offset 16",
    "[IN:F [SL:[ ]]": "bad label '' at offset 10",
    "[IN:F x[SL:a y]]": "bad label 'a' at offset 11",
}


@pytest.mark.parametrize("text", list(PARSE_ERRORS))
def test_parse_top_errors(text):
    with pytest.raises(TopFormatError) as err:
        top_to_call(text)
    assert str(err.value) == PARSE_ERRORS[text]
    with pytest.raises(TopFormatError) as err:
        tree_oracle(text)
    assert str(err.value) == PARSE_ERRORS[text]


def test_to_api_call_show_alarms():
    call = top_to_call(SHOW_ALARMS_TOP)
    assert serialize(call) == 'SHOW_ALARMS ( DATE_TIME = "for tomorrow" )'


def test_to_api_call_fig1():
    call = top_to_call(FIG1_TOP)
    assert serialize(call) == (
        'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) '
        ', PATH = "1st ave" )'
    )


def test_to_api_call_no_slots():
    assert serialize(top_to_call("[IN:F hello there ]")) == "F ( )"


def test_to_api_call_mixed_slot_children():
    # Raised at the slot's "]", the first point where the mix is known.
    with pytest.raises(TopFormatError) as err:
        top_to_call("[IN:F [SL:A word [IN:G ] ] ]")
    assert str(err.value) == "slot 'A' mixes intent and token children at offset 25"
    assert err.value.offset == 25


def test_to_api_call_never_invents_labels():
    for top in (SHOW_ALARMS_TOP, FIG1_TOP):
        call = top_to_call(top)
        for c in calls_in(call):
            assert f"[IN:{c.function}" in top
            for name, _value in c.args:
                assert f"[SL:{name}" in top


# Generated TOP strings for the differential test against tree_oracle.
_LABELS = st.from_regex(r"[A-Z_][A-Z0-9_]{0,4}", fullmatch=True)
_WORDS = st.text(alphabet="abzIN:SLé1_\"", min_size=1, max_size=4)
_SPACES = ["\t", "\n", "\u00a0", "\u0085", "\u2003", "\u3000"]
_SEPS = st.sampled_from([" "] * 6 + ["  "] + _SPACES)
_SEPS_OR_NONE = st.sampled_from(["", " ", " ", "\u2003"])


def _join(draw, parts: list[str]) -> str:
    out = parts[0]
    for part in parts[1:]:
        # A separator is optional only next to a bracket; elsewhere it splits lexemes.
        optional = out.endswith("]") or part[0] in "[]"
        out += draw(_SEPS_OR_NONE if optional else _SEPS) + part
    return out


@st.composite
def _top_intent(draw, depth=0):
    parts = ["[IN:" + draw(_LABELS)]
    for _ in range(draw(st.integers(0, 3))):
        parts.append(draw(_WORDS) if draw(st.booleans()) else draw(_top_slot(depth)))
    return _join(draw, parts + ["]"])


@st.composite
def _top_slot(draw, depth):
    parts = ["[SL:" + draw(_LABELS)]
    shapes = ["tokens", "tokens", "intent", "mixed", "intents"] if depth < 2 else ["tokens"]
    shape = draw(st.sampled_from(shapes))
    if shape in ("tokens", "mixed"):
        parts += draw(st.lists(_WORDS, min_size=int(shape == "mixed"), max_size=3))
    for _ in range({"intent": 1, "mixed": 1, "intents": 2}.get(shape, 0)):
        parts.insert(draw(st.integers(1, len(parts))), draw(_top_intent(depth + 1)))
    return _join(draw, parts + ["]"])


_OPENER = re.compile(r"\[(?:IN|SL):([^\s\[\]]*)")


@st.composite
def top_texts(draw):
    text = draw(_top_intent())
    corruption = draw(st.sampled_from(
        ["none", "none", "drop", "add", "prefix", "lower", "empty", "space", "stray", "roots"]
    ))
    openers = list(_OPENER.finditer(text))
    m = openers[draw(st.integers(0, len(openers) - 1))]
    if corruption == "drop":
        brackets = [i for i, c in enumerate(text) if c in "[]"]
        i = draw(st.sampled_from(brackets))
        text = text[:i] + text[i + 1:]
    elif corruption == "add":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from("[]")) + text[i:]
    elif corruption == "prefix":
        text = text[:m.start()] + "[XX:" + text[m.start() + 4:]
    elif corruption in ("lower", "empty"):
        label = m.group(1).lower() if corruption == "lower" else ""
        text = text[:m.start(1)] + label + text[m.end(1):]
    elif corruption == "space":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(_SPACES)) + text[i:]
    elif corruption == "stray":
        text = draw(_WORDS) + " " + text
    elif corruption == "roots":
        text = text + draw(_SEPS_OR_NONE) + draw(_top_intent())
    return text


def _outcome(convert, text):
    try:
        return convert(text)
    except (TopFormatError, MixedSlotError) as e:
        return e


def _is_mixed(outcome) -> bool:
    return isinstance(outcome, ValueError) and "mixes intent and token children" in str(outcome)


@settings(max_examples=600)
@given(top_texts())
def test_top_to_call_matches_tree_oracle(text):
    got, want = _outcome(top_to_call, text), _outcome(tree_oracle, text)
    if _is_mixed(got) or _is_mixed(want):
        # The oracle finds a mixed slot only after the whole parse, so any
        # format error comes first there; one pass reports it at the slot's "]".
        assert isinstance(got, TopFormatError) and isinstance(want, ValueError)
        if _is_mixed(got):
            # Up to that "]", the oracle's parser found nothing wrong either.
            end = got.offset + 1
            with pytest.raises(TopFormatError, match=re.escape(f"unbalanced '[' at offset {end}")):
                _parse_tree(text[:end])
    elif isinstance(got, ValueError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        # An ApiCall equals the plain tuple with the same fields, so == alone
        # would pass a converter that builds plain tuples.
        assert got == want
        assert all(type(node) is ApiCall for node in calls_in(got))


def _pool():
    rows = [
        ("e1", 'A ( X = "1" )'),
        ("e2", 'A ( Y = "2" )'),
        ("e3", 'B ( X = "3" )'),
        ("e4", 'B ( Y = "4" )'),
        ("e5", 'A ( X = "5" , Y = "6" )'),
        ("e6", 'C ( )'),
    ]
    return [Example(i, "toy", f"utt {i}", call) for i, call in rows]


def test_spis_each_label_once_selects_everything():
    pool = [
        Example("e1", "toy", "u1", 'A ( X = "1" )'),
        Example("e2", "toy", "u2", 'B ( Y = "2" )'),
    ]
    assert spis_sample(pool, 1, seed=0) == pool


def test_spis_coverage():
    pool = _pool()
    for n in (1, 2, 5):
        sampled = spis_sample(pool, n, seed=17)
        all_labels = set().union(*map(genutil.spis_labels, pool))
        for label in all_labels:
            available = sum(1 for e in pool if label in genutil.spis_labels(e))
            got = sum(1 for e in sampled if label in genutil.spis_labels(e))
            assert got >= min(n, available)


def test_spis_large_n_keeps_rare_examples():
    pool = _pool()
    sampled = spis_sample(pool, 100, seed=1)
    assert sampled == pool


def test_spis_deterministic():
    pool = _pool()
    assert spis_sample(pool, 1, seed=5) == spis_sample(pool, 1, seed=5)


def test_spis_names_the_first_example_without_api_call():
    pool = _pool() + [Example(f"t{i}", "toy", "u", None, "[IN:F ]") for i in range(4)]
    for seed in range(8):
        with pytest.raises(ExampleFormatError, match="^example 't0' has no api_call$"):
            spis_sample(pool, 1, seed)


def test_spis_rejects_an_empty_pool():
    with pytest.raises(ValueError, match="^examples must be non-empty$"):
        spis_sample([], 1, seed=0)


def test_spis_rejects_bad_n():
    with pytest.raises(ValueError):
        spis_sample(_pool(), 0, seed=0)


def test_examples_round_trip(tmp_path):
    path = tmp_path / "examples.jsonl"
    pool = _pool()
    write_examples(pool, path)
    assert load_examples(path) == pool


def test_load_empty_file(tmp_path):
    path = tmp_path / "examples.jsonl"
    path.write_text("")
    assert load_examples(path) == []


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"id": "x"}',
        '{"id": "x", "domain": "d", "utterance": "u"}',
        '{"id": "x", "domain": "d", "utterance": "u", "api_call": "broken ("}',
        # A repeated id: retrieval keys a precomputed vector by id, so this
        # record would be ranked with the first one's vector.
        '{"id": "ok", "domain": "d", "utterance": "v", "api_call": "F ( )"}',
    ],
)
def test_load_malformed_line_reports_line_number(tmp_path, line):
    path = tmp_path / "examples.jsonl"
    path.write_text('{"id": "ok", "domain": "d", "utterance": "u", "api_call": "F ( )"}\n' + line + "\n")
    with pytest.raises(ExampleFormatError) as err:
        load_examples(path)
    assert ":2:" in str(err.value)


def test_convert_example_names_the_example_of_a_malformed_top_parse():
    top = "[IN:GET_ALARMS show"
    with pytest.raises(ExampleFormatError) as err:
        convert_example(Example("t1", "alarm", "show", None, top))
    assert str(err.value) == "example 't1': unbalanced '[' at offset 19"
    cause = err.value.__cause__
    assert type(cause) is TopFormatError and cause.offset == 19 == len(top)
    assert str(cause) == "unbalanced '[' at offset 19"


def test_convert_example():
    record = Example("e1", "alarm", "show my alarms for tomorrow", None, SHOW_ALARMS_TOP)
    converted = convert_example(record)
    assert converted.api_call == 'SHOW_ALARMS ( DATE_TIME = "for tomorrow" )'
    assert converted.top_parse == SHOW_ALARMS_TOP
    with pytest.raises(ExampleFormatError) as err:
        convert_example(Example("e2", "alarm", "u", "F ( )", None))
    assert str(err.value) == "example 'e2' has no top_parse"


def test_the_srd_chain_parses_no_call(tmp_path, parse_calls):
    # Each pool call is built once, by top_to_call, and carried from there.
    path = tmp_path / "top.jsonl"
    tops = [SHOW_ALARMS_TOP, FIG1_TOP, "[IN:GET_ALARMS alarms ]"]
    write_examples([Example(f"t{i}", "d", f"utterance {i}", None, t) for i, t in enumerate(tops)], path)
    pool = [convert_example(e) for e in load_examples(path)]
    sampled = spis_sample(pool, 1, seed=3)
    build_index(pool, HashedBowEmbedder())
    assert parse_calls == []
    assert [e.call for e in pool] == [top_to_call(t) for t in tops]
    assert sampled and all(e.call == parse(e.api_call) for e in sampled)


def test_load_examples_parses_each_api_call_once(tmp_path, parse_calls):
    path = tmp_path / "examples.jsonl"
    pool = _pool()
    write_examples(pool, path)
    parse_calls.clear()
    loaded = load_examples(path, require_api_call=True)
    assert parse_calls == [(e.api_call,) for e in pool]
    assert [e.call for e in loaded] == [e.call for e in pool]


def test_load_examples_can_require_an_api_call(tmp_path):
    path = tmp_path / "examples.jsonl"
    pool = _pool() + [Example("t1", "toy", "alarms", None, SHOW_ALARMS_TOP)]
    write_examples(pool, path)
    assert [e.id for e in load_examples(path)] == [e.id for e in pool]
    line = len(pool)
    with pytest.raises(ExampleFormatError, match=rf"^{re.escape(str(path))}:{line}: record lacks api_call$"):
        load_examples(path, require_api_call=True)


def test_records_survive_pickle_and_deepcopy():
    call = top_to_call(FIG1_TOP)
    example = convert_example(Example("e1", "nav", "show me", None, FIG1_TOP))
    for copied in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        assert copied(call) == call
        again = copied(example)
        assert again == example and again.call == call


def test_example_call_is_left_out_of_eq_hash_repr_and_jsonl():
    plain = Example("e1", "d", "u", "F ( )")
    # No caller can pass a call, so only the private constructor can build a
    # record whose call is not parse(api_call), as it does here on purpose.
    other = Example._parsed("e1", "d", "u", "F ( )", None, ApiCall("G"))
    assert (plain.call, other.call) == (ApiCall("F"), ApiCall("G"))
    assert plain == other and hash(plain) == hash(other)
    assert repr(plain) == repr(other) == (
        "Example(id='e1', domain='d', utterance='u', api_call='F ( )', top_parse=None)"
    )
    assert dump_example(plain) == dump_example(other) == (
        '{"api_call": "F ( )", "domain": "d", "id": "e1", "utterance": "u"}'
    )
    with pytest.raises(TypeError):
        Example("e1", "d", "u", "F ( )", None, ApiCall("G"))


@pytest.mark.parametrize("api_call", ['G ( B = "y" )', "F ( )", None])
def test_replace_parses_the_new_api_call(api_call):
    converted = convert_example(Example("e1", "nav", "show me", None, FIG1_TOP))
    for example in (converted, Example("e2", "d", "u", 'F ( A = "x" )')):
        again = dataclasses.replace(example, api_call=api_call)
        assert again.call == (None if api_call is None else parse(api_call))
        assert dataclasses.replace(example, top_parse="[IN:F ]").call == example.call
    with pytest.raises(ParseError):
        dataclasses.replace(converted, api_call="F (")


def test_a_hand_built_example_parses_its_api_call():
    assert Example("e1", "d", "u", 'F ( A = "x" )').call == ApiCall("F", (("A", "x"),))
    assert Example("e1", "d", "u", None, "[IN:F ]").call is None
    with pytest.raises(ParseError) as err:
        Example("e1", "d", "u", "F (")
    assert err.value.kind is ParseErrorKind.UNBALANCED_PAREN


def test_example_keeps_its_positional_field_order():
    names = [f.name for f in dataclasses.fields(Example)]
    assert names == ["id", "domain", "utterance", "api_call", "top_parse", "call"]
