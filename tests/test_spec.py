import copy
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from apicheck.expr import parse
from apicheck.spec import ApiSpec, SpecFormatError, derive_from_corpus, load_spec, save_spec
from conftest import api_calls

FIG1 = parse(
    'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) '
    ', PATH = "1st ave" )'
)


def test_derive_empty_corpus():
    assert derive_from_corpus([]) == ApiSpec()


def test_derive_fig1():
    spec = derive_from_corpus([FIG1])
    assert spec.functions == {"GET_DIRECTIONS", "GET_LOCATION"}
    assert spec.arguments == {"DESTINATION", "PATH", "CATEGORY_LOCATION"}
    assert spec.args_for("GET_DIRECTIONS") == {"DESTINATION", "PATH"}
    assert spec.args_for("GET_LOCATION") == {"CATEGORY_LOCATION"}


def test_derive_unions_shared_function():
    spec = derive_from_corpus([parse('F ( A = "1" )'), parse('F ( B = "2" )')])
    assert spec.args_for("F") == {"A", "B"}


def test_args_for_unknown_function_is_empty():
    assert derive_from_corpus([FIG1]).args_for("NOPE") == frozenset()


def test_equal_specs_hash_equal():
    # A function with no arguments is the same spec with or without its key.
    with_key = ApiSpec({"F"}, set(), {"F": set()})
    without_key = ApiSpec({"F"}, set(), {})
    assert with_key == without_key
    assert hash(with_key) == hash(without_key)
    assert hash(ApiSpec()) == hash(ApiSpec())
    assert len({with_key, without_key, derive_from_corpus([FIG1])}) == 2
    assert with_key.__eq__(with_key.functions) is NotImplemented  # no other type is a spec
    assert with_key != with_key.functions


def test_associations_are_read_only():
    spec = derive_from_corpus([FIG1])
    before = hash(spec)
    with pytest.raises(TypeError):
        spec.associations["GET_DIRECTIONS"] = frozenset()
    with pytest.raises(TypeError):
        del spec.associations["GET_LOCATION"]
    assert all(isinstance(a, frozenset) for a in spec.associations.values())
    assert hash(spec) == before


def test_spec_pickles_and_copies():
    spec = derive_from_corpus([FIG1])
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
        assert twin == spec and hash(twin) == hash(spec)
        with pytest.raises(TypeError):
            twin.associations["GET_DIRECTIONS"] = frozenset()


def test_invalid_association_key():
    with pytest.raises(SpecFormatError):
        ApiSpec(frozenset({"F"}), frozenset({"A"}), {"G": {"A"}})


def test_invalid_association_value():
    with pytest.raises(SpecFormatError):
        ApiSpec(frozenset({"F"}), frozenset({"A"}), {"F": {"B"}})


def test_rejects_names_that_are_not_identifiers():
    # Names must parse back: "get ( )" is no call, and the decoder's prefix
    # table ends a name at " ".
    with pytest.raises(SpecFormatError) as err:
        ApiSpec(frozenset({"get", "GET"}), frozenset({"TWO WORDS", "A-B", "1A", "OK"}),
                {"get": frozenset({"TWO WORDS"}), "GET": frozenset({"OK", "A-B", "1A"})})
    assert str(err.value) == "names are not identifiers: 1A, A-B, TWO WORDS, get"


def test_unprintable_names_are_quoted_so_the_error_is_one_line():
    # A line break or U+2028 inside a name would split the CLI's "error:" line.
    with pytest.raises(SpecFormatError) as err:
        ApiSpec(frozenset({"A\nB", "get"}), frozenset({"C\u2028D"}), {})
    assert str(err.value) == "names are not identifiers: 'A\\nB', 'C\\u2028D', get"


def test_save_load_round_trip(tmp_path):
    spec = derive_from_corpus([FIG1])
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    assert load_spec(path) == spec
    # byte-stable output
    first = path.read_bytes()
    save_spec(load_spec(path), path)
    assert path.read_bytes() == first


def test_load_empty_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"functions": [], "arguments": [], "associations": {}}')
    assert load_spec(path) == ApiSpec()


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[]",
        '{"functions": []}',
        '{"functions": [], "arguments": [], "associations": {"F": ["A"]}}',
        '{"functions": {}, "arguments": [], "associations": {}}',
        '{"functions": [1], "arguments": [], "associations": {}}',
        '{"functions": ["F"], "arguments": [], "associations": {"F": "A"}}',
        '{"functions": ["get"], "arguments": ["when"], "associations": {"get": ["when"]}}',
        '{"functions": [""], "arguments": [], "associations": {}}',
    ],
)
def test_load_malformed(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(doc)
    with pytest.raises(SpecFormatError):
        load_spec(path)


@given(st.lists(api_calls, max_size=6), st.randoms())
def test_derive_order_insensitive(calls, rnd):
    shuffled = list(calls)
    rnd.shuffle(shuffled)
    assert derive_from_corpus(shuffled) == derive_from_corpus(calls)


@given(st.lists(api_calls, max_size=5), st.lists(api_calls, max_size=3))
def test_derive_monotone(base, extra):
    small = derive_from_corpus(base)
    big = derive_from_corpus(base + extra)
    assert small.functions <= big.functions
    assert small.arguments <= big.arguments
    for f in small.associations:
        assert small.args_for(f) <= big.args_for(f)
