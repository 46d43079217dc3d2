import importlib.util
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from apicheck import expr
from apicheck.expr import ApiCall

settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile("default")

# The language of r"[A-Z_][A-Z0-9_]{0,7}"; st.from_regex drew it about 6x slower.
FIRST = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
identifiers = st.builds(
    str.__add__, st.sampled_from(FIRST), st.text(FIRST + "0123456789", max_size=7)
)

string_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)


def _mk_call(function, args):
    return ApiCall(function, tuple(args))


values = st.recursive(
    string_texts,
    lambda children: st.builds(
        _mk_call, identifiers, st.lists(st.tuples(identifiers, children), max_size=6)
    ),
    max_leaves=12,
)

api_calls = st.builds(
    _mk_call,
    identifiers,
    st.lists(st.tuples(identifiers, values), max_size=6),
)


@pytest.fixture
def parse_calls(monkeypatch):
    """The arguments of every parse made from now on: every module's ``parse``
    looks up ``expr._parse`` at each call."""
    calls = []
    original = expr._parse

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(expr, "_parse", counted)
    return calls


@pytest.fixture(scope="session")
def v32k_inputs(tmp_path_factory):
    """The paths of perfbench's seed-1 decode-32k spec and 32,000-token vocab,
    the size of a real LLM vocabulary, written once per test run by
    ``perfbench/gen.py``."""
    loader = importlib.util.spec_from_file_location(
        "gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen)
    spec = gen.topv2_spec(1)
    directory = tmp_path_factory.mktemp("v32k")
    paths = directory / "spec.json", directory / "vocab.tsv"
    gen.write_spec(paths[0], spec)
    gen.write_vocab(paths[1], gen.large_vocab(1, spec))
    return paths
