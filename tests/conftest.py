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
