import hypothesis.strategies as st
from hypothesis import settings

from apicheck.expr import ApiCall

settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile("default")

identifiers = st.from_regex(r"[A-Z_][A-Z0-9_]{0,7}", fullmatch=True)

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
