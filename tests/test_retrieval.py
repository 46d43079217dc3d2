import hashlib
import math
import re
import tracemalloc
from dataclasses import dataclass

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given

from apicheck import retrieval
from apicheck.retrieval import (
    DemoIndex,
    EmbeddingLookupError,
    HashedBowEmbedder,
    PrecomputedEmbedder,
    build_index,
    build_prompt,
    load_embeddings,
    retrieve,
    retrieve_scored,
    save_embeddings,
)
from apicheck.topconvert import Example

import genutil

GOLDEN_DEMOS = [
    ("d01", "show my alarms for tomorrow", 'SHOW_ALARMS ( DATE_TIME = "tomorrow" )'),
    ("d02", "what is traffic like on saturday", 'GET_INFO_TRAFFIC ( DATE_TIME = "on saturday" )'),
    ("d03", "set a timer for ten minutes", 'CREATE_TIMER ( DURATION = "ten minutes" )'),
    ("d04", "message olivia that i am late",
     'SEND_MESSAGE ( RECIPIENT = "olivia" , CONTENT = "i am late" )'),
    ("d05", "how long is the flight to jamaica",
     'GET_ESTIMATED_DURATION ( METHOD_TRAVEL = "flight" , DESTINATION = "jamaica" )'),
    ("d06", "remind me to water the plants", 'CREATE_REMINDER ( TODO = "water the plants" )'),
    ("d07", "play some jazz music", 'PLAY_MUSIC ( MUSIC_GENRE = "jazz" )'),
    ("d08", "will it rain this weekend",
     'GET_WEATHER ( DATE_TIME = "this weekend" , WEATHER_ATTRIBUTE = "rain" )'),
    ("d09", "directions to the auditorium",
     'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) )'),
    ("d10", "delete my noon alarm", 'DELETE_ALARM ( DATE_TIME = "noon" )'),
]

DESCRIPTION = "Follow the examples below and generate API Calls from the users' utterances"


def _examples(rows):
    return [Example(i, "toy", utt, call) for i, utt, call in rows]


def _pool():
    return _examples(
        [
            ("p1", "show my alarms", "A ( )"),
            ("p2", "play jazz music", "B ( )"),
            ("p3", "weather in boston", "C ( )"),
        ]
    )


def test_default_embedder_deterministic_unit_norm():
    emb = HashedBowEmbedder()
    v1 = emb.embed("show my alarms for tomorrow")
    v2 = emb.embed("show my alarms for tomorrow")
    assert np.array_equal(v1, v2)
    assert math.isclose(float(np.linalg.norm(v1)), 1.0, rel_tol=1e-12)
    assert emb.embed("").sum() == 0.0


def test_embedder_caches_a_bounded_number_of_words(monkeypatch):
    monkeypatch.setattr(retrieval, "_MAX_CACHED_TOKENS", 2)
    emb = HashedBowEmbedder(dimension=64)
    text = "show my alarms show jazz my"
    first, again = emb.embed(text), emb.embed(text)
    assert len(emb._buckets) == 2
    want = np.zeros(64)
    for word in text.split():
        want[int(hashlib.sha1(word.encode()).hexdigest(), 16) % 64] += 1.0
    assert np.array_equal(first, want / np.linalg.norm(want))
    assert np.array_equal(again, first)


def _unit_rows(index):
    """The (P, D) unit rows of a sparse pool, rebuilt from its posting lists."""
    rows = np.zeros((len(index.examples), index.embedder.dimension))
    for dim, (hits, values) in enumerate(zip(index.rows, index.values)):
        assert np.all(np.diff(hits) > 0) and np.all(values != 0)
        rows[hits, dim] = values
    return rows


def test_build_index_counts_and_duplicates():
    # 300 more rows, among them empty utterances, which give zero rows.
    rng = np.random.default_rng(11)
    utterances = [" ".join(rng.choice(_WORDS, rng.integers(0, 5))) for _ in range(300)]
    pool = _pool() + _examples([("p4", "show my alarms", "A ( )")] +
                               [(f"u{i:03d}", u, "A ( )") for i, u in enumerate(utterances)])
    emb = HashedBowEmbedder()
    index = build_index(pool, emb)
    assert len(index.examples) == 304
    # A sparse pool is held as posting lists only, each row scaled on its own.
    assert index.matrix is None
    rows = _unit_rows(index)
    assert np.array_equal(rows[0], rows[3])
    for row, ex in zip(rows, pool):
        assert row.tobytes() == emb.embed(ex.utterance).tobytes()


def test_build_index_keeps_a_sparse_pool_as_posting_lists():
    pool = [Example(f"p{i}", "toy", f"word{i} show my alarms", "A ( )") for i in range(1000)]
    emb = HashedBowEmbedder()
    tracemalloc.start()
    try:
        index = build_index(pool, emb)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert index.matrix is None
    assert peak < len(pool) * emb.dimension * 8 / 5


def test_build_index_holds_one_copy_of_the_pool():
    # A dense pool keeps the column-major matrix and no posting lists.
    rng = np.random.default_rng(5)
    vectors = {f"p{i}": rng.standard_normal(1024) for i in range(1000)}
    pool = _examples([(key, "u", "A ( )") for key in vectors])
    emb = PrecomputedEmbedder(vectors)
    tracemalloc.start()
    try:
        index = build_index(pool, emb)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * index.matrix.nbytes
    assert index.rows is None and index.values is None and index.matrix.flags.f_contiguous
    for row, key in zip(index.matrix, vectors):
        assert np.array_equal(row, vectors[key] / np.linalg.norm(vectors[key]))


def test_build_index_rejects_empty():
    with pytest.raises(ValueError):
        build_index([], HashedBowEmbedder())


def test_identical_query_ranked_first_with_similarity_one():
    index = build_index(_pool(), HashedBowEmbedder())
    ranked = retrieve_scored(index, "play jazz music", 3)
    assert ranked[0][0].id == "p2"
    assert ranked[0][1] == pytest.approx(1.0)


def test_disjoint_tokens_similarity_zero():
    index = build_index(_pool(), HashedBowEmbedder())
    ranked = dict((e.id, s) for e, s in retrieve_scored(index, "zzqq unseen words", 3))
    assert all(s == 0.0 for s in ranked.values())


def test_ranking_matches_pairwise_cosine_oracle():
    pool = _examples(
        [
            ("a", "play jazz music tonight", "A ( )"),
            ("b", "play rock music", "B ( )"),
            ("c", "set an alarm", "C ( )"),
        ]
    )
    emb = HashedBowEmbedder()
    index = build_index(pool, emb)
    query = "play music"
    qv = emb.embed(query)
    oracle = [(ex.id, genutil.cosine(qv, emb.embed(ex.utterance))) for ex in pool]
    oracle.sort(key=lambda t: (-t[1], t[0]))
    got = [(e.id, s) for e, s in retrieve_scored(index, query, 2)]
    for (gid, gsim), (oid, osim) in zip(got, oracle[:2]):
        assert gid == oid
        assert gsim == pytest.approx(osim)


def test_ties_broken_by_ascending_id():
    vectors = {"x2": np.array([1.0, 0.0]), "x1": np.array([2.0, 0.0]), "x3": np.array([0.0, 1.0])}
    pool = _examples([("x2", "u", "A ( )"), ("x1", "u", "A ( )"), ("x3", "u", "A ( )")])
    index = build_index(pool, PrecomputedEmbedder({**vectors, "q": np.array([1.0, 0.0])}))
    got = retrieve(index, "q", 3)
    assert [e.id for e in got] == ["x1", "x2", "x3"]


def test_ties_are_equal_to_12_decimals():
    # Both cosines are sqrt(4/11), but float arithmetic may compute them a bit
    # apart (one cosine at a time gives b one more ULP); they tie, so a comes first.
    query = "for is please show can is night my today you what me set for mom office to rain"
    pool = _examples(
        [
            ("b", "for my for is is meeting my the kids am is friday to today heavy want warm "
                  "how movie please mom song", "B ( )"),
            ("a", "is please can you alarm mom for snow", "A ( )"),
        ]
    )
    index = build_index(pool, HashedBowEmbedder())
    got = retrieve_scored(index, query, 2)
    assert [e.id for e, _s in got] == ["a", "b"]
    assert all(abs(s - math.sqrt(4 / 11)) < 1e-12 for _e, s in got)
    assert [e.id for e in retrieve(index, query, 1)] == ["a"]


def _assert_matches_oracle(index, query, query_vec, ids, pool_vecs, k):
    """retrieve_scored against pairwise cosines ordered by (-round(sim, 12), id)."""
    sims = [genutil.cosine(query_vec, v) for v in pool_vecs]
    # Next to a rounding boundary, two computations of one cosine that differ
    # in the last bit may round apart; the rule itself is only defined away from it.
    assume(all(abs(abs(s) * 1e12 % 1 - 0.5) > 1e-3 for s in sims))
    oracle = sorted(zip(ids, sims), key=lambda t: (-round(t[1], 12), t[0]))[:k]
    got = [(e.id, s) for e, s in retrieve_scored(index, query, k)]
    assert [i for i, _s in got] == [i for i, _s in oracle]
    assert all(abs(g - o) < 1e-12 for (_i, g), (_j, o) in zip(got, oracle))


def _ids(draw, n):
    return draw(st.lists(st.text("abc", min_size=1, max_size=3), unique=True,
                         min_size=n, max_size=n))


_WORDS = ["show", "my", "alarms", "play", "jazz", "rain"]
_phrases = st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join)


@st.composite
def _text_pools(draw):
    utterances = draw(st.lists(_phrases, min_size=1, max_size=8))
    n = len(utterances)
    return utterances, _ids(draw, n), draw(_phrases), draw(st.integers(1, n + 2))


@given(_text_pools())
@example((["show my", "play jazz", "show my"], ["b", "c", "a"], "show my", 1))
@example((["", "rain", ""], ["c", "b", "a"], "show", 2))
def test_retrieve_scored_matches_cosine_oracle(case):
    # Duplicate utterances, empty ones (zero rows) and k above the pool size.
    utterances, ids, query, k = case
    pool = _examples([(i, u, "A ( )") for i, u in zip(ids, utterances)])
    emb = HashedBowEmbedder()
    index = build_index(pool, emb)
    vecs = [emb.embed(u) for u in utterances]
    _assert_matches_oracle(index, query, emb.embed(query), ids, vecs, k)


_vectors = st.tuples(*[st.integers(-1, 2)] * 3)
# Up to 12 nonzeros in 64 dimensions: pools sparse (posting lists) and dense
# (at least 8 nonzeros a row on average, a matrix), and queries that the matrix
# oracle ranks by summing their columns (at most 7 nonzeros) or by the product.
_sparse_vectors = st.dictionaries(st.integers(0, 63), st.integers(-1, 2), max_size=12).map(
    lambda entries: tuple(entries.get(i, 0) for i in range(64)))


@st.composite
def _vector_pools(draw):
    vectors = draw(st.sampled_from([_vectors, _sparse_vectors]))
    base = draw(st.lists(vectors, min_size=1, max_size=8))
    scales = draw(st.lists(st.sampled_from([1.0, 0.1, 3.0, 1e6]),
                           min_size=len(base), max_size=len(base)))
    rows = [np.array(v, dtype=np.float64) * c for v, c in zip(base, scales)]
    query = np.array(draw(vectors), dtype=np.float64)
    return rows, _ids(draw, len(rows)), query, draw(st.integers(1, len(rows) + 2))


def _at_64(*entries):
    v = np.zeros(64)
    v[list(entries)] = np.arange(1.0, len(entries) + 1)
    return v


@given(_vector_pools())
@example(([np.array([1.0, 1.0, 0.0]), np.array([0.3, 0.3, 0.0]), np.zeros(3)], ["b", "a", "c"],
          np.array([1.0, 2.0, 0.0]), 1))
@example(([_at_64(0, 5), _at_64(5, 9, 63), _at_64(9), np.zeros(64)], ["a", "b", "c", "d"],
          _at_64(5, 9, 40, 63), 3))
@example(([_at_64(0, 5), _at_64(5, 9, 63), 3.0 * _at_64(5, 9, 63)], ["b", "c", "a"],
          _at_64(*range(64)), 2))
def test_retrieve_scored_matches_cosine_oracle_on_precomputed_vectors(case):
    # Scaled copies of one direction, zero vectors, a zero query and k above the
    # pool size; pools of both layouts, with sparse and dense queries.
    rows, ids, query, k = case
    vectors = {"?query": query, **dict(zip(ids, rows))}
    pool = _examples([(i, "u", "A ( )") for i in ids])
    index = build_index(pool, PrecomputedEmbedder(vectors))
    _assert_matches_oracle(index, "?query", query, ids, rows, k)


@dataclass(frozen=True)
class _MatrixIndex:
    examples: tuple
    vectors: np.ndarray
    embedder: object


def _matrix_build_index(examples, embedder):
    """The column-major (P, D) index the posting lists replaced, kept as an oracle."""
    if not examples:
        raise ValueError("cannot build an index over zero examples")
    vectors = np.empty((len(examples), embedder.dimension), dtype=np.float64, order="F")
    for row, ex in zip(vectors, examples):
        unit = embedder.embed(ex.id if embedder.keyed_by_id else ex.utterance)
        if len(unit) != embedder.dimension:
            raise ValueError(
                f"embedder dimension mismatch: {len(unit)} != {embedder.dimension}"
            )
        row[:] = unit
    return _MatrixIndex(tuple(examples), vectors, embedder)


def _matrix_retrieve_scored(index, utterance, k):
    """Ranking over ``_matrix_build_index``: a sparse query sums its columns, a
    query with at least one dimension in eight nonzero takes the matrix product."""
    if k <= 0:
        raise ValueError("k must be positive")
    unit = index.embedder.embed(utterance)
    cols = np.flatnonzero(unit)
    if 8 * len(cols) < len(unit):
        sims = np.zeros(len(index.vectors))
        for col in cols:
            sims += index.vectors[:, col] * unit[col]
    else:
        sims = index.vectors @ unit
    rounded = np.round(sims, 12)
    candidates = range(len(sims))
    if k < len(sims):
        kth = np.partition(rounded, len(sims) - k)[len(sims) - k]
        candidates = np.flatnonzero(rounded >= kth).tolist()
    examples = index.examples
    best = sorted(candidates, key=lambda i: (-rounded[i], examples[i].id))[:k]
    return [(examples[i], float(sims[i])) for i in best]


def _assert_matches_matrix_oracle(pool, embedder, query, k):
    index = build_index(pool, embedder)
    oracle_index = _matrix_build_index(pool, embedder)
    want = [(e.id, s) for e, s in _matrix_retrieve_scored(oracle_index, query, k)]
    got = [(e.id, s) for e, s in retrieve_scored(index, query, k)]
    if index.matrix is None and 8 * np.count_nonzero(embedder.embed(query)) < embedder.dimension:
        # The oracle summed the query's columns, in the order the lists are read.
        assert got == want
        return
    # One of the two took the matrix product, which may sum in another order;
    # away from a rounding boundary, the order and similarities still agree.
    everything = _matrix_retrieve_scored(oracle_index, query, len(pool))
    assume(all(abs(abs(s) * 1e12 % 1 - 0.5) > 1e-3 for _e, s in everything))
    assert [i for i, _s in got] == [i for i, _s in want]
    assert all(abs(g - w) < 1e-12 for (_i, g), (_j, w) in zip(got, want))


@given(_text_pools(), st.sampled_from([4, 16, 64, 1024]))
@example((["show my", "", "show my", "rain"], ["b", "c", "a", "d"], "show my rain", 6), 1024)
@example((["show my", "", "show my", "rain"], ["b", "c", "a", "d"], "show my rain", 6), 4)
@example((["", ""], ["b", "a"], "", 3), 16)
def test_posting_lists_match_the_matrix_oracle_on_hashed_pools(case, dimension):
    # Duplicate and empty utterances and k above the pool size; at a small
    # dimension both the pool and the query may be dense.
    utterances, ids, query, k = case
    pool = _examples([(i, u, "A ( )") for i, u in zip(ids, utterances)])
    _assert_matches_matrix_oracle(pool, HashedBowEmbedder(dimension), query, k)


@given(_vector_pools(), st.booleans())
@example(([_at_64(0, 5), _at_64(5, 9, 63), _at_64(9), np.zeros(64)], ["a", "b", "c", "d"],
          _at_64(9), 3), True)
@example(([np.array([1.0, 1.0, 0.0]), np.array([0.3, 0.3, 0.0]), np.zeros(3)], ["b", "a", "c"],
          np.array([1.0, 0.0, 0.0]), 4), False)
def test_posting_lists_match_the_matrix_oracle_on_precomputed_pools(case, fill_query):
    # Sparse pools at D=64 and dense ones at D=3, each with sparse and dense
    # queries: a filled query has no zero left.
    rows, ids, query, k = case
    if fill_query:
        query = np.where(query == 0, 1.0, query)
    vectors = {"?query": query, **dict(zip(ids, rows))}
    pool = _examples([(i, "u", "A ( )") for i in ids])
    _assert_matches_matrix_oracle(pool, PrecomputedEmbedder(vectors), "?query", k)


class _LoopHashedEmbedder:
    """The hashed bag-of-words rule as one ``+=`` per word into a zero vector,
    with no word cache, kept as an oracle for ``HashedBowEmbedder``."""

    keyed_by_id = False

    def __init__(self, dimension):
        self.dimension = dimension

    def embed(self, text):
        vec = np.zeros(self.dimension, dtype=np.float64)
        for token in re.findall(r"[a-z0-9]+", text.lower()):
            vec[int(hashlib.sha1(token.encode("utf-8")).hexdigest(), 16) % self.dimension] += 1.0
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec


def _per_example_build_index(examples, embedder):
    """The index built by embedding one example at a time, kept as an oracle:
    a precomputed pool with at least one stored entry in eight nonzero is a
    matrix, any other pool posting lists."""
    if not examples:
        raise ValueError("cannot build an index over zero examples")
    n, dim = len(examples), embedder.dimension
    keys = [ex.id if embedder.keyed_by_id else ex.utterance for ex in examples]
    units = [embedder.embed(key) for key in keys]
    for unit in units:
        if len(unit) != dim:
            raise ValueError(f"embedder dimension mismatch: {len(unit)} != {dim}")
    if isinstance(embedder, PrecomputedEmbedder) and (
            8 * sum(np.count_nonzero(embedder.vectors[key]) for key in keys) >= n * dim):
        matrix = np.zeros((n, dim), dtype=np.float64, order="F")
        for row, unit in zip(matrix, units):
            row[:] = unit
        return DemoIndex(tuple(examples), None, None, matrix, embedder)
    cols = [np.flatnonzero(unit) for unit in units]
    vals = [unit[c] for unit, c in zip(units, cols)]
    flat_cols = np.concatenate(cols)
    order = np.argsort(flat_cols, kind="stable")
    rows = np.repeat(np.arange(n), [len(c) for c in cols])[order]
    values = np.concatenate(vals)[order]
    bounds = [0, *np.cumsum(np.bincount(flat_cols, minlength=dim)).tolist()]
    spans = list(zip(bounds, bounds[1:]))
    return DemoIndex(
        tuple(examples),
        tuple(rows[a:b] for a, b in spans),
        tuple(values[a:b] for a, b in spans),
        None,
        embedder,
    )


def _same_arrays(got, want):
    """Both None, or as many arrays, pairwise of one dtype, shape and bytes."""
    if got is None or want is None:
        return got is None and want is None
    return len(got) == len(want) and all(
        g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        for g, w in zip(got, want)
    )


@given(_text_pools(), st.sampled_from([4, 16, 64, 1024]), st.sampled_from([2, 1 << 14]))
@example((["show my", "", "show my", "rain"], ["b", "c", "a", "d"], "", 1), 1024, 2)
@example((["show my alarms play", "jazz rain show"], ["b", "a"], "", 1), 64, 2)
@example((["", "", ""], ["b", "a", "c"], "", 1), 16, 1 << 14)
@example((["show show show my", "play jazz jazz"], ["b", "a"], "", 1), 4, 1 << 14)
@example((["my alarms jazz rain jazz", "", "play jazz my show show"], ["b", "a", "c"], "", 1),
         1024, 1 << 14)
@example((["show my jazz my rain", "rain"], ["b", "a"], "", 1), 16, 2)
def test_batch_build_index_is_bitwise_the_per_example_build(case, dimension, cache_bound):
    # Empty and duplicate utterances, an all-empty pool, dense pools at small
    # dimensions, and a word cache that fills up in the middle of the batch.
    utterances, ids, _query, _k = case
    pool = _examples([(i, u, "A ( )") for i, u in zip(ids, utterances)])
    want = _per_example_build_index(pool, _LoopHashedEmbedder(dimension))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "_MAX_CACHED_TOKENS", cache_bound)
        got = build_index(pool, HashedBowEmbedder(dimension))
    assert _same_arrays(got.rows, want.rows)
    assert _same_arrays(got.values, want.values)
    assert _same_arrays(None if got.matrix is None else [got.matrix],
                        None if want.matrix is None else [want.matrix])


@given(_vector_pools())
@example(([np.array([1.0, 1.0, 0.0]), np.zeros(3), np.array([0.3, -0.3, 2.0]), np.zeros(3)],
          ["b", "a", "c", "d"], np.zeros(3), 1))
# 8 nonzeros in 64, dense as stored, of which 7 underflow to 0 when divided by
# the length 3: the pool is a matrix, though its unit rows are sparse.
@example(([np.array([3.0] + [5e-324] * 7 + [0.0] * 56)] * 2, ["b", "a"], np.zeros(64), 1))
def test_precomputed_build_index_is_bitwise_the_per_example_build(case):
    # Dense pools at D=3, zero rows among them, are matrices; sparse ones at
    # D=64 keep posting lists.
    rows, ids, _query, _k = case
    emb = PrecomputedEmbedder(dict(zip(ids, rows)))
    pool = _examples([(i, "u", "A ( )") for i in ids])
    got, want = build_index(pool, emb), _per_example_build_index(pool, emb)
    assert _same_arrays(got.rows, want.rows)
    assert _same_arrays(got.values, want.values)
    assert _same_arrays(None if got.matrix is None else [got.matrix],
                        None if want.matrix is None else [want.matrix])


@pytest.mark.parametrize("embedder, dense", [
    (HashedBowEmbedder(), False),
    (HashedBowEmbedder(4), False),
    (PrecomputedEmbedder({"p1": _at_64(0, 5), "p2": _at_64(9), "p3": np.zeros(64)}), False),
    (PrecomputedEmbedder({"p1": np.ones(3), "p2": np.arange(3.0), "p3": np.zeros(3)}), True),
], ids=["hashed-sparse", "hashed-dense", "precomputed-sparse", "precomputed-dense"])
def test_build_index_embeds_the_pool_in_one_embed_pool_call(monkeypatch, embedder, dense):
    # Sparse and dense pools of both embedders take one path: one embed_pool
    # call for the whole pool, and no embed call per example. A hashed pool is
    # posting lists however dense; a dense precomputed pool is a matrix.
    calls = {"embed": 0, "embed_pool": 0}
    for name in calls:
        def counted(self, arg, _name=name, _method=getattr(type(embedder), name)):
            calls[_name] += 1
            return _method(self, arg)
        monkeypatch.setattr(type(embedder), name, counted)
    index = build_index(_pool(), embedder)
    assert calls == {"embed": 0, "embed_pool": 1}
    assert (index.matrix is not None) == dense


@st.composite
def _embedded_pools(draw):
    """An embedder and the keys of a pool: texts for a hashed one (at D=4 a pool
    is mostly dense, at D=1024 sparse), or the ids of precomputed vectors."""
    if draw(st.booleans()):
        texts = draw(st.lists(st.one_of(st.text(), _phrases), min_size=1, max_size=6))
        return HashedBowEmbedder(draw(st.sampled_from([4, 1024]))), texts
    rows, ids, _query, _k = draw(_vector_pools())
    return PrecomputedEmbedder(dict(zip(ids, rows))), ids


@given(_embedded_pools())
@example((HashedBowEmbedder(1024), ["", "?!, ...", "Show MY alarms!", "rain rain"]))
@example((HashedBowEmbedder(4), ["", "--"]))
@example((PrecomputedEmbedder({"p1": _at_64(0, 5), "p2": _at_64(9), "p3": np.zeros(64)}),
          ["p1", "p2", "p3"]))
@example((PrecomputedEmbedder({"b": np.array([1.0, 1.0, 0.0]), "a": np.zeros(3),
                               "c": np.array([0.3, -0.3, 2.0])}), ["b", "a", "c"]))
# Dense as stored, so both pools are matrices, and the 5e-324 entries
# underflow to 0 when divided by the length 3.
@example((PrecomputedEmbedder({"b": np.array([3.0] + [5e-324] * 7 + [0.0] * 56),
                               "a": np.array([3.0] + [5e-324] * 7 + [0.0] * 56)}), ["b", "a"]))
@example((PrecomputedEmbedder({"b": np.array([3.0, 5e-324, 5e-324]),
                               "a": np.array([1.0, 2.0, 0.0])}), ["b", "a"]))
def test_query_embed_is_the_batch_row(case):
    # A query and a pool row share one rule: embed(k) is k's row of
    # embed_pool, byte for byte, in the form the pool came in, and a zero
    # vector (text with no word) is a zero row.
    emb, keys = case
    pool = emb.embed_pool(keys)
    for i, key in enumerate(keys):
        query = emb.embed(key)
        if isinstance(pool, np.ndarray):
            assert pool[i].tobytes() == query.tobytes()
        else:
            rows, cols, values = pool
            at = rows == i
            assert np.array_equal(cols[at], np.flatnonzero(query))
            assert values[at].tobytes() == query[cols[at]].tobytes()
        if isinstance(emb, HashedBowEmbedder):
            assert query.tobytes() == _LoopHashedEmbedder(emb.dimension).embed(key).tobytes()


class _OtherLayout:
    """The wrapped embedder, with ``embed_pool`` giving its rows in the other layout."""

    def __init__(self, inner):
        self.inner, self.dimension, self.keyed_by_id = inner, inner.dimension, inner.keyed_by_id

    def embed(self, key):
        return self.inner.embed(key)

    def embed_pool(self, keys):
        pool = self.inner.embed_pool(keys)
        if isinstance(pool, np.ndarray):
            rows, cols = np.nonzero(pool)  # in row-major order, whatever the memory order
            return rows, cols, pool[rows, cols]
        rows, cols, values = pool
        matrix = np.zeros((len(keys), self.dimension), order="F")
        matrix[rows, cols] = values
        return matrix


@given(_embedded_pools())
@example((HashedBowEmbedder(4), ["show my", "", "show my rain", "jazz"]))
@example((PrecomputedEmbedder({"p1": _at_64(0, 5), "p2": _at_64(9), "p3": np.zeros(64)}),
          ["p1", "p2", "p3"]))
@example((PrecomputedEmbedder({"b": np.array([1.0, 1.0, 0.0]), "a": np.zeros(3),
                               "c": np.array([0.3, -0.3, 2.0])}), ["b", "a", "c"]))
def test_both_layouts_rank_alike(case):
    # The layout embed_pool picks affects speed only: a pool's matrix and its
    # posting lists rank every pool key, as a query, alike.
    emb, keys = case
    ids = keys if emb.keyed_by_id else [f"i{n}" for n in range(len(keys))]
    pool = _examples([(i, key, "A ( )") for i, key in zip(ids, keys)])
    index, other = build_index(pool, emb), build_index(pool, _OtherLayout(emb))
    assert (index.matrix is None) != (other.matrix is None)
    for query in keys:
        got = retrieve_scored(index, query, len(keys) + 1)
        want = retrieve_scored(other, query, len(keys) + 1)
        assume(all(abs(abs(s) * 1e12 % 1 - 0.5) > 1e-3 for _e, s in got))
        assert [e.id for e, _s in got] == [e.id for e, _s in want]
        assert all(abs(g - w) < 1e-12 for (_e, g), (_f, w) in zip(got, want))


@pytest.mark.parametrize("dimension", [0, -1])
def test_hashed_embedder_rejects_a_dimension_below_one(dimension):
    # It used to fail only at the first embed, with a ZeroDivisionError.
    with pytest.raises(ValueError, match=f"^embedding dimension must be >= 1, got {dimension}$"):
        HashedBowEmbedder(dimension)


def test_precomputed_embedder_rejects_vectors_of_length_zero():
    with pytest.raises(ValueError, match="^embedding dimension must be >= 1, got 0$"):
        PrecomputedEmbedder({"a": np.array([]), "b": np.array([])})


@pytest.mark.parametrize("vectors, message", [
    # Every vector 2-D: len() read the dimension as 2, and build_index failed
    # with an IndexError.
    ({"a": np.ones((2, 3)), "b": np.ones((2, 3))}, "vector 'a' must be 1-D, got shape (2, 3)"),
    ({"a": np.ones(3), "b": np.float64(1.0)}, "vector 'b' must be 1-D, got shape ()"),
    # A NaN component dropped its demo from a ranking or ranked it above a
    # finite one, and an infinite query vector ranked no demo at all.
    ({"a": np.ones(3), "b": np.array([1.0, np.nan, 0.0])}, "vector 'b' has a non-finite component"),
    ({"a": np.array([np.inf, 0.0]), "b": np.ones(2)}, "vector 'a' has a non-finite component"),
    ({"a": np.ones(2), "b": np.array([-np.inf, 1.0])}, "vector 'b' has a non-finite component"),
])
def test_precomputed_embedder_rejects_a_vector_that_is_not_1d(vectors, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PrecomputedEmbedder(vectors)


def test_load_embeddings_rejects_a_duplicate_id(tmp_path):
    # The last vector would otherwise silently replace the first.
    path = tmp_path / "vectors.tsv"
    path.write_text("a\t1.0,0.0\nb\t0.0,1.0\na\t0.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: duplicate id 'a'$"):
        load_embeddings(path)


def test_load_embeddings_rejects_a_line_without_a_tab(tmp_path):
    path = tmp_path / "vectors.tsv"
    path.write_text("a\t1.0,0.0\nb 0.0,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: expected id<TAB>values$"):
        load_embeddings(path)


@pytest.mark.parametrize("content", ["", "\n\n"])
def test_load_embeddings_rejects_a_file_with_no_vectors(tmp_path, content):
    # The embedder used to refuse it without naming the file.
    path = tmp_path / "vectors.tsv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: no vectors$"):
        load_embeddings(path)


def test_load_embeddings_rejects_a_vector_of_another_length(tmp_path):
    # Blank lines are skipped, so the first vector need not be on line 1.
    path = tmp_path / "vectors.tsv"
    path.write_text("\na\t1.0,0.0\nb\t0.0,1.0\nc\t0.0,1.0,2.0\n", encoding="utf-8")
    message = f"{path}:4: vector length 3, the first vector's is 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_embeddings(path)


def test_precomputed_embedder_rejects_vectors_of_two_lengths():
    vectors = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0, 2.0])}
    with pytest.raises(ValueError, match=re.escape("inconsistent vector dimensions: [2, 3]")):
        PrecomputedEmbedder(vectors)


@pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
def test_load_embeddings_rejects_non_finite(tmp_path, component):
    path = tmp_path / "vectors.tsv"
    path.write_text(f"a\t1.0,0.0\nb\t0.5,{component}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: bad vector component"):
        load_embeddings(path)


def test_scale_invariance_of_ranking():
    base = {"a": np.array([1.0, 1.0]), "b": np.array([1.0, 0.0]), "q": np.array([1.0, 0.5])}
    scaled = {**base, "a": base["a"] * 37.0}
    pool = _examples([("a", "u", "A ( )"), ("b", "u", "A ( )")])
    r1 = [e.id for e in retrieve(build_index(pool, PrecomputedEmbedder(base)), "q", 2)]
    r2 = [e.id for e in retrieve(build_index(pool, PrecomputedEmbedder(scaled)), "q", 2)]
    assert r1 == r2


def test_retrieve_contract():
    index = build_index(_pool(), HashedBowEmbedder())
    with pytest.raises(ValueError):
        retrieve(index, "x", 0)
    got = retrieve_scored(index, "show my alarms", 10)
    assert len(got) == 3  # min(k, pool)
    sims = [s for _e, s in got]
    assert sims == sorted(sims, reverse=True)
    assert retrieve(index, "show my alarms", 2) == retrieve(index, "show my alarms", 2)


def test_precomputed_embedder_missing_id():
    emb = PrecomputedEmbedder({"a": np.array([1.0])})
    with pytest.raises(EmbeddingLookupError):
        emb.embed("missing")


def test_embeddings_file_round_trip(tmp_path):
    path = tmp_path / "vectors.tsv"
    vectors = {"a": np.array([0.25, -1.5]), "b": np.array([3.0, 0.0])}
    save_embeddings(vectors, path)
    loaded = load_embeddings(path)
    assert set(loaded) == {"a", "b"}
    for key in vectors:
        assert np.array_equal(loaded[key], vectors[key])


@pytest.mark.parametrize("vectors", [
    {"a\tb": [1.0]}, {"a\nb": [1.0]}, {"a\rb": [1.0]}, {"\ufeffa": [1.0]},
    {"a": [float("nan")]}, {"a": []}, {"a": [1.0], "b": [1.0, 2.0]}, {"a": [[1.0]]}, {},
], ids=["tab", "newline", "return", "bom", "nan", "empty-vector", "two-lengths", "2d", "no-ids"])
def test_save_embeddings_refuses_what_load_embeddings_would(vectors, tmp_path):
    path = tmp_path / "vectors.tsv"
    with pytest.raises(ValueError):
        save_embeddings(vectors, path)
    assert not path.exists()


def test_save_embeddings_round_trips_odd_ids_and_values(tmp_path):
    path = tmp_path / "vectors.tsv"
    vectors = {"": [-0.0, 5e-324], "a b": [1e308, -1.0], "a\ufeff\x0c\u2028": [0.1, 1 / 3]}
    save_embeddings(vectors, path)
    loaded = load_embeddings(path)
    assert list(loaded) == sorted(vectors)
    for key, vec in vectors.items():
        assert loaded[key].tolist() == vec
        assert np.signbit(loaded[key]).tolist() == np.signbit(vec).tolist()


def test_prompt_refuses_a_demo_without_an_api_call():
    demos = _pool() + [Example("t1", "toy", "wake me up", None, "[IN:CREATE_ALARM wake me up ]")]
    with pytest.raises(ValueError, match="^demo 't1' has no api_call$"):
        build_prompt(DESCRIPTION, demos, "alarms")


def test_prompt_zero_demos():
    prompt = build_prompt("desc", [], "hello")
    assert prompt == "#[TASK DESCRIPTION]\ndesc\n\n#[TEST QUERY]\nExample 1:\nUser: hello\nAPI Call:"


def test_prompt_numbering_after_ten_demos():
    demos = _examples(GOLDEN_DEMOS)
    prompt = build_prompt(DESCRIPTION, demos, "anything")
    assert "Example 11:" in prompt.split("#[TEST QUERY]")[1]
    assert not prompt.endswith("\n")


def _split_prompt(prompt):
    """Reference splitter: recover demos and test utterance from a prompt."""
    head, _, tail = prompt.partition("#[TEST QUERY]\n")
    demos = []
    if "#[IN-CONTEXT EXAMPLES]\n" in head:
        body = head.split("#[IN-CONTEXT EXAMPLES]\n", 1)[1]
        for block in body.strip("\n").split("\n\n"):
            lines = block.split("\n")
            demos.append((lines[1][len("User: "):], lines[2][len("API Call: "):]))
    lines = tail.split("\n")
    test_utterance = lines[1][len("User: "):]
    return demos, test_utterance


def test_prompt_invertibility():
    demos = _examples(GOLDEN_DEMOS)
    prompt = build_prompt(DESCRIPTION, demos, "driving directions to the stadium")
    got_demos, got_test = _split_prompt(prompt)
    assert got_demos == [(u, c) for _i, u, c in GOLDEN_DEMOS]
    assert got_test == "driving directions to the stadium"
