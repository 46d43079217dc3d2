"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import itertools
import math
import random
import re
import time
from pathlib import Path

import pytest

from apicheck.constraints import check, violation_rates
from apicheck.decode import (
    Mode,
    advance,
    allowed_tokens,
    mock_decode,
    new_session,
    overhead_report,
    Vocab,
)
from apicheck.expr import ApiCall, parse, serialize
from apicheck.metrics import EvalPair, evaluate
from apicheck.retrieval import HashedBowEmbedder, build_index, build_prompt, retrieve_scored
from apicheck.spec import ApiSpec, derive_from_corpus
from apicheck.topconvert import Example, spis_sample

import genutil
from test_decode import oracle_segmentations, segmentations

DATA = Path(__file__).parent / "data"


def _ok(name):
    print(f"[acceptance] {name}: PASS")


# -- criterion: zero-violation decoding ---------------------------------------


def test_zero_violation_decoding():
    start = time.perf_counter()
    rng = random.Random(2024)
    runs = 0
    for _spec_idx in range(10):
        spec, _calls = genutil.random_corpus_spec(rng, n_calls=12)
        vocabs = [
            genutil.char_vocab(spec),
            genutil.merge_vocab(spec, rng),
            genutil.spanning_vocab(spec, rng),
        ]
        for vocab in vocabs:
            initial = new_session(spec, vocab, max_string_len=8, max_depth=3)
            for seed in range(34):
                text = mock_decode(initial, seed, max_steps=6000)
                assert check(text, spec).signature.as_tuple() == (1, 1, 1, 1)
                runs += 1
    assert runs >= 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _ok(f"zero-violation decoding ({runs} runs, {elapsed:.1f}s)")


# -- criterion: constraint-checker oracle equivalence --------------------------

_IDENT_RE = re.compile(r"[A-Z_][A-Z0-9_]*")
_STRING_RE = re.compile(r'"(?:[^"\\]|\\["\\])*"')


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos] in " \t\n\r":
            pos += 1
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(("ident", m.group()))
            pos = m.end()
            continue
        m = _STRING_RE.match(text, pos)
        if m:
            tokens.append(("string", m.group()))
            pos = m.end()
            continue
        if text[pos] in "(),=":
            tokens.append((text[pos], text[pos]))
            pos += 1
            continue
        return None
    return tokens


def _oracle_parse(tokens, i, pairs, functions, arguments):
    """Independent recursive check; returns next index or None."""
    if i >= len(tokens) or tokens[i][0] != "ident":
        return None
    fname = tokens[i][1]
    functions.append(fname)
    i += 1
    if i >= len(tokens) or tokens[i][0] != "(":
        return None
    i += 1
    if i < len(tokens) and tokens[i][0] == ")":
        return i + 1
    while True:
        if i >= len(tokens) or tokens[i][0] != "ident":
            return None
        aname = tokens[i][1]
        arguments.append(aname)
        pairs.append((fname, aname))
        i += 1
        if i >= len(tokens) or tokens[i][0] != "=":
            return None
        i += 1
        if i >= len(tokens):
            return None
        if tokens[i][0] == "string":
            i += 1
        elif tokens[i][0] == "ident":
            i = _oracle_parse(tokens, i, pairs, functions, arguments)
            if i is None:
                return None
        else:
            return None
        if i >= len(tokens):
            return None
        if tokens[i][0] == ")":
            return i + 1
        if tokens[i][0] != ",":
            return None
        i += 1


def oracle_signature(text, spec):
    tokens = _oracle_tokenize(text)
    if not tokens:
        return (0, 0, 0, 0)
    pairs, functions, arguments = [], [], []
    end = _oracle_parse(tokens, 0, pairs, functions, arguments)
    if end is None or end != len(tokens):
        return (0, 0, 0, 0)
    c_f = int(all(f in spec.functions for f in functions))
    c_a = int(all(a in spec.arguments for a in arguments))
    c_fa = int(all(a in spec.args_for(f) for f, a in pairs))
    return (1, c_f, c_a, c_fa)


def _mutate_name(rng, call):
    flats = []

    def rename(node):
        if rng.random() < 0.5:
            return ApiCall(genutil.random_identifier(rng, 6), node.args)
        if node.args:
            idx = rng.randrange(len(node.args))
            args = list(node.args)
            args[idx] = (genutil.random_identifier(rng, 6), args[idx][1])
            return ApiCall(node.function, tuple(args))
        return ApiCall(genutil.random_identifier(rng, 6), node.args)

    return rename(call)


def _corrupt_syntax(rng, text):
    ops = rng.choice(["delete", "insert", "truncate"])
    if ops == "truncate" and len(text) > 2:
        return text[: rng.randrange(1, len(text))]
    if ops == "delete" and text:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    i = rng.randrange(len(text) + 1)
    return text[:i] + rng.choice('()",=') + text[i:]


def test_checker_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(7)
    spec, calls = genutil.random_corpus_spec(rng, n_calls=30)
    cases = []
    for i in range(500):
        call = genutil.random_call(rng, spec)
        if i % 4 in (0, 1):
            cases.append(serialize(call))
        elif i % 4 == 2:
            cases.append(serialize(_mutate_name(rng, call)))
        else:
            cases.append(_corrupt_syntax(rng, serialize(call)))
    agree = 0
    for text in cases:
        got = check(text, spec).signature.as_tuple()
        want = oracle_signature(text, spec)
        assert got == want, (text, got, want)
        agree += 1
    elapsed = time.perf_counter() - start
    assert agree == 500
    assert elapsed < 10.0
    _ok(f"checker oracle equivalence (500/500, {elapsed:.1f}s)")


# -- criterion: worked-example signature ---------------------------------------


def test_worked_example_signature():
    spec = ApiSpec(
        frozenset({"GET_ALARMS"}),
        frozenset({"DATE_TIME"}),
        {"GET_ALARMS": frozenset({"DATE_TIME"})},
    )
    report = check('SHOW_ALARMS ( DATE_TIME = "tomorrow" )', spec)
    assert report.signature.as_tuple() == (1, 0, 1, 0)
    _ok("worked-example signature (1, 0, 1, 0)")


# -- criterion: segmentation DP vs exhaustive oracle ---------------------------


def test_segmentation_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(99)
    for _ in range(200):
        name = genutil.random_identifier(rng, max_len=8)
        texts = set()
        target = rng.randint(1, 12)
        while len(texts) < target:
            if rng.random() < 0.35:
                texts.add(genutil.random_identifier(rng, 3))
            else:
                i = rng.randrange(len(name))
                j = rng.randint(i + 1, min(len(name), i + 4))
                texts.add(name[i:j])
        vocab = Vocab.from_texts(sorted(texts))
        assert segmentations(name, vocab) == oracle_segmentations(name, vocab)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _ok(f"segmentation DP vs exhaustive oracle (200/200, {elapsed:.1f}s)")


# -- criterion: soundness / no dead ends ---------------------------------------


def _walk_graph(spec, vocab, max_string_len, max_depth):
    initial = new_session(spec, vocab, max_string_len=max_string_len, max_depth=max_depth)
    seen = {initial.config}
    edges = {}
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        succs = []
        for tid in sorted(allowed_tokens(state)):
            nxt = advance(state, tid)
            succs.append(nxt.config)
            if nxt.config not in seen:
                seen.add(nxt.config)
                frontier.append(nxt)
        edges[state.config] = succs
    return initial, seen, edges


def test_soundness_no_dead_ends_and_completeness():
    start = time.perf_counter()
    spec = ApiSpec(
        frozenset({"F", "G", "H"}),
        frozenset({"A", "B"}),
        {"F": frozenset({"A", "B"}), "G": frozenset({"A"}), "H": frozenset()},
    )
    vocab = genutil.char_vocab(spec, extra="a")
    initial, seen, edges = _walk_graph(spec, vocab, max_string_len=2, max_depth=2)

    # backward reachability of Complete
    complete = {cfg for cfg in seen if cfg[0] is Mode.COMPLETE}
    assert complete
    can_finish = set(complete)
    changed = True
    while changed:
        changed = False
        for cfg, succs in edges.items():
            if cfg not in can_finish and any(s in can_finish for s in succs):
                can_finish.add(cfg)
                changed = True
    dead = seen - can_finish - complete
    assert not dead, f"{len(dead)} dead-end states"

    # completeness: every depth<=2 valid call (distinct args, tiny strings)
    def calls_of_depth(depth):
        out = []
        for fn in sorted(spec.functions):
            arg_names = sorted(spec.args_for(fn))
            for r in range(len(arg_names) + 1):
                for combo in itertools.permutations(arg_names, r):
                    value_choices = ["", "a"]
                    if depth > 1:
                        value_choices += calls_of_depth(depth - 1)
                    for values in itertools.product(value_choices, repeat=len(combo)):
                        out.append(ApiCall(fn, tuple(zip(combo, values))))
        return out

    by_text = {t: i for i, t in vocab.tokens}
    all_calls = calls_of_depth(2)
    for call in all_calls:
        state = initial
        for ch in serialize(call):
            tid = by_text[ch]
            assert tid in allowed_tokens(state), (serialize(call), ch)
            state = advance(state, tid)
        assert state.is_complete
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(
        f"soundness/no-dead-ends ({len(seen)} states, "
        f"{len(all_calls)} depth<=2 calls reachable, {elapsed:.1f}s)"
    )


# -- criterion: SRD ranking -----------------------------------------------------


def test_srd_ranking_matches_cosine_oracle():
    words = ["alarm", "music", "weather", "traffic", "timer", "remind",
             "play", "show", "delete", "update"]
    rng = random.Random(5)
    pool = []
    for i in range(50):
        utterance = " ".join(rng.choice(words) for _ in range(rng.randint(2, 6)))
        pool.append(Example(f"e{i:02d}", "toy", utterance, "F ( )"))
    embedder = HashedBowEmbedder()
    index = build_index(pool, embedder)
    query = "play some alarm music"
    got = retrieve_scored(index, query, 10)

    qv = list(embedder.embed(query))
    oracle = []
    for ex in pool:
        ev = list(embedder.embed(ex.utterance))
        dot = sum(a * b for a, b in zip(qv, ev))
        nq = math.sqrt(sum(a * a for a in qv))
        ne = math.sqrt(sum(b * b for b in ev))
        sim = 0.0 if nq == 0 or ne == 0 else dot / (nq * ne)
        oracle.append((ex.id, sim))
    oracle.sort(key=lambda t: (-t[1], t[0]))

    assert [e.id for e, _s in got] == [i for i, _s in oracle[:10]]
    sims = [s for _e, s in got]
    assert sims == sorted(sims, reverse=True)
    for (_e, s_got), (_i, s_want) in zip(got, oracle[:10]):
        assert abs(s_got - s_want) < 1e-12
    _ok("SRD ranking matches pairwise-cosine oracle")


# -- criterion: prompt byte-exactness -------------------------------------------


def test_prompt_byte_exact_golden():
    from test_retrieval import DESCRIPTION, GOLDEN_DEMOS, _examples

    prompt = build_prompt(DESCRIPTION, _examples(GOLDEN_DEMOS),
                          "driving directions to the stadium")
    golden = (DATA / "golden_prompt.txt").read_text(encoding="utf-8")
    assert prompt == golden
    assert "#[TEST QUERY]\nExample 11:" in prompt
    _ok("prompt byte-exact vs golden file")


# -- criterion: SPIS coverage ----------------------------------------------------


def _labels(example):
    from apicheck.expr import flatten

    labels = set()
    for flat in flatten(parse(example.api_call)):
        labels.add(flat.function)
        labels.update(n for n, _ in flat.args)
    return labels


def test_spis_coverage_and_determinism():
    rng = random.Random(13)
    spec, calls = genutil.random_corpus_spec(rng, n_calls=40)
    pool = [
        Example(f"e{i:02d}", "toy", f"utterance {i}", serialize(c))
        for i, c in enumerate(calls)
    ]
    all_labels = set().union(*(_labels(e) for e in pool))
    for n in (1, 5):
        sampled = spis_sample(pool, n, seed=17)
        assert sampled == spis_sample(pool, n, seed=17)
        for label in all_labels:
            available = sum(1 for e in pool if label in _labels(e))
            got = sum(1 for e in sampled if label in _labels(e))
            assert got >= min(n, available), (label, n, got, available)
    _ok("SPIS coverage for n in {1, 5}, deterministic")


# -- criterion: metrics vs hand counts -------------------------------------------


def _f1(tp, fp, fn):
    p = 1.0 if tp + fp == 0 and tp + fn == 0 else (0.0 if tp + fp == 0 else tp / (tp + fp))
    r = 1.0 if tp + fn == 0 and tp + fp == 0 else (0.0 if tp + fn == 0 else tp / (tp + fn))
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def test_metrics_match_hand_counts():
    batches = [
        # (pairs, expected EM, intent (tp,fp,fn), slot (tp,fp,fn))
        (
            [EvalPair('F ( A = "x" )', 'F ( A = "x" )')],
            1.0, (1, 0, 0), (1, 0, 0),
        ),
        (
            [EvalPair('F ( A = "x" , B = "y" )', "F ( )")],
            0.0, (1, 0, 0), (0, 0, 2),
        ),
        (
            [
                EvalPair('F ( A = "x" , B = "y" )', 'F ( A = "x" , C = "y" )'),
                EvalPair('G ( A = "z" )', 'G ( A = "z" )'),
            ],
            0.5, (2, 0, 0), (2, 1, 1),
        ),
        (
            [
                EvalPair('F ( A = G ( B = "x" ) )', 'F ( A = H ( B = "x" ) )'),
                EvalPair("F ( )", "broken ("),
            ],
            0.0, (1, 1, 2), (1, 1, 1),
        ),
        (
            [EvalPair("F ( )", "F ( )"), EvalPair("G ( )", "F ( )")],
            0.5, (1, 1, 1), (0, 0, 0),
        ),
    ]
    for pairs, want_em, intents, slots in batches:
        report = evaluate(pairs)
        assert abs(report.exact_match - want_em) < 1e-9
        assert abs(report.intent_f1 - _f1(*intents)) < 1e-9
        assert abs(report.slot_f1 - _f1(*slots)) < 1e-9
    perfect = evaluate([EvalPair('F ( A = "x" )', 'F(A="x")')])
    assert perfect.exact_match == 1.0
    assert perfect.intent_f1 == 1.0 and perfect.slot_f1 == 1.0
    _ok("metrics match hand-counted TP/FP/FN on 5 batches")


# -- criterion: overhead report ---------------------------------------------------


def test_overhead_report_10k_steps():
    rng = random.Random(3)
    spec, _calls = genutil.random_corpus_spec(rng, n_calls=12)
    vocab = genutil.char_vocab(spec)
    report = overhead_report(spec, vocab, n_steps=10_000)
    assert report.n_steps == 10_000
    assert report.build_time_s >= 0.0
    assert report.constrained_per_step_s > 0.0
    assert report.baseline_per_step_s > 0.0
    assert report.ratio >= 1.0
    _ok(f"overhead report (ratio {report.ratio:.1f}x, reported not asserted vs paper)")
