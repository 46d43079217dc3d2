"""Self-test of the benchmark: its generators are deterministic per seed and its
output checks reject planted wrong outputs.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

import checks
import gen
import run


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def generators() -> None:
    spec1, spec2 = gen.topv2_spec(1), gen.topv2_spec(2)
    expect(gen.topv2_spec(1) == spec1 and spec1 != spec2, "topv2_spec is a function of the seed")
    lengths = [sorted(map(len, s["functions"] + s["arguments"])) for s in (spec1, spec2)]
    expect(lengths[0] == lengths[1] and lengths[0][-1] == gen.LONGEST_NAME,
           "name lengths are the same for every seed")
    vocab = gen.large_vocab(1, spec1)
    expect(vocab == gen.large_vocab(1, spec1) and vocab != gen.large_vocab(2, spec2),
           "large_vocab is a function of the seed")
    expect(len(vocab) + 1 == gen.V_LARGE and len(set(vocab)) == len(vocab),
           "large vocab has V_LARGE distinct tokens with end-of-sequence")
    expect({chr(c) for c in range(32, 127)} <= set(vocab), "large vocab has every printable character")
    toys = gen.toy_specs(1)
    expect(toys == gen.toy_specs(1) and toys != gen.toy_specs(2), "toy_specs is a function of the seed")
    expect(all(len(t) + 1 == gen.V_SMALL for _, t in toys), "toy vocabs have V_SMALL tokens")
    pairs = gen.score_pairs(1, spec1)
    expect(pairs == gen.score_pairs(1, spec1) and pairs != gen.score_pairs(2, spec2),
           "score_pairs is a function of the seed")
    pool = gen.top_pool(1, spec1)
    expect(pool == gen.top_pool(1, spec1) and pool != gen.top_pool(2, spec2),
           "top_pool is a function of the seed")


def decode_check(api) -> None:
    spec_dict = gen.topv2_spec(3)
    spec = api.spec.ApiSpec(
        frozenset(spec_dict["functions"]), frozenset(spec_dict["arguments"]),
        spec_dict["associations"],
    )
    good = gen.canonical(gen.random_call(random.Random(0), spec_dict, 3, gen.two_words, 2))
    expect(checks.decode_emission(api, spec, good) == [], "decode check accepts a valid emission")
    bad = "ZZ_NOT_A_FUNCTION" + good[good.index(" ( "):]
    expect(checks.decode_emission(api, spec, bad) != [], "decode check rejects an unknown function")
    spaced = good.replace(" ( ", "(", 1)
    expect(checks.decode_emission(api, spec, spaced) != [], "decode check rejects non-canonical text")
    toy_dict, texts = gen.toy_specs(3)[0]
    toy = api.spec.ApiSpec(
        frozenset(toy_dict["functions"]), frozenset(toy_dict["arguments"]),
        toy_dict["associations"],
    )
    dec = api.decode
    state = dec.new_session(toy, dec.Vocab.from_texts(texts), 8, 3)
    ordered = sorted(dec.allowed_tokens(state))
    picks = [checks.mask_pick(dec.advance, dec.DisallowedTokenError, state, ordered, random.Random(k))
             for k in range(20)]
    expect(all(problems == [] for problems in picks), "mask check accepts the library's allowed set")
    leak = next(t for t in range(len(texts) + 1) if t not in ordered)
    problems = checks.mask_pick(dec.advance, dec.DisallowedTokenError, state, [leak], random.Random(0))
    expect(problems != [], "mask check rejects a planted disallowed token")


def score_check(api, work: Path) -> None:
    spec = gen.topv2_spec(4)
    pairs = gen.score_pairs(4, spec)
    spec_path, preds_path, pairs_path = work / "spec.json", work / "preds.txt", work / "pairs.jsonl"
    gen.write_spec(spec_path, spec)
    preds_path.write_text("".join(p["predicted"] + "\n" for p in pairs), encoding="utf-8")
    gen.write_jsonl(pairs_path, ({"gold": p["gold"], "predicted": p["predicted"]} for p in pairs))
    outs = []
    for argv in (["check", "--spec", str(spec_path), str(preds_path)],
                 ["eval", "--spec", str(spec_path), "--pairs", str(pairs_path)]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            api.cli.main(argv)
        outs.append(buf.getvalue())
    expected = gen.expected_score_output(pairs)
    expect(checks.score_outputs(outs[0], outs[1], expected) == [], "score check accepts the CLI output")
    flipped = outs[0].replace("1 1 1 1", "1 1 1 0", 1)
    expect(checks.score_outputs(flipped, outs[1], expected) != [], "score check rejects a wrong bit")
    lines = outs[1].splitlines()
    lines[1] = "exact match: 0.9999"
    planted = "\n".join(lines) + "\n"
    expect(checks.score_outputs(outs[0], planted, expected) != [], "score check rejects a wrong EM")


def srd_check(api) -> None:
    spec = gen.topv2_spec(5)
    pool, queries = gen.top_pool(5, spec)
    pool = pool[:400]
    examples = [
        api.topconvert.Example(r["id"], r["domain"], r["utterance"], gen.canonical(r["call"]))
        for r in pool
    ]
    index = api.retrieval.build_index(examples, api.retrieval.HashedBowEmbedder())
    oracle = checks.Oracle([r["id"] for r in pool], [r["utterance"] for r in pool])
    query = queries[0]
    scored = api.retrieval.retrieve_scored(index, query, run.TOP_K)
    result = [(ex.id, sim) for ex, sim in scored]
    expect(checks.ranking(result, oracle, query, run.TOP_K) == [], "ranking check accepts the library")
    i = next(j for j in range(len(result) - 1) if result[j][1] > result[j + 1][1] + checks.EPS)
    swapped = result[:i] + [result[i + 1], result[i]] + result[i + 2 :]
    expect(checks.ranking(swapped, oracle, query, run.TOP_K) != [], "ranking check rejects a swap")
    shifted = [(result[0][0], result[0][1] + 1e-9)] + result[1:]
    expect(checks.ranking(shifted, oracle, query, run.TOP_K) != [],
           "ranking check rejects a similarity off by 1e-9")
    demos = [ex for ex, _ in scored]
    prompt = api.retrieval.build_prompt(checks.DESCRIPTION, demos, query)
    pairs = [(ex.utterance, ex.api_call) for ex in demos]
    expect(prompt == checks.expected_prompt(pairs, query), "prompt check accepts the library")
    expect(prompt != checks.expected_prompt(pairs[::-1], query), "prompt check rejects reordered demos")
    labels = [run._labels(r["call"]) for r in pool]
    position = {r["id"]: i for i, r in enumerate(pool)}
    kept = [position[ex.id] for ex in api.topconvert.spis_sample(examples, run.SPIS_N, 5)]
    expect(checks.spis(labels, kept, run.SPIS_N) == [], "SPIS check accepts the library")
    label = pool[kept[0]]["call"][0]
    expect(checks.spis(labels, [i for i in kept if label not in labels[i]], run.SPIS_N) != [],
           "SPIS check rejects a sample that drops a label")
    expect(checks.spis(labels, kept[::-1], run.SPIS_N) != [], "SPIS check rejects a reordered sample")


def main() -> int:
    api = run.import_apicheck()
    generators()
    decode_check(api)
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        score_check(api, Path(tmp))
    srd_check(api)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
