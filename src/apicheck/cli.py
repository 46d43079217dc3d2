"""Command-line surface over the library modules.

Exit codes: 0 success, 1 bad input (parse failure, malformed file, out-of-range
value, ...), 2 usage error. Machine-readable results go to stdout, diagnostics
to stderr. Commands let library errors propagate; ``main`` is the one place that
turns them into a single ``error:`` line and exit 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path

from . import constraints, decode, metrics, retrieval, spec as apispec, topconvert
from .expr import ApiCall, ParseError, flatten, parse, serialize

DEFAULT_SEED = 17
DEFAULT_DESCRIPTION = (
    "Follow the examples below and generate API Calls from the users' utterances"
)


def _cmd_parse(args) -> int:
    print(serialize(parse(args.expression)))
    return 0


def _cmd_flatten(args) -> int:
    for flat in flatten(parse(args.expression)):
        rec = {"index": flat.index, "function": flat.function, "args": []}
        for name, value in flat.args:
            key = "text" if isinstance(value, str) else "child"
            rec["args"].append({"name": name, key: value})
        print(json.dumps(rec, sort_keys=True))
    return 0


def _cmd_derive_spec(args) -> int:
    examples = topconvert.load_examples(args.examples, require_api_call=True)
    derived = apispec.derive_from_corpus([parse(e.api_call) for e in examples])
    if args.out:
        apispec.save_spec(derived, args.out)
    else:
        print(apispec.dump_spec(derived))
    return 0


def _cmd_check(args) -> int:
    loaded = apispec.load_spec(args.spec)
    lines = Path(args.predictions).read_text(encoding="utf-8").splitlines()
    reports = [constraints.check(line, loaded) for line in lines if line.strip()]
    if not reports:
        raise ValueError(f"{args.predictions}: no predictions")
    for report in reports:
        print(constraints.format_report_line(report))
    print(constraints.format_summary(constraints.violation_rates(reports)))
    return 0


def _cmd_eval(args) -> int:
    loaded = apispec.load_spec(args.spec)
    calls: list[tuple[ApiCall, ApiCall | None]] = []
    reports: list[constraints.ViolationReport] = []
    for lineno, rec in topconvert.iter_records(args.pairs):
        for key in ("gold", "predicted"):
            if not isinstance(rec.get(key), str):
                raise ValueError(f"{args.pairs}:{lineno}: missing field {key!r}")
        try:
            gold = parse(rec["gold"])
        except ParseError as e:
            raise ValueError(f"{args.pairs}:{lineno}: gold does not parse ({e})") from e
        predicted, violations = constraints.parse_and_check(rec["predicted"], loaded)
        calls.append((gold, predicted))
        reports.append(violations)
    if not calls:
        raise ValueError(f"{args.pairs}: no evaluation pairs")
    report = metrics.evaluate_calls(calls)
    rates = constraints.violation_rates(reports)
    print(f"examples: {report.n}")
    print(f"exact match: {report.exact_match:.4f}")
    print(f"intent F1: {report.intent_f1:.4f}")
    print(f"slot F1: {report.slot_f1:.4f}")
    print(constraints.format_summary(rates))
    return 0


def _cmd_convert_top(args) -> int:
    examples = topconvert.load_examples(args.infile)
    converted = []
    for example in examples:
        try:
            converted.append(topconvert.convert_example(example))
        except (topconvert.TopFormatError, topconvert.TopConvertError) as e:
            raise ValueError(f"example {example.id!r}: {e}") from e
    if args.out:
        topconvert.write_examples(converted, args.out)
    else:
        for e in converted:
            print(topconvert.dump_example(e))
    return 0


def _cmd_sample_spis(args) -> int:
    examples = topconvert.load_examples(args.infile, require_api_call=True)
    sampled = topconvert.spis_sample(examples, args.n, args.seed)
    if args.out:
        topconvert.write_examples(sampled, args.out)
    else:
        for e in sampled:
            print(topconvert.dump_example(dataclasses.replace(e, top_parse=None)))
    return 0


def _build_index(args) -> retrieval.DemoIndex:
    pool = topconvert.load_examples(args.pool, require_api_call=True)
    if args.embeddings:
        vectors = retrieval.load_embeddings(args.embeddings)
        embedder: retrieval.Embedder = retrieval.PrecomputedEmbedder(vectors)
    else:
        embedder = retrieval.HashedBowEmbedder()
    return retrieval.build_index(pool, embedder)


def _cmd_retrieve(args) -> int:
    index = _build_index(args)
    for example, sim in retrieval.retrieve_scored(index, args.query, args.k):
        print(f"{example.id}\t{sim:.6f}\t{example.utterance}")
    return 0


def _cmd_prompt(args) -> int:
    index = _build_index(args)
    description = DEFAULT_DESCRIPTION
    if args.desc_file:
        description = Path(args.desc_file).read_text(encoding="utf-8").rstrip("\n")
    demos = retrieval.retrieve(index, args.query, args.k)
    query_text = args.query_text if args.query_text is not None else args.query
    print(retrieval.build_prompt(description, demos, query_text))
    return 0


def _cmd_decode_sim(args) -> int:
    if args.runs < 1:
        raise ValueError("runs must be >= 1")
    loaded = apispec.load_spec(args.spec)
    vocab = decode.load_vocab(args.vocab)
    start = decode.new_session(loaded, vocab, args.max_string_len, args.max_depth)
    reports = []
    incomplete = 0
    for run in range(args.runs):
        try:
            text = decode.mock_decode(start, args.seed + run, args.max_steps)
        except decode.IncompleteDecodeError as e:
            incomplete += 1
            print(f"run {run}: INCOMPLETE {e.emitted!r}", file=sys.stderr)
            continue
        reports.append(constraints.check(text, loaded))
        print(text)
    if reports:
        print(constraints.format_summary(constraints.violation_rates(reports)))
    print(f"runs: {args.runs} completed: {len(reports)} incomplete: {incomplete}")
    return 0 if incomplete == 0 else 1


def _cmd_mask(args) -> int:
    if args.max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    loaded = apispec.load_spec(args.spec)
    vocab = decode.load_vocab(args.vocab)
    state = decode.new_session(loaded, vocab, args.max_string_len, args.max_depth)
    walk = decode.iter_steps(state, random.Random(args.seed).choice)
    for step, (_state, ids) in zip(range(args.max_steps if args.state_trace else 1), walk):
        print(f"{step}\t" + ",".join(str(i) for i in ids))
    return 0


def _cmd_overhead(args) -> int:
    loaded = apispec.load_spec(args.spec)
    vocab = decode.load_vocab(args.vocab)
    report = decode.overhead_report(loaded, vocab, args.steps, args.seed)
    print(f"steps: {report.n_steps}")
    print(f"build time: {report.build_time_s:.6f} s")
    print(f"constrained per-step: {report.constrained_per_step_s * 1e6:.3f} us")
    print(f"baseline per-step: {report.baseline_per_step_s * 1e6:.3f} us")
    print(f"ratio: {report.ratio:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apicheck",
        description="Measure, analyze, and eliminate constraint violations in generated API calls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its canonical form")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("flatten", help="print the flattened call list as JSON lines")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("derive-spec", help="derive an API spec from an example corpus")
    p.add_argument("--examples", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_derive_spec)

    p = sub.add_parser("check", help="check predictions (one per line) against a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("predictions")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("eval", help="semantic-parsing metrics plus violation rates")
    p.add_argument("--spec", required=True)
    p.add_argument("--pairs", required=True, help="JSONL with gold/predicted/utterance")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("convert-top", help="convert top_parse records to api_call records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert_top)

    p = sub.add_parser("sample-spis", help="samples-per-intent-and-slot subset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample_spis)

    p = sub.add_parser("retrieve", help="rank pool examples by similarity to a query")
    p.add_argument("--pool", required=True)
    p.add_argument("--query", required=True,
                   help="query text (or example id when --embeddings is given)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--embeddings")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("prompt", help="build an in-context prompt with retrieved demos")
    p.add_argument("--pool", required=True)
    p.add_argument("--query", required=True,
                   help="query text (or example id when --embeddings is given)")
    p.add_argument("--query-text", help="test utterance to print when --query is an id")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--desc-file")
    p.add_argument("--embeddings")
    p.set_defaults(func=_cmd_prompt)

    p = sub.add_parser("decode-sim", help="seeded mock decoding runs plus violation summary")
    p.add_argument("--spec", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=4096)
    p.add_argument("--max-string-len", type=int, default=64)
    p.add_argument("--max-depth", type=int, default=3)
    p.set_defaults(func=_cmd_decode_sim)

    p = sub.add_parser("mask", help="dump allowed-token sets per step")
    p.add_argument("--spec", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--state-trace", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-steps", type=int, default=4096)
    p.add_argument("--max-string-len", type=int, default=64)
    p.add_argument("--max-depth", type=int, default=3)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("overhead", help="constrained vs. unconstrained per-step timing")
    p.add_argument("--spec", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_overhead)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every library input error, an unknown embedding id included, is a ValueError.
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
