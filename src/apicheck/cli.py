"""Command-line surface over the library modules.

Exit codes: 0 success, 1 bad input (parse failure, malformed file, out-of-range
value, ...), 2 usage error. Machine-readable results go to stdout, diagnostics
to stderr. Commands let library errors propagate and return nothing on success;
``main`` is the one place that decides the exit status: 0, or a single ``error:``
line and 1. Only ``decode-sim`` returns a status, 1 when a run is incomplete.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path

from . import constraints, decode, metrics, retrieval, spec as apispec, topconvert
from .expr import ApiCall, ParseError, parse, reading, serialize

DEFAULT_SEED = 17
DEFAULT_DESCRIPTION = (
    "Follow the examples below and generate API Calls from the users' utterances"
)


def _cmd_parse(args) -> None:
    print(serialize(parse(args.expression)))


def _flat_records(call: ApiCall, out: list[dict]) -> int:
    """Append the JSON records of ``call`` and its nested calls to ``out`` in
    pre-order, a nested call's value being its index; return ``call``'s index."""
    rec = {"index": len(out), "function": call.function, "args": []}
    out.append(rec)
    for name, value in call.args:
        arg = {"text": value} if isinstance(value, str) else {"child": _flat_records(value, out)}
        rec["args"].append({"name": name, **arg})
    return rec["index"]


def _cmd_flatten(args) -> None:
    records: list[dict] = []
    _flat_records(parse(args.expression), records)
    print("\n".join(json.dumps(rec, sort_keys=True) for rec in records))


def _cmd_derive_spec(args) -> None:
    examples = topconvert.load_examples(args.examples, require_api_call=True)
    derived = apispec.derive_from_corpus([e.call for e in examples])
    if args.out:
        apispec.save_spec(derived, args.out)
    else:
        print(apispec.dump_spec(derived))


def _cmd_check(args) -> None:
    loaded = apispec.load_spec(args.spec)
    # One prediction per "\n" line: a string value may hold "\r", "\x0c" or
    # "\u2028". Read as bytes, since a text read would turn "\r" into "\n".
    with reading(args.predictions):
        lines = Path(args.predictions).read_bytes().decode("utf-8-sig").split("\n")
    reports = [constraints.check(line, loaded) for line in lines if line.strip()]
    if not reports:
        raise ValueError(f"{args.predictions}: no predictions")
    for report in reports:
        print(constraints.format_report_line(report))
    print(constraints.format_summary(constraints.violation_rates(reports)))


def _cmd_eval(args) -> None:
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
    report = metrics.evaluate(calls)
    rates = constraints.violation_rates(reports)
    print(f"examples: {report.n}")
    print(f"exact match: {report.exact_match:.4f}")
    print(f"intent F1: {report.intent_f1:.4f}")
    print(f"slot F1: {report.slot_f1:.4f}")
    print(constraints.format_summary(rates))


def _cmd_convert_top(args) -> None:
    converted = [topconvert.convert_example(e) for e in topconvert.load_examples(args.infile)]
    if args.out:
        topconvert.write_examples(converted, args.out)
    else:
        for e in converted:
            print(topconvert.dump_example(e))


def _cmd_sample_spis(args) -> None:
    examples = topconvert.load_examples(args.infile, require_api_call=True)
    sampled = topconvert.spis_sample(examples, args.n, args.seed)
    if args.out:
        topconvert.write_examples(sampled, args.out)
    else:
        for e in sampled:
            print(topconvert.dump_example(e, with_top_parse=False))


def _build_index(args) -> retrieval.DemoIndex:
    pool = topconvert.load_examples(args.pool, require_api_call=True)
    if args.embeddings:
        vectors = retrieval.load_embeddings(args.embeddings)
        embedder: retrieval.Embedder = retrieval.PrecomputedEmbedder(vectors)
    else:
        embedder = retrieval.HashedBowEmbedder()
    return retrieval.build_index(pool, embedder)


def _cmd_retrieve(args) -> None:
    index = _build_index(args)
    for example, sim in retrieval.retrieve_scored(index, args.query, args.k):
        print(f"{example.id}\t{sim:.6f}\t{example.utterance}")


def _cmd_prompt(args) -> None:
    index = _build_index(args)
    description = DEFAULT_DESCRIPTION
    if args.desc_file:
        with reading(args.desc_file):
            description = Path(args.desc_file).read_text(encoding="utf-8-sig").rstrip("\n")
    demos = retrieval.retrieve(index, args.query, args.k)
    query_text = args.query_text if args.query_text is not None else args.query
    print(retrieval.build_prompt(description, demos, query_text))


def _load_decode(args) -> tuple[apispec.ApiSpec, decode.Vocab]:
    return apispec.load_spec(args.spec), decode.load_vocab(args.vocab)


def _start_state(args) -> decode.DecodeState:
    return decode.new_session(*_load_decode(args), args.max_string_len, args.max_depth)


def _cmd_decode_sim(args) -> int:
    if args.runs < 1:
        raise ValueError("runs must be >= 1")
    start = _start_state(args)
    reports = []
    incomplete = 0
    for run in range(args.runs):
        try:
            text = decode.mock_decode(start, args.seed + run, args.max_steps)
        except decode.IncompleteDecodeError as e:
            incomplete += 1
            print(f"run {run}: INCOMPLETE {e.emitted!r}", file=sys.stderr)
            continue
        reports.append(constraints.check(text, start.session.spec))
        print(text)
    if reports:
        print(constraints.format_summary(constraints.violation_rates(reports)))
    print(f"runs: {args.runs} completed: {len(reports)} incomplete: {incomplete}")
    return 0 if incomplete == 0 else 1


def _cmd_mask(args) -> None:
    if args.max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    walk = decode.iter_steps(_start_state(args), random.Random(args.seed).choice)
    for step, (_state, ids) in zip(range(args.max_steps if args.state_trace else 1), walk):
        print(f"{step}\t" + ",".join(str(i) for i in ids))


def _cmd_overhead(args) -> None:
    report = decode.overhead_report(*_load_decode(args), args.steps, args.seed)
    print(f"steps: {report.n_steps}")
    print(f"build time: {report.build_time_s:.6f} s")
    print(f"constrained per-step: {report.constrained_per_step_s * 1e6:.3f} us")
    print(f"baseline per-step: {report.baseline_per_step_s * 1e6:.3f} us")
    print(f"ratio: {report.ratio:.3f}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="apicheck",
        description="Measure, analyze, and eliminate constraint violations in generated API calls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, parents=()):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    # Options that several commands share, each declared once.
    decode_inputs = argparse.ArgumentParser(add_help=False)
    decode_inputs.add_argument("--spec", required=True)
    decode_inputs.add_argument("--vocab", required=True)
    decode_inputs.add_argument("--seed", type=int, default=DEFAULT_SEED)
    limits = argparse.ArgumentParser(add_help=False, parents=[decode_inputs])
    limits.add_argument("--max-steps", type=int, default=decode.DEFAULT_MAX_STEPS)
    limits.add_argument("--max-string-len", type=int, default=decode.DEFAULT_MAX_STRING_LEN)
    limits.add_argument("--max-depth", type=int, default=decode.DEFAULT_MAX_DEPTH)
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument("--pool", required=True)
    pool.add_argument("--query", required=True,
                      help="query text (or example id when --embeddings is given)")
    pool.add_argument("--k", type=int, required=True)
    pool.add_argument("--embeddings")

    p = command("parse", _cmd_parse, "parse an expression and print its canonical form")
    p.add_argument("expression")

    p = command("flatten", _cmd_flatten, "print the flattened call list as JSON lines")
    p.add_argument("expression")

    p = command("derive-spec", _cmd_derive_spec, "derive an API spec from an example corpus")
    p.add_argument("--examples", required=True)
    p.add_argument("--out")

    p = command("check", _cmd_check, "check predictions (one per line) against a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("predictions")

    p = command("eval", _cmd_eval, "semantic-parsing metrics plus violation rates")
    p.add_argument("--spec", required=True)
    p.add_argument("--pairs", required=True, help="JSONL with gold/predicted")

    p = command("convert-top", _cmd_convert_top, "convert top_parse records to api_call records")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = command("sample-spis", _cmd_sample_spis, "samples-per-intent-and-slot subset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")

    command("retrieve", _cmd_retrieve, "rank pool examples by similarity to a query", [pool])

    p = command("prompt", _cmd_prompt, "build an in-context prompt with retrieved demos", [pool])
    p.add_argument("--query-text", help="test utterance to print when --query is an id")
    p.add_argument("--desc-file")

    p = command("decode-sim", _cmd_decode_sim, "seeded mock decoding runs plus violation summary",
                [limits])
    p.add_argument("--runs", type=int, default=1)

    p = command("mask", _cmd_mask, "dump allowed-token sets per step", [limits])
    p.add_argument("--state-trace", action="store_true")

    p = command("overhead", _cmd_overhead, "constrained vs. unconstrained per-step timing",
                [decode_inputs])
    p.add_argument("--steps", type=int, default=10000)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every library input error, an unknown embedding id included, is a ValueError.
    try:
        return args.func(args) or 0
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
