import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from apicheck import decode
from apicheck.cli import build_parser, main
from apicheck.expr import ApiCall, parse, serialize
from apicheck.spec import ApiSpec, save_spec
from apicheck.decode import Vocab, save_vocab

import genutil
from conftest import api_calls
from test_scoring_oracle import flatten as flatten_oracle

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def toy_files(tmp_path):
    spec = ApiSpec(
        frozenset({"GET_ALARMS", "CREATE_ALARM"}),
        frozenset({"DATE_TIME"}),
        {"GET_ALARMS": frozenset({"DATE_TIME"}), "CREATE_ALARM": frozenset({"DATE_TIME"})},
    )
    spec_path = tmp_path / "spec.json"
    save_spec(spec, spec_path)
    vocab_path = tmp_path / "vocab.tsv"
    save_vocab(genutil.char_vocab(spec), vocab_path)
    return spec_path, vocab_path


def test_console_script_entry_point(capsys):
    # The `apicheck` script that installing the package would create.
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["apicheck"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["parse", 'F(A="x")']) == 0
    assert capsys.readouterr().out == 'F ( A = "x" )\n'


def test_parse_command_domain_error(capsys):
    assert main(["parse", "F ("]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["parse"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_main_builds_no_parser_after_the_first_call(monkeypatch, capsys):
    assert main(["parse", "F ( )"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(kw) or init(self, *a, **kw))
    assert main(["parse", "F ( )"]) == 0
    assert main(["flatten", "F ( )"]) == 0
    assert built == []


def test_usage_error_after_a_successful_call(capsys):
    assert main(["parse", "F ( )"]) == 0
    with pytest.raises(SystemExit) as err:
        main(["mask", "--spec", "spec.json"])  # no --vocab
    assert err.value.code == 2
    assert main(["parse", "F ( )"]) == 0


def test_shared_parser_keeps_no_values_between_calls():
    decode_argv = ["--spec", "s.json", "--vocab", "v.tsv"]
    parser = build_parser()
    first = parser.parse_args(["mask", *decode_argv, "--max-depth", "9", "--state-trace"])
    assert (first.max_depth, first.state_trace) == (9, True)
    for command in ("mask", "decode-sim"):
        args = parser.parse_args([command, *decode_argv])
        assert args.max_string_len == decode.DEFAULT_MAX_STRING_LEN
        assert args.max_depth == decode.DEFAULT_MAX_DEPTH
    assert not parser.parse_args(["mask", *decode_argv]).state_trace


@pytest.mark.parametrize("argv, code", [
    (["parse", 'F ( A = "x" )'], 0),
    (["parse", "F ("], 1),
    ([], 2),
])
def test_module_entry_point_exit_codes(argv, code):
    # Runs the `sys.exit(main())` path that in-process calls of main skip.
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "apicheck.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def _flatten_stdout(expression: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["flatten", expression]) == 0
    return out.getvalue()


def _flatten_records(expression: str) -> list[dict]:
    return [json.loads(line) for line in _flatten_stdout(expression).splitlines()]


def test_flatten_single():
    assert _flatten_records('F ( A = "x" )') == [
        {"index": 0, "function": "F", "args": [{"name": "A", "text": "x"}]},
    ]


def test_flatten_fig1():
    fig1 = ('GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) '
            ', PATH = "1st ave" )')
    assert _flatten_records(fig1) == [
        {"index": 0, "function": "GET_DIRECTIONS",
         "args": [{"name": "DESTINATION", "child": 1}, {"name": "PATH", "text": "1st ave"}]},
        {"index": 1, "function": "GET_LOCATION",
         "args": [{"name": "CATEGORY_LOCATION", "text": "auditorium"}]},
    ]


def test_flatten_leaves_no_reference_cycles():
    # A recursive closure refers to itself through its cell, so every record it
    # built would wait for the cyclic GC.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert len(_flatten_records('F ( A = G ( B = "x" ) )')) == 2
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, dict) and "function" in o]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic


def test_flatten_three_level_chain():
    records = _flatten_records('F ( A = G ( B = H ( C = "x" ) ) )')
    assert [r["function"] for r in records] == ["F", "G", "H"]
    assert records[0]["args"] == [{"name": "A", "child": 1}]
    assert records[1]["args"] == [{"name": "B", "child": 2}]
    assert records[2]["args"] == [{"name": "C", "text": "x"}]


def test_flatten_keeps_duplicate_argument_names():
    [record] = _flatten_records('F ( A = "x" , A = "y" )')
    assert record["args"] == [{"name": "A", "text": "x"}, {"name": "A", "text": "y"}]


def _count_functions(call: ApiCall) -> int:
    return 1 + sum(_count_functions(v) for _name, v in call.args if not isinstance(v, str))


@given(api_calls)
def test_flatten_structure(call):
    records = _flatten_records(serialize(call))
    assert len(records) == _count_functions(call)
    assert [r["index"] for r in records] == list(range(len(records)))
    referenced = []
    for record in records:
        for arg in record["args"]:
            if "child" in arg:
                assert arg["child"] > record["index"]
                referenced.append(arg["child"])
    # every non-root call is referenced by exactly one child index
    assert sorted(referenced) == list(range(1, len(records)))


def _flatten_oracle_stdout(call: ApiCall) -> str:
    """What ``apicheck flatten`` printed when it rendered ``expr.flatten``'s list."""
    lines = []
    for flat in flatten_oracle(call):
        rec = {"index": flat.index, "function": flat.function, "args": []}
        for name, value in flat.args:
            key = "text" if isinstance(value, str) else "child"
            rec["args"].append({"name": name, key: value})
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    return "".join(lines)


# Sibling nested calls, where pre-order and breadth-first numberings differ.
@example(parse("F ( A = G ( C = H ( ) ) , B = K ( D = L ( ) ) )"))
@settings(max_examples=200)
@given(api_calls)
def test_flatten_matches_the_flat_form_oracle(call):
    assert _flatten_stdout(serialize(call)) == _flatten_oracle_stdout(call)


def test_check_reads_one_prediction_per_newline(toy_files, tmp_path, capsys):
    # "\u2028", "\x0c" and "\r" are line boundaries to str.splitlines, and "\r"
    # to a text-mode read, not to the file.
    spec_path, _vocab = toy_files
    preds = tmp_path / "preds.txt"
    preds.write_bytes('GET_ALARMS ( DATE_TIME = "x\u2028y" )\n'
                      'GET_ALARMS ( DATE_TIME = "a\x0cb" )\n'
                      'GET_ALARMS ( DATE_TIME = "a\rb" )\n'.encode("utf-8"))
    assert main(["check", "--spec", str(spec_path), str(preds)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines[:3] == ["1 1 1 1", "1 1 1 1", "1 1 1 1"]
    assert "C_s violation rate: 0.00%" in lines[3]


def test_check_reports_a_crlf_file_as_its_lf_twin(toy_files, tmp_path, capsys):
    spec_path, _vocab = toy_files
    rows = ["GET_ALARMS ( )", 'SHOW_ALARMS ( DATE_TIME = "x" )', "broken (",
            'GET_ALARMS ( DATE_TIME = "x" )', ""]
    outputs = []
    for newline in ("\n", "\r\n"):
        preds = tmp_path / "preds.txt"
        preds.write_bytes(newline.join(rows).encode("utf-8"))
        assert main(["check", "--spec", str(spec_path), str(preds)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("1 1 1 1\n1 0 1 0")


def test_eval_scores_an_equal_pair_nested_250_deep(toy_files, tmp_path, capsys):
    # Comparing the two calls recurses once per level, as parsing them does.
    spec_path, _vocab = toy_files
    nested = "F ( A = " * 250 + "F ( )" + " )" * 250
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"gold": nested, "predicted": nested}) + "\n", encoding="utf-8")
    assert main(["eval", "--spec", str(spec_path), "--pairs", str(pairs)]) == 0
    assert "exact match: 1.0000\n" in capsys.readouterr().out


def _dense_pool(rng):
    return rng.standard_normal((2000, 256))


def _sparse_pool(rng):  # 8 nonzeros a row
    vectors = np.zeros((2000, 256))
    columns = rng.random((2000, 256)).argsort(axis=1)[:, :8]
    np.put_along_axis(vectors, columns, rng.standard_normal((2000, 8)), axis=1)
    return vectors


def _one_hot_row_pool(rng):
    return np.vstack([rng.standard_normal((2000, 256)), np.eye(256)[7]])


# Seeded 2,000 x 256 pools: a dense one (the matrix index), a sparse one
# (posting lists), and a dense one plus a one-hot row queried by that row.
@pytest.mark.parametrize("make_pool, query", [
    (_dense_pool, "p7"), (_sparse_pool, "p7"), (_one_hot_row_pool, "p2000"),
], ids=["dense", "sparse", "one-hot"])
def test_retrieve_command_on_embeddings(make_pool, query, tmp_path, capsys):
    vectors = make_pool(np.random.default_rng(1))
    pool, emb = tmp_path / "pool.jsonl", tmp_path / "emb.tsv"
    pool.write_text("".join(
        json.dumps({"id": f"p{i}", "domain": "toy", "utterance": "u", "api_call": "A ( )"}) + "\n"
        for i in range(len(vectors))))
    emb.write_text("".join(
        f"p{i}\t" + ",".join(map(repr, v.tolist())) + "\n" for i, v in enumerate(vectors)))
    argv = ["retrieve", "--pool", str(pool), "--embeddings", str(emb), "--query", query, "--k", "10"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[0] == f"{query}\t1.000000\tu"


def test_decode_sim_exits_1_when_a_run_is_incomplete(toy_files, capsys):
    # No call of the toy spec is two tokens of a character vocab long.
    spec_path, vocab_path = toy_files
    args = [
        "decode-sim", "--spec", str(spec_path), "--vocab", str(vocab_path),
        "--runs", "3", "--max-steps", "2",
    ]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out.endswith("runs: 3 completed: 0 incomplete: 3\n")
    lines = err.splitlines()
    assert len(lines) == 3 and all(": INCOMPLETE " in line for line in lines)
    assert [line.split(":")[0] for line in lines] == ["run 0", "run 1", "run 2"]


@pytest.mark.parametrize("suffixes", [[""], ["", "x"]])
def test_mask_command_long_nested_token(suffixes, tmp_path, capsys):
    # Tokens of 200 nested openings, far more characters than the trie walk
    # recurses through.
    nested = "F ( A = " * 200
    save_spec(ApiSpec(frozenset({"F"}), frozenset({"A"}), {"F": frozenset({"A"})}),
              tmp_path / "spec.json")
    texts = [c for c in string.printable if c.isprintable()] + [nested + s for s in suffixes]
    save_vocab(Vocab.from_texts(texts), tmp_path / "vocab.tsv")
    args = ["mask", "--spec", str(tmp_path / "spec.json"), "--vocab", str(tmp_path / "vocab.tsv"),
            "--max-depth", "500"]
    assert main(args) == 0
    step, _, ids = capsys.readouterr().out.rstrip("\n").partition("\t")
    assert step == "0" and str(texts.index(nested)) in ids.split(",")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mask_command_long_string_token(seed, tmp_path, capsys):
    # A token that opens a string and holds more characters than the
    # recursion limit; each seed reaches a value, where the mask allows it.
    spec = ApiSpec(frozenset({"GET_ALARM"}), frozenset({"DATE_TIME"}),
                   {"GET_ALARM": frozenset({"DATE_TIME"})})
    save_spec(spec, tmp_path / "spec.json")
    long = '"' + "a" * 1500
    texts = [t for _, t in genutil.char_vocab(spec).tokens if t] + [long]
    save_vocab(Vocab.from_texts(texts), tmp_path / "vocab.tsv")
    args = [
        "mask", "--spec", str(tmp_path / "spec.json"), "--vocab", str(tmp_path / "vocab.tsv"),
        "--max-string-len", "5000", "--state-trace", "--seed", str(seed),
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    long_id = str(texts.index(long))
    assert any(long_id in line.partition("\t")[2].split(",") for line in lines)


def test_overhead_command(toy_files, capsys):
    spec_path, vocab_path = toy_files
    assert main(["overhead", "--spec", str(spec_path), "--vocab", str(vocab_path),
                 "--steps", "200"]) == 0
    out = capsys.readouterr().out
    assert "ratio:" in out
    ratio = float(out.rsplit("ratio:", 1)[1])
    assert ratio >= 1.0


def test_decode_commands_at_v32k(v32k_inputs, capsys):
    # decode-sim and mask load perfbench's decode-32k inputs and build their sessions.
    spec_path, vocab_path = v32k_inputs
    decode_argv = ["--spec", str(spec_path), "--vocab", str(vocab_path)]
    assert main(["decode-sim", *decode_argv, "--runs", "3"]) == 0
    assert main(["mask", *decode_argv]) == 0


def test_missing_file_is_domain_error(tmp_path, capsys):
    assert main(["check", "--spec", str(tmp_path / "nope.json"), str(tmp_path / "p.txt")]) == 1
