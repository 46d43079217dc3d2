import json
import os
import string
import subprocess
import sys
from pathlib import Path

import pytest

from apicheck.cli import main
from apicheck.spec import ApiSpec, save_spec
from apicheck.decode import Vocab, save_vocab

import genutil


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
    examples_path = tmp_path / "examples.jsonl"
    rows = [
        {"id": "e1", "domain": "alarm", "utterance": "show my alarms",
         "api_call": "GET_ALARMS ( )"},
        {"id": "e2", "domain": "alarm", "utterance": "wake me at noon",
         "api_call": 'CREATE_ALARM ( DATE_TIME = "noon" )'},
        {"id": "e3", "domain": "alarm", "utterance": "alarms for tomorrow",
         "api_call": 'GET_ALARMS ( DATE_TIME = "tomorrow" )'},
    ]
    examples_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return spec_path, vocab_path, examples_path, tmp_path


def test_parse_command(capsys):
    assert main(["parse", 'F(A="x")']) == 0
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


@pytest.mark.parametrize("argv, code", [
    (["parse", 'F ( A = "x" )'], 0),
    (["parse", "F ("], 1),
    ([], 2),
])
def test_module_entry_point_exit_codes(argv, code):
    # Runs the `sys.exit(main())` path that in-process calls of main skip.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "apicheck.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


def test_flatten_command(capsys):
    assert main(["flatten", 'F ( A = G ( ) , B = "x" )']) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["function"] == "F"
    assert lines[0]["args"] == [{"name": "A", "child": 1}, {"name": "B", "text": "x"}]
    assert lines[1] == {"index": 1, "function": "G", "args": []}


def test_derive_spec_command(toy_files, capsys):
    _spec, _vocab, examples, _tmp = toy_files
    assert main(["derive-spec", "--examples", str(examples)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["functions"]) == {"GET_ALARMS", "CREATE_ALARM"}
    assert doc["associations"]["GET_ALARMS"] == ["DATE_TIME"]


def test_check_command(toy_files, tmp_path, capsys):
    spec_path, _vocab, _examples, _tmp = toy_files
    preds = tmp_path / "preds.txt"
    preds.write_text(
        "GET_ALARMS ( )\n"
        'SHOW_ALARMS ( DATE_TIME = "x" )\n'
        "broken (\n"
        'GET_ALARMS ( DATE_TIME = "x" )\n'
    )
    assert main(["check", "--spec", str(spec_path), str(preds)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "1 1 1 1"
    assert lines[1].startswith("1 0 1 0")
    assert lines[2].startswith("0 0 0 0")
    assert "C_s violation rate: 25.00%" in out
    assert "C_f violation rate: 50.00%" in out


def test_eval_command(toy_files, tmp_path, capsys):
    spec_path, _vocab, _examples, _tmp = toy_files
    pairs = tmp_path / "pairs.jsonl"
    rows = [
        {"gold": "GET_ALARMS ( )", "predicted": "GET_ALARMS ( )", "utterance": "u"},
        {"gold": 'GET_ALARMS ( DATE_TIME = "x" )', "predicted": "broken (", "utterance": "u"},
    ]
    pairs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["eval", "--spec", str(spec_path), "--pairs", str(pairs)]) == 0
    out = capsys.readouterr().out
    assert "exact match: 0.5000" in out
    assert "intent F1:" in out and "slot F1:" in out
    assert "C_s violation rate: 50.00%" in out


def test_convert_top_command(tmp_path, capsys):
    infile = tmp_path / "top.jsonl"
    infile.write_text(
        json.dumps(
            {
                "id": "t1",
                "domain": "alarm",
                "utterance": "show my alarms for tomorrow",
                "top_parse": "[IN:SHOW_ALARMS show my alarms [SL:DATE_TIME for tomorrow ]]",
            }
        )
        + "\n"
    )
    assert main(["convert-top", "--in", str(infile)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["api_call"] == 'SHOW_ALARMS ( DATE_TIME = "for tomorrow" )'


def test_sample_spis_command(toy_files, capsys):
    _spec, _vocab, examples, _tmp = toy_files
    assert main(["sample-spis", "--in", str(examples), "--n", "1", "--seed", "3"]) == 0
    ids = [json.loads(l)["id"] for l in capsys.readouterr().out.splitlines()]
    assert set(ids) <= {"e1", "e2", "e3"}
    assert ids  # coverage requires at least the rare-label examples


def test_retrieve_command(toy_files, capsys):
    _spec, _vocab, examples, _tmp = toy_files
    assert main(["retrieve", "--pool", str(examples), "--query", "show my alarms", "--k", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].split("\t")[0] == "e1"


def test_prompt_command(toy_files, capsys):
    _spec, _vocab, examples, _tmp = toy_files
    assert main(["prompt", "--pool", str(examples), "--query", "show my alarms", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("#[TASK DESCRIPTION]\n")
    assert "Example 3:\nUser: show my alarms\nAPI Call:\n" in out


def test_decode_sim_command(toy_files, capsys):
    spec_path, vocab_path, _examples, _tmp = toy_files
    args = [
        "decode-sim", "--spec", str(spec_path), "--vocab", str(vocab_path),
        "--runs", "5", "--seed", "7", "--max-string-len", "6", "--max-depth", "2",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "C_s violation rate: 0.00%" in out
    assert "runs: 5 completed: 5 incomplete: 0" in out


def test_decode_sim_deterministic_stdout(toy_files, capsys):
    spec_path, vocab_path, _examples, _tmp = toy_files
    args = [
        "decode-sim", "--spec", str(spec_path), "--vocab", str(vocab_path),
        "--runs", "3", "--seed", "11", "--max-string-len", "6", "--max-depth", "2",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_mask_command_trace(toy_files, capsys):
    spec_path, vocab_path, _examples, _tmp = toy_files
    args = [
        "mask", "--spec", str(spec_path), "--vocab", str(vocab_path),
        "--state-trace", "--seed", "5", "--max-string-len", "6", "--max-depth", "2",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t")[0] == "0"
    for i, line in enumerate(lines):
        step, _, ids = line.partition("\t")
        assert int(step) == i
        values = [int(x) for x in ids.split(",") if x]
        assert values == sorted(values)


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
    spec_path, vocab_path, _examples, _tmp = toy_files
    assert main(["overhead", "--spec", str(spec_path), "--vocab", str(vocab_path),
                 "--steps", "200"]) == 0
    out = capsys.readouterr().out
    assert "ratio:" in out
    ratio = float(out.rsplit("ratio:", 1)[1])
    assert ratio >= 1.0


def test_missing_file_is_domain_error(tmp_path, capsys):
    assert main(["check", "--spec", str(tmp_path / "nope.json"), str(tmp_path / "p.txt")]) == 1
