"""Byte-exact stdout and exit-1 stderr of the CLI, parse counts and garbage.

The files under ``data/cli_golden`` hold each command's stdout on the inputs
below (``.out``) and, for the commands that take ``--out``, the file it writes
(``.file``); any change to them is a change to the CLI's output format.
"""

import codecs
import gc
import json
from pathlib import Path

import pytest

import genutil
from apicheck import expr, metrics
from apicheck.constraints import ViolationReport
from apicheck.cli import main
from apicheck.decode import Vocab, save_vocab
from apicheck.spec import ApiSpec, save_spec

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

SPEC = ApiSpec(
    frozenset({"GET_ALARMS", "CREATE_ALARM", "GET_LOCATION", "GET_DIRECTIONS"}),
    frozenset({"DATE_TIME", "DESTINATION", "CATEGORY_LOCATION", "LOCATION"}),
    {
        "GET_ALARMS": frozenset({"DATE_TIME"}),
        "CREATE_ALARM": frozenset({"DATE_TIME"}),
        "GET_LOCATION": frozenset({"CATEGORY_LOCATION", "LOCATION"}),
        "GET_DIRECTIONS": frozenset({"DESTINATION"}),
    },
)

PREDICTIONS = [
    "GET_ALARMS ( )",
    'GET_ALARMS(DATE_TIME="tomorrow")',
    'SHOW_ALARMS ( DATE_TIME = "x" )',
    'GET_ALARMS ( WHEN = "x" , DATE_TIME = "y" )',
    'CREATE_ALARM ( DESTINATION = "home" )',
    'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "auditorium" ) )',
    'GET_DIRECTIONS ( DESTINATION = FIND_PLACE ( PLACE = "x" ) , MODE = "walk" )',
    "broken (",
    'GET_ALARMS ( DATE_TIME = "unterminated )',
    "GET_ALARMS ( ) trailing",
    "",
    'GET_ALARMS ( DATE_TIME = "a \\"quoted\\" \\\\ value" )',
]

# One whitespace-free expression: three nested levels, \" and \\ escapes, a
# repeated argument name, an empty call and an empty string.
EXPRESSION = ('GET_DIRECTIONS(DESTINATION=GET_LOCATION(LOCATION=GET_PLACE('
              'NAME="the \\"big\\" \\\\ one",NEAR=GET_HOME())),PATH="1st ave",PATH="")')

PAIRS = [
    {"gold": "GET_ALARMS ( )", "predicted": "GET_ALARMS()", "utterance": "show my alarms"},
    {"gold": 'GET_ALARMS ( DATE_TIME = "tomorrow" )',
     "predicted": 'GET_ALARMS ( DATE_TIME = "today" )'},
    {"gold": 'CREATE_ALARM ( DATE_TIME = "noon" )', "predicted": "broken ("},
    {"gold": 'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "gym" ) )',
     "predicted": 'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( LOCATION = "gym" ) )'},
    {"gold": 'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "gym" ) )',
     "predicted": 'GET_DIRECTIONS(DESTINATION=GET_LOCATION(CATEGORY_LOCATION="gym"))'},
    {"gold": 'GET_ALARMS ( DATE_TIME = "x" )', "predicted": 'SHOW_ALARMS ( WHEN = "x" )'},
    {"gold": "GET_ALARMS ( )", "predicted": 'GET_ALARMS ( DATE_TIME = "x" , DATE_TIME = "x" )'},
]

EXAMPLES = [
    {"id": "e1", "domain": "alarm", "utterance": "show my alarms",
     "api_call": "GET_ALARMS ( )"},
    {"id": "e2", "domain": "alarm", "utterance": "wake me at noon",
     "api_call": 'CREATE_ALARM ( DATE_TIME = "noon" )'},
    {"id": "e3", "domain": "navigation", "utterance": "directions to the gym",
     "api_call": 'GET_DIRECTIONS ( DESTINATION = GET_LOCATION ( CATEGORY_LOCATION = "gym" ) )'},
    {"id": "e4", "domain": "alarm", "utterance": "alarms for tomorrow",
     "api_call": 'GET_ALARMS ( DATE_TIME = "tomorrow" )'},
]

TOP_RECORDS = [
    {"id": "t1", "domain": "alarm", "utterance": "show my alarms for tomorrow",
     "top_parse": "[IN:GET_ALARMS show my alarms [SL:DATE_TIME for tomorrow ]]"},
    {"id": "t2", "domain": "navigation", "utterance": "directions to the café",
     "top_parse": "[IN:GET_DIRECTIONS directions to [SL:DESTINATION "
                  "[IN:GET_LOCATION [SL:CATEGORY_LOCATION the café ] ] ] ]"},
    {"id": "t3", "domain": "alarm", "utterance": "wake me up",
     "top_parse": "[IN:CREATE_ALARM wake me up ]", "api_call": "STALE ( )"},
]

# The retrieval pool: EXAMPLES plus a later copy of e1's utterance under a lower id,
# so equal similarities must come out by ascending id.
POOL = EXAMPLES + [{"id": "e0", "domain": "alarm", "utterance": "show my alarms",
                    "api_call": "GET_ALARMS ( )"}]

# Precomputed vectors for POOL: e0 is e1 scaled, e3 is a zero vector.
POOL_EMBEDDINGS = "e0\t2.0,0.0\ne1\t1.0,0.0\ne2\t1.0,1.0\ne3\t0.0,0.0\ne4\t-1.0,0.5\n"

SPIS_RECORDS = [
    dict(rec, top_parse=f"[IN:{rec['api_call'].split()[0]} {rec['utterance']} ]")
    for rec in EXAMPLES
]


def _jsonl(path, rows):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _argv(command, tmp_path):
    spec = tmp_path / "spec.json"
    save_spec(SPEC, spec)
    if command in ("parse", "flatten"):
        return [command, EXPRESSION]
    if command == "check":
        preds = tmp_path / "preds.txt"
        preds.write_text("".join(p + "\n" for p in PREDICTIONS), encoding="utf-8")
        return ["check", "--spec", str(spec), str(preds)]
    if command == "eval":
        return ["eval", "--spec", str(spec), "--pairs", _jsonl(tmp_path / "pairs.jsonl", PAIRS)]
    if command == "derive-spec":
        return ["derive-spec", "--examples", _jsonl(tmp_path / "ex.jsonl", EXAMPLES)]
    if command == "convert-top":
        return ["convert-top", "--in", _jsonl(tmp_path / "top.jsonl", TOP_RECORDS)]
    if command.startswith(("retrieve", "prompt")):
        pool = ["--pool", _jsonl(tmp_path / "pool.jsonl", POOL)]
        emb = tmp_path / "emb.tsv"
        emb.write_text(POOL_EMBEDDINGS, encoding="utf-8")
        return {
            "retrieve": ["retrieve", *pool, "--query", "show my alarms", "--k", "5"],
            "prompt": ["prompt", *pool, "--query", "alarms for tomorrow", "--k", "2"],
            "retrieve-embeddings": ["retrieve", *pool, "--query", "e1", "--k", "5",
                                    "--embeddings", str(emb)],
            "prompt-embeddings": ["prompt", *pool, "--query", "e2", "--query-text",
                                  "wake me at noon", "--k", "2", "--embeddings", str(emb)],
        }[command]
    if command in ("decode-sim", "mask"):
        vocab = tmp_path / "vocab.tsv"
        save_vocab(genutil.char_vocab(SPEC), vocab)
        decode = ["--spec", str(spec), "--vocab", str(vocab)]
        if command == "decode-sim":
            return ["decode-sim", *decode, "--runs", "3"]
        return ["mask", *decode, "--state-trace", "--max-steps", "12"]
    assert command == "sample-spis"
    return ["sample-spis", "--in", _jsonl(tmp_path / "spis.jsonl", SPIS_RECORDS),
            "--n", "1", "--seed", "3"]


@pytest.mark.parametrize("command", ["parse", "flatten", "check", "eval", "derive-spec", "convert-top", "sample-spis",
                                     "retrieve", "prompt", "retrieve-embeddings",
                                     "prompt-embeddings", "decode-sim", "mask"])
def test_stdout_matches_golden(command, tmp_path, capsys):
    assert main(_argv(command, tmp_path)) == 0
    expected = (GOLDEN / f"{command}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("command", ["derive-spec", "convert-top", "sample-spis"])
def test_out_file_matches_golden(command, tmp_path, capsys):
    out = tmp_path / "written"
    assert main(_argv(command, tmp_path) + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    expected = (GOLDEN / f"{command}.file").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == expected


# Each kind of input file, read by one command whose stdout shows its content.
@pytest.mark.parametrize("command, name", [
    ("check", "preds.txt"), ("eval", "pairs.jsonl"), ("derive-spec", "ex.jsonl"),
    ("check", "spec.json"), ("mask", "vocab.tsv"), ("retrieve-embeddings", "emb.tsv"),
    ("prompt", "desc.txt"),
])
def test_a_utf8_bom_is_not_read_as_text(command, name, tmp_path, capsys):
    argv = _argv(command, tmp_path)
    if name == "desc.txt":
        (tmp_path / name).write_text("Write one API call\n", encoding="utf-8")
        argv += ["--desc-file", str(tmp_path / name)]
    assert main(argv) == 0
    without_bom = capsys.readouterr().out
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert main(argv) == 0
    assert capsys.readouterr().out == without_bom


# A line of a JSONL file ends at "\n" alone: a lone "\r" is JSON whitespace.
@pytest.mark.parametrize("edit", [
    pytest.param(lambda data: data.replace(b"\n", b"\r\n"), id="crlf"),
    pytest.param(lambda data: data.replace(b'", "', b'",\r"'), id="cr-between-fields"),
])
@pytest.mark.parametrize("command, name", [
    ("eval", "pairs.jsonl"), ("derive-spec", "ex.jsonl"), ("convert-top", "top.jsonl"),
    ("prompt", "pool.jsonl"),
])
def test_a_jsonl_file_reads_as_its_lf_twin(command, name, edit, tmp_path, capsys):
    argv = _argv(command, tmp_path)
    assert main(argv) == 0
    lf = capsys.readouterr().out
    path = tmp_path / name
    path.write_bytes(edit(path.read_bytes()))
    assert main(argv) == 0
    assert capsys.readouterr().out == lf


def _nested(depth):
    """A call nested ``depth`` levels deep."""
    return "F ( A = " * depth + "F ( )" + " )" * depth


def _write_error_inputs(tmp):
    save_spec(SPEC, tmp / "spec.json")
    (tmp / "lowercase_spec.json").write_text(
        '{"functions": ["get"], "arguments": [], "associations": {}}\n', encoding="utf-8")
    (tmp / "lowercase_preds.txt").write_text("get ( )\n", encoding="utf-8")
    _jsonl(tmp / "lowercase_pairs.jsonl", [{"gold": "get ( )", "predicted": "get ( )"}])
    (tmp / "bad_spec.json").write_text('{"functions": []', encoding="utf-8")
    vocab = genutil.char_vocab(SPEC)
    save_vocab(vocab, tmp / "vocab.tsv")
    texts = [t for _, t in vocab.tokens if t and t != "Y"]
    save_vocab(Vocab.from_texts(texts), tmp / "no_y_vocab.tsv")
    (tmp / "bad_vocab.tsv").write_text("eos_id\tx\n", encoding="utf-8")
    (tmp / "preds.txt").write_text("".join(p + "\n" for p in PREDICTIONS), encoding="utf-8")
    (tmp / "deep_preds.txt").write_text(_nested(2000) + "\n", encoding="utf-8")
    _jsonl(tmp / "deep_pairs.jsonl", [{"gold": _nested(400), "predicted": _nested(400)}])
    (tmp / "blank.txt").write_text("\n \n", encoding="utf-8")
    (tmp / "not_utf8.txt").write_bytes(b"\xff\n")
    for name, lines in {
        "invalid_json": ['{"gold": "F ( )"'],
        "missing_field": ['{"gold": "F ( )"}'],
        "bad_gold": [json.dumps(PAIRS[0]), json.dumps(PAIRS[1]),
                     '{"gold": "GET_ALARMS (", "predicted": "GET_ALARMS ( )"}'],
        "not_object": [json.dumps(PAIRS[0]), "[1]"],
    }.items():
        (tmp / f"{name}.jsonl").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    _jsonl(tmp / "ex.jsonl", EXAMPLES)
    _jsonl(tmp / "badcall.jsonl", EXAMPLES[:1] + [dict(EXAMPLES[1], api_call="CREATE_ALARM (")])
    _jsonl(tmp / "bad_top.jsonl", [dict(TOP_RECORDS[0], top_parse="[IN:GET_ALARMS show")])
    _jsonl(tmp / "mixed_top.jsonl", [dict(EXAMPLES[0], top_parse="[IN:F [SL:A word [IN:G ] ] ]")])
    _jsonl(tmp / "int_top.jsonl", [dict(TOP_RECORDS[0], top_parse=5)])
    _jsonl(tmp / "list_call.jsonl", [dict(EXAMPLES[0], api_call=["F ( )"])])
    (tmp / "emb.tsv").write_text(
        "".join(f"{e['id']}\t1.0,{i}.0\n" for i, e in enumerate(EXAMPLES)), encoding="utf-8")
    (tmp / "bad_emb.tsv").write_text("e1\t1.0,x\n", encoding="utf-8")
    (tmp / "nonfinite_emb.tsv").write_text("e1\t1.0,2.0\ne2\tnan,1.0\n", encoding="utf-8")
    (tmp / "dup_emb.tsv").write_text("e1\t1.0,0.0\ne2\t0.0,1.0\ne1\t0.0,1.0\n", encoding="utf-8")
    (tmp / "ragged_emb.tsv").write_text("e1\t1.0,0.0\ne2\t0.0,1.0,2.0\n", encoding="utf-8")
    (tmp / "empty_emb.tsv").write_text("\n", encoding="utf-8")
    _jsonl(tmp / "dup_ex.jsonl", EXAMPLES[:2] + [dict(EXAMPLES[2], id="e1")])


_SPEC = ["--spec", "{tmp}/spec.json"]
_DECODE = _SPEC + ["--vocab", "{tmp}/vocab.tsv"]
_POOL = ["--pool", "{tmp}/ex.jsonl"]

# (id, argv, the one stderr line of an exit-1 run); "{tmp}" stands for the test's
# tmp directory. Any change to a line is a change to the CLI's error text.
_NO_FILE = "[Errno 2] No such file or directory: "
_NOT_IDENT = "{tmp}/lowercase_spec.json: names are not identifiers: get"
_NOT_UTF8 = "{tmp}/not_utf8.txt: not UTF-8 (invalid start byte)"
ERROR_ROWS = [
    ("parse-bad-expression", ["parse", "F ("],
     "UnbalancedParen at offset 3: unclosed call"),
    ("flatten-bad-expression", ["flatten", "F ("],
     "UnbalancedParen at offset 3: unclosed call"),
    # Too deep for the parser's recursion (parse, check), or, at 400 levels, for
    # the comparison of two equal calls (eval).
    ("parse-deep-nesting", ["parse", _nested(2000)], "input nests too deeply"),
    ("check-deep-nesting", ["check", *_SPEC, "{tmp}/deep_preds.txt"], "input nests too deeply"),
    ("eval-deep-nesting", ["eval", *_SPEC, "--pairs", "{tmp}/deep_pairs.jsonl"],
     "input nests too deeply"),
    ("missing-spec", ["check", "--spec", "{tmp}/nope.json", "{tmp}/preds.txt"],
     _NO_FILE + "'{tmp}/nope.json'"),
    ("malformed-spec", ["check", "--spec", "{tmp}/bad_spec.json", "{tmp}/preds.txt"],
     "{tmp}/bad_spec.json: invalid JSON at line 1: Expecting ',' delimiter"),
    ("missing-predictions", ["check", *_SPEC, "{tmp}/nope.txt"],
     _NO_FILE + "'{tmp}/nope.txt'"),
    ("no-predictions", ["check", *_SPEC, "{tmp}/blank.txt"],
     "{tmp}/blank.txt: no predictions"),
    ("missing-vocab", ["mask", *_SPEC, "--vocab", "{tmp}/nope.tsv"],
     _NO_FILE + "'{tmp}/nope.tsv'"),
    ("malformed-vocab", ["decode-sim", *_SPEC, "--vocab", "{tmp}/bad_vocab.tsv"],
     "{tmp}/bad_vocab.tsv:1: bad eos_id"),
    ("unspellable-name", ["mask", *_SPEC, "--vocab", "{tmp}/no_y_vocab.tsv"],
     "names unspellable under vocab: CATEGORY_LOCATION"),
    ("name-not-identifier",
     ["mask", "--spec", "{tmp}/lowercase_spec.json", "--vocab", "{tmp}/vocab.tsv"],
     _NOT_IDENT),
    ("check-name-not-identifier",
     ["check", "--spec", "{tmp}/lowercase_spec.json", "{tmp}/lowercase_preds.txt"],
     _NOT_IDENT),
    ("eval-name-not-identifier",
     ["eval", "--spec", "{tmp}/lowercase_spec.json", "--pairs", "{tmp}/lowercase_pairs.jsonl"],
     _NOT_IDENT),
    ("missing-pairs", ["eval", *_SPEC, "--pairs", "{tmp}/nope.jsonl"],
     _NO_FILE + "'{tmp}/nope.jsonl'"),
    ("no-pairs", ["eval", *_SPEC, "--pairs", "{tmp}/blank.txt"],
     "{tmp}/blank.txt: no evaluation pairs"),
    ("eval-invalid-json", ["eval", *_SPEC, "--pairs", "{tmp}/invalid_json.jsonl"],
     "{tmp}/invalid_json.jsonl:1: invalid JSON: Expecting ',' delimiter"),
    ("eval-missing-field", ["eval", *_SPEC, "--pairs", "{tmp}/missing_field.jsonl"],
     "{tmp}/missing_field.jsonl:1: missing field 'predicted'"),
    ("eval-bad-gold", ["eval", *_SPEC, "--pairs", "{tmp}/bad_gold.jsonl"],
     "{tmp}/bad_gold.jsonl:3: gold does not parse (UnbalancedParen at offset 12: unclosed call)"),
    ("eval-not-object", ["eval", *_SPEC, "--pairs", "{tmp}/not_object.jsonl"],
     "{tmp}/not_object.jsonl:2: record must be an object"),
    ("examples-bad-api-call", ["derive-spec", "--examples", "{tmp}/badcall.jsonl"],
     "{tmp}/badcall.jsonl:2: api_call does not parse (UnbalancedParen at offset 14: unclosed call)"),
    ("convert-top-bad-parse", ["convert-top", "--in", "{tmp}/bad_top.jsonl"],
     "example 't1': unbalanced '[' at offset 19"),
    ("convert-top-mixed-slot", ["convert-top", "--in", "{tmp}/mixed_top.jsonl"],
     "example 'e1': slot 'A' mixes intent and token children at offset 25"),
    ("convert-top-no-top-parse", ["convert-top", "--in", "{tmp}/ex.jsonl"],
     "example 'e1' has no top_parse"),
    ("convert-top-top-parse-not-string", ["convert-top", "--in", "{tmp}/int_top.jsonl"],
     "{tmp}/int_top.jsonl:1: field 'top_parse' must be a string"),
    ("prompt-api-call-not-string",
     ["prompt", "--pool", "{tmp}/list_call.jsonl", "--query", "alarms", "--k", "1"],
     "{tmp}/list_call.jsonl:1: field 'api_call' must be a string"),
    ("sample-spis-n-0", ["sample-spis", "--in", "{tmp}/ex.jsonl", "--n", "0"],
     "n must be positive"),
    ("retrieve-k-0", ["retrieve", *_POOL, "--query", "alarms", "--k", "0"],
     "k must be positive"),
    ("retrieve-unknown-id",
     ["retrieve", *_POOL, "--query", "zz", "--k", "1", "--embeddings", "{tmp}/emb.tsv"],
     "no precomputed vector for id 'zz'"),
    ("malformed-embeddings",
     ["retrieve", *_POOL, "--query", "e1", "--k", "1", "--embeddings", "{tmp}/bad_emb.tsv"],
     "{tmp}/bad_emb.tsv:1: bad vector component"),
    ("nonfinite-embeddings",
     ["retrieve", *_POOL, "--query", "e1", "--k", "1", "--embeddings", "{tmp}/nonfinite_emb.tsv"],
     "{tmp}/nonfinite_emb.tsv:2: bad vector component"),
    ("duplicate-embeddings-id",
     ["retrieve", *_POOL, "--query", "e2", "--k", "1", "--embeddings", "{tmp}/dup_emb.tsv"],
     "{tmp}/dup_emb.tsv:3: duplicate id 'e1'"),
    ("inconsistent-embeddings",
     ["retrieve", *_POOL, "--query", "e1", "--k", "1", "--embeddings", "{tmp}/ragged_emb.tsv"],
     "{tmp}/ragged_emb.tsv:2: vector length 3, the first vector's is 2"),
    ("empty-embeddings",
     ["retrieve", *_POOL, "--query", "e1", "--k", "1", "--embeddings", "{tmp}/empty_emb.tsv"],
     "{tmp}/empty_emb.tsv: no vectors"),
    ("duplicate-example-id",
     ["retrieve", "--pool", "{tmp}/dup_ex.jsonl", "--query", "alarms", "--k", "1"],
     "{tmp}/dup_ex.jsonl:3: duplicate id 'e1'"),
    ("missing-desc-file",
     ["prompt", *_POOL, "--query", "alarms", "--k", "1", "--desc-file", "{tmp}/nope.txt"],
     _NO_FILE + "'{tmp}/nope.txt'"),
    # One row per kind of input file: one that is not UTF-8 is named in the error.
    ("predictions-not-utf8", ["check", *_SPEC, "{tmp}/not_utf8.txt"], _NOT_UTF8),
    ("pairs-not-utf8", ["eval", *_SPEC, "--pairs", "{tmp}/not_utf8.txt"], _NOT_UTF8),
    ("examples-not-utf8", ["derive-spec", "--examples", "{tmp}/not_utf8.txt"], _NOT_UTF8),
    ("spec-not-utf8", ["check", "--spec", "{tmp}/not_utf8.txt", "{tmp}/preds.txt"], _NOT_UTF8),
    ("vocab-not-utf8", ["mask", *_SPEC, "--vocab", "{tmp}/not_utf8.txt"], _NOT_UTF8),
    ("embeddings-not-utf8",
     ["retrieve", *_POOL, "--query", "e1", "--k", "1", "--embeddings", "{tmp}/not_utf8.txt"],
     _NOT_UTF8),
    ("desc-file-not-utf8",
     ["prompt", *_POOL, "--query", "alarms", "--k", "1", "--desc-file", "{tmp}/not_utf8.txt"],
     _NOT_UTF8),
    ("decode-sim-max-depth-0", ["decode-sim", *_DECODE, "--max-depth", "0"],
     "max_depth must be >= 1"),
    ("mask-max-depth-0", ["mask", *_DECODE, "--max-depth", "0"],
     "max_depth must be >= 1"),
    ("overhead-steps-0", ["overhead", *_DECODE, "--steps", "0"],
     "n_steps must be positive"),
    ("overhead-steps-negative", ["overhead", *_DECODE, "--steps", "-3"],
     "n_steps must be positive"),
    ("decode-sim-max-string-len-negative", ["decode-sim", *_DECODE, "--max-string-len", "-1"],
     "max_string_len must be >= 0"),
    ("mask-max-string-len-negative", ["mask", *_DECODE, "--max-string-len", "-1"],
     "max_string_len must be >= 0"),
    ("decode-sim-runs-negative", ["decode-sim", *_DECODE, "--runs", "-2"],
     "runs must be >= 1"),
    ("decode-sim-runs-0", ["decode-sim", *_DECODE, "--runs", "0"],
     "runs must be >= 1"),
    ("decode-sim-max-steps-0", ["decode-sim", *_DECODE, "--max-steps", "0"],
     "max_steps must be >= 1"),
    ("decode-sim-max-steps-negative", ["decode-sim", *_DECODE, "--max-steps", "-1"],
     "max_steps must be >= 1"),
    ("mask-max-steps-0", ["mask", *_DECODE, "--state-trace", "--max-steps", "0"],
     "max_steps must be >= 1"),
    ("mask-max-steps-negative", ["mask", *_DECODE, "--state-trace", "--max-steps", "-1"],
     "max_steps must be >= 1"),
]


@pytest.mark.parametrize("argv, expected", [row[1:] for row in ERROR_ROWS],
                         ids=[row[0] for row in ERROR_ROWS])
def test_exit_1_stderr(argv, expected, tmp_path, capsys):
    _write_error_inputs(tmp_path)
    tmp = str(tmp_path)
    assert main([a.replace("{tmp}", tmp) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: " + expected.replace("{tmp}", tmp) + "\n"


def test_each_scored_string_is_parsed_once(tmp_path, capsys, parse_calls):
    n_preds = sum(1 for p in PREDICTIONS if p.strip())
    assert main(_argv("check", tmp_path)) == 0
    assert len(parse_calls) == n_preds
    parse_calls.clear()
    assert main(_argv("eval", tmp_path)) == 0
    assert len(parse_calls) == 2 * len(PAIRS)
    parse_calls.clear()
    calls = genutil.parse_pairs([(p["gold"], p["predicted"]) for p in PAIRS])
    assert len(parse_calls) == 2 * len(PAIRS)
    parse_calls.clear()
    metrics.evaluate(calls)
    assert not parse_calls
    assert main(_argv("flatten", tmp_path)) == 0
    assert len(parse_calls) == 1


@pytest.mark.parametrize("command, records", [("derive-spec", EXAMPLES),
                                              ("sample-spis", SPIS_RECORDS)])
def test_pool_commands_parse_each_record_once(command, records, tmp_path, capsys, parse_calls):
    assert main(_argv(command, tmp_path)) == 0
    assert [args[0] for args in parse_calls] == [rec["api_call"] for rec in records]


def test_eval_leaves_no_reference_cycles_through_reports(tmp_path, capsys):
    # A report whose parse error kept its traceback would pin the frame that
    # holds the report list, so every parsed call would wait for the cyclic GC.
    argv = _argv("eval", tmp_path)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, (expr.ApiCall, ViolationReport))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not cyclic
