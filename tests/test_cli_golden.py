"""Byte-exact stdout of the scoring and rendering commands, parse counts and garbage.

The files under ``data/cli_golden`` hold each command's stdout on the inputs
below (``.out``) and, for the commands that take ``--out``, the file it writes
(``.file``); any change to them is a change to the CLI's output format.
"""

import gc
import json
from pathlib import Path

import pytest

from apicheck import expr, metrics
from apicheck.constraints import ViolationReport
from apicheck.cli import main
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
    assert command == "sample-spis"
    return ["sample-spis", "--in", _jsonl(tmp_path / "spis.jsonl", SPIS_RECORDS),
            "--n", "1", "--seed", "3"]


@pytest.mark.parametrize("command", ["check", "eval", "derive-spec", "convert-top", "sample-spis"])
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


def test_eval_bad_gold_message(tmp_path, capsys):
    argv = _argv("eval", tmp_path)
    rows = PAIRS[:2] + [{"gold": "GET_ALARMS (", "predicted": "GET_ALARMS ( )"}]
    pairs = _jsonl(tmp_path / "pairs.jsonl", rows)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {pairs}:3: gold does not parse (UnbalancedParen at offset 12: unclosed call)\n"


@pytest.fixture
def parse_calls(monkeypatch):
    calls = []
    original = expr._Parser.parse

    def counted(self):
        calls.append(self.text)
        return original(self)

    monkeypatch.setattr(expr._Parser, "parse", counted)
    return calls


def test_each_scored_string_is_parsed_once(tmp_path, capsys, parse_calls):
    n_preds = sum(1 for p in PREDICTIONS if p.strip())
    assert main(_argv("check", tmp_path)) == 0
    assert len(parse_calls) == n_preds
    parse_calls.clear()
    assert main(_argv("eval", tmp_path)) == 0
    assert len(parse_calls) == 2 * len(PAIRS)
    parse_calls.clear()
    metrics.evaluate([metrics.EvalPair(p["gold"], p["predicted"]) for p in PAIRS])
    assert len(parse_calls) == 2 * len(PAIRS)


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
