import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ginlab as gl
from ginlab import cli
from ginlab.cli import main
from ginlab.generic import trial_seeds
from ginlab.ideals import top_degree

from conftest import GIN_32_22
from test_generic import _spy_on_buchberger
from oracles import lead_monomials, parse_poly, series_coefficient


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(capsys, *argv):
    """The stderr of a run that must exit 2 with a usage error and print
    nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err
    return err


def test_gin_sample(capsys):
    code, out = run(capsys, "gin", "-n", "3", "-d", "2,2", "--order", "lex",
                    "--route", "sample")
    assert code == 0
    data = json.loads(out)
    assert data["ideal"]["gens"] == [list(g) for g in GIN_32_22]
    assert data["route"] == "sampling"
    assert data["agreement"] == 5


def test_gin_trial_whose_templates_vanish(capsys):
    # over F2 with bound 2 every coefficient of this trial is +-2, which
    # is 0 mod 2: the trial's ideal is the zero ideal, not a crash
    code, out = run(capsys, "gin", "-n", "1", "-d", "1", "--field", "F2",
                    "--bound", "2", "--trials", "1", "--seed", "0")
    assert code == 0
    data = json.loads(out)
    assert data["ideal"] == {"n": 1, "gens": [], "gens_str": []}
    assert (data["agreement"], data["u_generic"]) == (1, ["no"])


def test_gin_falls_back_when_a_section_fails(capsys, monkeypatch):
    # over F3 the sections x3 = 0 of trials 0, 2 and 4 are singular, so
    # those trials run again in all three variables, where their initial
    # ideal is (x1, x3): two trials reach (x1, x2), and all five are
    # u-generic
    runs = _spy_on_buchberger(monkeypatch)
    code, out = run(capsys, "gin", "-n", "3", "-d", "1,1", "--order",
                    "degrevlex", "--field", "F3", "--seed", "0")
    assert code == 0
    assert [nvars for nvars, _ in runs] == [2, 3, 2, 2, 3, 2, 2, 3]
    assert json.loads(out) == {
        "schema": 1, "n": 3, "s": 2, "degrees": [1, 1],
        "order": "degrevlex", "route": "sampling",
        "ideal": {"n": 3, "gens": [[1, 0, 0], [0, 1, 0]],
                  "gens_str": ["x1", "x2"]},
        "field": "F3", "seeds": list(trial_seeds(0, 5)), "agreement": 2,
        "u_generic": ["yes"] * 5}


def test_gin_parametric(capsys):
    code, out = run(capsys, "gin", "-n", "2", "-d", "2,2", "--order", "lex",
                    "--route", "parametric", "--field", "Q")
    assert code == 0
    assert json.loads(out)["ideal"]["gens"] == [[2, 0], [1, 1], [0, 3]]
    code, out = run(capsys, "gin", "-n", "1", "-d", "2", "--route", "parametric",
                    "--field", "Q")
    assert code == 0
    assert json.loads(out)["ideal"]["gens"] == [[2]]


def test_gin_budget_exhaustion_exit_code(capsys, tmp_path):
    code, out = run(capsys, "gin", "-n", "3", "-d", "2,2", "--route",
                    "parametric", "--field", "Q", "--budget-ms", "0.0001")
    assert code == 1
    assert json.loads(out)["error"] == "BudgetExceeded"
    f = tmp_path / "sys.json"
    f.write_text(json.dumps({"n": 2, "field": "Q",
                             "polys": [[["1", [2, 0]], ["-1", [0, 2]]],
                                       [["1", [1, 1]], ["1", [0, 2]]]]}))
    code, out = run(capsys, "gb", str(f), "--max-pairs", "0")
    assert code == 1
    assert json.loads(out) == {"schema": 1, "error": "BudgetExceeded",
                               "detail": "pair-queue cap exceeded after 0 "
                               "S-polynomials (basis 2, 1 pairs left, "
                               "degree 0)"}


def test_gin_deterministic_bytes(capsys):
    _, out1 = run(capsys, "gin", "-n", "2", "-d", "2,2", "--seed", "9")
    _, out2 = run(capsys, "gin", "-n", "2", "-d", "2,2", "--seed", "9")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    usage_error(capsys, "gin", "-n", "3")


#: the exact stderr of usage errors at a terminal 80 columns wide: what
#: `build_parser().parse_args(argv)` prints, the top-level parser reading
#: the whole argv
GIN_USAGE = """\
usage: ginlab gin [-h] -n N -d DEGREES [--order {lex,deglex,degrevlex}]
                  [--route {sample,parametric}] [--seed SEED]
                  [--trials TRIALS] [--field FIELD] [--bound BOUND]
                  [--budget-ms BUDGET_MS] [--max-pairs MAX_PAIRS]
"""
TOP_USAGE = """\
usage: ginlab [-h] {gin,check,froeberg,lexseg,bound,hilbert,gb,survey} ...
"""
USAGE_STDERR = {
    "unrecognized argument": (
        ["gin", "-n", "3", "-d", "2,2", "--bogus"],
        TOP_USAGE + "ginlab: error: unrecognized arguments: --bogus\n"),
    "missing argument": (
        ["gin", "-n", "3"],
        GIN_USAGE + "ginlab gin: error: the following arguments are "
        "required: -d/--degrees\n"),
    "unknown command": (
        ["frobnicate"],
        TOP_USAGE + "ginlab: error: argument cmd: invalid choice: "
        "'frobnicate' (choose from 'gin', 'check', 'froeberg', 'lexseg', "
        "'bound', 'hilbert', 'gb', 'survey')\n"),
}


@pytest.mark.parametrize("argv,stderr", USAGE_STDERR.values(),
                         ids=USAGE_STDERR.keys())
def test_usage_error_stderr(argv, stderr, capsys, monkeypatch):
    # a subcommand's own parser reads its arguments, and leaves the
    # arguments it does not know to the top-level parser's message
    monkeypatch.setenv("COLUMNS", "80")
    assert usage_error(capsys, *argv) == stderr


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@example({"a": [], "b": {}, "c": (), "d": [[]], "e": {"f": {}}})
@example(["\u00e9\u2028\U0001f600", '"\\\n\t\x00', "", -10**40, 2**64])
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, True, None])
@example({"n": 3, "gens": [[2, 0, 0], [1, 1, 0]], "gens_str": ["x1^2", "x1*x2"]})
@example([{1: [], 2.5: {}, None: "x", False: [0]}])  # keys json converts
@given(json_values)
def test_emit_prints_json_dumps_indent_2(value):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.emit(value)
    assert buf.getvalue() == json.dumps(value, indent=2) + "\n"


#: input files of the runs below, by name
ONE_RECORD_FILES = {
    "ideal.json": {"n": 3, "gens": [list(g) for g in GIN_32_22]},
    "big.json": {"n": 2, "gens": [[40000, 0]]},
    "hf.json": {"coeffs": [1, 2, 9]},
    "sys.json": {"n": 2, "field": "Q",
                 "polys": [[["1", [2, 0]], ["-1", [0, 2]]],
                           [["1", [1, 1]], ["1", [0, 2]]]]},
}

#: one run of every subcommand that succeeds, and one that fails with
#: exit 1 where the subcommand can; a survey records a failed case in its
#: row and exits 0
ONE_RECORD_RUNS = {
    "gin": (0, "gin -n 3 -d 2,2"),
    "gin fails": (1, "gin -n 3 -d 2,2 --route parametric --field Q "
                     "--budget-ms 0.0001"),
    "check": (0, "check ideal.json --property lexsegment"),
    "check fails": (1, "check big.json --property weakly-revlex"),
    "froeberg": (0, "froeberg -n 3 -d 2,2,2"),
    "lexseg": (0, "lexseg -n 3 -d 2,2"),
    "lexseg fails": (1, "lexseg -n 2 --hf-file hf.json"),
    "bound": (0, "bound -n 3 -d 2,2"),
    "hilbert": (0, "hilbert ideal.json --horizon 4"),
    "hilbert fails": (1, "hilbert big.json --horizon 3"),
    "gb": (0, "gb sys.json"),
    "gb fails": (1, "gb sys.json --max-pairs 0"),
    "survey": (0, "survey --case 2:2:2:2 --trials 1 --out rows"),
    "survey with a failed case": (0, "survey --case 3:2:2:2 --budget-ms "
                                     "0.0001 --out rows"),
}


@pytest.mark.parametrize("name", ONE_RECORD_RUNS)
def test_main_alone_prints_the_record_a_command_returns(
        name, capsys, tmp_path, monkeypatch):
    code, text = ONE_RECORD_RUNS[name]
    for file, data in ONE_RECORD_FILES.items():
        (tmp_path / file).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    argv = text.split()
    records = []
    monkeypatch.setattr(cli, "emit", records.append)
    assert main(argv) == code and len(records) == 1
    assert capsys.readouterr().out == ""
    if code:
        assert records[0]["error"] in cli._FAILURE_NAMES
        return
    # the subcommand returns its record, and prints nothing itself: a
    # call of `emit` would now raise
    args = cli.build_parser().parse_args(argv)
    monkeypatch.setattr(cli, "emit", None)
    assert args.func(args) == records[0]


def test_parser_is_built_once(capsys, tmp_path):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    gin = parser.parse_args(["gin", "-n", "3", "-d", "2,2", "--seed", "4"])
    lexseg = parser.parse_args(["lexseg", "-n", "4", "-d", "2,3"])
    assert (gin.cmd, gin.seed, gin.degrees) == ("gin", 4, (2, 2))
    assert (lexseg.cmd, lexseg.degrees) == ("lexseg", (2, 3))
    assert not hasattr(lexseg, "seed") and not hasattr(gin, "hf_file")
    code, out = run(capsys, "froeberg", "-n", "2", "-d", "2")
    assert code == 0 and json.loads(out)["coeffs"][:3] == [1, 2, 2]
    code, out = run(capsys, "bound", "-n", "2", "-d", "2,2")
    assert code == 0 and json.loads(out)["bound"] == 3
    hf = tmp_path / "hf.json"
    hf.write_text('{"coeffs": [1, 3, 4]}')
    for _ in range(2):  # the usage-error path reuses the parser too
        with pytest.raises(SystemExit) as exc:
            main(["lexseg", "-n", "3"])
        assert exc.value.code == 2
        assert ("one of the arguments -d/--degrees --hf-file is required"
                in capsys.readouterr().err)
        # -d is not silently dropped when a file is given too
        err = usage_error(capsys, "lexseg", "-n", "3", "-d", "5,5",
                          "--hf-file", str(hf))
        assert "not allowed with argument" in err


def test_gb_exponent_overflow_exit_code(capsys, tmp_path):
    f = tmp_path / "sys.json"
    f.write_text(json.dumps({"n": 2, "field": "Q",
                             "polys": [[["1", [2, 0]]],
                                       [["1", [1, 0]], ["-1", [0, 20000]]]]}))
    code, out = run(capsys, "gb", str(f), "--order", "lex")
    assert code == 1
    assert json.loads(out)["error"] == "ExponentOverflow"


def test_check_lexsegment(tmp_path, capsys):
    f = tmp_path / "ideal.json"
    f.write_text(json.dumps({"n": 3, "gens": [list(g) for g in GIN_32_22]}))
    code, out = run(capsys, "check", str(f), "--property", "lexsegment")
    assert code == 0 and json.loads(out)["holds"] is True

    f4 = tmp_path / "ideal4.json"
    f4.write_text(json.dumps({"n": 4, "gens": [list(g) + [0] for g in GIN_32_22]}))
    code, out = run(capsys, "check", str(f4), "--property", "lexsegment")
    data = json.loads(out)
    assert data["holds"] is False
    assert data["witness"]["missing"] == "x1*x3*x4^2"

    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 3, "gens": []}))
    for prop in ("lexsegment", "weakly-revlex", "borel"):
        code, out = run(capsys, "check", str(zero), "--property", prop)
        assert code == 0 and json.loads(out)["holds"] is True


def test_froeberg_cmd(capsys):
    code, out = run(capsys, "froeberg", "-n", "3", "-d", "2,2,2", "--horizon", "5")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 3, 3, 1, 0, 0]


def test_lexseg_cmd(capsys, tmp_path):
    code, out = run(capsys, "lexseg", "-n", "3", "-d", "2,2")
    assert code == 0
    assert json.loads(out)["gens"] == [list(g) for g in GIN_32_22]
    hf = tmp_path / "hf.json"
    hf.write_text(json.dumps({"coeffs": [1, 2, 1, 0, 0, 0]}))
    code, out = run(capsys, "lexseg", "-n", "2", "--hf-file", str(hf))
    assert code == 0
    assert json.loads(out)["gens"] == [[2, 0], [1, 1], [0, 3]]


def test_lexseg_inadmissible_exit_code(capsys, tmp_path, monkeypatch):
    hf = tmp_path / "hf.json"
    hf.write_text(json.dumps({"coeffs": [1, 2, 9]}))
    code, out = run(capsys, "lexseg", "-n", "2", "--hf-file", str(hf))
    assert code == 1
    assert json.loads(out)["error"] == "InadmissibleHilbertFunction"
    # no (n, degrees) is known whose bracket series is inadmissible, so
    # `bound` gets the function above in place of the bracket series
    monkeypatch.setattr("ginlab.series.froeberg_series",
                        lambda n, degrees, horizon: (1, 2, 9)
                        + (0,) * (horizon - 2))
    code, out = run(capsys, "bound", "-n", "2", "-d", "2,2")
    assert code == 1
    assert json.loads(out) == {
        "schema": 1, "error": "InadmissibleHilbertFunction",
        "detail": "coefficient 9 at degree 2 exceeds dim S_2 = 3"}


def test_gin_and_survey_take_every_order(capsys, tmp_path):
    """deglex too: both gin routes give one ideal, and a survey row too."""
    gins = []
    for route in (["--route", "sample"],
                  ["--route", "parametric", "--field", "Q"]):
        code, out = run(capsys, "gin", "-n", "3", "-d", "2,2", "--order",
                        "deglex", *route)
        assert code == 0
        gins.append(json.loads(out)["ideal"]["gens"])
    rows = tmp_path / "rows"
    code, _ = run(capsys, "survey", "--case", "3:2:2:2", "--order", "deglex",
                  "--out", str(rows))
    assert code == 0
    gins.append(json.loads(rows.with_suffix(".jsonl").read_text())["gin"]["gens"])
    assert gins[0] == gins[1] == gins[2]


def test_bound_cmd(capsys):
    code, out = run(capsys, "bound", "-n", "3", "-d", "2,2")
    assert code == 0
    assert json.loads(out) == {"bound": 4, "horizon_uncertain": False}
    # the certified ideal has a quartic generator past horizon 3
    code, out = run(capsys, "bound", "-n", "3", "-d", "2,2", "--horizon", "3")
    assert code == 0
    assert json.loads(out) == {"bound": 3, "horizon_uncertain": True}


@pytest.mark.parametrize("n, degrees, bound", [
    (7, "2,2,2", 22578), (7, "2,2,3,3", 148332), (8, "2,2,2,2", 11356522)])
def test_bound_cmd_at_the_gotzmann_number(n, degrees, bound, capsys):
    # 22578 is what building the whole lexsegment ideal gives for
    # n=7 (2,2,2); the bound is now read off the Hilbert polynomial
    code, out = run(capsys, "bound", "-n", str(n), "-d", degrees)
    assert code == 0
    assert json.loads(out) == {"bound": bound, "horizon_uncertain": False}


@pytest.mark.parametrize("argv", [
    ["froeberg", "-n", "2", "-d", "2", "--horizon", "-1"],
    ["bound", "-n", "3", "-d", "2,2", "--horizon", "-3"],
    ["bound", "-n", "2", "-d", "0"],
    ["lexseg", "-n", "0", "-d", "2,2"],
    ["gin", "-n", "2", "-d", "2,2", "--trials", "0"],
    ["gin", "-n", "0", "-d", "2"],
    ["hilbert", "ideal.json", "--horizon", "-1"],
    ["survey", "--case", "0:1:2:2", "--out", "rows"],
    ["survey", "--case", "2:2:2:2", "--trials", "0", "--out", "rows"],
    ["gin", "-n", "2", "-d", "2,2", "--field", "bogus"],
    ["gin", "-n", "2", "-d", "2,2", "--field", "F4"],
    ["survey", "--case", "2:2:2:2", "--field", "bogus", "--out", "rows"],
    ["check", "ideal.json", "--property", "borel", "-p", "4"],
    ["gin", "-n", "2", "-d", "2,2", "--bound", "0"],
    ["gin", "-n", "2", "-d", "2,2", "--t-order", "lex"],
    ["survey", "--case", "2:2:3:1", "--out", "rows"],
    ["gin", "-n", "2", "-d", "2,2", "--budget-ms", "nan"],
    ["gin", "-n", "2", "-d", "2,2", "--budget-ms", "-1"],
    ["gin", "-n", "2", "-d", "2,2", "--max-pairs", "-1"],
    ["gb", "system.json", "--budget-ms", "inf"],
    ["survey", "--case", "2:2:2:2", "--budget-ms", "nan", "--out", "rows"],
    ["survey", "--case", "2:2:2:2", "--budget-ms", "inf", "--out", "rows"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_argument_is_usage_error(argv, capsys):
    usage_error(capsys, *argv)


def test_hilbert_cmd(capsys, tmp_path):
    f = tmp_path / "ideal.json"
    f.write_text(json.dumps({"n": 3, "gens": [list(g) for g in GIN_32_22]}))
    code, out = run(capsys, "hilbert", str(f), "--horizon", "5")
    assert code == 0
    assert json.loads(out)["coeffs"] == [1, 3, 4, 4, 4, 4]


def test_hilbert_cmd_on_a_high_power(capsys, tmp_path):
    # not stable, so the pivot recursion runs; x1^3000 is one pivot
    f = tmp_path / "ideal.json"
    f.write_text(json.dumps({"n": 2, "gens": [[3000, 1], [0, 2]]}))
    code, out = run(capsys, "hilbert", str(f))
    assert code == 0
    num = [1, 0, -1] + [0] * 2998 + [-1, 1]  # 1 - t^2 - t^3001 + t^3002
    assert json.loads(out)["coeffs"] == [
        series_coefficient(num, 2, d) for d in range(3004)]


@pytest.mark.parametrize("prop", ["lexsegment", "weakly-revlex", "borel"])
def test_check_reads_gin_output_and_survey_rows(prop, capsys, tmp_path):
    code, out = run(capsys, "gin", "-n", "3", "-d", "2,2", "--order",
                    "degrevlex", "--trials", "1")
    assert code == 0
    gin_file = tmp_path / "gin.json"
    gin_file.write_text(out)
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(json.dumps(json.loads(out)["ideal"]))
    rows = tmp_path / "rows"
    run(capsys, "survey", "--case", "3:2:2:2", "--order", "degrevlex",
        "--trials", "1", "--out", str(rows))
    verdicts = []
    for f in (ideal_file, gin_file, rows.with_suffix(".jsonl")):
        code, out = run(capsys, "check", str(f), "--property", prop)
        assert code == 0
        verdicts.append(json.loads(out))
    assert verdicts[0] == verdicts[1] == verdicts[2]
    # the degrevlex gin (x1^2, x1*x2, x2^3) is not a lexsegment ideal
    assert verdicts[0]["holds"] == (prop != "lexsegment")


@pytest.mark.parametrize("top", [3000, 40000])
def test_check_lexsegment_of_a_high_power(top, capsys, tmp_path):
    f = tmp_path / "ideal.json"
    f.write_text(json.dumps({"n": 2, "gens": [[top, 0]]}))
    code, out = run(capsys, "check", str(f), "--property", "lexsegment")
    assert code == 0 and json.loads(out)["holds"] is True


#: ideal files that do not hold an ideal: the file text (None: no file),
#: and a part of the reason that the usage error must name
BAD_IDEAL_FILES = {
    "missing file": (None, "FileNotFoundError"),
    "negative exponent": ('{"n": 2, "gens": [[-1, 2]]}', "non-negative"),
    "float exponent": ('{"n": 2, "gens": [[1.5, 2]]}', "non-negative"),
    "bool exponent": ('{"n": 2, "gens": [[true, 2]]}', "non-negative"),
    "wrong length": ('{"n": 2, "gens": [[1, 2, 3]]}', "does not have 2"),
    "no variables": ('{"n": 0, "gens": []}', "at least one variable"),
    "missing key": ('{"gens": [[1, 2]]}', "KeyError"),
    "not an object": ("[[1, 2]]", "TypeError"),
    "generator not a list": ('{"n": 2, "gens": [5]}', "TypeError"),
    "not JSON": ("{n: 2", "JSONDecodeError"),
}


@pytest.mark.parametrize("name", BAD_IDEAL_FILES)
@pytest.mark.parametrize("command", [
    ["hilbert"], ["check", "--property", "lexsegment"],
    ["check", "--property", "weakly-revlex"], ["check", "--property", "borel"],
], ids=" ".join)
def test_bad_ideal_file_is_usage_error(command, name, capsys, tmp_path):
    text, reason = BAD_IDEAL_FILES[name]
    f = tmp_path / "bad.json"
    if text is not None:
        f.write_text(text)
    err = usage_error(capsys, command[0], str(f), *command[1:])
    assert str(f) in err and reason in err


#: Hilbert-function files for `lexseg --hf-file` that do not hold one,
#: as in BAD_IDEAL_FILES
BAD_HF_FILES = {
    "missing file": (None, "FileNotFoundError"),
    "coefficient not an int": ('{"coeffs": "x"}', "ValueError"),
    "missing key": ('{"coefficients": [1, 2]}', "KeyError"),
    "not JSON": ('{"coeffs": [1, 2', "JSONDecodeError"),
    "float coefficient": ('{"coeffs": [1, 2.9]}', "not an integer"),
    "bool coefficient": ('{"coeffs": [1, true]}', "not an integer"),
    "float and bool": ('{"coeffs": [1, 2.9, true]}', "not an integer"),
}


@pytest.mark.parametrize("name", BAD_HF_FILES)
def test_bad_hf_file_is_usage_error(name, capsys, tmp_path):
    text, reason = BAD_HF_FILES[name]
    f = tmp_path / "hf.json"
    if text is not None:
        f.write_text(text)
    err = usage_error(capsys, "lexseg", "-n", "2", "--hf-file", str(f))
    assert str(f) in err and reason in err


def test_exponent_past_the_field_width(capsys, tmp_path):
    f = tmp_path / "big.json"
    f.write_text(json.dumps({"n": 2, "gens": [[40000, 0]]}))
    for argv in (["hilbert", str(f), "--horizon", "3"],
                 ["check", str(f), "--property", "weakly-revlex"]):
        code, out = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"] == "ExponentOverflow"
    # membership stays on exponent tuples, so the predicates still answer
    code, out = run(capsys, "check", str(f), "--property", "borel")
    assert code == 0 and json.loads(out)["holds"] is True


def test_gb_cmd(capsys, tmp_path):
    from ginlab.poly import poly_to_json
    R = gl.xring(2)
    polys = [parse_poly("x1^2 - x2^2", R, gl.LEX),
             parse_poly("x1*x2 + x2^2", R, gl.LEX)]
    f = tmp_path / "sys.json"
    f.write_text(json.dumps({"n": 2, "field": "Q",
                             "polys": [poly_to_json(p) for p in polys]}))
    code, out = run(capsys, "gb", str(f), "--order", "degrevlex")
    assert code == 0
    data = json.loads(out)
    J = gl.MonomialIdeal.from_json(data["initial_ideal"])
    gb = gl.reduce_basis(gl.buchberger(polys, gl.DEGREVLEX))
    assert J.gens == gl.MonomialIdeal(2, lead_monomials(gb)).gens


#: `gb` systems that do not hold one, as in BAD_IDEAL_FILES
BAD_GB_FILES = {
    "bad field": ({"n": 1, "field": "F4", "polys": [[["1", [1]]]]},
                  "not prime"),
    "uninvertible coefficient": (
        {"n": 1, "field": "F7", "polys": [[["1/7", [1]]]]}, "not invertible"),
    "negative exponent": ({"n": 2, "polys": [[["1", [-1, 2]]]]},
                          "non-negative"),
    "float exponent": ({"n": 2, "polys": [[["1", [1.5, 2]]]]},
                       "non-negative"),
    "bool exponent": ({"n": 2, "polys": [[["1", [True, 2]]]]},
                      "non-negative"),
    "float coefficient": ({"n": 2, "polys": [[[0.1, [1, 0]], ["1", [0, 1]]]]},
                          "not an int or a string"),
    "bool coefficient": ({"n": 2, "polys": [[[True, [1, 0]]]]},
                         "not an int or a string"),
    "no polynomial": ({"n": 2, "polys": []}, "no nonzero polynomial"),
    "only zeros": ({"n": 2, "polys": [[], [["0", [1, 0]]]]},
                   "no nonzero polynomial"),
}


@pytest.mark.parametrize("name", BAD_GB_FILES)
def test_bad_gb_file_is_usage_error(name, capsys, tmp_path):
    data, reason = BAD_GB_FILES[name]
    f = tmp_path / "sys.json"
    f.write_text(json.dumps(data))
    err = usage_error(capsys, "gb", str(f))
    assert str(f) in err and reason in err


def test_second_parametric_gin_builds_no_layout(capsys, monkeypatch):
    argv = ["gin", "-n", "3", "-d", "2,2", "--route", "parametric",
            "--field", "Q"]
    first = run(capsys, *argv)
    built = []
    init = gl.orders.Layout.__init__
    monkeypatch.setattr(gl.orders.Layout, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    assert run(capsys, *argv) == first and built == []


def test_ideal_round_trip(tmp_path):
    J = gl.MonomialIdeal(3, list(GIN_32_22))
    assert gl.MonomialIdeal.from_json(json.loads(json.dumps(J.to_json()))) == J


#: survey resume files that a survey refuses: the text appended to a file
#: that holds one good row (None: --out lies in a missing directory), and
#: the parts of the reason that the usage error must name
BAD_SURVEY_FILES = {
    "torn last line": ('{"schema": 1, "n": 2, "s',
                       ("line 2", "JSONDecodeError")),
    "row without its case": ('{"schema": 1}\n', ("line 2", "KeyError")),
    "row not an object": ("[2, 2]\n", ("line 2", "TypeError")),
    "missing directory": (None, ("FileNotFoundError",)),
}


@pytest.mark.parametrize("name", BAD_SURVEY_FILES)
def test_bad_survey_file_is_usage_error(name, capsys, tmp_path):
    text, reasons = BAD_SURVEY_FILES[name]
    case = ["survey", "--case", "2:2:2:2", "--seed", "4", "--trials", "1"]
    out = tmp_path / "rows"
    if text is None:
        out = tmp_path / "missing" / "rows"
    else:
        run(capsys, *case, "--out", str(out))
        with open(out.with_suffix(".jsonl"), "a") as fh:
            fh.write(text)
    files = [out.with_suffix(".jsonl"), out.with_suffix(".csv")]
    before = [f.read_text() for f in files if f.exists()]
    err = usage_error(capsys, *case, "--case", "3:2:2:2", "--out", str(out))
    assert str(files[0]) in err and all(r in err for r in reasons)
    # a refused file gets no row appended, and no table is written
    assert [f.read_text() for f in files if f.exists()] == before


def test_survey_small_grid(capsys, tmp_path):
    out = tmp_path / "rows"
    code, _ = run(capsys, "survey", "--case", "2:2:2:2", "--case", "3:2:2:2",
                  "--out", str(out), "--seed", "4")
    assert code == 0
    rows = [json.loads(l) for l in (out.with_suffix(".jsonl")).read_text().splitlines()]
    assert len(rows) == 2
    for row in rows:
        assert row["error"] is None
        assert row["maxdeg_gin"] <= row["maxgbdeg_bound"]
        assert row["is_lexsegment"] is True
    csv_text = out.with_suffix(".csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,s,degrees")


def test_survey_bound_is_the_lexsegment_top_degree(capsys, tmp_path):
    out = tmp_path / "rows"
    code, _ = run(capsys, "survey", "--case", "2:2:1:2", "--case", "3:2:1:2",
                  "--out", str(out), "--seed", "4", "--trials", "1")
    assert code == 0
    rows = [json.loads(l) for l in out.with_suffix(".jsonl").read_text().splitlines()]
    assert len(rows) == 8  # (1,1), (1,2), (2,1), (2,2) for each n
    for row in rows:
        assert row["error"] is None
        L, _ = gl.series.lexsegment_of_froeberg(row["n"], tuple(row["degrees"]))
        assert row["maxgbdeg_bound"] == top_degree(L)


def test_survey_idempotent_append(capsys, tmp_path):
    out = tmp_path / "rows"
    run(capsys, "survey", "--case", "2:2:2:2", "--out", str(out), "--seed", "4")
    first = out.with_suffix(".jsonl").read_text()
    run(capsys, "survey", "--case", "2:2:2:2", "--out", str(out), "--seed", "4")
    assert out.with_suffix(".jsonl").read_text() == first


def test_survey_rerun_skips_done_cases(capsys, tmp_path, monkeypatch):
    out = tmp_path / "rows"
    done = ("survey", "--case", "2:2:2:2", "--out", str(out), "--seed", "4")
    failed = ("survey", "--case", "3:2:2:2", "--out", str(out), "--seed", "4",
              "--budget-ms", "0.0001")
    run(capsys, *done)
    run(capsys, *failed)
    first = out.with_suffix(".jsonl").read_text()
    rows = [json.loads(l) for l in first.splitlines()]
    assert rows[0]["error"] is None
    assert rows[1]["error"].startswith("BudgetExceeded")
    assert rows[1]["seeds"] == rows[0]["seeds"]

    def recompute(*args, **kwargs):
        raise AssertionError("a done case was computed again")

    monkeypatch.setattr(cli, "gin_by_sampling", recompute)
    for argv in (done, failed):
        code, msg = run(capsys, *argv)
        assert code == 0 and json.loads(msg)["cases"] == 1
    assert out.with_suffix(".jsonl").read_text() == first


def test_survey_parametric_rows_and_rerun(capsys, tmp_path, monkeypatch):
    out = tmp_path / "rows"
    case = ("--case", "3:2:2:2", "--route", "parametric", "--field", "Q")
    code, _ = run(capsys, "survey", *case, "--out", str(out))
    assert code == 0
    first = out.with_suffix(".jsonl").read_text()
    (row,) = [json.loads(l) for l in first.splitlines()]
    assert row["error"] is None and row["route"] == "parametric"
    assert row["seeds"] == [] and row["agreement"] is None
    assert "u_generic" not in row
    code, gin = run(capsys, "gin", "-n", "3", "-d", "2,2", "--route",
                    "parametric", "--field", "Q")
    ideal = json.loads(gin)["ideal"]
    assert code == 0 and row["gin"] == {"n": 3, "gens": ideal["gens"]}

    def recompute(*args, **kwargs):
        raise AssertionError("a done case was computed again")

    monkeypatch.setattr(cli, "gin_parametric", recompute)
    code, msg = run(capsys, "survey", *case, "--out", str(out))
    assert code == 0 and json.loads(msg) == {"schema": 1, "cases": 1,
                                             "failures": 0}
    assert out.with_suffix(".jsonl").read_text() == first


def _refused_survey(capsys, monkeypatch, out):
    """Run a survey of one case whose table `out`.csv is a directory, and
    check that it exits 2 naming that file before any case runs."""
    out.with_suffix(".csv").mkdir()

    def compute(*args, **kwargs):
        raise AssertionError("a case ran before the table was opened")

    monkeypatch.setattr(cli, "gin_by_sampling", compute)
    err = usage_error(capsys, "survey", "--case", "2:2:2:2", "--trials", "1",
                      "--out", str(out))
    assert str(out.with_suffix(".csv")) in err and "IsADirectoryError" in err


def test_survey_table_that_cannot_be_written_is_usage_error(
        capsys, tmp_path, monkeypatch):
    # the table is opened before the first case runs, so nothing is
    # computed and no row is appended, and the JSONL file that the
    # survey made is removed
    out = tmp_path / "rows"
    _refused_survey(capsys, monkeypatch, out)
    assert not out.with_suffix(".jsonl").exists()


@pytest.mark.parametrize("found", ["an empty file", "a row"])
def test_refused_survey_keeps_the_survey_file_it_found(
        found, capsys, tmp_path, monkeypatch):
    out = tmp_path / "rows"
    jsonl = out.with_suffix(".jsonl")
    if found == "a row":
        run(capsys, "survey", "--case", "2:2:2:2", "--trials", "1",
            "--out", str(out))
        out.with_suffix(".csv").unlink()
    else:
        jsonl.write_text("")
    before = jsonl.read_bytes()
    _refused_survey(capsys, monkeypatch, out)
    assert jsonl.read_bytes() == before


def test_survey_retries_failure_under_another_budget(capsys, tmp_path):
    out = tmp_path / "rows"
    case = ("survey", "--case", "3:2:2:2", "--out", str(out), "--seed", "4")
    run(capsys, *case, "--budget-ms", "0.0001")
    run(capsys, *case, "--budget-ms", "600000")
    rows = [json.loads(l)
            for l in out.with_suffix(".jsonl").read_text().splitlines()]
    assert [r["budget_ms"] for r in rows] == [0.0001, 600000]
    assert rows[0]["error"].startswith("BudgetExceeded")
    assert rows[1]["error"] is None
    # a success is reused under any budget
    code, msg = run(capsys, *case, "--budget-ms", "0.0001")
    assert code == 0 and json.loads(msg)["failures"] == 0
    assert len(out.with_suffix(".jsonl").read_text().splitlines()) == 2


def test_survey_recomputes_a_failure_that_is_no_longer_one(capsys, tmp_path):
    # a row whose error names no class of FAILURES (here a tie of an
    # earlier plurality vote) is computed again under the same budget
    out = tmp_path / "rows"
    stale = {"schema": 1, "n": 3, "s": 2, "degrees": [3, 3],
             "order": "degrevlex", "route": "sample", "field": "F3",
             "seeds": list(trial_seeds(0, 5)), "budget_ms": None,
             "error": "InconclusiveSampling: tie among sampled initial "
                      "ideals (2 trials each)", "runtime_ms": 1.0}
    out.with_suffix(".jsonl").write_text(json.dumps(stale) + "\n")
    case = ("survey", "--case", "3:2:3:3", "--order", "degrevlex", "--field",
            "F3", "--out", str(out))
    code, msg = run(capsys, *case)
    assert code == 0 and json.loads(msg)["failures"] == 0
    rows = [json.loads(l)
            for l in out.with_suffix(".jsonl").read_text().splitlines()]
    assert rows[0] == stale and len(rows) == 2
    assert rows[1]["error"] is None and rows[1]["budget_ms"] is None
    code, gin = run(capsys, "gin", "-n", "3", "-d", "3,3", "--order",
                    "degrevlex", "--field", "F3")
    assert rows[1]["gin"]["gens"] == json.loads(gin)["ideal"]["gens"]
    # the new row stands on the next rerun
    code, msg = run(capsys, *case)
    assert code == 0 and json.loads(msg)["failures"] == 0
    assert len(out.with_suffix(".jsonl").read_text().splitlines()) == 2


def test_survey_rerun_under_another_field_recomputes(capsys, tmp_path):
    out = tmp_path / "rows"
    case = ("survey", "--case", "3:2:2:2", "--out", str(out), "--seed", "4",
            "--trials", "1")
    run(capsys, *case)
    run(capsys, *case, "--field", "F2")
    rows = [json.loads(l)
            for l in out.with_suffix(".jsonl").read_text().splitlines()]
    assert [r["field"] for r in rows] == ["F32003", "F2"]
    assert rows[0]["gin"]["gens"] == [list(g) for g in GIN_32_22]
    # over F2 the sampled quadrics of seed 4 are not generic
    assert rows[1]["gin"]["gens"] == [[2, 0, 0]]
    fresh = tmp_path / "fresh"
    run(capsys, "survey", "--case", "3:2:2:2", "--out", str(fresh), "--seed",
        "4", "--trials", "1", "--field", "F2")
    assert rows[1] == {**json.loads(fresh.with_suffix(".jsonl").read_text()),
                       "runtime_ms": rows[1]["runtime_ms"]}
    # a row without a field, from an older file, is computed again
    legacy = dict(rows[0])
    del legacy["field"]
    out.with_suffix(".jsonl").write_text(json.dumps(legacy) + "\n")
    run(capsys, *case)
    rows = [json.loads(l)
            for l in out.with_suffix(".jsonl").read_text().splitlines()]
    assert len(rows) == 2 and rows[1]["field"] == "F32003"


def test_gin_start_up_imports_only_what_gin_runs(tmp_path):
    """A fresh interpreter that runs one sampled `gin` loads none of
    numpy, dataclasses (and its inspect), fractions (and its decimal) or
    csv; a gin over Q and a survey, which load them, still run after it.
    Modules that the interpreter's start loaded already are left out."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "from ginlab.cli import main\n"
            "unused = {'numpy', 'dataclasses', 'inspect', 'fractions',\n"
            "          'decimal', 'csv'}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['gin', '-n', '2', '-d', '2,2']) == 0\n"
            "    loaded = unused & set(sys.modules) - before\n"
            "    assert main(['gin', '-n', '3', '-d', '2,2', '--route',\n"
            "                 'parametric', '--field', 'Q']) == 0\n"
            "    assert main(['survey', '--case', '2:2:2:2', '--trials', '1',\n"
            "                 '--out', sys.argv[1]]) == 0\n"
            "assert not loaded, f'gin loaded {sorted(loaded)}'\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "rows")],
                   env=env, check=True)
