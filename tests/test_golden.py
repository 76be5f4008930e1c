"""Byte-exact CLI output on fixed seeds, against `golden_cli.json`.

The file holds the JSON that `ginlab` printed, and its exit code, for:

- `gin` on the criterion-4 grid, lex and degrevlex, seed 0
- `gin` at non-generic points (`--field F2`, `--bound 1`), where sampled
  trials are not u-generic or disagree, and the largest trial ideal in
  the Plucker order is selected
- `check --property lexsegment`, `weakly-revlex` and `borel` on four
  ideals: the n=4 and n=3 (2,2) lex gins, the n=3 (2,2) degrevlex gin,
  and (x2^2) in two variables, so that each property fails with a
  witness and holds at least once
- the Q path: `gin --route parametric --field Q` on the parametric
  benchmark cases in lex and degrevlex, sampled `gin --field Q`, and `gb`
  on systems with non-integer, non-monic rational coefficients, whose
  reduced bases print those rationals
- `gin -n 3 -d 2,2,2,2 --trials 1`, where s > n and the u-check compares
  against the numerator of a truncated bracket series
- `lexseg` and `bound` on the seven jobs of the lexseg benchmark workload
  and on two larger cases, and `hilbert --horizon 12` on the `check`
  ideals: the lexsegment construction and the Hilbert numerator behind
  its re-check
- `froeberg` at n=3 on (2,2), which is not truncated, and on (2,2,2,2),
  which is

Any change to the Groebner kernel, the u-check, the predicates or the
Hilbert series that
alters one byte of this output fails here. If a change of output is
intended, re-record the file with

    PYTHONPATH=src python tests/test_golden.py

and say in the change which outputs moved and why.
"""

import contextlib
import io
import json
from pathlib import Path

from ginlab.cli import main

from test_acceptance import CRIT4_GRID

GOLDEN = Path(__file__).with_name("golden_cli.json")

#: the ideal file of a `check` command and the polynomial file of `gb`
IDEAL = "{ideal}"
POLYS = "{polys}"

#: the n=4 (2,2) lex gin, which is not a lexsegment ideal (criterion 5),
#: the n=3 (2,2) one, which is, the n=3 (2,2) degrevlex gin, which is
#: weakly revlex, and (x2^2), which has none of the three properties
IDEALS = {
    "gin-4-22": {"n": 4, "gens": [[2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 2, 0],
                                  [0, 4, 0, 0]]},
    "gin-3-22": {"n": 3, "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 2],
                                  [0, 4, 0]]},
    "drl-3-22": {"n": 3, "gens": [[2, 0, 0], [1, 1, 0], [0, 3, 0]]},
    "x2-squared": {"n": 2, "gens": [[0, 2]]},
}

#: `gb` inputs over Q: a homogeneous system and a non-homogeneous one,
#: with leading coefficients other than 1 and non-integer coefficients
SYSTEMS = {
    "q-hom-3": {"n": 3, "polys": [
        [["1/2", [2, 0, 0]], ["3/7", [0, 1, 1]], ["-5/4", [0, 0, 2]]],
        [["2", [1, 1, 0]], ["1", [1, 0, 1]], ["-1/3", [0, 0, 2]]],
        [["-3", [0, 2, 0]], ["5/4", [1, 0, 1]], ["7", [0, 1, 1]]]]},
    "q-affine-2": {"n": 2, "polys": [
        [["3", [2, 1]], ["-2/5", [0, 1]], ["1", [0, 0]]],
        [["2", [1, 2]], ["7/3", [1, 0]], ["-1/2", [0, 1]]]]},
}

#: the parametric benchmark cases (`perfbench/workloads.GIN_PARAM_CASES`)
PARAM_CASES = [(3, (2, 2)), (4, (2, 2)), (2, (3, 3)), (2, (2, 2, 3)),
               (2, (2, 3, 3))]


#: the lexseg benchmark workload (`perfbench/workloads.WORKLOADS`), then
#: two larger cases
SERIES_CASES = [("bound", 4, (2, 2, 4)), ("lexseg", 4, (2, 2, 3)),
                ("bound", 4, (2, 3)), ("bound", 4, (2, 2, 3)),
                ("lexseg", 4, (2, 2, 2)), ("lexseg", 4, (2, 3)),
                ("lexseg", 3, (4, 4)),
                ("lexseg", 5, (2, 2, 3)), ("bound", 4, (3, 3))]


def _gin(n, degrees, *extra):
    return ["gin", "-n", str(n), "-d", ",".join(map(str, degrees)), *extra]


COMMANDS = (
    [_gin(n, d, "--order", order, "--seed", "0")
     for order in ("lex", "degrevlex") for n, d in CRIT4_GRID]
    + [_gin(3, (2, 2), "--field", "F2"),
       _gin(3, (2, 2, 2), "--order", "degrevlex", "--field", "F2"),
       _gin(4, (2, 3, 3), "--field", "F2"),
       _gin(3, (2, 2), "--bound", "1"),
       _gin(3, (2, 2, 2), "--bound", "1"),
       _gin(3, (3, 3), "--order", "degrevlex", "--bound", "1"),
       _gin(4, (2, 3, 2), "--order", "degrevlex", "--bound", "1")]
    + [["check", IDEAL, "--property", prop, name]
       for prop in ("lexsegment", "weakly-revlex", "borel") for name in IDEALS]
    + [_gin(n, d, "--order", order, "--route", "parametric", "--field", "Q")
       for order in ("lex", "degrevlex") for n, d in PARAM_CASES]
    + [_gin(3, d, "--field", "Q", "--seed", "0") for d in ((2, 2), (2, 2, 2))]
    + [["gb", POLYS, "--order", order, name]
       for name in SYSTEMS for order in ("lex", "degrevlex")]
    + [[cmd, "-n", str(n), "-d", ",".join(map(str, d))]
       for cmd, n, d in SERIES_CASES]
    + [["hilbert", IDEAL, "--horizon", "12", name] for name in IDEALS]
    + [_gin(3, (2, 2, 2, 2), "--trials", "1")]
    + [["froeberg", "-n", "3", "-d", d] for d in ("2,2", "2,2,2,2")]
)


def run(argv, tmp_dir):
    """(exit code, stdout) of one command; a `check`, `hilbert` or `gb`
    command names its input last, and the input is written to a file in
    `tmp_dir` first."""
    if argv[0] in ("check", "hilbert", "gb"):
        *argv, name = argv
        path = Path(tmp_dir) / f"{name}.json"
        path.write_text(json.dumps({**IDEALS, **SYSTEMS}[name]))
        argv = [str(path) if a in (IDEAL, POLYS) else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_cli_output_is_byte_identical(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert [g["argv"] for g in golden] == COMMANDS
    for g in golden:
        assert run(g["argv"], tmp_path) == (g["exit"], g["stdout"]), g["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [dict(zip(("exit", "stdout"), run(argv, tmp)), argv=argv)
                   for argv in COMMANDS]
    GOLDEN.write_text(json.dumps(
        [{"argv": r["argv"], "exit": r["exit"], "stdout": r["stdout"]}
         for r in records], indent=1) + "\n")
