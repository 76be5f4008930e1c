"""Command-line workbench.

Subcommands: gin, check, froeberg, lexseg, bound, hilbert, gb, survey.
Each `cmd_*` returns its JSON record, and `main` alone prints it with
`emit`, or exits 1 with the record of a mathematical failure (budget
exhaustion, inadmissible Hilbert function, an exponent too large for a
packed monomial); a usage error exits 2. Key order is pinned, and fixed
seeds give byte-identical output. `gin` and `gb` make their `Budget` as
they start, and `survey` one per case: `--budget-ms` runs from there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from itertools import product
from pathlib import Path

from .fields import field_by_name
from .generic import (SCHEMA, GenericInstance, gin_by_sampling,
                      gin_parametric, trial_seeds)
from .groebner import (Budget, BudgetExceeded, buchberger, reduce_basis)
from .ideals import MonomialIdeal, _check, hilbert_series, top_degree
from .orders import ORDERS_BY_NAME, ExponentOverflow, binom_p_leq, mono_str
from .poly import poly_from_json, poly_to_json, xring
from .props import is_borel_fixed, is_lexsegment, is_weakly_revlex
from .series import (InadmissibleHilbertFunction, froeberg_series,
                     lexsegment_bound, lexsegment_of_froeberg,
                     lexsegment_of_hf)

#: mathematical failures: exit 1 with the reason as JSON
FAILURES = (BudgetExceeded, InadmissibleHilbertFunction, ExponentOverflow)
#: the names of FAILURES, which begin the "error" of a failed survey row
_FAILURE_NAMES = {cls.__name__ for cls in FAILURES}

CSV_COLUMNS = ["n", "s", "degrees", "order", "route", "gin", "is_lexsegment",
               "is_weakly_revlex", "is_borel_fixed", "maxdeg_gin",
               "maxgbdeg_bound", "seeds", "budget_ms", "agreement", "runtime_ms",
               "error"]


_encode_str = json.encoder.encode_basestring_ascii
_int_str = int.__repr__


def _indented(obj, pad):
    """`json.dumps(obj, indent=2)` for a value nested where a new line
    starts with `pad` (a newline and the indent of its level).

    `json.dumps` uses its C encoder only when `indent` is None; this
    writer reaches the same C string escaping and int formatting without
    the pure-Python one. Dicts with str keys, lists, tuples, strs and
    ints are written here. Anything else (floats, bools, None, subclasses,
    dicts with other keys) goes to `json.dumps(..., indent=2)` itself,
    re-indented to `pad`: its newlines are the only ones in its text, as
    a JSON string holds no raw newline."""
    cls = type(obj)
    if cls is str:
        return _encode_str(obj)
    if cls is int:
        return _int_str(obj)
    if cls is list or cls is tuple:
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) == {int}:
            body = map(_int_str, obj)
        else:
            body = [_indented(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if cls is dict:
        if not obj:
            return "{}"
        inner = pad + "  "
        try:
            body = [_encode_str(k) + ": " + _indented(v, inner)
                    for k, v in obj.items()]
            return "{" + inner + ("," + inner).join(body) + pad + "}"
        except TypeError:  # a key that is not a str
            pass
    return json.dumps(obj, indent=2).replace("\n", pad)


def emit(obj):
    """Print `obj` as `json.dumps(obj, indent=2)` prints it."""
    print(_indented(obj, "\n"))


def _at_least(low):
    """An argparse type: an int no smaller than `low`."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    parse.__name__ = f"int >= {low}"
    return parse


_positive = _at_least(1)
_non_negative = _at_least(0)


def _milliseconds(text):
    """An argparse type: a finite number of milliseconds, >= 0."""
    value = float(text)
    if not 0 <= value < float("inf"):  # NaN fails both
        raise argparse.ArgumentTypeError(f"{text} is not a finite number >= 0")
    return value


def _parse_degrees(text):
    """An argparse type: comma-separated generator degrees, each >= 1."""
    return tuple(_positive(d) for d in text.split(","))


def _parse_case(text):
    """An argparse type: a survey case n:s:dmin:dmax with n, s, dmin >= 1
    and dmax >= dmin."""
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"{text!r} is not n:s:dmin:dmax")
    n, s, dmin = (_positive(x) for x in parts[:3])
    return n, s, dmin, _at_least(dmin)(parts[3])


def _parse_field(text):
    """An argparse type: a coefficient field by name, "Q" or "F<prime>"."""
    try:
        return field_by_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _characteristic(text):
    """An argparse type: a characteristic, 0 or a prime."""
    p = int(text)
    try:
        binom_p_leq(0, 0, p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def _with_strings(ideal_json):
    """An ideal's JSON, its generators also written out as strings."""
    names = [f"x{i + 1}" for i in range(ideal_json["n"])]
    ideal_json["gens_str"] = [mono_str(g, names) for g in ideal_json["gens"]]
    return ideal_json


def _load(path, what, parse):
    """`parse` of the JSON in the file `path`. A file that cannot be read,
    or whose contents `parse` refuses, is a usage error: exit 2 with the
    reason."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        build_parser().error(f"{path}: not a readable {what} file: "
                             f"{type(exc).__name__}: {exc}")


def _load_ideal(path):
    """The ideal in the JSON file `path`: {"n": ..., "gens": [[non-negative
    int exponents], ...]}, or such an object under "ideal" (`gin` output)
    or "gin" (a `survey` row)."""
    def parse(data):
        if "gens" not in data:
            data = data["ideal"] if "ideal" in data else data["gin"]
        return MonomialIdeal.from_json(data)

    return _load(path, "ideal", parse)


# ---------------------------------------------------------------------------
# subcommands

def _gin(args, n, degrees):
    """The gin of n variables and `degrees` by the route, order, field,
    seed, trials, bound and budget that `args` names."""
    budget = Budget(ms=args.budget_ms, max_pairs=args.max_pairs)
    inst = GenericInstance(n, degrees, args.field, ORDERS_BY_NAME[args.order])
    if args.route == "sample":
        return gin_by_sampling(inst, args.trials, args.seed, args.bound, budget)
    return gin_parametric(inst, budget)


def cmd_gin(args):
    out = _gin(args, args.n, args.degrees).to_json()
    _with_strings(out["ideal"])
    return out


def cmd_check(args):
    J = _load_ideal(args.ideal)
    if args.property == "lexsegment":
        verdict = is_lexsegment(J)
    elif args.property == "weakly-revlex":
        verdict = is_weakly_revlex(J)
    else:
        verdict = is_borel_fixed(J, args.p)
    return verdict.to_json(args.property)


def cmd_froeberg(args):
    return {"coeffs": list(froeberg_series(args.n, args.degrees, args.horizon))}


def _hf_coeffs(data):
    """The coefficients of a Hilbert-function file, {"coeffs": [ints]}."""
    coeffs = data["coeffs"]
    # `type`, not `isinstance`, so that bools are refused too
    if not {int}.issuperset(map(type, coeffs)):
        raise ValueError("a coefficient is not an integer")
    return coeffs


def cmd_lexseg(args):
    if args.degrees is None:
        hf = _load(args.hf_file, "Hilbert function", _hf_coeffs)
        J, uncertain = lexsegment_of_hf(args.n, hf, args.horizon)
    else:
        J, uncertain = lexsegment_of_froeberg(args.n, args.degrees,
                                              args.horizon)
    out = _with_strings(J.to_json())
    out["horizon_uncertain"] = uncertain
    return out


def cmd_bound(args):
    bound, uncertain = lexsegment_bound(args.n, args.degrees, args.horizon)
    return {"bound": bound, "horizon_uncertain": uncertain}


def cmd_hilbert(args):
    J = _load_ideal(args.ideal)
    return {"coeffs": hilbert_series(J, args.horizon)}


def cmd_gb(args):
    budget = Budget(ms=args.budget_ms, max_pairs=args.max_pairs)
    order = ORDERS_BY_NAME[args.order]

    def parse(data):
        n = int(data["n"])
        ring = xring(n, field_by_name(data.get("field", "Q")))
        _check(n, [exps for p in data["polys"] for _, exps in p])
        polys = [poly_from_json(ring, order, p) for p in data["polys"]]
        if not any(polys):
            raise ValueError("the system has no nonzero polynomial")
        return polys

    polys = _load(args.polys, "polynomial system", parse)
    gb = reduce_basis(buchberger(polys, order, budget))
    return {
        "schema": SCHEMA,
        "order": args.order,
        "basis": [poly_to_json(g) for g in gb.generators],
        "basis_str": [str(g) for g in gb.generators],
        "initial_ideal": _with_strings(gb.initial_ideal().to_json()),
    }


# ---------------------------------------------------------------------------
# survey

def survey_row(head, args):
    """The survey row that starts with `head`, as a plain dict; per-case
    failures land in 'error'."""
    t0 = time.perf_counter()
    row = dict(head)
    try:
        res = _gin(args, row["n"], row["degrees"])
        row["agreement"] = res.agreement  # None on the parametric route
        if res.route == "sampling":
            row["u_generic"] = list(res.u_generic)
        J, inst = res.ideal, res.inst
        row["gin"] = J.to_json()
        row["is_lexsegment"] = is_lexsegment(J).holds
        row["is_weakly_revlex"] = is_weakly_revlex(J).holds
        row["is_borel_fixed"] = is_borel_fixed(J, args.field.char).holds
        row["maxdeg_gin"] = top_degree(J)
        row["maxgbdeg_bound"] = lexsegment_bound(inst.n, inst.degrees)[0]
        row["error"] = None
    except FAILURES as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["runtime_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    return row


def _row_key(row):
    """The case key of a survey row, or of the head of a new one: a
    KeyError or a TypeError if it lacks its case fields."""
    return (row["n"], tuple(row["degrees"]), row["order"], row["route"],
            row.get("field"), tuple(row.get("seeds", [])))


def _load_rows(jsonl):
    """The rows of the survey file `jsonl` by case key, none if there is
    no such file. A file that cannot be read, or a line that is not a
    survey row (say, the torn last line of a killed run, or a row that
    lacks its case fields, its "error", or a success its "gin"), is a
    usage error: exit 2 with the reason and the line number."""
    rows = {}
    try:
        with open(jsonl) as fh:
            for number, line in enumerate(fh, 1):
                try:
                    row = json.loads(line)
                    if row["error"] is None and "gens" not in row["gin"]:
                        raise KeyError("gens")
                    rows[_row_key(row)] = row
                except (ValueError, KeyError, TypeError) as exc:
                    build_parser().error(
                        f"{jsonl}: line {number} is not a survey row: "
                        f"{type(exc).__name__}: {exc}")
    except FileNotFoundError:
        pass
    except (OSError, ValueError) as exc:
        build_parser().error(f"{jsonl}: not a readable survey file: "
                             f"{type(exc).__name__}: {exc}")
    return rows


def _open_output(path, mode, created=None):
    """`path` opened for writing in `mode`, or a usage error: exit 2,
    after removing `created`, a file that this command made, if given."""
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        if created is not None:
            created.unlink()
        build_parser().error(f"{path}: cannot write: {type(exc).__name__}: {exc}")


def cmd_survey(args):
    import csv
    cases = [(n, degrees) for n, s, dmin, dmax in args.case
             for degrees in product(range(dmin, dmax + 1), repeat=s)]
    out = Path(args.out)
    jsonl = out.with_suffix(".jsonl")
    existing = _load_rows(jsonl)
    # the trial seeds of every row, known before any case runs
    seeds = (list(trial_seeds(args.seed, args.trials))
             if args.route == "sample" else [])
    rows = []
    # a table that cannot be written stops the survey before any case
    # runs, and removes the JSONL file if this survey made it
    created = None if jsonl.exists() else jsonl
    with (_open_output(jsonl, "a") as log,
          _open_output(out.with_suffix(".csv"), "w", created) as table):
        for n, degrees in cases:
            head = {"schema": SCHEMA, "n": n, "s": len(degrees),
                    "degrees": list(degrees), "order": args.order,
                    "route": args.route, "field": args.field.name,
                    "seeds": seeds, "budget_ms": args.budget_ms}
            key = _row_key(head)
            row = existing.get(key)
            # a failure is reused under the same budget only, and only if
            # its exception is still one of FAILURES
            if row is None or row["error"] is not None and (
                    row.get("budget_ms") != args.budget_ms
                    or row["error"].split(":")[0] not in _FAILURE_NAMES):
                row = survey_row(head, args)
                log.write(json.dumps(row) + "\n")
                existing[key] = row
            rows.append(row)
        writer = csv.DictWriter(table, CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            flat = dict(row)
            flat["degrees"] = ",".join(str(d) for d in row["degrees"])
            flat["seeds"] = ";".join(str(s) for s in row.get("seeds", []))
            if row.get("error") is None:
                flat["gin"] = ";".join(
                    mono_str(tuple(g)) for g in row["gin"]["gens"])
            writer.writerow(flat)
    return {"schema": SCHEMA, "cases": len(rows),
            "failures": sum(1 for r in rows if r.get("error"))}


# ---------------------------------------------------------------------------

@cache
def build_parser():
    """The argument parser, built once per process. Its `commands` maps
    each subcommand's name to the subcommand's own parser."""
    ap = argparse.ArgumentParser(prog="ginlab",
                                 description="Initial ideals of generic ideals")
    sub = ap.add_subparsers(dest="cmd", required=True)
    ap.commands = sub.choices
    orders = list(ORDERS_BY_NAME)

    def common_budget(p):
        p.add_argument("--budget-ms", type=_milliseconds, default=None)
        p.add_argument("--max-pairs", type=_non_negative, default=None)

    def gin_options(p):
        p.add_argument("--order", choices=orders, default="lex")
        p.add_argument("--route", choices=["sample", "parametric"],
                       default="sample")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=_positive, default=5)
        p.add_argument("--field", type=_parse_field, default="F32003")

    p = sub.add_parser("gin", help="initial ideal of generic ideals")
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-d", "--degrees", type=_parse_degrees, required=True)
    gin_options(p)
    p.add_argument("--bound", type=_positive, default=None,
                   help="coefficient bound for sampling")
    common_budget(p)
    p.set_defaults(func=cmd_gin)

    p = sub.add_parser("check", help="classify a monomial ideal")
    p.add_argument("ideal", help="ideal JSON file")
    p.add_argument("--property", choices=["lexsegment", "weakly-revlex", "borel"],
                   required=True)
    p.add_argument("-p", type=_characteristic, default=0,
                   help="characteristic for borel")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("froeberg", help="bracket series")
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-d", "--degrees", type=_parse_degrees, required=True)
    p.add_argument("--horizon", type=_non_negative, default=None)
    p.set_defaults(func=cmd_froeberg)

    p = sub.add_parser("lexseg", help="lexsegment ideal of a Hilbert function")
    p.add_argument("-n", type=_positive, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("-d", "--degrees", type=_parse_degrees)
    source.add_argument("--hf-file")
    p.add_argument("--horizon", type=_non_negative, default=None)
    p.set_defaults(func=cmd_lexseg)

    p = sub.add_parser("bound", help="maxGBdeg bound via the lexsegment ideal")
    p.add_argument("-n", type=_positive, required=True)
    p.add_argument("-d", "--degrees", type=_parse_degrees, required=True)
    p.add_argument("--horizon", type=_non_negative, default=None)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("hilbert", help="Hilbert series of a monomial ideal")
    p.add_argument("ideal")
    p.add_argument("--horizon", type=_non_negative, default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("gb", help="reduced Groebner basis of explicit input")
    p.add_argument("polys", help="polynomial system JSON file")
    p.add_argument("--order", choices=orders, default="degrevlex")
    common_budget(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("survey", help="verdict table over a parameter grid")
    p.add_argument("--case", type=_parse_case, action="append", required=True,
                   help="n:s:dmin:dmax (repeatable)")
    gin_options(p)
    p.add_argument("--budget-ms", type=_milliseconds, default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    # a survey samples at the default bound, under no pair cap
    p.set_defaults(func=cmd_survey, bound=None, max_pairs=None)

    return ap


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    # a known subcommand's arguments go straight to its own parser, not
    # through the top-level one first; the namespace and the usage errors
    # are those of `parser.parse_args(argv)`
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(
            argv[1:], argparse.Namespace(cmd=argv[0]))
        if extra:  # as the top-level parser reports them
            parser.error("unrecognized arguments: " + " ".join(extra))
    try:
        record, code = args.func(args), 0
    except FAILURES as exc:
        record, code = {"schema": SCHEMA, "error": type(exc).__name__,
                        "detail": str(exc)}, 1
    emit(record)
    return code


if __name__ == "__main__":
    sys.exit(main())
