"""Job lists of the ginlab benchmark workloads and the answer check.

A job is one ``ginlab`` CLI call. Only sampled ``gin`` jobs take the
workload seed (as ``--seed``); a ``check`` job classifies the ideal that
the preceding ``gin`` job printed, read back from a file the benchmark
writes between the two jobs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: placeholder in a check job's argv for the preceding gin's ideal file
IDEAL = "{ideal}"

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Job:
    key: str  # reference key
    argv: tuple  # CLI argv without the seed; IDEAL marks the ideal file
    kind: str  # gin | check | lexseg | bound
    sampled: bool = False

    def command(self, seed, ideal_path=None):
        argv = [ideal_path if a == IDEAL else a for a in self.argv]
        if self.sampled:
            argv += ["--seed", str(seed)]
        return argv


def _degrees(degrees):
    return ",".join(str(d) for d in degrees)


def gin_job(n, degrees, order="lex", route="sample", field=None, trials=None):
    argv = ["gin", "-n", str(n), "-d", _degrees(degrees), "--order", order]
    if trials is not None:
        argv += ["--trials", str(trials)]
    if route != "sample":
        argv += ["--route", route]
    if field is not None:
        argv += ["--field", field]
    return Job(" ".join(argv), tuple(argv), "gin", sampled=route == "sample")


def check_job(gin, prop):
    argv = ("check", IDEAL, "--property", prop)
    return Job(f"{gin.key} | check --property {prop}", argv, "check")


def gin_with_checks(n, degrees, order, props):
    gin = gin_job(n, degrees, order, trials=TRIALS)
    return [gin] + [check_job(gin, p) for p in props]


def series_job(cmd, n, degrees):
    argv = (cmd, "-n", str(n), "-d", _degrees(degrees))
    return Job(" ".join(argv), argv, cmd)


#: the one-job warm-up every set-up run and every worker performs
WARMUP = gin_job(2, (2, 2))

#: sampling trials per gin job. Every trial runs the same pipeline
#: (sample, Buchberger, interreduction, u-check), so one trial keeps each
#: layer's share of the job while making the job five times shorter. Short
#: jobs repeat often in a run, and the host-speed probes just before and
#: after a job (see ``worker.probe``) catch the speed it ran at
TRIALS = 1

#: criterion-4 grid cases kept in gin_lex. A pass over the whole 20-case
#: grid takes 10-16 s; n=4 (3,3,3) alone takes about 0.9 s with its
#: checks, too long for the probes around it to catch the speed it ran
#: at. n=4 (3,3), where Groebner takes over 90% of the job, keeps
#: Buchberger and interreduction the larger part of a pass
GIN_LEX_CASES = [(3, (2, 2)), (3, (3, 3)), (3, (2, 2, 2)), (3, (3, 3, 3)),
                 (4, (2, 2, 2)), (4, (2, 3, 3)), (4, (3, 3))]

#: degrevlex cases whose cost is the Macaulay-matrix u-check
GIN_DRL_CASES = [(4, (2, 2, 2)), (4, (2, 2, 3)), (4, (3, 3)), (4, (3, 3, 3)),
                 (4, (2, 2, 2, 2)), (5, (2, 2))]

#: parametric cases of at most about 0.4 s each; n=5 (2,2) and
#: n=2 (3,3,3) take 1-2 s, too long for the probes around them to catch
#: the speed they ran at
GIN_PARAM_CASES = [(3, (2, 2)), (4, (2, 2)), (2, (3, 3)), (2, (2, 2, 3)),
                   (2, (2, 3, 3))]

WORKLOADS = {
    "gin_lex": [job for n, d in GIN_LEX_CASES
                for job in gin_with_checks(n, d, "lex", ("lexsegment", "borel"))],
    "gin_drl": [job for n, d in GIN_DRL_CASES
                for job in gin_with_checks(n, d, "degrevlex",
                                           ("weakly-revlex", "borel"))],
    # jobs of at most about 0.15 s; the larger bound and lexseg cases
    # (n=5 (2,2), n=4 (3,3), n=4 (3,3,3)) take 1-3 s each, too long for
    # the probes around them to catch the speed they ran at
    "lexseg": [series_job("bound", 4, (2, 2, 4)),
               series_job("lexseg", 4, (2, 2, 3)),
               series_job("bound", 4, (2, 3)),
               series_job("bound", 4, (2, 2, 3)),
               series_job("lexseg", 4, (2, 2, 2)),
               series_job("lexseg", 4, (2, 3)),
               series_job("lexseg", 3, (4, 4))],
    "gin_param": [gin_job(n, d, route="parametric", field="Q")
                  for n, d in GIN_PARAM_CASES],
}

#: workloads whose job times are scaled by the numpy probe rather than the
#: pure-Python one (see ``worker.PROBES``): over 80% of gin_drl is numpy
#: row operations of the u-check, which a loaded host slows less than
#: pure-Python code
NUMPY_PROBED = {"gin_drl"}

#: spans each workload must record at least once in a traced pass; a
#: zero count means a rename or a broken wrap point, and fails the run
REQUIRED_SPANS = {
    "gin_lex": ("cli", "groebner.buchberger", "groebner.nf",
                "generic.sample", "generic.u_check", "props.classify"),
    "gin_drl": ("cli", "groebner.buchberger", "groebner.nf",
                "generic.u_check", "props.classify"),
    "lexseg": ("cli", "series.lexseg", "series.lexseg_hf"),
    "gin_param": ("cli", "groebner.buchberger", "groebner.nf",
                  "groebner.spoly"),
}


def observed(kind, out):
    """The part of a job's JSON output that the reference fixes."""
    if kind == "gin":
        return {"gens": out["ideal"]["gens"]}
    if kind == "check":
        return {"holds": out["holds"]}
    if kind == "lexseg":
        return {"gens": out["gens"],
                "horizon_uncertain": out["horizon_uncertain"]}
    return {"bound": out["bound"], "horizon_uncertain": out["horizon_uncertain"]}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def verdict(job, rc, stdout, reference):
    """Return "ok", or the reason the job failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        got = observed(job.kind, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    want = reference.get(job.key)
    if want is None:
        return "no reference answer"
    return "ok" if got == want else f"expected {want}, got {got}"
