"""Record the expected answer of every benchmark job in reference.json.

    python3 perfbench/record_reference.py

Run from the repository root, on a commit whose answers are trusted.
Before writing, the answers are cross-checked:

- every sampled gin gives the same ideal for workload seeds 0, 1 and 12345;
- every n=3 lex gin equals the lexsegment ideal of the bracket series;
- every parametric gin equals the sampling route's gin for the same case;
- every lexseg and bound answer has ``horizon_uncertain: false``.

A failed cross-check exits 1 and writes nothing.
"""

from __future__ import annotations

import json
import sys

from workloads import (REFERENCE_PATH, WARMUP, WORKLOADS, gin_job, observed)
from worker import import_cli, run_job

CROSS_SEEDS = (0, 1, 12345)


def answer(cli, job, seed=0, ideal_path=None):
    rc, _, _, out = run_job(cli, job.command(seed, ideal_path))
    if rc != 0:
        raise SystemExit(f"{job.key}: exit code {rc}")
    return json.loads(out)


def main():
    cli = import_cli()
    from ginlab.series import lexsegment_of_froeberg

    problems = []
    reference = {}
    ideal_file = REFERENCE_PATH.with_name("out") / "tmp" / "reference-ideal.json"
    ideal_file.parent.mkdir(parents=True, exist_ok=True)
    for jobs in [[WARMUP]] + list(WORKLOADS.values()):
        for job in jobs:
            if job.key in reference:
                continue
            if job.kind == "check":
                got = observed("check", answer(cli, job, 0, str(ideal_file)))
            else:
                out = answer(cli, job)
                got = observed(job.kind, out)
                if job.kind == "gin":
                    ideal_file.write_text(json.dumps(out["ideal"]))
            reference[job.key] = got
            if job.kind in ("lexseg", "bound") and got["horizon_uncertain"]:
                problems.append(f"{job.key}: horizon_uncertain")
            if job.kind != "gin":
                continue
            argv = job.argv
            n, degrees = int(argv[2]), tuple(int(d) for d in argv[4].split(","))
            if job.sampled:
                for seed in CROSS_SEEDS[1:]:
                    other = observed("gin", answer(cli, job, seed))
                    if other != got:
                        problems.append(f"{job.key}: seed {seed} gives {other}")
                if n == 3 and argv[argv.index("--order") + 1] == "lex":
                    J, _ = lexsegment_of_froeberg(n, degrees)
                    if [list(g) for g in J.gens] != got["gens"]:
                        problems.append(f"{job.key}: not the lexsegment ideal")
            else:
                sampled = observed("gin", answer(cli, gin_job(n, degrees)))
                if sampled != got:
                    problems.append(f"{job.key}: sampling route gives {sampled}")
    ideal_file.unlink(missing_ok=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = [f" {json.dumps(k)}: {json.dumps(reference[k])}"
             for k in sorted(reference)]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} answers to {REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
