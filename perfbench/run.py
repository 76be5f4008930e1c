"""ginlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gin_lex --seed 0 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
The run and every process it starts are pinned to one CPU.
Workloads are ``gin_lex``, ``gin_drl``, ``lexseg`` and ``gin_param``
(see ``workloads.py`` and ``BENCHMARK.json``). A run

starts ``worker.py`` in a fresh process, which runs the workload's job
list in passes, one job at a time, for ``--seconds`` seconds, and checks
every job's output against ``reference.json``. With ``--trace 0`` the
worker also times a set-up after every pass (at least seven in all): a
fresh interpreter that imports ``ginlab.cli`` and finishes the warm-up
job ``gin -n 2 -d 2,2``.

Other tenants of a shared host slow every program down by up to 2x, in
phases from under a second to minutes, so times are reported at a fixed
reference host speed: a fixed probe that runs no ginlab code (pure
Python, or numpy row operations for gin_drl; see ``worker.PROBES``) runs
between every two jobs and around every set-up, and each time is scaled
by the probe's reference time over the mean of the probes around it. With ``--trace 0`` it reports the end-to-end metrics
``wall_s`` (the time to run the job list once at reference speed: per
job, the median over the run's passes, summed), ``setup_s`` (the median
set-up at reference speed) and ``peak_rss_mb``; the times as measured
are printed too and kept in the report. With ``--trace 1`` it reports
the per-layer metrics of a traced run (see ``tracer.py``; as measured),
the tracing overhead (traced minus untraced ``wall_s``, from passes that
alternate in one process) and the off-CPU time of an untraced pass (wall
minus process CPU time, median over passes; negative when a second thread
ran). Every metric is printed by name
with its unit, followed by the correctness verdict; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. A full report with the run context and one row per job goes
to ``perfbench/out/``. The exit code is 0 only when every job's output was
correct; a crash, timeout or broken trace exits nonzero with no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from tracer import LAYER_METRICS  # noqa: E402
from worker import PROBES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the whole run, set-up included, must end well inside 180 s
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DIAGNOSTICS = {"bench.trace_overhead_s": "s", "bench.offcpu_s": "s"}
PER_LAYER = dict(LAYER_METRICS, **DIAGNOSTICS)

def run_worker(args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def context(args, worker):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": worker["python"],
        "numpy": worker["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": sum(1 for p in worker["passes"] if not p["traced"]),
        "traced_passes": sum(1 for p in worker["passes"] if p["traced"]),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="ginlab benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ginlab" / "cli.py").is_file():
        print(f"perfbench: no ginlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the whole run, inherited by every process it starts:
        # nothing migrates between cores, and numpy's BLAS pool starts a
        # single thread, as the jobs themselves run from one thread.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        worker = run_worker(args, deadline)
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(worker["layers"])
        metrics["bench.trace_overhead_s"] = worker["trace_overhead_s"]
        metrics["bench.offcpu_s"] = worker["offcpu_s"]
        units = PER_LAYER
    else:
        metrics = {"wall_s": worker["wall_s"],
                   "setup_s": worker["setup_s"],
                   "peak_rss_mb": worker["peak_rss_mb"]}
        units = END_TO_END
    attempted = worker["attempted"]
    failed = worker["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}

    ctx = context(args, worker)
    with open(OUT / f"report-{stem}.json", "w") as fh:
        json.dump({"context": ctx, "result": result,
                   "setup_times_s": worker.get("setup_times_s", []),
                   "as_measured": {k: worker.get(k) for k in (
                       "pass_median_s", "setup_median_s", "probe_median_s")},
                   "passes": worker["passes"],
                   "unwrapped": worker["unwrapped"],
                   "layer_passes": worker.get("layer_passes", []),
                   "jobs": worker["jobs"]}, fh, indent=1)

    print(f"ginlab benchmark  workload={args.workload} seed={args.seed} "
          f"passes={ctx['passes']} traced_passes={ctx['traced_passes']} "
          f"python={ctx['python']} numpy={ctx['numpy']} nproc={ctx['nproc']}")
    for name, u in units.items():
        print(f"  {name:30s} {metrics[name]:14.6f} {u}")
    plain = sorted(p["wall_s"] for p in worker["passes"] if not p["traced"])
    print(f"  as measured, at this host's speed: untraced pass median "
          f"{worker['pass_median_s']:.6f} s, slowest {plain[-1]:.6f} s over "
          f"{len(plain)} passes; {worker['probe']} probe median "
          f"{worker['probe_median_s'] * 1e3:.3f} ms (reference "
          f"{PROBES[worker['probe']][1] * 1e3:.3f} ms)")
    if not args.trace:
        print(f"  as measured: set-up median {worker['setup_median_s']:.6f} s "
              f"over {len(worker['setup_times_s'])} set-ups")
    if args.trace:
        wall = worker["traced_pass_median_s"]
        print(f"  shares of the traced pass ({wall:.3f} s): groebner "
              f"{(metrics['groebner.buchberger_s'] + metrics['groebner.interreduce_s']) / wall:.1%}"
              f", buchberger {metrics['groebner.buchberger_s'] / wall:.1%}"
              f", u_check {metrics['generic.u_check_s'] / wall:.1%}"
              f", lexseg {metrics['series.lexseg_s'] / wall:.1%}")
    print(f"  {'fail_frac':30s} {failed / attempted:14.6f} ({failed}/{attempted})")
    failures = [row for row in worker["jobs"] if row["verdict"] != "ok"]
    for row in failures[:20]:
        print(f"  FAILED {' '.join(row['argv'])}: {row['verdict']}")
    print("verdict: " + ("correct" if result["correct"] else "INCORRECT"))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
