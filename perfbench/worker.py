"""Run one benchmark workload in this (fresh) process and print one JSON
object with its passes, job rows and metrics.

    python3 perfbench/worker.py --workload gin_lex --seed 0 --seconds 20 --trace 0

``perfbench/run.py`` starts this script; it is not meant to be run by
hand. Jobs run one at a time from one thread, each through
``ginlab.cli.main(argv)`` with stdout captured, and each job's output is
checked only after its timer has stopped. With ``--trace 0`` a set-up is
timed after every pass; with ``--trace 1`` untraced and traced passes
alternate, so that the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracer as tracing  # noqa: E402
from workloads import (NUMPY_PROBED, REQUIRED_SPANS, WARMUP,  # noqa: E402
                       WORKLOADS, load_reference, verdict)


def import_cli():
    """Import ginlab.cli from the checkout's src/ directory."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import ginlab.cli
    return ginlab.cli


def run_job(cli, argv):
    """(exit code, seconds, cpu seconds, stdout) of one CLI call."""
    buf = io.StringIO()
    c0 = process_time()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up per call, so a tracer wrap applies
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing job is a failed job, not a crash
        rc = f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    return rc, t1 - t0, process_time() - c0, buf.getvalue()


PRIME = 32003


def python_probe():
    """A fixed pure-Python loop of tuple-keyed dict updates mod a prime,
    the kind of work ginlab's polynomial code does."""
    acc = {}
    for i in range(10_000):
        key = (i % 13, i % 7, i % 5)
        acc[key] = (acc.get(key, 0) + i * 31) % PRIME


@functools.cache
def _probe_matrix(rows=40, cols=60, x=12345):
    import numpy as np
    entries = []
    for _ in range(rows * cols):
        x = (1103515245 * x + 12345) % 2**31
        entries.append(x % PRIME)
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


def numpy_probe():
    """Three row reductions mod a prime of a fixed 40x60 matrix, with the
    numpy row operations of ginlab's u-check, driven from a Python loop."""
    import numpy as np
    for _ in range(3):
        A = _probe_matrix().copy()
        rank = 0
        for col in range(A.shape[1]):
            if rank == A.shape[0]:
                break
            piv = np.nonzero(A[rank:, col])[0]
            if piv.size == 0:
                continue
            r = rank + piv[0]
            if r != rank:
                A[[rank, r]] = A[[r, rank]]
            A[rank] = A[rank] * pow(int(A[rank, col]), -1, PRIME) % PRIME
            below = A[rank + 1:, col]
            mask = below != 0
            if mask.any():
                A[rank + 1:][mask] = (A[rank + 1:][mask]
                                      - below[mask, None] * A[rank][None, :]) % PRIME
            rank += 1


#: host-speed probes: name -> (work, its time on the reference host: Intel
#: Xeon, 2 vCPUs, CPython 3.11.7, numpy 2.4.6, no other load). Other
#: tenants of a shared host slow programs down by up to 2x, in phases
#: from under a second to minutes, and slow pure-Python code more than
#: numpy code; every time is reported at the reference host speed
PROBES = {"python": (python_probe, 0.0025), "numpy": (numpy_probe, 0.0025)}


def probe(name):
    """Seconds the probe `name` takes now. It runs no ginlab code and no
    garbage collection, so no change to ginlab can change its time: the
    time measures only how fast the host runs that kind of code now."""
    work = PROBES[name][0]
    gc.disable()
    try:
        t0 = perf_counter()
        work()
        return perf_counter() - t0
    finally:
        gc.enable()


def at_ref_speed(seconds, name, probe_before, probe_after):
    """`seconds` as they would read at the reference host speed, judged by
    the probes `name` run just before and just after."""
    return seconds * 2 * PROBES[name][1] / (probe_before + probe_after)


class Pass:
    """One pass over a job list: timings, per-job rows and failures."""

    def __init__(self, traced):
        self.traced = traced
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.times = []  # per job, in job-list order
        self.probes = []  # probe times between jobs, one more than jobs
        self.rows = []
        self.failed = 0


def run_pass(cli, jobs, seed, reference, ideal_file, traced=False,
             probe_name="python"):
    p = Pass(traced)
    ideal_ok = False
    for job in jobs:
        argv = job.command(seed, str(ideal_file))
        p.probes.append(probe(probe_name))
        if job.kind == "check" and not ideal_ok:
            rc, dt, cpu, out = "skipped", 0.0, 0.0, ""
            v = "no ideal: the preceding gin job failed"
        else:
            rc, dt, cpu, out = run_job(cli, argv)
            v = verdict(job, rc, out, reference)
        p.wall_s += dt
        p.cpu_s += cpu
        p.times.append(dt)
        if v != "ok":
            p.failed += 1
        if job.kind == "gin":
            ideal_ok = v == "ok"
            if ideal_ok:
                ideal_file.write_text(json.dumps(json.loads(out)["ideal"]))
        p.rows.append({"argv": argv, "time_s": dt, "exit": rc, "verdict": v})
    p.probes.append(probe(probe_name))
    return p


SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); from ginlab.cli import main; "
              "sys.exit(main({argv!r}))")

#: fewest set-up samples a timed run takes, however few passes it makes
SETUP_MIN = 7


def time_setup(reference):
    """(seconds, seconds at reference speed, verdict) of one fresh
    interpreter that imports ginlab.cli and finishes the warm-up job."""
    code = SETUP_CODE.format(argv=WARMUP.command(0))
    before = probe("python")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    dt = perf_counter() - t0
    after = probe("python")
    v = verdict(WARMUP, proc.returncode, proc.stdout, reference)
    if v != "ok":
        sys.stderr.write(proc.stderr)
    return dt, at_ref_speed(dt, "python", before, after), v


def ref_time(passes, probe_name):
    """Time to run the job list once at reference speed: per job, the
    median over `passes` of its time scaled by the probes around it."""
    per_job = zip(*([at_ref_speed(t, probe_name, a, b) for t, a, b
                     in zip(p.times, p.probes, p.probes[1:])] for p in passes))
    return sum(statistics.median(times) for times in per_job)


def measure(cli, workload, seed, seconds, trace, span_file=None, setup=False):
    """Passes over `workload` until `seconds` are used; returns a dict.

    With `setup`, one set-up (see `time_setup`) is timed after every
    untraced pass, and more at the end until there are SETUP_MIN, so the
    set-up samples spread over the whole run. With `span_file`, the spans
    of the last traced pass are written there, one JSON list
    ``[name, start, end, parent]`` per line.
    """
    jobs = WORKLOADS[workload]
    reference = load_reference()
    tmp = HERE / "out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    ideal_file = tmp / f"ideal-{os.getpid()}.json"
    tracing.assert_clean()
    probe_name = "numpy" if workload in NUMPY_PROBED else "python"
    probe(probe_name)  # builds the numpy probe's matrix outside any timing
    warm = run_pass(cli, [WARMUP], seed, reference, ideal_file)
    timed = []
    layers = []
    unwrapped = []
    last_spans = []
    setups = []
    t_start = perf_counter()
    try:
        while True:
            traced = bool(trace) and len(timed) % 2 == 1
            if traced:
                with tracing.Tracer() as tracer:
                    p = run_pass(cli, jobs, seed, reference, ideal_file, True,
                                 probe_name)
                metrics, calls, last_spans = tracer.take_pass()
                unwrapped = tracer.unwrapped
                empty = [s for s in REQUIRED_SPANS[workload] if not calls.get(s)]
                if empty:
                    raise tracing.TraceError(
                        f"required spans recorded no calls: {', '.join(empty)}")
                layers.append(metrics)
            else:
                tracing.assert_clean()
                p = run_pass(cli, jobs, seed, reference, ideal_file,
                             probe_name=probe_name)
                if setup:
                    setups.append(time_setup(reference))
            timed.append(p)
            elapsed = perf_counter() - t_start
            enough = len(timed) >= (2 if trace else 1)
            if enough and elapsed * (len(timed) + 1) / len(timed) > seconds:
                break
        while setup and len(setups) < SETUP_MIN:
            setups.append(time_setup(reference))
    finally:
        ideal_file.unlink(missing_ok=True)
    tracing.assert_clean()
    if span_file and last_spans:
        t0 = last_spans[0][1]
        with open(span_file, "w") as fh:
            for name, a, b, parent in last_spans:
                fh.write(json.dumps([name, a - t0, b - t0, parent]) + "\n")
    passes = [warm] + timed
    plain = [p for p in timed if not p.traced]
    traced_passes = [p for p in timed if p.traced]
    out = {
        "workload": workload,
        "seed": seed,
        "trace": int(bool(trace)),
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s}
                   for p in timed],
        "wall_s": ref_time(plain, probe_name),
        "probe": probe_name,
        "pass_median_s": statistics.median(p.wall_s for p in plain),
        "probe_median_s": statistics.median(q for p in plain for q in p.probes),
        "offcpu_s": statistics.median(p.wall_s - p.cpu_s for p in plain),
        "attempted": sum(len(p.rows) for p in passes) + len(setups),
        "failed": sum(p.failed for p in passes)
        + sum(1 for _, _, v in setups if v != "ok"),
        "jobs": [dict(r, traced=p.traced) for p in passes for r in p.rows],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unwrapped": unwrapped,
    }
    if setups:
        out["setup_s"] = statistics.median(r for _, r, _ in setups)
        out["setup_times_s"] = [t for t, _, _ in setups]
        out["setup_median_s"] = statistics.median(out["setup_times_s"])
    if traced_passes:
        out["traced_wall_s"] = ref_time(traced_passes, probe_name)
        out["traced_pass_median_s"] = statistics.median(
            p.wall_s for p in traced_passes)
        out["trace_overhead_s"] = out["traced_wall_s"] - out["wall_s"]
        out["layers"] = {k: statistics.median(m[k] for m in layers)
                         for k in tracing.LAYER_METRICS}
        out["layer_passes"] = layers
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cli = import_cli()
    span_file = None
    if args.trace:
        span_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        result = measure(cli, args.workload, args.seed, args.seconds,
                         args.trace, span_file, setup=not args.trace)
    except tracing.TraceError as exc:
        print(f"perfbench: broken trace: {exc}", file=sys.stderr)
        return 3
    import numpy
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
