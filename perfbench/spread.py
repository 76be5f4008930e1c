"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workload gin_lex ...]
        [--trace 0|1] [--baseline perfbench/BASELINE.json]

Run from the repository root. For every workload it runs
``perfbench/run.py`` once per seed (0, 1, ...), one run at a time, and
prints, per metric, the median of the runs and the distance between the
first and third quartile (``statistics.quantiles(n=4)``) as a share of
the median. With ``--trace 0`` a spread above a third of the metric's
bound in BENCHMARK.json is flagged (``setup_s`` is only compared by
median, so it is not flagged). ``--baseline`` merges the medians and
spreads into a baseline file, keyed by trace mode, workload and metric,
with the run context (machine, versions, source digest) of the last run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="seed sweep of the benchmark")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {}
    ctx = None
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not (result and result["correct"]):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", flush=True)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            report = HERE / "out" / f"report-{workload}-seed{seed}-trace{args.trace}.json"
            ctx = json.loads(report.read_text())["context"]
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            rel = None
            if med and len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                rel = (q3 - q1) / med
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if (bound is not None and name != "setup_s"
                    and (rel is None or rel > bound / 3)):
                flag = "  <-- above bound/3"
                ok = False
            shown = "n/a" if rel is None else f"{rel:.2%}"
            print(f"{workload:10s} {name:30s} median {med:12.6f} "
                  f"iqr/median {shown:>7s} (n={len(vals)}){flag}", flush=True)
            summary[workload][name] = {"median": med, "iqr_share": rel,
                                       "runs": len(vals)}
    if args.baseline:
        base = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        key = f"trace{args.trace}"
        base.setdefault(key, {}).update(summary)
        if ctx:
            base.setdefault("context", {})[key] = {
                k: ctx[k] for k in ("git_sha", "src_sha256", "nproc", "cpu_model",
                                    "python", "numpy", "seconds")}
        args.baseline.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
