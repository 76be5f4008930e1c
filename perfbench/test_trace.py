"""Tests of the benchmark's tracing: exact counts repeat for a fixed seed,
and a broken or leaked trace fails loudly.

    python3 -m pytest perfbench/test_trace.py -q

Run from the repository root (about a minute: every workload is traced
twice).
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_exact_counts_repeat_for_a_seed(cli, workload):
    runs = [worker.measure(cli, workload, seed=7, seconds=0, trace=1)
            for _ in range(2)]
    first, second = ({k: r["layers"][k] for k in tracer.EXACT_COUNTS}
                     for r in runs)
    assert first == second
    assert all(r["failed"] == 0 for r in runs)
    tracer.assert_clean()


def test_missing_wrap_point_fails_and_restores(monkeypatch):
    monkeypatch.setattr(tracer, "WRAP_POINTS", tracer.WRAP_POINTS + (
        ("ginlab.groebner", "no_such_function", "groebner.nf", False),))
    with pytest.raises(tracer.TraceError, match="no_such_function"):
        with tracer.Tracer():
            pass
    tracer.assert_clean()


def test_empty_required_span_fails(cli, monkeypatch):
    monkeypatch.setitem(worker.WORKLOADS, "tiny", [WARMUP])
    monkeypatch.setitem(worker.REQUIRED_SPANS, "tiny", ("cli", "series.lexseg"))
    with pytest.raises(tracer.TraceError, match="series.lexseg"):
        worker.measure(cli, "tiny", seed=0, seconds=0, trace=1)
    tracer.assert_clean()


def test_timed_run_refuses_an_installed_wrapper(cli, monkeypatch):
    monkeypatch.setitem(worker.WORKLOADS, "tiny", [WARMUP])
    with tracer.Tracer():
        with pytest.raises(tracer.TraceError, match="wrapper left"):
            worker.measure(cli, "tiny", seed=0, seconds=0, trace=0)
    tracer.assert_clean()
