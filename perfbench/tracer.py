"""Span tracer for the ginlab benchmark.

The tracer wraps public ginlab functions at the module attribute that
their caller looks up (``ginlab.generic.buchberger`` is the name
``gin_by_sampling`` resolves, ``ginlab.groebner.normal_form`` the one
``buchberger`` and ``reduce_basis`` resolve). Each call records a span
``[name, start, end, parent]`` in memory; layer metrics are computed from
the spans once a pass ends. Nothing in ``src/`` is modified: the wrappers
are installed for a traced pass and restored afterwards.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: marker attribute carried by every installed wrapper
MARK = "__perfbench_span__"

#: (module, attribute, span name, optional). A missing attribute is an
#: error unless the point is optional; the optional ones are calls that
#: ROADMAP items plan to remove (interreduction, the Macaulay-matrix
#: u-check, the Hilbert-series re-verification inside the lexsegment
#: construction), so their absence must not break the benchmark.
WRAP_POINTS = (
    ("ginlab.cli", "main", "cli", False),
    ("ginlab.cli", "lexsegment_of_froeberg", "series.lexseg", False),
    ("ginlab.cli", "is_lexsegment", "props.classify", False),
    ("ginlab.cli", "is_weakly_revlex", "props.classify", False),
    ("ginlab.cli", "is_borel_fixed", "props.classify", False),
    ("ginlab.generic", "sample_ideal", "generic.sample", False),
    ("ginlab.generic", "buchberger", "groebner.buchberger", False),
    ("ginlab.generic", "reduce_basis", "groebner.interreduce", True),
    ("ginlab.generic", "is_u_generic", "generic.u_check", False),
    ("ginlab.generic", "hilbert_function_homogeneous", "generic.macaulay",
     True),
    ("ginlab.groebner", "normal_form", "groebner.nf", False),
    ("ginlab.groebner", "s_polynomial", "groebner.spoly", False),
    ("ginlab.series", "lexsegment_of_hf", "series.lexseg_hf", False),
    ("ginlab.series", "hilbert_series", "ideals.hilbert_series", True),
    ("ginlab.series", "minimalize", "ideals.minimalize", True),
)

#: per-layer metrics, in report order, with their units
LAYER_METRICS = {
    "groebner.buchberger_s": "s",
    "groebner.buchberger_self_s": "s",
    "groebner.interreduce_s": "s",
    "groebner.nf_calls": "count",
    "groebner.nf_s": "s",
    "groebner.nf_zero": "count",
    "groebner.nf_useful_ratio": "ratio",
    "groebner.spoly_calls": "count",
    "groebner.spoly_s": "s",
    "groebner.basis_max": "count",
    "generic.sample_s": "s",
    "generic.u_check_s": "s",
    "generic.macaulay_calls": "count",
    "generic.macaulay_s": "s",
    "series.lexseg_s": "s",
    "series.lexseg_hf_calls": "count",
    "series.lexseg_hf_self_s": "s",
    "ideals.hilbert_series_calls": "count",
    "ideals.hilbert_series_s": "s",
    "ideals.minimalize_s": "s",
    "props.classify_calls": "count",
    "props.classify_s": "s",
    "cli.self_s": "s",
}

#: counts that must repeat exactly for a fixed seed
EXACT_COUNTS = ("groebner.nf_calls", "groebner.nf_zero", "groebner.spoly_calls",
                "generic.macaulay_calls", "series.lexseg_hf_calls",
                "groebner.basis_max")


class TraceError(RuntimeError):
    """A wrap point is missing, a wrapper leaked, or a required span is
    empty: the trace would silently under-report a layer."""


def _resolve(module, attr):
    return getattr(importlib.import_module(module), attr, None)


def assert_clean():
    """Raise TraceError if any wrapper is still installed."""
    for module, attr, _, _ in WRAP_POINTS:
        if hasattr(_resolve(module, attr), MARK):
            raise TraceError(f"tracing wrapper left on {module}.{attr}")


class Tracer:
    """Installs span-recording wrappers; use as a context manager so that
    every original function is restored, also when a pass fails."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.unwrapped = []  # optional wrap points that do not exist
        self._stack = []
        self._saved = []
        self._reset_counters()

    def _reset_counters(self):
        self.nf_zero = 0
        self.nf_under_buchberger = 0
        self.nf_useful = 0
        self.basis_max = 0

    def __enter__(self):
        try:
            for module, attr, name, optional in WRAP_POINTS:
                fn = _resolve(module, attr)
                if fn is None:
                    if optional:
                        self.unwrapped.append(f"{module}.{attr}")
                        continue
                    raise TraceError(f"wrap point {module}.{attr} is missing")
                if hasattr(fn, MARK):
                    raise TraceError(f"{module}.{attr} is already wrapped")
                mod = importlib.import_module(module)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        on_result = {"groebner.nf": self._on_nf,
                     "groebner.buchberger": self._on_buchberger}.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, parent)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _on_nf(self, result, parent):
        if not result:
            self.nf_zero += 1
        if parent >= 0 and self.spans[parent][0] == "groebner.buchberger":
            self.nf_under_buchberger += 1
            if result:
                self.nf_useful += 1

    def _on_buchberger(self, result, parent):
        self.basis_max = max(self.basis_max, len(result))

    def take_pass(self):
        """Layer metrics of the spans recorded since the last call, plus
        the span-name call counts; the recorded spans are returned and
        cleared."""
        spans = list(self.spans)
        calls = Counter()
        total = defaultdict(float)
        child = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            calls[name] += 1
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own = defaultdict(float)
        for k, (name, t0, t1, _) in enumerate(spans):
            own[name] += t1 - t0 - child[k]
        metrics = {
            "groebner.buchberger_s": total["groebner.buchberger"],
            "groebner.buchberger_self_s": own["groebner.buchberger"],
            "groebner.interreduce_s": total["groebner.interreduce"],
            "groebner.nf_calls": calls["groebner.nf"],
            "groebner.nf_s": total["groebner.nf"],
            "groebner.nf_zero": self.nf_zero,
            "groebner.nf_useful_ratio": (
                self.nf_useful / self.nf_under_buchberger
                if self.nf_under_buchberger else 0.0),
            "groebner.spoly_calls": calls["groebner.spoly"],
            "groebner.spoly_s": total["groebner.spoly"],
            "groebner.basis_max": self.basis_max,
            "generic.sample_s": total["generic.sample"],
            "generic.u_check_s": total["generic.u_check"],
            "generic.macaulay_calls": calls["generic.macaulay"],
            "generic.macaulay_s": total["generic.macaulay"],
            "series.lexseg_s": total["series.lexseg"],
            "series.lexseg_hf_calls": calls["series.lexseg_hf"],
            "series.lexseg_hf_self_s": own["series.lexseg_hf"],
            "ideals.hilbert_series_calls": calls["ideals.hilbert_series"],
            "ideals.hilbert_series_s": total["ideals.hilbert_series"],
            "ideals.minimalize_s": total["ideals.minimalize"],
            "props.classify_calls": calls["props.classify"],
            "props.classify_s": total["props.classify"],
            "cli.self_s": own["cli"],
        }
        self.spans.clear()
        self._reset_counters()
        return metrics, dict(calls), spans
