"""Benchmark-owned spans around bsplda's public functions, for the traced run only.

The program is not modified: each traced function is replaced, for the
duration of a `Tracer.patched()` block, by a wrapper on the module attribute
through which `engine.fit_stats`, `elbo.elbo_total` and `cli` look it up. A
wrapper records the span's name, start, end and parent span under the
tracer's run id. Spans stay in memory until the run writes its result.
Lazy caches move time between rows; LAZY_CACHE_NOTE, printed with every
traced result, says how.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAZY_CACHE_NOTE = (
    "note: QY and QVtilde compute their covariance and log-determinant in a "
    "cached_property, so the batched inverse is charged to whichever wrapped call touches "
    "it first, usually posterior.y_aggregates or elbo.elbo_total; a change in when the "
    "cache fills moves self time between these rows without changing the work done."
)

# span name -> the (module, attribute) pairs through which callers reach it.
# `linalg.spd_solve` is wrapped only where `engine` calls it (the row sweep).
TRACED = {
    "data.accumulate": [("data", "accumulate"), ("cli", "accumulate")],
    "engine.fit_stats": [("engine", "fit_stats"), ("cli", "fit_stats")],
    "engine.update_qy": [("engine", "update_qy"), ("cli", "update_qy")],
    "posterior.y_aggregates": [("engine", "y_aggregates"), ("elbo", "y_aggregates")],
    "elbo.elbo_total": [("engine", "elbo_total"), ("cli", "elbo_total")],
    "engine.update_qvtilde": [("engine", "update_qvtilde")],
    "linalg.spd_solve": [("engine", "spd_solve")],
    "engine.update_qw": [("engine", "update_qw")],
    "engine.update_qalpha": [("engine", "update_qalpha")],
    "engine.minimum_divergence": [("engine", "minimum_divergence")],
    "hyperopt.optimize_alpha_hyper": [("hyperopt", "optimize_alpha_hyper")],
    "hyperopt.optimize_w_hyper": [("hyperopt", "optimize_w_hyper")],
    "hyperopt.optimize_mu_prior": [("hyperopt", "optimize_mu_prior")],
    "io.load_dataset": [("io", "load_dataset")],
    "io.write_model_file": [("io", "write_model_file")],
    "io.read_model_file": [("io", "read_model_file")],
    "io.write_trace_csv": [("io", "write_trace_csv")],
}
# Root span the benchmark opens around each in-process `cli.main` call.
CLI_MAIN = "cli.main"
SPAN_NAMES = [CLI_MAIN, *TRACED]
# Spans every workload calls. Only these report a self time; the others report
# calls and share, so that no time metric reads a constant 0 on a workload that
# never calls the function (its self time is share * trace.job_s).
EVERY_WORKLOAD = (
    "data.accumulate",
    "engine.fit_stats",
    "engine.update_qy",
    "posterior.y_aggregates",
    "elbo.elbo_total",
    "engine.update_qvtilde",
    "engine.update_qw",
    "engine.update_qalpha",
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: object  # span_id of the enclosing span, or None
    name: str
    start: float
    end: float
    run_id: str


class Tracer:
    def __init__(self, run_id, on_return=None):
        """`on_return(name, result)` sees each traced call's result after its span closes."""
        self.run_id = run_id
        self.spans = []
        self._open = []
        self._on_return = on_return
        self.missing = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[span_id] = Span(span_id, parent, name, start, end, self.run_id)
            if self._on_return is not None:
                self._on_return(name, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Wrap every function in TRACED; restore the originals on exit."""
        saved = []
        try:
            for name, sites in TRACED.items():
                for module_name, attr in sites:
                    module = importlib.import_module(f"bsplda.{module_name}")
                    if not hasattr(module, attr):
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.span(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans):
    """name -> (calls, self seconds); self time is a span's duration minus what its children cover."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out = {}
    for s in spans:
        calls, self_s = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, self_s + (s.end - s.start) - child_time.get(s.span_id, 0.0))
    return out
