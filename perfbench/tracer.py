"""Span tracing of pelical's layers, installed from outside the package.

Each traced function is replaced, for the duration of a ``with`` block, at
the module attribute the code looks it up through (``pelical.pipeline``
imports the solver and selection functions under its own names, so they
are wrapped there).  Every call records a span -- name, start, end, parent
span and calibrate call id -- in memory; self times are derived from the
spans when the pass ends.  A few deterministic counts are taken from the
wrapped calls' arguments and return values.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call_id: int


def _observe_ingest(counts, args, result):
    counts["ingest_accepted"] += int(result is not None and result.status.value == "accepted")


def _observe_voting(counts, args, result):
    n = len(args[0])
    counts["voting_carried"] += int(result is not None and result.converged)
    counts["voting_lines_max"] = max(counts["voting_lines_max"], n)
    # the (pairs x lines x 3) float64 distance tensor, with every line pair
    # assumed non-parallel
    tensor_bytes = (n * (n - 1) // 2) * n * 3 * 8
    counts["voting_tensor_bytes_max"] = max(counts["voting_tensor_bytes_max"], tensor_bytes)


def _observe_solve(counts, args, result):
    if result is None:
        counts["solve_failed"] += 1
    else:
        counts["solve_candidates"] += len(result.all_candidates)


def _observe_refine(counts, args, result):
    counts["refine_lm_converged"] += int(result is not None and result.lm_converged)


# (module the code calls through, attribute, observer of the call).  The
# span name is the defining module and function, e.g. ``pipeline.run`` for
# ``pelical.cli.run_pipeline``.
TRACED = (
    ("cli", "main", None),
    ("fileio", "read_observation_file", None),
    ("fileio", "write_calibration_file", None),
    ("cli", "run_pipeline", None),
    ("pipeline", "ingest", _observe_ingest),
    ("pipeline", "ransac_fit_line", None),
    ("pipeline", "rotation_rows", None),
    ("pipeline", "gate_rotation", None),
    ("pipeline", "try_finalize", None),
    ("pipeline", "candidate_from_full3d", None),
    ("pipeline", "candidate_from_pnl", None),
    ("pipeline", "convergence_voting", _observe_voting),
    ("pipeline", "assemble", None),
    ("pipeline", "solve_quadratic_system", _observe_solve),
    ("pipeline", "refine", _observe_refine),
)

COUNT_KEYS = (
    "ingest_accepted",
    "voting_carried",
    "voting_lines_max",
    "voting_tensor_bytes_max",
    "solve_failed",
    "solve_candidates",
    "refine_lm_converged",
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.names = [span_name(getattr(modules[mod], attr)) for mod, attr, _ in TRACED]
        self.spans: list[Span] = []
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.call_id = 0  # id of the calibrate call the open spans belong to
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                self.call_id += 1  # a new calibrate call
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None  # stays None when the call raises
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.call_id)
                if observe is not None:
                    observe(counts, args, result)

        return traced

    def __enter__(self) -> "Tracer":
        for (mod, attr, observe), name in zip(TRACED, self.names):
            module = self.modules[mod]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, observe))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every recorded span.

        A span's self time is its duration minus the durations of its
        direct children (the traced layers it called).
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        totals = {name: [0, 0.0] for name in self.names}
        for span, inner in zip(self.spans, child):
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start - inner
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}
