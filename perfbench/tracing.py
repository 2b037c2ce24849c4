"""Per-layer tracing of gaugeflow from outside the program.

The tracer wraps the public entry points of each module at every module
binding of the name (``WeakReducer`` is imported into ``dirac``,
``legendre`` and ``compare``, ``parse_model`` into ``cli``, and so on),
records a span per call with the op it belongs to and its parent span,
and counts results at the same boundaries.  Spans stay in memory and are
written out at the end.  ``uninstall`` restores every binding.

A span's self time is its duration minus the durations of its direct
child spans.  The expression kernel's operators are only counted: they
are called about two million times per lattice op, too often to time.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); a name may appear under two attributes
SPANNED_FUNCTIONS = (
    ("cli", "main", "cli.main"),
    # the CLI serializes a report in two steps; both are the JSON cost
    ("cli", "report_json_dict", "cli.report_json"),
    ("cli", "_dump_json", "cli.report_json"),
    ("model", "parse_model", "model.parse_model"),
    ("legendre", "primary_constraints", "legendre.primary_constraints"),
    ("linalg", "eliminate", "linalg.eliminate"),
    ("linalg", "rational_rank", "linalg.rational_rank"),
    ("dirac", "run_dirac", "dirac.run_dirac"),
    ("dirac", "consistency_step", "dirac.consistency_step"),
    ("dirac", "poisson_bracket", "dirac.poisson_bracket"),
    ("dirac", "classify", "dirac.classify"),
    ("reduction", "sample_surface_points", "reduction.sample"),
    ("noether", "noether_identity_check", "noether.identity_check"),
    ("noether", "independence_check", "noether.independence_check"),
    ("noether", "conjecture_constraints", "noether.conjecture"),
    ("compare", "build_report", "compare.build_report"),
    ("compare", "span_equivalent", "compare.span_equivalent"),
)

# (module, class, method, span name)
SPANNED_METHODS = (
    ("reduction", "WeakReducer", "__init__", "reduction.weak_reducer_build"),
    ("reduction", "WeakReducer", "reduce", "reduction.reduce"),
)

# (module, owner or None for a function, attribute, counter name)
COUNTED = (
    ("reduction", None, "weak_zero_numeric", "reduction.weak_zero_numeric_calls"),
    ("linalg", "RowReducer", "absorb", "linalg.row_reducer_absorb_calls"),
    ("linalg", "RowReducer", "reduce", "linalg.row_reducer_reduce_calls"),
    ("expr", "Expression", "__mul__", "expr.mul_calls"),
    ("expr", "Expression", "__rmul__", "expr.mul_calls"),
    ("expr", "Expression", "__add__", "expr.add_calls"),
    ("expr", "Expression", "__radd__", "expr.add_calls"),
    ("expr", "Expression", "__truediv__", "expr.div_calls"),
    ("expr", "Expression", "__rtruediv__", "expr.div_calls"),
    ("expr", "Expression", "diff", "expr.diff_calls"),
    ("expr", "Expression", "subs", "expr.subs_calls"),
    ("expr", "Expression", "evaluate", "expr.evaluate_calls"),
    ("expr", "Expression", "dt", "expr.dt_calls"),
)

# per-layer metric -> span name whose self time it reports
SELF_TIME_METRICS = {
    "cli.main_self_s": "cli.main",
    "cli.report_json_s": "cli.report_json",
    "model.parse_model_s": "model.parse_model",
    "legendre.primary_constraints_self_s": "legendre.primary_constraints",
    "linalg.eliminate_s": "linalg.eliminate",
    "linalg.rational_rank_s": "linalg.rational_rank",
    "dirac.run_dirac_self_s": "dirac.run_dirac",
    "dirac.consistency_step_s": "dirac.consistency_step",
    "dirac.poisson_bracket_s": "dirac.poisson_bracket",
    "dirac.classify_self_s": "dirac.classify",
    "reduction.weak_reducer_build_s": "reduction.weak_reducer_build",
    "reduction.reduce_s": "reduction.reduce",
    "reduction.sample_s": "reduction.sample",
    "noether.identity_check_s": "noether.identity_check",
    "noether.independence_check_s": "noether.independence_check",
    "noether.conjecture_s": "noether.conjecture",
    "compare.build_report_self_s": "compare.build_report",
    "compare.span_equivalent_s": "compare.span_equivalent",
}

# per-layer metric -> span name whose call count it reports
CALL_METRICS = {
    "linalg.eliminate_calls": "linalg.eliminate",
    "linalg.rational_rank_calls": "linalg.rational_rank",
    "dirac.consistency_step_calls": "dirac.consistency_step",
    "dirac.poisson_bracket_calls": "dirac.poisson_bracket",
    "reduction.weak_reducer_builds": "reduction.weak_reducer_build",
    "reduction.reduce_calls": "reduction.reduce",
    "reduction.sample_calls": "reduction.sample",
}

# counters kept by the hooks and count wrappers, reported per op as is
COUNT_METRICS = (
    "cli.report_json_bytes",
    "model.input_bytes",
    "linalg.eliminate_cells",
    "linalg.row_reducer_absorb_calls",
    "linalg.row_reducer_reduce_calls",
    "dirac.outcome_identity",
    "dirac.outcome_new_constraint",
    "dirac.outcome_multiplier_fixed",
    "dirac.outcome_contradiction",
    "dirac.generations",
    "dirac.accepted",
    "dirac.classify_pairs",
    "reduction.sample_points",
    "reduction.sample_failures",
    "reduction.weak_zero_numeric_calls",
    "expr.mul_calls",
    "expr.add_calls",
    "expr.div_calls",
    "expr.diff_calls",
    "expr.subs_calls",
    "expr.evaluate_calls",
    "expr.dt_calls",
)

OUTCOMES = {
    "Identity": "dirac.outcome_identity",
    "NewConstraint": "dirac.outcome_new_constraint",
    "MultiplierFixed": "dirac.outcome_multiplier_fixed",
    "Contradiction": "dirac.outcome_contradiction",
}


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _parse_model_done(counts, args, kwargs, result):
    counts["model.input_bytes"] += len(_argument(args, kwargs, 0, "source").encode())


def _eliminate_done(counts, args, kwargs, result):
    matrix = _argument(args, kwargs, 0, "matrix")
    counts["linalg.eliminate_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _consistency_step_done(counts, args, kwargs, result):
    counts[OUTCOMES[type(result).__name__]] += 1


def _dirac_counts(counts, result):
    counts["dirac.generations"] += result.generations_run
    counts["dirac.accepted"] += sum(1 for c in result.constraints if c.generation >= 1)


def _run_dirac_done(counts, args, kwargs, result):
    _dirac_counts(counts, result)


def _run_dirac_failed(counts, exc):
    partial = getattr(exc, "partial", None)  # InconsistentLagrangian carries one
    if partial is not None:
        _dirac_counts(counts, partial)


def _classify_done(counts, args, kwargs, result):
    n = len(_argument(args, kwargs, 0, "result").constraints)
    counts["dirac.classify_pairs"] += n * (n - 1) // 2


def _reduce_done(counts, args, kwargs, result):
    if result.is_zero():
        counts["reduction.reduce_zero"] += 1


def _sample_done(counts, args, kwargs, result):
    counts["reduction.sample_points"] += len(result)


def _sample_failed(counts, exc):
    if type(exc).__name__ == "SurfaceSamplingFailed":
        counts["reduction.sample_failures"] += 1


AFTER = {
    "model.parse_model": _parse_model_done,
    "linalg.eliminate": _eliminate_done,
    "dirac.consistency_step": _consistency_step_done,
    "dirac.run_dirac": _run_dirac_done,
    "dirac.classify": _classify_done,
    "reduction.reduce": _reduce_done,
    "reduction.sample": _sample_done,
}

ON_ERROR = {
    "dirac.run_dirac": _run_dirac_failed,
    "reduction.sample": _sample_failed,
}


class Tracer:
    """Spans and counters for gaugeflow calls, grouped by op.

    ``spans`` holds ``[op, span_id, parent_id, name, start, end]`` rows;
    ``counts`` maps each op to a Counter of hook and wrapper counts.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)
        self._op = None
        self._current = Counter()  # the open op's counter
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------------

    def install(self):
        """Wrap every target at every binding in the loaded gaugeflow modules."""
        package = {name: module for name, module in sys.modules.items()
                   if name == "gaugeflow" or name.startswith("gaugeflow.")}
        try:
            for module, attribute, name in SPANNED_FUNCTIONS:
                original = getattr(package[f"gaugeflow.{module}"], attribute)
                self._rebind(package.values(), original, self._span(name, original))
            for module, cls, method, name in SPANNED_METHODS:
                owner = getattr(package[f"gaugeflow.{module}"], cls)
                self._patch(owner, method, self._span(name, owner.__dict__[method]))
            for module, cls, attribute, name in COUNTED:
                if cls is None:
                    original = getattr(package[f"gaugeflow.{module}"], attribute)
                    self._rebind(package.values(), original, self._counter(name, original))
                else:
                    owner = getattr(package[f"gaugeflow.{module}"], cls)
                    self._patch(owner, attribute,
                                self._counter(name, owner.__dict__[attribute]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _rebind(self, modules, original, replacement):
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    # -- wrappers -----------------------------------------------------------------

    def _span(self, name, fn):
        after = AFTER.get(name)
        on_error = ON_ERROR.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            record = [tracer._op, len(tracer.spans), stack[-1] if stack else None,
                      name, time.perf_counter(), None]
            tracer.spans.append(record)
            stack.append(record[1])
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer._current, exc)
                raise
            finally:
                record[5] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer._current, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._current[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- ops ----------------------------------------------------------------------

    def run_op(self, op, fn, *args):
        """Call ``fn(*args)`` as op ``op`` under a root span named ``op``."""
        self._op = op
        self._current = self.counts[op]
        record = [op, len(self.spans), None, "op", time.perf_counter(), None]
        self.spans.append(record)
        self._stack = [record[1]]
        try:
            return fn(*args)
        finally:
            record[5] = time.perf_counter()
            self._stack = []
            self._op = None
            self._current = Counter()

    def op_counts(self, op):
        """Every count of one op: hook counters and span calls by name."""
        out = Counter(self.counts[op])
        out.update(f"{row[3]}:calls" for row in self.spans if row[0] == op)
        return dict(sorted(out.items()))

    def self_times(self):
        """Self seconds summed per (op, span name)."""
        children = defaultdict(float)
        for op, _, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = defaultdict(float)
        for op, span_id, _, name, start, end in self.spans:
            out[(op, name)] += (end - start) - children[span_id]
        return out

    def write(self, path):
        with open(path, "w") as f:
            for row in self.spans:
                f.write(json.dumps(row) + "\n")


def layer_metrics(tracer, ops, traced_seconds, untraced_seconds):
    """Per-op per-layer metrics over ``ops`` (op ids), as ``{name: (value, unit)}``."""
    n = len(ops)
    selves = tracer.self_times()
    counts = {op: tracer.op_counts(op) for op in ops}

    def per_op(key):
        return sum(counts[op].get(key, 0) for op in ops) / n

    out = {}
    for metric, span in SELF_TIME_METRICS.items():
        out[metric] = (sum(selves.get((op, span), 0.0) for op in ops) / n, "s")
    for metric, span in CALL_METRICS.items():
        out[metric] = (per_op(f"{span}:calls"), "count")
    for metric in COUNT_METRICS:
        out[metric] = (per_op(metric), "bytes" if metric.endswith("_bytes") else "count")
    reduces = per_op("reduction.reduce:calls")
    out["reduction.reduce_zero_ratio"] = (
        per_op("reduction.reduce_zero") / reduces if reduces else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_seconds) / statistics.median(untraced_seconds), "ratio")
    return out
