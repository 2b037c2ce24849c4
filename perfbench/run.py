"""The gaugeflow benchmark: time from model to verdict plus JSON report.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload lattice|nonabelian|corpus|all \
        --seed N --seconds S --trace 0|1

One op is one model in, a ``compare`` verdict plus the serialized
``gaugeflow-report/1`` JSON out.  A single client runs ops in a closed
loop in one process, so each workload's peak memory is its own.  Every
op is checked against an answer derived by hand (``inputs.py``), and
one op per run is re-run in a fresh interpreter, whose JSON bytes must
be identical.

``--trace 0`` runs ops for ``--seconds`` seconds with tracing off and
prints the end-to-end metrics.  ``--trace 1`` runs a
fixed set of ops once untraced and once traced and prints the per-layer
metrics (``tracing.py``); two checks guard the counts that later changes
may cite: the counts of an op must repeat in a fresh interpreter, and
must not change when only the name prefix does.  ``--workload all``
runs the three workloads one after another, each in its own process.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when any op failed.

``corpus`` also probes a known defect, apart from the measured ops: the
particle on a circle, which the program refuses today for most analysis
seeds (the surface sampler gives up: ``inapplicable`` with a
``dirac-failed`` diagnostic from ``SurfaceSamplingFailed``).  Each run
checks PROBE_OPS circles and prints how many ended in that refusal; any
other departure from the circle's answer makes ``correct`` false.  See
``DESIGN.md``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from inputs import Generator
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("lattice", "nonabelian", "corpus")
# ops run by --trace 1: the lattice is slow; a corpus round is 18 ops
TRACED_OPS = {"lattice": 2, "nonabelian": 24, "corpus": 18}
# circles checked per corpus run, outside the measured ops
PROBE_OPS = 5
COLD_IMPORTS = 25
# setup_s is given in seconds on a host where one reference unit takes this long
REFERENCE_UNIT_S = 0.010
CHILD_TIMEOUT_S = 170


def _reference_polynomial(rng, terms):
    return {tuple(rng.randrange(3) for _ in range(6)):
            Fraction(rng.randrange(-9, 9), rng.randrange(1, 5)) for _ in range(terms)}


_REFERENCE_RNG = random.Random(1)
REFERENCE = (_reference_polynomial(_REFERENCE_RNG, 45),
             _reference_polynomial(_REFERENCE_RNG, 45))


def reference_seconds():
    """Seconds this host takes, right now, for one reference unit: the
    product of two fixed 45-term polynomials with rational coefficients,
    in plain Python and without gaugeflow code, the kind of work the
    program's kernel does."""
    left, right = REFERENCE
    start = time.perf_counter()
    product = {}
    for mono_a, coeff_a in left.items():
        for mono_b, coeff_b in right.items():
            mono = tuple(x + y for x, y in zip(mono_a, mono_b))
            product[mono] = product.get(mono, 0) + coeff_a * coeff_b
    return time.perf_counter() - start


def references():
    """Three reference units in a row.  An op is normalized by the median
    of the three just before it and the three just after: one unit takes
    about 10 ms and is itself slowed now and then, and a single unit on
    each side would pass its spikes into the op's cost."""
    return [reference_seconds() for _ in range(3)]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_gaugeflow():
    """Import gaugeflow from this checkout's ``src`` and nowhere else."""
    if not (SRC / "gaugeflow" / "__init__.py").is_file():
        sys.exit(f"error: no gaugeflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    gf = importlib.import_module("gaugeflow")
    if Path(gf.__file__).resolve().parent != SRC / "gaugeflow":
        sys.exit(f"error: imported gaugeflow from {gf.__file__}, not from {SRC}")
    for name in ("cli", "compare"):
        importlib.import_module(f"gaugeflow.{name}")
    return gf


def cold_import_seconds():
    """Time for a fresh interpreter to import ``gaugeflow.cli``, the median
    over COLD_IMPORTS interpreters.  Returns (seconds, reference units),
    each import normalized as an op is."""
    code = ("import time; t = time.perf_counter(); import gaugeflow.cli; "
            "print(time.perf_counter() - t)")
    times, costs = [], []
    for _ in range(COLD_IMPORTS):
        before = references()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        times.append(float(proc.stdout))
        costs.append(times[-1] / statistics.median(before + references()))
    return statistics.median(times), statistics.median(costs)


def run_op(gf, op):
    """One op: verdict plus JSON report.  Returns (exit code, JSON text).

    Calls go through module attributes so that an installed tracer sees them.
    """
    out = io.StringIO()
    if op.model is not None:
        report = gf.compare.build_report(op.model)
        gf.cli._dump_json(gf.cli.report_json_dict(report), out)
        code = report.exit_code
    else:
        code = gf.cli.main(["compare", str(op.path), "--format", "json",
                            "--seed", str(op.seed)], out=out)
    return code, out.getvalue()


def check(op, code, text):
    """None when the op met its expected answer, else (kind, reason).

    ``known defect``: the program refused the model in exactly the way
    its expected answer's known defect does.  ``wrong``: any other
    departure from the answer.
    """
    expected = op.expected
    try:
        report = json.loads(text)
    except ValueError:
        return "wrong", "output is not JSON"
    verdict = report.get("verdict")
    diagnostics = report.get("diagnostics", [])
    codes = sorted({d["code"] for d in diagnostics})
    if verdict != expected.verdict:
        defect = expected.known_defect
        kind = ("known defect" if defect and defect.explains(verdict, code, diagnostics)
                else "wrong")
        why = "; ".join(f"{d['code']}: {d['message']}" for d in diagnostics)
        return kind, f"verdict {verdict}, expected {expected.verdict} ({why})"
    if code != expected.exit_code or report.get("exit_code") != expected.exit_code:
        return "wrong", f"exit code {code}, expected {expected.exit_code}"
    if expected.diagnostic is not None and expected.diagnostic not in codes:
        return "wrong", f"diagnostic {expected.diagnostic} missing"
    constraints = report.get("dirac", {}).get("constraints", [])
    found = {
        "primaries": sum(1 for c in constraints if c["generation"] == 0),
        "first_class": sum(1 for c in constraints if c["class"] == "first"),
        "second_class": sum(1 for c in constraints if c["class"] == "second"),
        "candidates": len(report.get("conjecture") or ()),
    }
    for key, value in found.items():
        want = getattr(expected, key)
        if want is not None and value != want:
            return "wrong", f"{key} {value}, expected {want}"
    return None


class Tally:
    """Op outcomes of one run.  An attempt fails when any of its checks
    does; the checks made later on the first op (re-run, counts) fail
    attempt 1, the first op's first attempt.  Probes of a known defect
    are kept apart and are neither attempted nor failed ops."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (attempt number, op, kind, reason)
        self.probes = []  # (op, None or (kind, reason))

    def record(self, op, code, text):
        self.attempted += 1
        problem = check(op, code, text)
        if problem is not None:
            self.fail(op, *problem)

    def fail(self, op, kind, reason, attempt_number=None):
        self.failures.append((attempt_number or self.attempted, op, kind, reason))

    @property
    def failed(self):
        return len({number for number, _, _, _ in self.failures})

    @property
    def correct(self):
        return not self.failures and all(
            problem is None or problem[0] == "known defect" for _, problem in self.probes)


def attempt(gf, op, tally, runner=run_op):
    """Run, time and check one op; an exception is a failed op, not a crash.

    Returns (seconds, JSON text or None).
    """
    start = time.perf_counter()
    try:
        code, text = runner(gf, op)
    except Exception as exc:  # the op boundary: record and carry on
        tally.attempted += 1
        tally.fail(op, "wrong", f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    tally.record(op, code, text)
    return seconds, text


def probe_known_defect(gf, generator, tally):
    """Check the circle on PROBE_OPS analysis seeds, untimed and after
    the measured ops.  Ending in its known defect's exact refusal is
    recorded, not failed; any other departure from its answer is wrong."""
    for op in generator.probes(PROBE_OPS):
        try:
            problem = check(op, *run_op(gf, op))
        except Exception as exc:  # the op boundary: record and carry on
            problem = ("wrong", f"{type(exc).__name__}: {exc}")
        tally.probes.append((op, problem))


def traced(tracer, op_id):
    """A runner for ``attempt`` that runs one op as ``op_id`` under ``tracer``."""
    def runner(gf, op):
        code, text = tracer.run_op(op_id, run_op, gf, op)
        tracer.counts[op_id]["cli.report_json_bytes"] += len(text.encode())
        return code, text
    return runner


def rerun_in_fresh_interpreter(args, op, text, tally, counts=None):
    """Re-run the first op in a new process; bytes (and counts) must repeat."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", str(args.trace),
           "--rerun-first-op"]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tally.fail(op, "wrong", f"re-run failed: {proc.stderr.strip()[-300:]}", 1)
        return
    again = json.loads(proc.stdout.splitlines()[-1])
    if again["output"] != text:
        tally.fail(op, "wrong", "JSON bytes differ in a fresh interpreter", 1)
    if counts is not None and again["counts"] != counts:
        tally.fail(op, "wrong", "counts differ in a fresh interpreter: "
                   + describe_difference(counts, again["counts"]), 1)


def describe_difference(a, b):
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(f"{k} {a.get(k)} vs {b.get(k)}" for k in keys[:6])


def rerun_first_op(args, gf, work_dir):
    """Child side of ``rerun_in_fresh_interpreter``."""
    generator = Generator(args.workload, args.seed, gf, ROOT / "models", work_dir)
    op = next(generator.rounds())[0]
    counts = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            _, text = traced(tracer, 0)(gf, op)
        finally:
            tracer.uninstall()
        counts = tracer.op_counts(0)
    else:
        _, text = run_op(gf, op)
    print(json.dumps({"output": text, "counts": counts}))


def measure(args, gf, work_dir):
    """--trace 0: end-to-end metrics."""
    setup_wall_s, setup_ref = cold_import_seconds()
    generator = Generator(args.workload, args.seed, gf, ROOT / "models", work_dir)
    tally = Tally()
    times = []
    costs = []  # op seconds over the reference unit's seconds around the op
    first = None
    # the run lasts --seconds, input generation included: parsing a
    # nonabelian input costs a third of its op
    end = time.perf_counter() + args.seconds
    for batch in generator.rounds():
        for op in batch:
            before = references()
            seconds, text = attempt(gf, op, tally)
            times.append(seconds)
            costs.append(seconds / statistics.median(before + references()))
            if first is None:
                first = (op, text)
        # whole rounds only, so every corpus run measures the same mix
        if time.perf_counter() >= end:
            break
    rerun_in_fresh_interpreter(args, *first, tally)
    probe_known_defect(gf, generator, tally)
    metrics = {
        "setup_s": (setup_ref * REFERENCE_UNIT_S, "s"),
        "verdict_ref.p50": (statistics.median(costs), "ref"),
        "verdicts_per_kref": (1000 * len(costs) / sum(costs), "1/kref"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {
        "setup_wall_s": (setup_wall_s, "s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
    }
    # the highest percentile with at least ten samples beyond it
    if len(times) >= 100:
        extra["verdict_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s")
        extra["verdict_ref.p90"] = (statistics.quantiles(costs, n=10)[-1], "ref")
    else:
        print(f"  p90 not reported: {len(times)} ops, fewer than 100")
    print(f"{args.workload}: {len(times)} ops timed over {sum(times):.2f} s, "
          f"{COLD_IMPORTS} cold imports, seed {args.seed}")
    return tally, metrics, extra


def trace_layers(args, gf, work_dir):
    """--trace 1: per-layer metrics from a traced run of fixed ops."""
    generator = Generator(args.workload, args.seed, gf, ROOT / "models", work_dir)
    ops = []
    rounds = generator.rounds()
    while len(ops) < TRACED_OPS[args.workload]:
        ops.extend(next(rounds))
    ops = ops[:TRACED_OPS[args.workload]]
    tally = Tally()
    tracer = Tracer()
    untraced, traced_seconds = [], []

    def traced_attempt(op_id, op):
        tracer.install()
        try:
            return attempt(gf, op, tally, traced(tracer, op_id))[0]
        finally:
            tracer.uninstall()

    # each op untraced, then traced, so that drift hits both alike
    for index, op in enumerate(ops):
        untraced.append(attempt(gf, op, tally))
        traced_seconds.append(traced_attempt(index, op))
    # a prefix as long as op 0's, so that the byte counts compare too
    traced_attempt("variant", generator.variant(ops[0], prefix=f"v{generator.tag}_0_"))
    counts = tracer.op_counts(0)
    if tracer.op_counts("variant") != counts:
        tally.fail(ops[0], "wrong", "counts change with the name prefix: "
                   + describe_difference(counts, tracer.op_counts("variant")), 1)
    rerun_in_fresh_interpreter(args, ops[0], untraced[0][1], tally, counts)
    probe_known_defect(gf, generator, tally)
    trace_dir = ROOT / ".perfbench-traces"
    trace_dir.mkdir(exist_ok=True)
    tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
    metrics = layer_metrics(tracer, range(len(ops)), traced_seconds,
                            [seconds for seconds, _ in untraced])
    print(f"{args.workload}: {len(ops)} ops untraced, then traced; "
          f"{len(tracer.spans)} spans; seed {args.seed}")
    return tally, metrics, {}


def report(tally, metrics, extra):
    reasons = Counter((op.label, kind, reason) for _, op, kind, reason in tally.failures)
    for (label, kind, reason), times in sorted(reasons.items()):
        print(f"  {times} x failed op {label}: {kind}: {reason}")
    for op, problem in tally.probes:
        if problem is not None and problem[0] != "known defect":
            print(f"  probe {op.label} (seed {op.seed}) wrong: {problem[1]}")
    if tally.probes:
        op = tally.probes[0][0]
        refused = sum(1 for _, problem in tally.probes
                      if problem is not None and problem[0] == "known defect")
        print(f"  known defect of {op.label}, refused on {refused} of "
              f"{len(tally.probes)} analysis seeds: {op.expected.known_defect.description}")
    extra = dict(extra, attempted=(tally.attempted, "ops"), failed=(tally.failed, "ops"))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def run_all(args):
    """Every workload, each in its own process; fails when any does."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rerun-first-op", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    gf = load_gaugeflow()
    work_dir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        if args.rerun_first_op:
            rerun_first_op(args, gf, work_dir)
            return 0
        run = trace_layers if args.trace else measure
        report(*run(args, gf, work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
