"""Command line interface.

Commands::

    gaugeflow compare   (--builtin NAME [-p K=V]... | FILE) [--format json]
    gaugeflow analyze           ... same inputs ...
    gaugeflow conjecture        ...
    gaugeflow check-identities  ...
    gaugeflow list-builtins

Exit codes: 0 success, match or informational; 1 usage or parse error;
2 comparison mismatch; 3 inconsistent Lagrangian; 4 the single-step rule
was inapplicable, a gauge identity failed, or no definitive verdict.

JSON output is stable byte for byte across runs with the same seed; it
deliberately omits wall-clock timings (the text format prints them).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .catalog import BUILTIN_MODELS, builtin_model
from .compare import EXIT_INAPPLICABLE, EXIT_INCONSISTENT, EXIT_OK, build_report
from .dirac import run_dirac
from .errors import (
    GaugeflowError,
    IdentityViolated,
    InconsistentLagrangian,
    ConjectureInapplicable,
    DegenerateGenerator,
)
from .legendre import primary_constraints
from .model import Options, parse_model
from .noether import conjecture_constraints, independence_check, noether_identity_check

EXIT_USAGE = 1


@functools.cache
def _parser():
    """The argument tree, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gaugeflow",
        description="Constraint analysis of singular Lagrangian models: the "
                    "generational consistency algorithm versus the single-step "
                    "momentum-contraction rule.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("file", nargs="?", help="model file; see the README grammar")
        p.add_argument("--builtin", metavar="NAME",
                       help="catalog model name (see list-builtins)")
        p.add_argument("-p", "--param", action="append", default=[],
                       metavar="KEY=VALUE", help="builtin model parameter")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--max-generations", type=int)
        p.add_argument("--sample-count", type=int)
        p.add_argument("--tolerance", type=float, dest="numeric_tolerance",
                       metavar="TOLERANCE")
        p.add_argument("--seed", type=int)

    for name, doc in (
            ("analyze", "derive and classify all constraints generation by generation"),
            ("conjecture", "apply the single-step momentum-contraction rule"),
            ("compare", "run both derivations and compare their spans"),
            ("check-identities", "verify gauge identities and generator independence")):
        add_common(sub.add_parser(name, help=doc, description=doc))

    lb = sub.add_parser("list-builtins", help="enumerate the model catalog")
    lb.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load_model(args):
    if (args.file is None) == (args.builtin is None):
        raise GaugeflowError("exactly one input is required: a model file or --builtin")
    if args.builtin is not None:
        params = {}
        for item in args.param:
            key, sep, value = item.partition("=")
            if not sep:
                raise GaugeflowError(f"parameter '{item}' is not KEY=VALUE")
            params[key.strip()] = value.strip()
        model = builtin_model(args.builtin, params)
    else:
        if args.param:
            raise GaugeflowError("-p/--param only applies to --builtin models")
        path = Path(args.file)
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise GaugeflowError(
                f"{path}: not UTF-8 text (byte {exc.start} cannot be decoded)") from None
        model = parse_model(text, name=path.stem)
    overrides = {key: getattr(args, key) for key in Options._fields
                 if getattr(args, key) is not None}
    return model.with_options(**overrides) if overrides else model


# --- serialization ----------------------------------------------------------------

def _constraint_dict(c):
    return {"expr": str(c.expr), "generation": c.generation,
            "origin": c.origin, "class": c.class_label}


def _legendre_dict(leg):
    return {
        "dimension": len(leg.momenta_defs),
        "hessian_rank": leg.rank,
        "momenta": {str(q.momentum()): str(e) for q, e in leg.momenta_defs},
        "primary_constraints": [str(c.expr) for c in leg.primary_constraints],
        "discardable": [str(q) for q in leg.discardable],
        "solvable_velocities": {str(v): str(e) for v, e in leg.solvable_velocities},
        "canonical_hamiltonian": str(leg.canonical_hamiltonian),
    }


def _dirac_dict(d):
    out = {
        "consistent": d.consistent,
        "generations_run": d.generations_run,
        "constraints": [_constraint_dict(c) for c in d.constraints],
        "multiplier_equations": [
            {"multiplier": str(v), "value": str(e)} for v, e in d.multiplier_equations],
    }
    if not d.consistent:
        out["witness"] = str(d.witness)
    return out


def _noether_dict(rep):
    return {
        "passed": rep.passed(),
        "residues": {name: str(residue) for name, residue in rep.residues},
    }


def report_json_dict(report):
    """Stable JSON tree for a full analysis report (no timings)."""
    out = {
        "schema": "gaugeflow-report/1",
        "model": report.model_name,
        "options": report.options._asdict(),
        "verdict": report.verdict,
        "diagnostics": [
            {"severity": d.severity, "code": d.code, "message": d.message,
             "witness": d.witness} for d in report.diagnostics],
        "exit_code": report.exit_code,
    }
    if report.legendre is not None:
        out["legendre"] = _legendre_dict(report.legendre)
    if report.dirac is not None:
        out["dirac"] = _dirac_dict(report.dirac)
    if report.noether is not None:
        out["noether"] = _noether_dict(report.noether)
    if report.independent is not None:
        out["independent"] = report.independent
    if report.conjecture is not None:
        out["conjecture"] = [str(c.expr) for c in report.conjecture]
    out["canonical_first_class"] = [str(c.expr) for c in report.canonical_first_class]
    if report.span is not None:
        out["span"] = {
            "equivalent": report.span.equivalent,
            "rank_first_class": report.span.rank_left,
            "rank_conjecture": report.span.rank_right,
            "unreduced_first_class": [str(c.expr) for c, _ in report.span.left_witnesses],
            "unreduced_conjecture": [str(c.expr) for c, _ in report.span.right_witnesses],
        }
    return out


def _dump_json(tree, out):
    out.write(json.dumps(tree, indent=2, sort_keys=True) + "\n")


def _print_constraints(d, out):
    by_gen = d.by_generation()
    for gen in sorted(by_gen):
        label = "primary" if gen == 0 else f"generation {gen}"
        out.write(f"  {label}:\n")
        for c in by_gen[gen]:
            out.write(f"    [{c.class_label:>6}] {c.expr}\n")
    if d.multiplier_equations:
        out.write("  multiplier equations:\n")
        for v, e in d.multiplier_equations:
            out.write(f"    {v} = {e}\n")


def _print_report(report, out):
    out.write(f"model: {report.model_name}\n")
    if report.legendre is not None:
        leg = report.legendre
        out.write(f"hessian rank {leg.rank} of {len(leg.momenta_defs)}; "
                  f"discardable: {', '.join(str(q) for q in leg.discardable) or 'none'}\n")
        out.write(f"canonical hamiltonian: {leg.canonical_hamiltonian}\n")
    if report.dirac is not None:
        out.write(f"constraints (fixpoint after {report.dirac.generations_run} "
                  f"generation(s)):\n")
        _print_constraints(report.dirac, out)
    if report.noether is not None:
        residues = ", ".join(
            f"{name}: {residue}" for name, residue in report.noether.residues) or "none"
        out.write(f"gauge identity residues: {residues}\n")
    if report.independent is not None:
        out.write(f"generators independent: {report.independent}\n")
    if report.conjecture is not None:
        out.write("single-step constraints:\n")
        for c in report.conjecture:
            out.write(f"    {c.expr}\n")
    if report.span is not None:
        out.write(f"canonical-sector first class: "
                  f"{len(report.canonical_first_class)} constraint(s), "
                  f"rank {report.span.rank_left}; "
                  f"candidates rank {report.span.rank_right}\n")
    for d in report.diagnostics:
        witness = f" [witness: {d.witness}]" if d.witness else ""
        out.write(f"{d.severity}: {d.message}{witness}\n")
    if report.timings:
        stages = ", ".join(f"{k} {v * 1000:.1f}ms" for k, v in report.timings.items())
        out.write(f"timings: {stages}\n")
    out.write(f"verdict: {report.verdict}\n")


# --- commands ----------------------------------------------------------------------

def _cmd_compare(model, args, out):
    report = build_report(model)
    if args.format == "json":
        _dump_json(report_json_dict(report), out)
    else:
        _print_report(report, out)
    return report.exit_code


def _cmd_analyze(model, args, out):
    try:
        leg = primary_constraints(model)
        d = run_dirac(model, leg)
    except InconsistentLagrangian as exc:
        if args.format == "json":
            _dump_json({"model": model.name, "error": "inconsistent-lagrangian",
                        "witness": str(exc.witness)}, out)
        else:
            out.write(f"inconsistent Lagrangian: consistency of "
                      f"{exc.constraint.expr} demands {exc.witness} = 0\n")
        return EXIT_INCONSISTENT
    if args.format == "json":
        tree = {"model": model.name, "options": model.options._asdict(),
                "legendre": _legendre_dict(leg), "dirac": _dirac_dict(d)}
        _dump_json(tree, out)
    else:
        out.write(f"model: {model.name}\n")
        _print_constraints(d, out)
        first = len(d.first_class())
        second = len(d.second_class())
        out.write(f"{first} first class, {second} second class\n")
    return EXIT_OK


def _cmd_conjecture(model, args, out):
    leg = primary_constraints(model)
    try:
        noether = noether_identity_check(model)
        constraints = conjecture_constraints(model, leg, noether)
    except (IdentityViolated, ConjectureInapplicable, DegenerateGenerator) as exc:
        if args.format == "json":
            _dump_json({"model": model.name, "error": type(exc).__name__,
                        "message": str(exc)}, out)
        else:
            out.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_INAPPLICABLE
    if args.format == "json":
        _dump_json({"model": model.name,
                    "conjecture": [str(c.expr) for c in constraints]}, out)
    else:
        out.write(f"model: {model.name}\n")
        for c in constraints:
            out.write(f"    {c.expr}\n")
    return EXIT_OK


def _cmd_check_identities(model, args, out):
    code = EXIT_OK
    try:
        noether = noether_identity_check(model)
    except IdentityViolated as exc:
        noether = exc.report
        code = EXIT_INAPPLICABLE
    independent = independence_check(model)
    if args.format == "json":
        _dump_json({"model": model.name, "noether": _noether_dict(noether),
                    "independent": independent}, out)
    else:
        out.write(f"model: {model.name}\n")
        for name, residue in noether.residues:
            state = "ok" if residue.is_zero() else f"VIOLATED: residue {residue}"
            out.write(f"  identity {name}: {state}\n")
        out.write(f"  generators independent: {independent}\n")
    return code


def _cmd_list_builtins(args, out):
    if args.format == "json":
        _dump_json(dict(sorted(BUILTIN_MODELS.items())), out)
    else:
        for name in sorted(BUILTIN_MODELS):
            out.write(f"{name:18} {BUILTIN_MODELS[name]}\n")
    return EXIT_OK


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "list-builtins":
        return _cmd_list_builtins(args, out)
    try:
        model = _load_model(args)
    except (GaugeflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    handler = {"compare": _cmd_compare, "analyze": _cmd_analyze,
               "conjecture": _cmd_conjecture,
               "check-identities": _cmd_check_identities}[args.command]
    try:
        return handler(model, args, out)
    except GaugeflowError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INAPPLICABLE


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
