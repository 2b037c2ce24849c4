"""The benchmark's tracer (``perfbench/tracing.py``) wraps package entry
points by name; every name it lists must still resolve, so that a
refactor which renames or deletes one fails here rather than in a
traced benchmark run.  One traced report also checks that the hooks
still read the arguments they expect and pins two of the counts.  The
tracer's source is executed into a private namespace, which writes
nothing next to it."""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_tables():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


TABLES = _tracing_tables()


def _module(name):
    return importlib.import_module(f"gaugeflow.{name}")


@pytest.mark.parametrize("module,attribute,span", TABLES["SPANNED_FUNCTIONS"])
def test_spanned_function_exists(module, attribute, span):
    assert callable(getattr(_module(module), attribute))


@pytest.mark.parametrize("module,cls,method,span", TABLES["SPANNED_METHODS"])
def test_spanned_method_exists(module, cls, method, span):
    # the tracer patches the method found in the class's own namespace
    assert callable(vars(getattr(_module(module), cls))[method])


@pytest.mark.parametrize("module,owner,attribute,counter", TABLES["COUNTED"])
def test_counted_name_exists(module, owner, attribute, counter):
    if owner is None:
        assert callable(getattr(_module(module), attribute))
    else:
        assert callable(vars(getattr(_module(module), owner))[attribute])


def test_tracer_counts_one_report():
    # Legendre builds no reducer and the span comparison finds every
    # member verbatim in the other set, so the Dirac run's is the only
    # one; one bracket pair classified
    compare = _module("compare")
    _module("cli")  # the tracer wraps names in every traced module
    model = _module("catalog").builtin_model("toy_gauge")
    tracer = TABLES["Tracer"]()
    tracer.install()
    try:
        report = tracer.run_op("toy_gauge", compare.build_report, model)
    finally:
        tracer.uninstall()
    assert report.verdict == "match"
    counts = tracer.op_counts("toy_gauge")
    assert counts["reduction.weak_reducer_build:calls"] == 1
    assert counts["dirac.classify_pairs"] == 1


def test_tracer_counts_multiplier_outcomes():
    # both primaries of second_class_toy fix a multiplier, so the step's
    # return class must still be the one the tracer's OUTCOMES map names;
    # each step reduces its bracket and its solved value, and classify
    # reduces the one bracket pair
    compare = _module("compare")
    _module("cli")
    model = _module("catalog").builtin_model("second_class_toy")
    tracer = TABLES["Tracer"]()
    tracer.install()
    try:
        report = tracer.run_op("second_class_toy", compare.build_report, model)
    finally:
        tracer.uninstall()
    assert report.verdict == "no_gauge_sector"
    counts = tracer.op_counts("second_class_toy")
    assert counts["dirac.outcome_multiplier_fixed"] == 2
    assert counts["dirac.consistency_step:calls"] == 2
    assert counts["reduction.reduce:calls"] == 5


def test_tracer_counts_an_inconsistent_run():
    # L = x: the one primary p_x demands 1 = 0 in generation 1, so the
    # run ends with no constraint accepted; the tracer books the result
    # run_dirac returns
    compare = _module("compare")
    _module("cli")
    model = _module("model").parse_model("[vars]\nx\n[lagrangian]\nx\n", name="inconsistent")
    tracer = TABLES["Tracer"]()
    tracer.install()
    try:
        report = tracer.run_op("inconsistent", compare.build_report, model)
    finally:
        tracer.uninstall()
    assert report.exit_code == 3
    counts = tracer.op_counts("inconsistent")
    assert counts["dirac.generations"] == 1
    assert counts["dirac.accepted"] == 0
    assert counts["dirac.outcome_contradiction"] == 1
    assert counts["dirac.run_dirac:calls"] == 1


def test_sample_surface_points_returns_a_list():
    # the tracer's _sample_done takes len() of the result
    reduction = _module("reduction")
    options = _module("model").Options()
    x = _module("expr").coordinate("x")
    sampler = reduction.SurfaceSampler(reduction.WeakReducer([]), [x, x.momentum()], options)
    points = reduction.sample_surface_points(sampler, 3)
    assert type(points) is list and len(points) == 3
