"""A checked-in digest of the CLI's output over a seeded corpus.

``tests/golden/digest.json`` holds one sha256 per (command, format,
input) of the exit code, the standard output, with the text format's
``timings:`` line dropped, and the standard error.  The commands are
``compare``, ``analyze``, ``conjecture`` and ``check-identities``, in
text and JSON, at each model's default options.  The
inputs are the shipped and test model files, the builtins and the
seeded ``random_quadratic_model`` corpus.  The test names every input
whose output changed and writes no file; to rewrite the digest after a
change that alters an output on purpose, run

    PYTHONPATH=src python tests/test_digest.py
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path
from unittest import mock

import gaugeflow.cli

from test_legendre import random_quadratic_model

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "golden" / "digest.json"
COMMANDS = ("compare", "analyze", "conjecture", "check-identities")
FORMATS = ("text", "json")
MODEL_DIRS = ("models", "tests/models", "tests/models/roadmap")
BUILTINS = [("toy_gauge",), ("oscillator",), ("second_class_toy",)] + [
    ("maxwell_lattice", f"N={n}") for n in (1, 2, 3)] + [
    ("ym_mechanics", f"with_scalar={flag}") for flag in ("true", "false")]
SEEDS = range(200)


def corpus():
    """(name, argv naming the input, model to load in its place or None)."""
    for folder in MODEL_DIRS:
        for path in sorted((ROOT / folder).glob("*.model")):
            yield f"{folder}/{path.name}", [str(path)], None
    for name, *params in BUILTINS:
        argv = ["--builtin", name]
        for param in params:
            argv += ["-p", param]
        yield " ".join(["builtin", name, *params]), argv, None
    for seed in SEEDS:
        yield f"random_quadratic_model seed {seed}", [], random_quadratic_model(
            random.Random(seed))


def output_digest(argv, model):
    """sha256 of one in-process call's exit code, standard output
    without the ``timings:`` line, and standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        if model is None:
            code = gaugeflow.cli.main(argv, out=out)
        else:
            with mock.patch.object(gaugeflow.cli, "_load_model", lambda args: model):
                code = gaugeflow.cli.main(argv, out=out)
    kept = [line for line in out.getvalue().splitlines(keepends=True)
            if not line.startswith("timings:")]
    return hashlib.sha256(
        f"{code}\n{''.join(kept)}\nstderr:\n{err.getvalue()}".encode()).hexdigest()


def digests():
    """{"command format input": sha256} over the whole corpus."""
    out = {}
    for name, argv, model in corpus():
        for command in COMMANDS:
            for fmt in FORMATS:
                out[f"{command} {fmt} {name}"] = output_digest(
                    [command, *argv, "--format", fmt], model)
    return out


def test_outputs_match_the_digest():
    expected = json.loads(DIGEST.read_text())
    actual = digests()
    changed = sorted(key for key in expected.keys() | actual.keys()
                     if expected.get(key) != actual.get(key))
    assert not changed, f"{len(changed)} output(s) changed: " + "; ".join(changed)


if __name__ == "__main__":
    DIGEST.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
