"""Command line behavior: exit codes, output formats, determinism."""

import io
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import gaugeflow.cli
from gaugeflow.cli import main

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
TEST_MODELS_DIR = Path(__file__).resolve().parent / "models"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_compare_match(self):
        code, text = run_cli("compare", "--builtin", "toy_gauge")
        assert code == 0 and "verdict: match" in text

    def test_compare_no_gauge_sector(self):
        code, text = run_cli("compare", "--builtin", "second_class_toy")
        assert code == 0 and "verdict: no_gauge_sector" in text

    def test_inconsistent_is_exit_3(self):
        path = MODELS_DIR / "inconsistent.model"
        assert run_cli("analyze", str(path))[0] == 3
        assert run_cli("compare", str(path))[0] == 3

    def test_inapplicable_is_exit_4(self):
        code, _ = run_cli("compare", "--builtin", "maxwell_lattice", "-p", "N=1")
        assert code == 4

    def test_usage_errors_are_exit_1(self):
        assert run_cli("compare")[0] == 1                      # no input
        assert run_cli("compare", "--builtin", "nope")[0] == 1
        assert run_cli("compare", "--builtin", "")[0] == 1
        assert run_cli("compare", "--builtin", "toy_gauge", "x.model")[0] == 1
        assert run_cli("analyze", "/nonexistent/x.model")[0] == 1
        assert run_cli("compare", "--builtin", "toy_gauge", "--tolerance", "inf")[0] == 1

    def test_param_errors_are_exit_1(self, capsys):
        assert run_cli("compare", "--builtin", "maxwell_lattice", "-p", "N")[0] == 1
        path = str(MODELS_DIR / "toy_gauge.model")
        assert run_cli("compare", path, "-p", "N=2")[0] == 1
        assert capsys.readouterr().err.count("error: ") == 2

    def test_bad_boolean_parameter_is_exit_1(self, capsys):
        assert run_cli("compare", "--builtin", "ym_mechanics",
                       "-p", "with_scalar=maybe") == (1, "")
        assert capsys.readouterr().err == "error: with_scalar must be a boolean, got 'maybe'\n"

    def test_non_quadratic_analyze_is_exit_4(self, tmp_path, capsys):
        cubic = tmp_path / "cubic.model"
        cubic.write_text("[vars]\nx\n[lagrangian]\nx'^3\n")
        assert run_cli("analyze", str(cubic)) == (4, "")
        err = capsys.readouterr().err
        assert err.startswith("error: NonQuadraticVelocity: ") and err.count("\n") == 1

    def test_parse_error_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("[vars]\nx\n[lagrangian]\nx +\n")
        assert run_cli("analyze", str(bad))[0] == 1

    def test_int_past_the_digit_limit(self, tmp_path, capsys):
        # Python caps the digits of an int-string conversion (4,300 by
        # default): a longer literal is a syntax error, a longer
        # coefficient that the analysis builds is written in full
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        literal = tmp_path / "literal.model"
        literal.write_text(f"[vars]\nx\n[lagrangian]\nx'^2 + {'1' * 5000}\n")
        for command in ("analyze", "compare"):
            if limit and limit < 5000:
                assert run_cli(command, str(literal)) == (1, "")
                assert capsys.readouterr().err == (
                    "error: integer literal of 5000 digits is too long (line 4, column 8)\n")
            else:
                assert run_cli(command, str(literal))[0] == 0
        power = tmp_path / "power.model"
        power.write_text("[vars]\nx\n[lagrangian]\nx'^2/2 + (2*x)^20000\n")
        code, text = run_cli("analyze", str(power), "--format", "json")
        assert code == 0 and str(Decimal(2 ** 20000)) in text
        code, text = run_cli("compare", str(power))
        assert code == 0 and "verdict: no_gauge_sector" in text
        seed = tmp_path / "seed.model"
        seed.write_text(f"[vars]\nx\n[lagrangian]\nx'^2\n[options]\nseed = {'1' * 5000}\n")
        if limit and limit < 5000:
            assert run_cli("compare", str(seed), "--format", "json") == (1, "")
            assert capsys.readouterr().err == "error: bad value for option 'seed' (line 6)\n"
        assert capsys.readouterr().err == ""

    def test_file_not_utf8_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"\xff\xfe")
        assert run_cli("analyze", str(bad))[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1  # no traceback
        assert "bad.model" in err and "not UTF-8" in err and "byte 0" in err


class TestCommands:
    def test_analyze_text(self):
        code, text = run_cli("analyze", "--builtin", "toy_gauge")
        assert code == 0
        assert "[ first] p_y" in text and "[ first] p_x" in text

    def test_analyze_model_file_matches_builtin(self):
        code, text = run_cli("analyze", str(MODELS_DIR / "toy_gauge.model"))
        assert code == 0 and "p_x" in text

    def test_conjecture(self):
        code, text = run_cli("conjecture", "--builtin", "toy_gauge")
        assert code == 0 and "p_x" in text

    def test_check_identities(self):
        code, text = run_cli("check-identities", "--builtin", "maxwell_lattice",
                             "-p", "N=2")
        assert code == 0 and "VIOLATED" not in text

    def test_list_builtins_has_exactly_five(self):
        code, text = run_cli("list-builtins")
        names = [line.split()[0] for line in text.strip().splitlines()]
        assert code == 0
        assert names == sorted(["maxwell_lattice", "oscillator", "second_class_toy",
                                "toy_gauge", "ym_mechanics"])
        code, text = run_cli("list-builtins", "--format", "json")
        assert sorted(json.loads(text)) == names

    def test_option_overrides(self):
        code, text = run_cli("compare", "--builtin", "toy_gauge",
                             "--seed", "42", "--sample-count", "5",
                             "--max-generations", "3", "--tolerance", "1e-6",
                             "--format", "json")
        tree = json.loads(text)
        assert tree["options"]["seed"] == 42
        assert tree["options"]["sample_count"] == 5
        assert tree["options"]["max_generations"] == 3
        assert tree["options"]["numeric_tolerance"] == 1e-6

    @pytest.fixture
    def broken_generator(self, tmp_path):
        # y shifts by 2 eps' where x' - y needs eps'
        text = (MODELS_DIR / "toy_gauge.model").read_text()
        assert "y : k=1 : 1\n" in text
        path = tmp_path / "toy_gauge.model"
        path.write_text(text.replace("y : k=1 : 1\n", "y : k=1 : 2\n"))
        return str(path)

    def test_conjecture_json_on_a_violated_identity(self, broken_generator):
        code, text = run_cli("conjecture", broken_generator, "--format", "json")
        tree = json.loads(text)
        assert code == 4
        assert tree["model"] == "toy_gauge" and tree["error"] == "IdentityViolated"
        assert tree["message"]

    def test_conjecture_text_on_a_violated_identity(self, broken_generator):
        assert run_cli("conjecture", broken_generator) == (
            4, "IdentityViolated: gauge identity violated for generator(s): eps\n")

    def test_check_identities_json_on_a_violated_identity(self, broken_generator):
        code, text = run_cli("check-identities", broken_generator, "--format", "json")
        tree = json.loads(text)
        assert code == 4
        assert tree["noether"]["passed"] is False
        assert list(tree["noether"]["residues"].values()) == ["-x'' + y'"]


# every command but compare: (command, JSON golden, inputs, exit code); the
# text golden has the same name with the suffix .txt
COMMAND_GOLDENS = [
    ("analyze", "analyze_ym_mechanics.json", ("--builtin", "ym_mechanics"), 0),
    ("analyze", "analyze_maxwell_lattice_N2.json",
     ("--builtin", "maxwell_lattice", "-p", "N=2"), 0),
    ("analyze", "analyze_inconsistent.json",
     (str(MODELS_DIR / "inconsistent.model"),), 3),
    ("conjecture", "conjecture_ym_mechanics.json", ("--builtin", "ym_mechanics"), 0),
    ("conjecture", "conjecture_maxwell_lattice_N2.json",
     ("--builtin", "maxwell_lattice", "-p", "N=2"), 0),
    ("check-identities", "check-identities_ym_mechanics.json",
     ("--builtin", "ym_mechanics"), 0),
    ("check-identities", "check-identities_maxwell_lattice_N2.json",
     ("--builtin", "maxwell_lattice", "-p", "N=2"), 0),
    # multiplier equations: solved, and left as a residue that mentions lam[0]
    ("analyze", "analyze_second_class_toy.json", ("--builtin", "second_class_toy"), 0),
    ("analyze", "analyze_unsolved_multiplier.json",
     (str(TEST_MODELS_DIR / "unsolved_multiplier.model"),), 0),
]

# the stages a command must not run, since each can fail on its own
NOT_RUN = {
    "analyze": ("noether_identity_check", "independence_check", "conjecture_constraints"),
    "conjecture": ("run_dirac", "independence_check"),
    "check-identities": ("primary_constraints", "run_dirac", "conjecture_constraints"),
}


def forbid_unneeded_stages(monkeypatch, command):
    def forbidden(*args):
        raise AssertionError(f"{command} ran a stage it does not need")

    for stage in NOT_RUN[command]:
        monkeypatch.setattr(gaugeflow.cli, stage, forbidden)


class TestJson:
    def test_compare_json_shape(self):
        code, text = run_cli("compare", "--builtin", "toy_gauge", "--format", "json")
        tree = json.loads(text)
        assert tree["schema"] == "gaugeflow-report/1"
        assert tree["verdict"] == "match"
        assert tree["exit_code"] == 0
        assert tree["legendre"]["primary_constraints"] == ["p_y"]
        assert tree["dirac"]["generations_run"] == 2
        assert tree["conjecture"] == ["p_x"]
        assert tree["span"]["equivalent"] is True
        assert "timings" not in json.dumps(tree)

    def test_compare_json_on_an_inconsistent_lagrangian(self):
        path = str(MODELS_DIR / "inconsistent.model")
        code, text = run_cli("compare", path, "--format", "json")
        tree = json.loads(text)
        assert code == tree["exit_code"] == 3
        assert tree["dirac"]["witness"] == "1"
        assert [d["code"] for d in tree["diagnostics"]] == ["inconsistent-lagrangian"]

    def test_byte_identical_reruns(self):
        a = run_cli("compare", "--builtin", "ym_mechanics", "--format", "json")
        b = run_cli("compare", "--builtin", "ym_mechanics", "--format", "json")
        assert a == b

    def test_seed_changes_are_visible_but_stable(self):
        a = run_cli("compare", "--builtin", "toy_gauge", "--seed", "7",
                    "--format", "json")
        b = run_cli("compare", "--builtin", "toy_gauge", "--seed", "7",
                    "--format", "json")
        assert a == b

    @pytest.mark.parametrize("golden, inputs", [
        ("maxwell_lattice_N2.json", ("--builtin", "maxwell_lattice", "-p", "N=2")),
        ("ym_mechanics.json", ("--builtin", "ym_mechanics")),
        ("chain_maxwell.json", (str(MODELS_DIR / "chain_maxwell.model"),)),
        ("maxwell_lattice_N3.json", ("--builtin", "maxwell_lattice", "-p", "N=3")),
        ("second_class_toy.json", (str(MODELS_DIR / "second_class_toy.model"),)),
        ("toy_gauge.json", (str(MODELS_DIR / "toy_gauge.model"),)),
    ])
    def test_report_bytes_match_golden(self, golden, inputs):
        # the golden files pin every byte of the gaugeflow-report/1 output
        code, text = run_cli("compare", *inputs, "--format", "json")
        assert code == 0
        assert text.encode() == (GOLDEN_DIR / golden).read_bytes()

    @pytest.mark.parametrize("command, golden, inputs, exit_code", COMMAND_GOLDENS)
    def test_command_json_matches_golden(self, monkeypatch, command, golden, inputs,
                                         exit_code):
        # the other commands have their own JSON shapes; pin those bytes too
        forbid_unneeded_stages(monkeypatch, command)
        code, text = run_cli(command, *inputs, "--format", "json")
        assert code == exit_code
        assert text.encode() == (GOLDEN_DIR / golden).read_bytes()


class TestText:
    @pytest.mark.parametrize("command, golden, inputs, exit_code", COMMAND_GOLDENS)
    def test_command_text_matches_golden(self, monkeypatch, command, golden, inputs,
                                         exit_code):
        forbid_unneeded_stages(monkeypatch, command)
        code, text = run_cli(command, *inputs)
        assert code == exit_code
        assert text.encode() == (GOLDEN_DIR / golden).with_suffix(".txt").read_bytes()

    @pytest.mark.parametrize("golden, inputs", [
        ("toy_gauge.txt", (str(MODELS_DIR / "toy_gauge.model"),)),
        ("maxwell_lattice_N2.txt", ("--builtin", "maxwell_lattice", "-p", "N=2")),
    ])
    def test_compare_text_matches_golden(self, golden, inputs):
        # wall-clock timings are the one line that changes from run to run
        code, text = run_cli("compare", *inputs)
        kept = [line for line in text.splitlines(True) if not line.startswith("timings: ")]
        assert code == 0 and len(kept) == text.count("\n") - 1
        assert "".join(kept).encode() == (GOLDEN_DIR / golden).read_bytes()


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "gaugeflow.cli", "compare", "--builtin", "toy_gauge"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: match" in proc.stdout


def fresh_python(*argv):
    """A fresh interpreter that imports gaugeflow from this checkout."""
    src = str(Path(gaugeflow.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the records are named tuples, so no class body generates code at import;
    # only modules the import adds count, so a site hook cannot fail this
    proc = fresh_python("-c", "import sys; before = set(sys.modules); import gaugeflow.cli; "
                        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_cold_compare_prints_golden_json():
    proc = fresh_python("-m", "gaugeflow.cli", "compare", str(MODELS_DIR / "toy_gauge.model"),
                        "--format", "json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.encode() == (GOLDEN_DIR / "toy_gauge.json").read_bytes()


class TestParserReuse:
    """One argument tree serves every ``main`` call of a process."""

    def test_one_tree_per_process(self):
        assert gaugeflow.cli._parser() is gaugeflow.cli._parser()

    def test_no_option_leaks_into_the_next_call(self, capsys):
        argv = ["compare", "--builtin", "toy_gauge", "--format", "json"]
        run_cli("compare", "--builtin", "maxwell_lattice", "-p", "N=2", "--seed", "7")
        capsys.readouterr()
        code, text = run_cli(*argv)
        fresh = fresh_python("-m", "gaugeflow.cli", *argv)
        assert (code, text, capsys.readouterr().err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)

    def test_import_builds_no_parser(self):
        proc = fresh_python("-c", "import argparse; made = []; "
                            "init = argparse.ArgumentParser.__init__; "
                            "argparse.ArgumentParser.__init__ = "
                            "lambda self, *a, **k: made.append(1) or init(self, *a, **k); "
                            "import gaugeflow.cli; print(len(made)); "
                            "gaugeflow.cli._parser(); print(len(made) > 0)")
        assert proc.returncode == 0 and proc.stdout == "0\nTrue\n"

    @pytest.mark.parametrize("command", ["", "compare", "analyze", "conjecture",
                                         "check-identities", "list-builtins"])
    def test_help_matches_golden(self, monkeypatch, capsys, command):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [command, "--help"] if command else ["--help"]
        texts = []
        for _ in range(2):
            assert main(argv, out=io.StringIO()) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        # argparse lays help out differently from one Python version to the
        # next; the goldens are Python 3.11's
        if sys.version_info[:2] == (3, 11):
            golden = GOLDEN_DIR / f"help{'_' + command if command else ''}.txt"
            assert texts[0].encode() == golden.read_bytes()
