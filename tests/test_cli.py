"""Command line behavior: exit codes, output formats, determinism."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from gaugeflow.cli import main

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


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

    def test_check_identities_json_on_a_violated_identity(self, broken_generator):
        code, text = run_cli("check-identities", broken_generator, "--format", "json")
        tree = json.loads(text)
        assert code == 4
        assert tree["noether"]["passed"] is False
        assert list(tree["noether"]["residues"].values()) == ["-x'' + y'"]


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

    @pytest.mark.parametrize("command, golden, inputs, exit_code", [
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
    ])
    def test_command_json_matches_golden(self, command, golden, inputs, exit_code):
        # the other commands have their own JSON shapes; pin those bytes too
        code, text = run_cli(command, *inputs, "--format", "json")
        assert code == exit_code
        assert text.encode() == (GOLDEN_DIR / golden).read_bytes()


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "gaugeflow.cli", "compare", "--builtin", "toy_gauge"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: match" in proc.stdout
