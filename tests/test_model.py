"""Model files, validation, and the builtin catalog."""

import hashlib
import io
import time
from pathlib import Path

import pytest

import gaugeflow.catalog
import gaugeflow.model

from gaugeflow import (
    CoordinateDecl,
    Expression,
    GaugeGenerator,
    GeneratorComponent,
    ModelSpec,
    Options,
    builtin_model,
    coordinate,
    parse_model,
    render_model,
)
from gaugeflow.cli import main
from gaugeflow.model import MAX_COORDINATES
from gaugeflow.errors import (
    BadParameter,
    DuplicateCoordinate,
    ExpressionSyntaxError,
    IndexOutOfRange,
    MalformedGenerator,
    ModelSyntaxError,
    NonPolynomialLagrangian,
    UnknownBuiltin,
    UnknownSymbol,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

TOY_SOURCE = """
[vars]
x
y

[lagrangian]
(xdot - y)^2 / 2
"""


class TestParseModel:
    def test_direct_transcription(self):
        m = parse_model(TOY_SOURCE)
        assert m.dimension == 2
        x, y = coordinate("x"), coordinate("y")
        expected = (Expression.var(x.jet(1)) - Expression.var(y)) ** 2 / 2
        assert m.lagrangian == expected

    def test_prime_and_dot_sugar_agree(self):
        a = parse_model(TOY_SOURCE)
        b = parse_model(TOY_SOURCE.replace("xdot", "x'"))
        assert a.lagrangian == b.lagrangian

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_model(TOY_SOURCE.replace("- y", "- z"))

    def test_cubic_velocity_is_accepted_by_parser(self):
        # rejection happens later, at the momentum-inversion stage
        m = parse_model("[vars]\nx\n[lagrangian]\nxdot^3\n")
        assert m.lagrangian == Expression.var(coordinate("x").jet(1)) ** 3

    def test_momentum_mention_rejected(self):
        with pytest.raises(NonPolynomialLagrangian):
            parse_model("[vars]\nx\n[lagrangian]\np_x\n")
        # a model built in code is checked too, with no position to report
        with pytest.raises(NonPolynomialLagrangian, match=r"found p_x$"):
            ModelSpec("m", (CoordinateDecl("x"),), Expression.var(coordinate("x").momentum()))

    def test_acceleration_rejected(self):
        with pytest.raises(NonPolynomialLagrangian):
            parse_model("[vars]\nx\n[lagrangian]\nx''\n")
        with pytest.raises(NonPolynomialLagrangian, match=r"found x''$"):
            ModelSpec("m", (CoordinateDecl("x"),), Expression.var(coordinate("x").jet(2)))

    def test_undeclared_coordinates_rejected_in_code(self):
        # the parser's resolvers refuse such mentions first, so only a
        # model built in code reaches these checks
        x, y = coordinate("x"), coordinate("y")
        decls = (CoordinateDecl("x"),)
        with pytest.raises(UnknownSymbol) as err:
            ModelSpec("m", decls, Expression.var(y.jet(1)) ** 2)
        assert str(err.value) == "Lagrangian mentions undeclared coordinate y"
        gen = GaugeGenerator("e", (GeneratorComponent(y, 0, Expression.const(1)),))
        with pytest.raises(UnknownSymbol) as err:
            ModelSpec("m", decls, Expression.var(x.jet(1)) ** 2, (gen,))
        assert str(err.value) == "generator 'e' targets undeclared coordinate y"

    def test_rational_lagrangian_rejected(self):
        with pytest.raises(NonPolynomialLagrangian) as err:
            parse_model("[vars]\nx\ny\n[lagrangian]\nxdot^2/y\n")
        assert err.value.line == 5

    def test_generator_checks_in_code_have_no_line(self):
        # the model file's lines reach these checks; a model built in
        # code has none to report
        x = coordinate("x")
        decls = (CoordinateDecl("x"),)
        with pytest.raises(NonPolynomialLagrangian) as err:
            ModelSpec("m", decls, Expression.var(x.jet(1)) ** 2 / Expression.var(x))
        assert err.value.line == 0
        with pytest.raises(MalformedGenerator) as err:
            ModelSpec("m", decls, Expression.var(x.jet(1)) ** 2, (GaugeGenerator("e", ()),))
        assert str(err.value) == "generator 'e' has no components" and err.value.line == 0

    def test_duplicate_coordinate(self):
        with pytest.raises(DuplicateCoordinate):
            parse_model("[vars]\nx\nx\n[lagrangian]\nxdot^2\n")
        # a model built in code has no line to report
        with pytest.raises(DuplicateCoordinate) as err:
            ModelSpec("m", (CoordinateDecl("x"), CoordinateDecl("x")), Expression.const(1))
        assert str(err.value) == "coordinate x declared twice" and err.value.line == 0

    def test_reserved_names(self):
        with pytest.raises(DuplicateCoordinate):
            parse_model("[vars]\nlam\n[lagrangian]\nlamdot^2\n")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_model("[vars]\nA[0:2]\n[lagrangian]\nA[5]'^2\n")

    def test_empty_range(self):
        with pytest.raises(ModelSyntaxError):
            parse_model("[vars]\nA[2:2]\n[lagrangian]\n1\n")

    def test_malformed_generator(self):
        src = TOY_SOURCE + "\n[generators]\nx : k=0 : 1\n"
        with pytest.raises(MalformedGenerator):
            parse_model(src)
        src = TOY_SOURCE + "\n[generators]\ngen eps\nx : k=0 : 1\nx : k=0 : 2\n"
        with pytest.raises(MalformedGenerator):
            parse_model(src)
        src = TOY_SOURCE + "\n[generators]\ngen eps\nx : k=0 : xdot\n"
        with pytest.raises(MalformedGenerator):
            parse_model(src)

    def test_generator_with_velocity_order(self):
        src = TOY_SOURCE + "\n[generators]\ngen eps\nx : k=0 : 1\ny : k=1 : 1\n"
        m = parse_model(src)
        assert len(m.generators) == 1
        assert m.generators[0].components[1].order == 1

    def test_option_parsing(self):
        m = parse_model(TOY_SOURCE + "\n[options]\nseed = 7\nsample_count = 5\n")
        assert m.options.seed == 7 and m.options.sample_count == 5
        with pytest.raises(ModelSyntaxError):
            parse_model(TOY_SOURCE + "\n[options]\nwibble = 3\n")
        with pytest.raises(ModelSyntaxError, match="finite and positive"):
            parse_model(TOY_SOURCE + "\n[options]\nnumeric_tolerance = 1e999\n")

    def test_option_checks_hold_when_built_or_copied(self):
        with pytest.raises(ModelSyntaxError):
            Options(sample_count=0)
        with pytest.raises(ModelSyntaxError):
            builtin_model("toy_gauge").with_options(sample_count=0)
        assert repr(Options()) == ("Options(max_generations=10, sample_count=20, "
                                   "numeric_tolerance=1e-09, seed=1729)")

    def test_option_copies_share_the_expanded_coordinates(self):
        m = parse_model(TOY_SOURCE)
        copy = m.with_options(seed=3)
        assert copy.coordinate_vars is m.coordinate_vars and copy.options.seed == 3
        assert copy == parse_model(TOY_SOURCE + "[options]\nseed = 3\n")

    def test_syntax_error_has_line(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("[vars]\nx\n[wrong]\n")
        assert err.value.line == 3


BASE = "[vars]\nx\ny\n[lagrangian]\n(x' - y)^2/2\n"  # lines 1-5
GEN = BASE + "[generators]\ngen e\n"                    # components from line 8

# (model text, error class, the message's "(line ...)" text or None)
HOSTILE = [
    pytest.param(BASE + "[options]\nmax_generations = 0\n", ModelSyntaxError, 7,
                 id="zero-generations"),
    pytest.param(BASE + "[options]\nsample_count = 0\n", ModelSyntaxError, 7,
                 id="zero-samples"),
    pytest.param(GEN + "x : k=0 : 1\ngen e\ny : k=1 : 1\n", MalformedGenerator, 9,
                 id="repeated-parameter"),
    pytest.param(GEN, MalformedGenerator, 7, id="empty-generator"),
    pytest.param(GEN + "x : k=4 : 1\n", MalformedGenerator, 8, id="order-past-cap"),
    pytest.param(GEN + "x : k=0 : 1\ny : k=1 : 1\nx : k=0 : 2\n", MalformedGenerator, 10,
                 id="repeated-component"),
    pytest.param(GEN + "x : k=0 : p_y\n", MalformedGenerator, 8,
                 id="momentum-in-coefficient"),
    pytest.param("[vars]\nx\n[lagrangian]\nx'^2 + 1/x\n", NonPolynomialLagrangian, 4,
                 id="non-polynomial-lagrangian"),
    pytest.param("[vars]\nx y\n[lagrangian]\nx'^2\n", ModelSyntaxError, 2,
                 id="two-names"),
    pytest.param("[vars]\nA[0:2\n[lagrangian]\n1\n", ModelSyntaxError, 2,
                 id="unclosed-range"),
    pytest.param("[vars]\nA[a:b]\n[lagrangian]\n1\n", ModelSyntaxError, 2,
                 id="non-integer-range"),
    pytest.param("[vars]\n1x\n[lagrangian]\n1\n", ModelSyntaxError, 2,
                 id="bad-coordinate-name"),
    pytest.param(GEN + "x + y : k=0 : 1\n", MalformedGenerator, 8, id="target-not-a-name"),
    pytest.param(GEN + "p_x : k=0 : 1\n", MalformedGenerator, 8, id="target-a-momentum"),
    pytest.param(GEN + "(x) : k=0 : 1\n", MalformedGenerator, 8, id="target-in-parentheses"),
    pytest.param(GEN + "x*1 : k=0 : 1\n", MalformedGenerator, 8, id="target-times-one"),
    pytest.param("[vars]\nx\n[vars]\ny\n[lagrangian]\n1\n", ModelSyntaxError, 3,
                 id="duplicate-section"),
    pytest.param("x\n[vars]\nx\n[lagrangian]\nx'^2\n", ModelSyntaxError, 1,
                 id="content-before-header"),
    pytest.param("[lagrangian]\n1\n", ModelSyntaxError, None, id="no-vars"),
    pytest.param("[vars]\nx\n", ModelSyntaxError, None, id="no-lagrangian"),
    pytest.param("[model]\ncolour = red\n" + BASE, ModelSyntaxError, 2,
                 id="unknown-model-entry"),
    pytest.param(BASE + "[generators]\ngen 1e\n", MalformedGenerator, 7,
                 id="bad-parameter-name"),
    pytest.param(GEN + "x : k=0\n", MalformedGenerator, 8, id="two-fields"),
    pytest.param(GEN + "x : j=0 : 1\n", MalformedGenerator, 8, id="bad-order"),
    pytest.param(BASE + "[options]\nseed\n", ModelSyntaxError, 7, id="option-without-value"),
    pytest.param(BASE + "[options]\nseed = abc\n", ModelSyntaxError, 7,
                 id="non-integer-option"),
    pytest.param("[vars]\nx\n[lagrangian]\nx'^2 + p_x'\n", ExpressionSyntaxError,
                 "4, column 8", id="primed-momentum"),
    pytest.param("[vars]\nx\n[lagrangian]\nx'^2 + p_x\n", NonPolynomialLagrangian,
                 "4, column 8", id="momentum-in-lagrangian"),
    pytest.param("[vars]\nx\n[lagrangian]\nx''^2\n", NonPolynomialLagrangian,
                 "4, column 1", id="acceleration-in-lagrangian"),
    pytest.param(BASE + "[options]\nnumeric_tolerance = inf\n", ModelSyntaxError, 7,
                 id="infinite-tolerance"),
    pytest.param("[vars]\np_x\n[lagrangian]\n1\n", DuplicateCoordinate, 2,
                 id="momentum-name"),
    pytest.param("[vars]\nxdot\n[lagrangian]\n1\n", DuplicateCoordinate, 2,
                 id="velocity-suffix-name"),
    pytest.param("[vars]\nx\nlam\n[lagrangian]\n1\n", DuplicateCoordinate, 3,
                 id="multiplier-name"),
    pytest.param("[vars]\nx\ny\nx\n[lagrangian]\n1\n", DuplicateCoordinate, 4,
                 id="declared-twice"),
    pytest.param("[vars]\nx\nA[0:2,2:2]\n[lagrangian]\n1\n", ModelSyntaxError, 3,
                 id="empty-range"),
    pytest.param(GEN + "x : k=0 : 1 + $\n", ExpressionSyntaxError, "8, column 15",
                 id="coefficient-character"),
    pytest.param(GEN + "  x$ : k=0 : 1\n", ExpressionSyntaxError, "8, column 4",
                 id="target-character"),
    pytest.param(GEN + "x : k=0 : p_y'\n", ExpressionSyntaxError, "8, column 11",
                 id="coefficient-primed-momentum"),
    pytest.param("[vars]\nx\n[lagrangian]\nxddot^2\n", NonPolynomialLagrangian,
                 "4, column 1", id="ddot-sugar"),
    pytest.param("[vars]\nA[2]\n[lagrangian]\nA[1]'^2\n", IndexOutOfRange, "4, column 1",
                 id="single-index-declaration"),
    pytest.param("[vars]\nx\n[lagrangian]\nx'^2 + q\n", UnknownSymbol, "4, column 8",
                 id="unknown-in-lagrangian"),
    pytest.param(GEN + "x : k=0 : 2*q\n", UnknownSymbol, "8, column 13",
                 id="unknown-in-coefficient"),
    pytest.param("[vars]\nx\nA[2]\n[lagrangian]\nx'^2\n[generators]\ngen e\n"
                 "x : k=0 : x + A[1]\n", IndexOutOfRange, "8, column 15",
                 id="index-in-coefficient"),
    pytest.param("[vars]\nx\nA[0:50000000]\n[lagrangian]\nx'^2\n", ModelSyntaxError, 3,
                 id="too-many-coordinates"),
    pytest.param("[vars]\nx\n[lagrangian]\n" + "(" * 3000 + "x'" + ")" * 3000 + "\n",
                 ExpressionSyntaxError, "4, column 101", id="deep-parentheses"),
]

# every HOSTILE entry's exact message
HOSTILE_MESSAGES = {
    "zero-generations": "max_generations must be positive (line 7)",
    "zero-samples": "sample_count must be positive (line 7)",
    "repeated-parameter": "gauge parameter names must be distinct (line 9)",
    "empty-generator": "generator 'e' has no components (line 7)",
    "order-past-cap": "generator order k=4 outside 0..3 (line 8)",
    "repeated-component": "generator 'e' repeats component (x, k=0) (line 10)",
    "momentum-in-coefficient": "generator coefficients may mention only declared "
                               "coordinates; found p_y (line 8)",
    "non-polynomial-lagrangian": "the Lagrangian must be polynomial in coordinates and "
                                 "velocities (line 4)",
    "two-names": "malformed coordinate declaration 'x y' (line 2)",
    "unclosed-range": "malformed index ranges in 'A[0:2' (line 2)",
    "non-integer-range": "bad index range 'a:b' (line 2)",
    "bad-coordinate-name": "'1x' is not a valid coordinate name (line 2)",
    "target-not-a-name": "'x + y' is not a single coordinate (line 8)",
    "target-a-momentum": "generator components target coordinates, not p_x (line 8)",
    "target-in-parentheses": "'(x)' is not a single coordinate (line 8)",
    "target-times-one": "'x*1' is not a single coordinate (line 8)",
    "duplicate-section": "duplicate section '[vars]' (line 3)",
    "content-before-header": "content before the first section header (line 1)",
    "no-vars": "a model needs a [vars] section",
    "no-lagrangian": "a model needs a [lagrangian] section",
    "unknown-model-entry": "unknown entry 'colour = red' in [model] (line 2)",
    "bad-parameter-name": "bad gauge parameter name '1e' (line 7)",
    "two-fields": "expected 'coordinate : k=<int> : coefficient' (line 8)",
    "bad-order": "bad derivative order 'j=0' (line 8)",
    "option-without-value": "expected 'key = value', got 'seed' (line 7)",
    "non-integer-option": "bad value for option 'seed' (line 7)",
    "primed-momentum": "momenta carry no primes (line 4, column 8)",
    "momentum-in-lagrangian": "the Lagrangian must be a function of coordinates and "
                              "velocities; found p_x (line 4, column 8)",
    "acceleration-in-lagrangian": "the Lagrangian may mention at most first time "
                                  "derivatives; found x'' (line 4, column 1)",
    "infinite-tolerance": "numeric_tolerance must be finite and positive (line 7)",
    "momentum-name": "cannot declare 'p_x': names starting with 'p_' are reserved for "
                     "momenta (line 2)",
    "velocity-suffix-name": "cannot declare 'xdot': names ending in 'dot' collide with the "
                            "velocity suffix (line 2)",
    "multiplier-name": "cannot declare 'lam': 'lam' is reserved for constraint multipliers "
                       "(line 3)",
    "declared-twice": "coordinate x declared twice (line 4)",
    "empty-range": "empty index range 2:2 in declaration of 'A' (line 3)",
    "coefficient-character": "unexpected character '$' (line 8, column 15)",
    "target-character": "unexpected character '$' (line 8, column 4)",
    "coefficient-primed-momentum": "momenta carry no primes (line 8, column 11)",
    "ddot-sugar": "the Lagrangian may mention at most first time derivatives; found x'' "
                  "(line 4, column 1)",
    "single-index-declaration": "A[1] is outside the declared index ranges (line 4, "
                                "column 1)",
    "unknown-in-lagrangian": "unknown symbol 'q' (line 4, column 8)",
    "unknown-in-coefficient": "unknown symbol 'q' (line 8, column 13)",
    "index-in-coefficient": "A[1] is outside the declared index ranges (line 8, column 15)",
    "too-many-coordinates": "declaration of 'A' brings the model past 256000 coordinates "
                            "(line 3)",
    "deep-parentheses": "parentheses nested deeper than 100 levels (line 4, column 101)",
}


# the text that stands at the position of every HOSTILE message with a column
HOSTILE_AT = {
    "primed-momentum": "p_x'",
    "momentum-in-lagrangian": "p_x",
    "acceleration-in-lagrangian": "x''",
    "ddot-sugar": "xddot",
    "coefficient-character": "$",
    "target-character": "$",
    "coefficient-primed-momentum": "p_y'",
    "single-index-declaration": "A[1]'",
    "unknown-in-lagrangian": "q",
    "unknown-in-coefficient": "q",
    "index-in-coefficient": "A[1]",
    "deep-parentheses": "(",
}


class TestHostileModels:
    @pytest.mark.parametrize("source,error,line", HOSTILE)
    def test_typed_error(self, request, source, error, line):
        with pytest.raises(error) as err:
            parse_model(source)
        assert type(err.value) is error
        if line is None:
            assert "(line" not in str(err.value)
        else:
            assert f"(line {line})" in str(err.value)
        assert str(err.value) == HOSTILE_MESSAGES[request.node.callspec.id]

    @pytest.mark.parametrize("source,error,line", HOSTILE)
    def test_position_attributes(self, source, error, line):
        # the error keeps the position its message names, 0 when none
        with pytest.raises(error) as err:
            parse_model(source)
        exc = err.value
        if line is None:
            assert (exc.line, exc.column) == (0, 0)
        else:
            where = f"{exc.line}, column {exc.column}" if exc.column else exc.line
            assert where == line

    @pytest.mark.parametrize("source,error,line", HOSTILE)
    def test_column_is_the_file_column(self, request, source, error, line):
        # a column counts from the start of the file's line, not of a field
        with pytest.raises(error) as err:
            parse_model(source)
        exc = err.value
        expected = HOSTILE_AT.get(request.node.callspec.id)
        assert bool(exc.column) == (expected is not None)
        if expected is not None:
            text = source.splitlines()[exc.line - 1]
            assert text[exc.column - 1:].startswith(expected)

    @pytest.mark.parametrize("source,error,line", HOSTILE)
    def test_cli_usage_error(self, source, error, line, tmp_path, capsys):
        path = tmp_path / "hostile.model"
        path.write_text(source)
        assert main(["analyze", str(path)], out=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCoordinateBound:
    def test_bound_leaves_room_for_lattice_n40(self):
        assert MAX_COORDINATES >= 4 * 40 ** 3

    def test_running_total_is_checked_before_expansion(self, monkeypatch):
        monkeypatch.setattr(gaugeflow.model, "MAX_COORDINATES", 8)
        m = parse_model("[vars]\nx\nA[0:7]\n[lagrangian]\nx'^2\n")
        assert m.dimension == 8
        # the third declaration takes the total from 8 to 10**8 + 8
        source = "[vars]\nx\nA[0:7]\nB[0:10000,0:10000]\n[lagrangian]\nx'^2\n"
        t0 = time.perf_counter()
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(source)
        assert time.perf_counter() - t0 < 1
        assert str(err.value) == ("declaration of 'B' brings the model past 8 coordinates "
                                  "(line 4)")

    def test_refused_file_fails_in_bounded_time(self, tmp_path, capsys):
        # 50 million coordinates in a 3-line file: a MemoryError, or
        # unbounded growth, when every coordinate was expanded first
        path = tmp_path / "huge.model"
        path.write_text("[vars]\nA[0:50000000]\n[lagrangian]\nA[0]'^2\n")
        t0 = time.perf_counter()
        assert main(["analyze", str(path)], out=io.StringIO()) == 1
        assert time.perf_counter() - t0 < 5
        assert capsys.readouterr().err == (
            "error: declaration of 'A' brings the model past 256000 coordinates (line 2)\n")

    def test_lattice_is_checked_before_it_is_built(self, monkeypatch):
        t0 = time.perf_counter()
        for n in (41, 10 ** 6):
            with pytest.raises(BadParameter) as err:
                builtin_model("maxwell_lattice", {"N": n})
            assert str(err.value) == (f"maxwell_lattice N={n} has {4 * n ** 3} coordinates, "
                                      f"more than {MAX_COORDINATES}")
        assert time.perf_counter() - t0 < 1
        monkeypatch.setattr(gaugeflow.catalog, "MAX_COORDINATES", 4 * 2 ** 3)
        assert builtin_model("maxwell_lattice", {"N": 2}).dimension == 32
        with pytest.raises(BadParameter):
            builtin_model("maxwell_lattice", {"N": 3})


# sha256 of render_model for each builtin and parameter set of the output
# digest: the Lagrangian, and each generator's components in order
BUILTIN_RENDERS = [
    ("toy_gauge", {}, "1bf6e9b0c72af1bd16d295e8b3a196db7bbcffe74193fd98dee3444f1c7e623e"),
    ("oscillator", {}, "7e7783a10e670842dc6962bc0a058ef07437c14ef5053ede8dc780f0e9f75406"),
    ("second_class_toy", {},
     "599d7bc43cd6f9cbe0c2696a735efa4abab3b0b7306a7620d511c0d466b18904"),
    ("maxwell_lattice", {"N": "1"},
     "8eca977d9ad70473e1d155574dfc5e19f3d33064d56c8a4b53309095f8674a3a"),
    ("maxwell_lattice", {"N": "2"},
     "b2321b209153b8e877746b9421501d485f1a170d90263b6557c458d457a7e91a"),
    ("maxwell_lattice", {"N": "3"},
     "658cbbfb02122776f72f72238b4d0e3056858389a3d1e993462064b2f0071a51"),
    ("ym_mechanics", {"with_scalar": "true"},
     "8fc18479a4d5f3f86c494a0fb3925bf1e3b172d098382bbd3d9ca237b173a561"),
    ("ym_mechanics", {"with_scalar": "false"},
     "3dc1fae586fb2f355c90753e411419ff20f48aa4d238288b3f1cca57992dacf2"),
]


@pytest.mark.parametrize("name,params,sha256", BUILTIN_RENDERS)
def test_builtin_definition_is_pinned(name, params, sha256):
    text = render_model(builtin_model(name, params))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestRoundTrip:
    @pytest.mark.parametrize("name,params", [
        ("toy_gauge", {}),
        ("oscillator", {}),
        ("second_class_toy", {}),
        ("maxwell_lattice", {"N": 2}),
        ("ym_mechanics", {}),
    ])
    def test_render_reparse_identical(self, name, params):
        m = builtin_model(name, params)
        again = parse_model(render_model(m))
        assert again == m

    def test_non_default_options(self):
        m = builtin_model("toy_gauge").with_options(
            max_generations=3, sample_count=7, numeric_tolerance=2.5e-7, seed=99)
        assert all(getattr(m.options, key) != default
                   for key, default in Options._field_defaults.items())
        again = parse_model(render_model(m))
        assert again == m

    def test_shipped_model_files(self):
        for path in sorted(MODELS_DIR.glob("*.model")):
            m = parse_model(path.read_text(), name=path.stem)
            assert parse_model(render_model(m)) == m


class TestBuiltins:
    def test_toy_gauge_shape(self):
        m = builtin_model("toy_gauge")
        assert m.dimension == 2 and len(m.generators) == 1

    def test_maxwell_one_site_counts(self):
        m = builtin_model("maxwell_lattice", {"N": 1})
        assert m.dimension == 4

    def test_maxwell_two_site_counts(self):
        m = builtin_model("maxwell_lattice", {"N": 2})
        assert m.dimension == 32 and len(m.generators) == 8

    def test_ym_counts(self):
        pure = builtin_model("ym_mechanics", {"with_scalar": "false"})
        assert pure.dimension == 12 and len(pure.generators) == 3
        full = builtin_model("ym_mechanics", {"with_scalar": "true"})
        assert full.dimension == 16

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            builtin_model("gravity")

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            builtin_model("maxwell_lattice", {"N": 0})
        with pytest.raises(BadParameter):
            builtin_model("maxwell_lattice", {"N": "three"})
        with pytest.raises(BadParameter):
            builtin_model("ym_mechanics", {"group": "su3"})
        with pytest.raises(BadParameter):
            builtin_model("toy_gauge", {"N": 2})


class TestLatticeGaugeInvariance:
    """Substituting the declared transformation into the grid Lagrangian
    must leave it exactly unchanged (one formal parameter at a time)."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_lagrangian_invariant(self, n):
        m = builtin_model("maxwell_lattice", {"N": n})
        eps = coordinate("eps")
        for gen in m.generators:
            shift = {}
            for comp in gen.components:
                bump = comp.coefficient * Expression.var(eps.jet(comp.order))
                q = comp.coordinate
                shift[q] = shift.get(q, Expression.var(q)) + bump
                v = q.jet(1)
                # constant coefficients on the grid: d/dt acts on eps only
                vbump = comp.coefficient * Expression.var(eps.jet(comp.order + 1))
                shift[v] = shift.get(v, Expression.var(v)) + vbump
            transformed = m.lagrangian.subs(shift)
            assert transformed == m.lagrangian
