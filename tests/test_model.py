"""Model files, validation, and the builtin catalog."""

import io
from pathlib import Path

import pytest

from gaugeflow import (
    Expression,
    builtin_model,
    coordinate,
    parse_model,
    render_model,
)
from gaugeflow.cli import main
from gaugeflow.errors import (
    BadParameter,
    DuplicateCoordinate,
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

    def test_acceleration_rejected(self):
        with pytest.raises(NonPolynomialLagrangian):
            parse_model("[vars]\nx\n[lagrangian]\nx''\n")

    def test_rational_lagrangian_rejected(self):
        with pytest.raises(NonPolynomialLagrangian):
            parse_model("[vars]\nx\ny\n[lagrangian]\nxdot^2/y\n")

    def test_duplicate_coordinate(self):
        with pytest.raises(DuplicateCoordinate):
            parse_model("[vars]\nx\nx\n[lagrangian]\nxdot^2\n")

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

    def test_syntax_error_has_line(self):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model("[vars]\nx\n[wrong]\n")
        assert err.value.line == 3


BASE = "[vars]\nx\ny\n[lagrangian]\n(x' - y)^2/2\n"  # lines 1-5
GEN = BASE + "[generators]\ngen e\n"                    # components from line 8

# (model text, error class, line number in the message or None)
HOSTILE = [
    pytest.param(BASE + "[options]\nmax_generations = 0\n", ModelSyntaxError, None,
                 id="zero-generations"),
    pytest.param(BASE + "[options]\nsample_count = 0\n", ModelSyntaxError, None,
                 id="zero-samples"),
    pytest.param(GEN + "x : k=0 : 1\ngen e\ny : k=1 : 1\n", MalformedGenerator, None,
                 id="repeated-parameter"),
    pytest.param(GEN, MalformedGenerator, None, id="empty-generator"),
    pytest.param(GEN + "x : k=4 : 1\n", MalformedGenerator, None, id="order-past-cap"),
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
]


class TestHostileModels:
    @pytest.mark.parametrize("source,error,line", HOSTILE)
    def test_typed_error(self, source, error, line):
        with pytest.raises(error) as err:
            parse_model(source)
        assert type(err.value) is error
        if line is None:
            assert "(line" not in str(err.value)
        else:
            assert f"(line {line})" in str(err.value)

    @pytest.mark.parametrize("source,error,line", HOSTILE)
    def test_cli_usage_error(self, source, error, line, tmp_path, capsys):
        path = tmp_path / "hostile.model"
        path.write_text(source)
        assert main(["analyze", str(path)], out=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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
