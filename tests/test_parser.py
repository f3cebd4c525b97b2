"""Formula text syntax: parsing, errors, pretty-print round trips."""

import numpy as np
import pytest

from sclmon import (
    And,
    Atom,
    Conv,
    ConvDual,
    ExponentialKernel,
    FlatKernel,
    GaussianKernel,
    Implies,
    Not,
    Or,
    ParseError,
    parse,
    parse_formula_file,
    pretty_print,
)


class TestParse:
    def test_coverage_operator(self):
        f = parse("<flat[0,24], 0.95> (G >= 70)")
        assert f == Conv(FlatKernel(0.0, 24.0), 0.95, Atom("G", ">=", 70.0))

    def test_globally_sugar(self):
        assert parse("G[0,24] (G >= 70)") == \
            Conv(FlatKernel(0.0, 24.0), 1.0, Atom("G", ">=", 70.0))

    def test_eventually_sugar(self):
        assert parse("F[0,2] (v < 1)") == \
            ConvDual(FlatKernel(0.0, 2.0), 0.0, Atom("v", "<", 1.0))

    def test_dual_operator_with_exponential_kernel(self):
        f = parse("<exp(-1)[0,10], 0.9>* (I >= 2)")
        assert f == ConvDual(ExponentialKernel(-1.0, 0.0, 10.0), 0.9, Atom("I", ">=", 2.0))

    def test_gaussian_kernel(self):
        f = parse("<gauss(0.03, 0.1)[0,24], 0.07> (G >= 180)")
        assert f == Conv(GaussianKernel(0.03, 0.1, 0.0, 24.0), 0.07, Atom("G", ">=", 180.0))

    def test_precedence(self):
        a, b, c = Atom("a", ">", 0.0), Atom("b", ">", 0.0), Atom("c", ">", 0.0)
        assert parse("a > 0 & b > 0 | c > 0") == Or(And(a, b), c)
        assert parse("!a > 0 | b > 0") == Or(Not(a), b)
        assert parse("a > 0 -> b > 0 -> c > 0") == Implies(a, Implies(b, c))

    def test_temporal_prefix_binds_tightest(self):
        a, b = Atom("a", ">", 0.0), Atom("b", ">", 0.0)
        f = parse("G[0,1] a > 0 | b > 0")
        assert f == Or(Conv(FlatKernel(0, 1), 1.0, a), b)

    def test_variable_named_like_temporal_operator(self):
        # 'G' with a comparison is a variable; 'G[' opens a window
        assert parse("G >= 70") == Atom("G", ">=", 70.0)

    def test_whitespace_insensitive(self):
        assert parse("<flat[0,24],0.95>(G>=70)") == parse("  < flat [ 0 , 24 ] , 0.95 >  ( G >= 70 ) ")

    def test_scientific_numbers(self):
        f = parse("v >= -1.5e-2")
        assert f == Atom("v", ">=", -0.015)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("(a >= 1 | ")
        assert "line 1" in str(err.value)

    def test_threshold_out_of_range_is_semantic_error(self):
        with pytest.raises(ParseError, match=r"threshold must be in \[0, 1\]"):
            parse("<flat[0,1], 1.5> true")

    def test_infinite_atom_threshold_is_located(self):
        with pytest.raises(ParseError, match=r"line 1, column 6: atom threshold must be finite"):
            parse("G >= 1e400")
        with pytest.raises(ParseError, match=r"formula file line 2\) line 1"):
            parse_formula_file("G >= 70\nG <= -1e400\n")

    def test_window_order_checked(self):
        with pytest.raises(ParseError, match="start < end"):
            parse("<flat[2,1], 0.5> true")

    def test_reserved_words_not_variables(self):
        with pytest.raises(ParseError, match="reserved"):
            parse("flat >= 1")


class TestPrettyPrint:
    def test_case_study_round_trips(self):
        for text in (
            "<flat[0,24], 0.95> (G >= 70)",
            "G[0,24] (G >= 70)",
            "<exp(-1)[0,10], 0.9>* (I >= 2)",
        ):
            f = parse(text)
            assert parse(pretty_print(f)) == f

    def test_mixed_connectives_are_parenthesized(self):
        f = parse("a > 0 & b > 0 | c > 0")
        assert pretty_print(f) == "(a > 0.0 & b > 0.0) | c > 0.0"

    def test_kernel_parameters_full_precision(self):
        k = ExponentialKernel(1.0 / 3.0, 0.0, 0.1 + 0.2)
        f = Conv(k, 2.0 / 3.0, Atom("v", ">", 0.0))
        assert parse(pretty_print(f)) == f

    def test_round_trip_on_random_asts(self):
        rng = np.random.default_rng(29)
        for _ in range(10_000):
            f = _random_ast(rng, depth=4)
            assert parse(pretty_print(f)) == f


class TestFormulaFile:
    def test_comments_and_blanks(self):
        text = """
# hypoglycemia, hours as time unit
<flat[0,24], 0.95> (G >= 70)

G[0,24] (G <= 180)  # hyperglycemia
"""
        parsed = parse_formula_file(text)
        assert [lineno for lineno, _, _ in parsed] == [3, 5]
        assert parsed[0][1] == "<flat[0,24], 0.95> (G >= 70)"

    def test_error_carries_file_line(self):
        with pytest.raises(ParseError, match="formula file line 2"):
            parse_formula_file("true\n<flat[0,1] 0.5> true\n")


def test_garbage_input_always_raises_parse_error():
    rng = np.random.default_rng(31)
    alphabet = list("abGF<>[](),.|&!->=0123456789 \tflatexpgauss*#;$")
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        text = "".join(rng.choice(alphabet) for _ in range(n))
        try:
            parse(text)
        except ParseError:
            pass  # rejecting with a positioned error is the contract


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.1:
            return parse("true")
        if roll < 0.2:
            return parse("false")
        name = str(rng.choice(["a", "b", "G", "I", "x_1"]))
        op = str(rng.choice([">=", "<=", ">", "<"]))
        return Atom(name, op, float(np.round(rng.uniform(-100, 100), 6)))
    pick = rng.random()
    child = _random_ast(rng, depth - 1)
    if pick < 0.18:
        return Not(child)
    if pick < 0.36:
        return Or(child, _random_ast(rng, depth - 1))
    if pick < 0.52:
        return And(child, _random_ast(rng, depth - 1))
    if pick < 0.66:
        return Implies(child, _random_ast(rng, depth - 1))
    lo = float(np.round(rng.uniform(0, 5), 6))
    hi = lo + float(np.round(rng.uniform(0.1, 10), 6))
    shape = rng.random()
    if shape < 0.4:
        kernel = FlatKernel(lo, hi)
    elif shape < 0.7:
        kernel = ExponentialKernel(float(np.round(rng.uniform(-3, 3), 6)) or 1.0, lo, hi)
    else:
        width = hi - lo
        kernel = GaussianKernel(
            float(np.round(rng.uniform(lo - 0.3 * width, hi + 0.3 * width), 6)),
            float(np.round(rng.uniform(0.2 * width, 1.5 * width), 6)), lo, hi)
    p = float(np.round(rng.uniform(0, 1), 6))
    return (Conv if pick < 0.85 else ConvDual)(kernel, p, child)
