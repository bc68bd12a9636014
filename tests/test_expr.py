import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialgauge.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    EvalDomainError,
    Neg,
    Num,
    ParseError,
    Program,
    Var,
    divisors,
    evaluate,
    format_ast,
    parse,
    to_source,
)


def test_parse_literal_zero():
    assert parse("0", 2) == Num(0.0)


def test_parse_structure():
    tree = parse("x1*x2 + sin(x1)", 2)
    assert tree == BinOp(
        "+", BinOp("*", Var(1), Var(2)), Call("sin", (Var(1),))
    )


def test_scientific_and_decimal_literals():
    assert evaluate(parse("1.5e-2", 1), (0.0,)) == 1.5e-2
    assert evaluate(parse(".5 + 5.", 1), (0.0,)) == 5.5
    assert evaluate(parse("2E3", 1), (0.0,)) == 2000.0


def test_variable_index_exceeds_n():
    with pytest.raises(ParseError, match="x3 exceeds"):
        parse("x3", 2)
    with pytest.raises(ParseError, match="at least 1"):
        parse("x0", 2)


def test_unknown_identifier_and_function():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("y + 1", 2)
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(x1)", 2)
    with pytest.raises(ParseError, match="must be called"):
        parse("sin + 1", 2)


def test_wrong_arity():
    with pytest.raises(ParseError, match="takes 1 argument, got 2"):
        parse("sin(x1, x2)", 2)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse("sin(", 2)
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse("x1 + * 2", 2)
    assert info.value.position == 5
    with pytest.raises(ParseError, match="trailing"):
        parse("x1 x2", 2)
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x1 @ 2", 2)


def test_eval_arithmetic():
    assert evaluate(parse("x1 + 2*x2", 2), (1.0, 2.0)) == 5.0
    assert evaluate(parse("sin(0)", 1), (0.0,)) == 0.0
    assert evaluate(parse("exp(1)", 1), (0.0,)) == 2.718281828459045


def test_precedence():
    # ^ above unary minus, right-associative
    assert evaluate(parse("-x1^2", 1), (3.0,)) == -9.0
    assert evaluate(parse("2^3^2", 1), (0.0,)) == 512.0
    assert evaluate(parse("2^-2", 1), (0.0,)) == 0.25
    # product above sum
    assert evaluate(parse("1.5+2.5*3.5", 1), (0.0,)) == 1.5 + (2.5 * 3.5)
    assert evaluate(parse("8/2/2", 1), (0.0,)) == 2.0
    assert evaluate(parse("8-2-2", 1), (0.0,)) == 4.0


def test_precedence_property_random_literals():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = (float(v) for v in rng.uniform(-5, 5, size=3))
        grouped = evaluate(parse(f"{a!r}+({b!r}*{c!r})", 1), (0.0,))
        flat = evaluate(parse(f"{a!r}+{b!r}*{c!r}", 1), (0.0,))
        assert grouped == flat


def test_domain_errors():
    with pytest.raises(EvalDomainError, match="division by zero"):
        evaluate(parse("1/x1", 1), (0.0,))
    with pytest.raises(EvalDomainError, match="log of non-positive"):
        evaluate(parse("log(x1)", 1), (0.0,))
    with pytest.raises(EvalDomainError, match="log of non-positive"):
        evaluate(parse("log(x1)", 1), (-2.0,))
    with pytest.raises(EvalDomainError, match="sqrt of negative"):
        evaluate(parse("sqrt(x1)", 1), (-4.0,))
    with pytest.raises(EvalDomainError, match="invalid power"):
        evaluate(parse("x1^x2", 2), (-2.0, 0.5))
    with pytest.raises(EvalDomainError, match="invalid power"):
        evaluate(parse("x1^(-1)", 1), (0.0,))
    with pytest.raises(EvalDomainError):
        evaluate(parse("exp(x1)", 1), (1000.0,))


def test_eval_is_pure():
    tree = parse("sin(x1)*exp(x2) + x1^3/7", 2)
    point = (0.731, -1.625)
    first = evaluate(tree, point)
    assert all(evaluate(tree, point) == first for _ in range(5))


def _random_tree(rng, n, depth):
    if depth == 0 or rng.uniform() < 0.3:
        if rng.uniform() < 0.5:
            return Num(float(round(rng.uniform(0, 4), 3)))
        return Var(int(rng.integers(1, n + 1)))
    kind = rng.integers(0, 3)
    if kind == 0:
        return Neg(_random_tree(rng, n, depth - 1))
    if kind == 1:
        func = ("sin", "cos", "exp", "atan", "abs")[rng.integers(0, 5)]
        return Call(func, (_random_tree(rng, n, depth - 1),))
    op = "+-*/^"[rng.integers(0, 5)]
    return BinOp(op, _random_tree(rng, n, depth - 1),
                 _random_tree(rng, n, depth - 1))


def test_roundtrip_through_source():
    # parse(to_source(tree)) reproduces the tree, hence evaluates identically
    rng = np.random.default_rng(42)
    trees = [_random_tree(rng, 3, 4) for _ in range(60)]
    points = rng.uniform(0.1, 2.0, size=(100, 3))
    for tree in trees:
        reparsed = parse(to_source(tree), 3)
        assert reparsed == tree
        for point in points[:5]:
            try:
                expected = evaluate(tree, point)
            except EvalDomainError:
                continue
            assert evaluate(reparsed, point) == expected


def test_roundtrip_spec_example_on_random_points():
    tree = parse("x1*x2 + sin(x1) - x2^2/3", 2)
    reparsed = parse(to_source(tree), 2)
    rng = np.random.default_rng(1)
    for point in rng.uniform(-3, 3, size=(100, 2)):
        assert evaluate(reparsed, point) == evaluate(tree, point)


def test_format_ast():
    assert format_ast(parse("x1*x2 + sin(x1)", 2)) == \
        "Add(Mul(Var(x1), Var(x2)), Call(sin, Var(x1)))"
    assert format_ast(parse("-x1^2", 1)) == "Neg(Pow(Var(x1), Num(2.0)))"


def test_divisors_innermost_first():
    tree = parse("-sin(x1 / (x2 - 1)) + 2 / (1 / x1 + x2)", 2)
    assert [to_source(d) for d in divisors(tree)] == \
        ["x2 - 1.0", "x1", "1.0 / x1 + x2"]
    assert list(divisors(parse("x1 * x2^2", 2))) == []


def test_divisors_name_tan_poles():
    tree = parse("x1 / tan(2 * x2) + tan(x1 / x2)", 2)
    assert [to_source(d) for d in divisors(tree)] == \
        ["cos(2.0 * x2)", "tan(2.0 * x2)", "x2", "cos(x1 / x2)"]


def test_trees_are_immutable_and_hashable():
    tree = parse("x1 + 1", 1)
    with pytest.raises(AttributeError):
        tree.op = "-"
    assert hash(tree) == hash(parse("x1 + 1", 1))


def test_bad_dimension():
    with pytest.raises(ValueError, match="at least 1"):
        parse("x1", 0)


# ---------------------------------------------------------------------------
# Program: compiled batch evaluation
# ---------------------------------------------------------------------------

# values that make domain conditions likely (zeros, negatives, the poles of
# tan, overflowing exponents) and products that overflow to inf and NaN
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 3.0, math.pi / 2, 710.0,
            1e200, -1e300)
_values = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(-4.0, 4.0, allow_nan=False))
_leaves = st.one_of(st.builds(Num, _values),
                    st.builds(Var, st.integers(1, 2)))
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda func, arg: Call(func, (arg,)),
                  st.sampled_from(sorted(FUNCTIONS)), sub)),
    max_leaves=8)
_points = st.integers(1, 4).flatmap(
    lambda m: st.lists(st.tuples(_values, _values), min_size=m, max_size=m))


def _scalar_rows(trees, points):
    """Row-then-tree ``evaluate``: the values, or the first exception."""
    try:
        return [[evaluate(tree, point) for tree in trees]
                for point in points], None
    except Exception as exc:
        return None, exc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_trees, min_size=1, max_size=4), _points)
def test_program_matches_evaluate_bitwise(trees, points):
    program = Program(trees)
    points = np.array(points, dtype=float)
    expected, error = _scalar_rows(trees, points)
    if error is not None:
        with pytest.raises(type(error)) as raised:
            program(points)
        assert str(raised.value) == str(error)
        return
    values = program(points)
    assert values.shape == (len(points), len(trees))
    assert values.tobytes() == np.array(expected, dtype=float).tobytes()
    for r in range(len(points)):  # a row does not depend on its batch
        assert program(points[r:r + 1]).tobytes() == values[r].tobytes()


def test_program_shares_subtrees():
    # x1, x2, x2^2, 1 + x2^2 and the two quotients: the shared denominator
    # is one instruction, and the constant entry none
    program = Program([parse("x1/(1 + x2^2)", 2), parse("x2/(1+x2^2)", 2),
                       parse("-(2*3)", 2)])
    assert len(program._code) == 6
    values = program(np.array([[1.0, 2.0], [3.0, 0.0]]))
    np.testing.assert_array_equal(values, [[0.2, 0.4, -6.0], [3.0, 0.0, -6.0]])


def test_program_keeps_signed_zero_constants_apart():
    # Num(0.0) == Num(-0.0), so hash-consing must key constants by bits
    program = Program([BinOp("*", Var(1), Num(0.0)),
                       BinOp("*", Var(1), Num(-0.0))])
    values = program(np.array([[1.0]]))
    assert values.tobytes() == np.array([[0.0, -0.0]]).tobytes()


def test_program_domain_error_names_first_row_and_tree():
    program = Program([parse("log(x2)", 2), parse("1/(x1 - 0.5)", 2)])
    points = np.array([[0.1, 1.0], [0.5, 2.0], [0.3, -1.0]])
    with pytest.raises(EvalDomainError, match="division by zero"):
        program(points)
    with pytest.raises(EvalDomainError, match="log of non-positive value -1.0"):
        program(points[[0, 2, 1]])
    np.testing.assert_array_equal(program(points[[0]]),
                                  [[0.0, 1.0 / (0.1 - 0.5)]])


def test_program_constant_domain_error_raises_at_every_point():
    program = Program([parse("x1", 1), parse("log(0)", 1)])
    with pytest.raises(EvalDomainError, match="log of non-positive"):
        program(np.array([[1.0]]))
    assert program(np.zeros((0, 1))).shape == (0, 2)


def test_program_overflow_matches_python_floats():
    # + - * / overflow to inf and NaN silently, as Python floats do
    trees = [parse(src, 2) for src in
             ("x1*x1", "x1*x1 - x1*x1", "-x1*x1/x2", "abs(-x1*x1)", "x2/x1")]
    points = np.array([[1e200, 1e-300], [-1e300, 3.0]])
    expected = [[evaluate(tree, point) for tree in trees] for point in points]
    assert Program(trees)(points).tobytes() == np.array(expected).tobytes()
