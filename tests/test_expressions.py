import mpmath
import numpy as np
import pytest

from plapext.expressions import ExpressionError, compile_expression


def test_arithmetic_and_precedence():
    f = compile_expression("1 + 2*t ^ 2")
    assert f(np.array([3.0]))[0] == 19.0
    # ^ binds tighter than unary minus on the base side
    g = compile_expression("-t^2")
    assert g(np.array([2.0]))[0] == -4.0


def test_right_associative_power():
    f = compile_expression("2^3^2")   # 2^(3^2) = 512, not 64
    assert f(np.array([0.0]))[0] == 512.0


def test_functions_and_variable_name():
    f = compile_expression("exp(-r) + sqrt(r)", var="r")
    x = np.array([0.0, 1.0, 4.0])
    assert np.allclose(f(x), np.exp(-x) + np.sqrt(x))


def test_vectorized_constant_broadcast():
    f = compile_expression("3.5")
    out = f(np.linspace(0, 1, 7))
    assert out.shape == (7,) and np.all(out == 3.5)
    d = f.derivative(np.linspace(0, 1, 7))
    assert d.shape == (7,) and np.all(d == 0.0)


def test_scientific_notation():
    f = compile_expression("1e-3 * t")
    assert f(np.array([2.0]))[0] == pytest.approx(2e-3)


@pytest.mark.parametrize("bad", ["t +", "2 *", "foo(t)", "(t", "t $ 2"])
def test_syntax_errors(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("s + 1", var="t")


# every operator and function of the grammar, with its mpmath twin; the
# points stay away from the derivatives' zeros, where rel means nothing
DERIVATIVE_CASES = [
    ("1 + 2*t", lambda x: 1 + 2 * x),
    ("3 - t/4", lambda x: 3 - x / 4),
    ("t*(2 + t)/(1 + t^2)", lambda x: x * (2 + x) / (1 + x ** 2)),
    ("t^2.5", lambda x: x ** mpmath.mpf(2.5)),
    ("t^t", lambda x: x ** x),
    ("2^t", lambda x: 2 ** x),
    ("t^(1 + t/2)", lambda x: x ** (1 + x / 2)),
    ("-t^3", lambda x: -x ** 3),
    ("2 - -t/3", lambda x: 2 + x / 3),
    ("sin(t)", mpmath.sin),
    ("cos(t/4)", lambda x: mpmath.cos(x / 4)),
    ("exp(-(t-1)^2)", lambda x: mpmath.exp(-(x - 1) ** 2)),
    ("log(1 + t)", lambda x: mpmath.log(1 + x)),
    ("sqrt(t)", mpmath.sqrt),
    ("abs(t - 1.2)", lambda x: abs(x - mpmath.mpf(1.2))),
]


@pytest.mark.parametrize("text, oracle", DERIVATIVE_CASES,
                         ids=[c[0] for c in DERIVATIVE_CASES])
def test_derivative_is_exact(text, oracle):
    t = np.array([0.3, 0.7, 1.1, 1.3, 2.2, 3.4])
    d = compile_expression(text).derivative(t)
    assert d.shape == t.shape
    with mpmath.workdps(30):
        ref = np.array([mpmath.diff(oracle, mpmath.mpf(x)) for x in t],
                       dtype=float)
    assert d == pytest.approx(ref, rel=1e-13)
