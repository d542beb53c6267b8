from fractions import Fraction

import pytest
import sympy

from ffperiods.ratfunc import PoleOrZeroError, QPoly, RatFunc


def logderiv_value(f, x0):
    """Test-side reference: the exact value of f'(x0)/f(x0) for a RatFunc f;
    errors if f has a zero or pole at x0 (there the logarithmic derivative
    has a pole)."""
    x0 = Fraction(x0)
    if f.den.evaluate(x0) == 0:
        raise PoleOrZeroError("pole of f at x = %s" % x0)
    v = f.evaluate(x0)
    if v == 0:
        raise PoleOrZeroError("zero of f at x = %s" % x0)
    return f.derivative().evaluate(x0) / v


def test_normalization_coprime_monic():
    # (x^2 - 1)/(2x - 2) normalizes to (x+1)/2 with monic denominator
    f = RatFunc(QPoly([-1, 0, 1]), QPoly([-2, 2]))
    assert f.den == QPoly([1])
    assert f.num == QPoly([Fraction(1, 2), Fraction(1, 2)])


def test_normalization_idempotent():
    f = RatFunc(QPoly([0, 2, 4]), QPoly([2, 6]))
    g = RatFunc(f.num, f.den)
    assert f == g


def test_logderiv_against_sympy_oracle():
    # oracle: symbolic differentiation of 1/(1-2x) at x0=1
    x = sympy.symbols("x")
    expr = 1 / (1 - 2 * x)
    oracle = sympy.Rational(sympy.simplify(sympy.diff(expr, x) / expr).subs(x, 1))
    f = RatFunc(QPoly([1]), QPoly([1, -2]))
    assert logderiv_value(f, 1) == Fraction(oracle.p, oracle.q)
    assert logderiv_value(f, 1) == Fraction(-2)


def test_logderiv_constant_and_x():
    assert logderiv_value(RatFunc(QPoly([7])), 5) == 0
    assert logderiv_value(RatFunc(QPoly([0, 1])), 1) == 1


def test_logderiv_pole_errors():
    f = RatFunc(QPoly([1]), QPoly([-1, 1]))  # 1/(x-1)
    with pytest.raises(PoleOrZeroError):
        logderiv_value(f, 1)
    g = RatFunc(QPoly([0, 1]))
    with pytest.raises(PoleOrZeroError):
        logderiv_value(g, 0)


def test_evaluate_exact():
    f = RatFunc(QPoly([1, 1]), QPoly([2]))  # (1+x)/2
    assert f.evaluate(Fraction(1, 3)) == Fraction(2, 3)


def test_qpoly_repr_and_class():
    assert repr(QPoly([Fraction(-1, 2), 0, 3, -1])) == "-1*x^3 + 3*x^2 + -1/2"
    assert repr(QPoly([0])) == "0"
    assert repr(QPoly([1, 1])) == "x + 1"
    # arithmetic on QPoly stays in QPoly, so reprs keep the variable x
    f = QPoly([1, 1])
    for g in (f + f, f - f, f * f, f.scale(2), f.derivative(), f.divmod(f)[0], f % f, f.gcd(f)):
        assert type(g) is QPoly
