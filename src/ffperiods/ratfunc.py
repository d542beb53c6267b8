"""Univariate rational functions over Q, kept in normalized form.

Used for the local zeta operators Z_v(a, s) viewed as rational functions of
x = q_v^(-s) and for the global zeta functions in u = q^(-s).  Coefficients
are exact Fractions; normalization makes numerator and denominator coprime
with a monic denominator.  The polynomials are `fields.PolyFq` over `QQ`.
"""

from fractions import Fraction
from types import SimpleNamespace

from .fields import PolyFq

# the rationals as a coefficient field of PolyFq
QQ = SimpleNamespace(elem=Fraction, zero=Fraction(0), one=Fraction(1))


class QPoly(PolyFq):
    """Polynomial over Q in x, dense coefficient tuple (low degree first)."""

    __slots__ = ()
    var = "x"

    def __init__(self, coeffs):
        super().__init__(QQ, coeffs)


class PoleOrZeroError(ArithmeticError):
    pass


class RatFunc:
    """num/den over Q; normalized: coprime, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, QPoly):
            num = QPoly(num if isinstance(num, (list, tuple)) else [num])
        if den is None:
            den = QPoly([1])
        elif not isinstance(den, QPoly):
            den = QPoly(den if isinstance(den, (list, tuple)) else [den])
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        if num.is_zero():
            den = QPoly([1])
        else:
            lead = den.coeffs[-1]
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num = num
        self.den = den

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def scale(self, c):
        return RatFunc(self.num.scale(c), self.den)

    def derivative(self):
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def evaluate(self, x0):
        x0 = Fraction(x0)
        d = self.den.evaluate(x0)
        if d == 0:
            raise PoleOrZeroError("pole at x = %s" % x0)
        return self.num.evaluate(x0) / d

    def has_pole_at(self, x0):
        return self.den.evaluate(x0) == 0

    def __repr__(self):
        if self.den == QPoly([1]):
            return "(%r)" % self.num
        return "(%r)/(%r)" % (self.num, self.den)
