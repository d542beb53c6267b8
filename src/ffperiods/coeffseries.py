"""Truncated series in one formal variable with TowerElem coefficients.

Used for polynomials in the CM variable y, for expansions in w = y - psi(y),
for the (z - zeta)-expansions of periods, and for the z-series of local
shtuka matrices.  A CoeffSeries is a TruncSeries whose coefficient ring is
one LocalFieldTower: the series algebra (precision rules, products, Newton
inverse, powers, composition) is series.py's.  This module adds the
tower-flavoured names and the two algorithms that only the tower side uses,
Horner evaluation at any series point and series reversion.

Coefficients with no visible term are not stored: a missing coefficient
reads as zero at the working precision of the surrounding computation, not
as an exact zero.  Every consumer of a *leading* coefficient therefore
demands a visible term and raises otherwise; equality checks mean equality
within precision throughout.
"""

from .series import TruncSeries


class CoeffSeries(TruncSeries):
    __slots__ = ()

    @property
    def tower(self):
        return self.field

    @classmethod
    def variable(cls, tower, prec=None):
        return cls(tower, {1: 1}, prec)

    @classmethod
    def constant(cls, tower, c, prec=None):
        return cls(tower, {0: c}, prec)

    pow = TruncSeries.pow_int  # TowerElem's name, with the truncation prec

    def is_zero_within_precision(self):
        return not self.terms

    def substitute(self, inner, prec):
        """Replace the variable by `inner` (ord >= 1), truncating to prec."""
        return self.compose(inner.truncate(prec))


def poly_at_series(poly, point, prec, tower):
    """Horner evaluation of a polynomial-with-coefficients at any series
    point (compose only accepts ord >= 1 inners)."""
    if poly.terms and max(poly.terms) == 0 and poly.prec is None:
        return CoeffSeries(tower, {0: poly.terms[0]})
    acc = CoeffSeries.zero(tower, prec)
    for deg in range(max(poly.terms, default=0), -1, -1):
        acc = (acc * point).truncate(prec)
        c = poly.terms.get(deg)
        if c is not None:
            acc = acc + CoeffSeries.constant(tower, c, prec)
    return acc


def reversion(g, prec, tower):
    """Compositional inverse: given g with g(0) = 0 and unit g_1 coefficient,
    return w(u) = sum b_n u^n with g(w(u)) = u + O(u^prec).

    One pass (Brent and Kung 1978): [u^n] g(w) = g_1 b_n + sum_{r>=2} g_r
    [u^n] w^r, and [u^n] w^r = sum_i b_i [u^(n-i)] w^(r-1) needs only b_i
    with i < n; each b_n follows once, and one substitution checks the result.
    """
    g1 = g.terms.get(1)
    if g1 is None:
        raise ValueError("reversion needs an invertible linear coefficient")
    g1_inv = tower.lift_from(g1.inv())
    g_hi = {r: c for r, c in g.terms.items() if r >= 2}
    b = {1: g1_inv}
    powers = {1: b}  # r -> {n: [u^n] w^r}
    for n in range(2, prec):
        for r in range(2, min(n, max(g_hi, default=1)) + 1):
            below = powers[r - 1]
            powers.setdefault(r, {})[n] = sum(
                (b[i] * below[n - i] for i in range(1, n - r + 2)), tower.zero())
        b[n] = -sum((c * powers[r][n] for r, c in g_hi.items() if r <= n), tower.zero()) * g1_inv
    w = CoeffSeries(tower, b, prec)
    if not (g.substitute(w, prec) - CoeffSeries.variable(tower, prec)).is_zero_within_precision():
        raise ValueError("series reversion did not converge")
    return w
