"""The two series algorithms that only series over a LocalFieldTower use:
Horner evaluation at any series point and series reversion.

A series with tower-element coefficients is a plain TruncSeries whose ring
is one LocalFieldTower: polynomials in the CM variable y, expansions in
w = y - psi(y), the (z - zeta)-expansions of periods and the z-series of
local shtuka matrices.  A coefficient with no visible term is not stored: it
reads as zero at the working precision of the surrounding computation, not
as an exact zero, so `not s.terms` means "zero within precision".
"""

from .series import TruncSeries


def poly_at_series(poly, point, prec, tower):
    """Horner evaluation of a polynomial-with-coefficients at any series
    point (compose only accepts ord >= 1 inners)."""
    if poly.terms and max(poly.terms) == 0 and poly.prec is None:
        return TruncSeries(tower, {0: poly.terms[0]})
    acc = TruncSeries.zero(tower, prec)
    for deg in range(max(poly.terms, default=0), -1, -1):
        acc = (acc * point).truncate(prec)
        c = poly.terms.get(deg)
        if c is not None:
            acc = acc + TruncSeries(tower, {0: c}, prec)
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
    w = TruncSeries(tower, b, prec)
    if (g.compose(w) - TruncSeries.monomial(tower, 1, prec=prec)).terms:
        raise ValueError("series reversion did not converge")
    return w
