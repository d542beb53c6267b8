"""Truncated series in one formal variable with TowerElem coefficients.

Used for polynomials in the CM variable y, for expansions in w = y - psi(y),
for the (z - zeta)-expansions of periods, and for the z-series of local
shtuka matrices.  The variable is formal; all coefficients live in one
tower (lifted on construction).  `prec = None` marks an exact polynomial.

Coefficients with no visible term are not stored: a missing coefficient
reads as zero at the working precision of the surrounding computation, not
as an exact zero.  Every consumer of a *leading* coefficient therefore
demands a visible term and raises otherwise; equality checks mean equality
within precision throughout.
"""


class CoeffSeries:
    __slots__ = ("tower", "terms", "prec")

    def __init__(self, tower, terms, prec=None):
        t = {}
        for e, c in terms.items():
            c = tower.lift_from(c)
            if prec is not None and e >= prec:
                continue
            if c.series.terms or c.series.prec is not None:
                # keep zero-to-precision coefficients only if they carry a bound;
                # exact zeros are dropped
                if c.series.terms:
                    t[e] = c
        self.tower = tower
        self.terms = t
        self.prec = prec

    @classmethod
    def zero(cls, tower, prec=None):
        return cls(tower, {}, prec)

    @classmethod
    def one(cls, tower, prec=None):
        return cls(tower, {0: tower.one()}, prec)

    @classmethod
    def variable(cls, tower, prec=None):
        return cls(tower, {1: tower.one()}, prec)

    @classmethod
    def constant(cls, tower, c, prec=None):
        return cls(tower, {0: c}, prec)

    def is_zero_within_precision(self):
        return all(c.is_zero_within_precision() for c in self.terms.values())

    def coeff(self, e):
        if self.prec is not None and e >= self.prec:
            raise ValueError("coefficient of degree %d beyond O(%d)" % (e, self.prec))
        return self.terms.get(e, self.tower.zero())

    def degree_bound(self):
        return max(self.terms) if self.terms else 0

    def ord(self):
        nz = [e for e, c in sorted(self.terms.items()) if c.series.terms]
        if nz:
            return nz[0]
        raise ValueError("order of a series with no visible coefficient")

    def _common_prec(self, other):
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def map_to(self, tower):
        return CoeffSeries(tower, {e: tower.lift_from(c) for e, c in self.terms.items()},
                           self.prec)

    def __add__(self, other):
        tower = self.tower if _deeper(self.tower, other.tower) else other.tower
        t = {e: tower.lift_from(c) for e, c in self.terms.items()}
        for e, c in other.terms.items():
            c = tower.lift_from(c)
            t[e] = t[e] + c if e in t else c
        return CoeffSeries(tower, t, self._common_prec(other))

    def __neg__(self):
        return CoeffSeries(self.tower, {e: -c for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        tower = self.tower if _deeper(self.tower, other.tower) else other.tower
        prec = None
        if self.prec is not None:
            lb = _ord_lb(other)
            prec = None if lb is None else self.prec + lb
        if other.prec is not None:
            lb = _ord_lb(self)
            p2 = None if lb is None else other.prec + lb
            prec = p2 if prec is None else min(prec, p2)
        t = {}
        for e1, c1 in self.terms.items():
            c1 = tower.lift_from(c1)
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                c2 = tower.lift_from(c2)
                prod = c1 * c2
                t[e] = t[e] + prod if e in t else prod
        return CoeffSeries(tower, t, prec)

    def scale(self, c):
        c = self.tower.lift_from(c) if hasattr(c, "tower") else c
        return CoeffSeries(self.tower,
                           {e: x * c for e, x in self.terms.items()}, self.prec)

    def shift(self, k):
        return CoeffSeries(
            self.tower,
            {e + k: c for e, c in self.terms.items()},
            None if self.prec is None else self.prec + k,
        )

    def truncate(self, prec):
        if self.prec is not None and prec > self.prec:
            prec = self.prec
        return CoeffSeries(self.tower,
                           {e: c for e, c in self.terms.items() if e < prec}, prec)

    def pow(self, n, prec=None):
        if n < 0:
            return self.inv(prec).pow(-n, prec)
        out = CoeffSeries.one(self.tower)
        base = self
        while n:
            if n & 1:
                out = out * base
                if prec is not None:
                    out = out.truncate(prec)
            n >>= 1
            if n:
                base = base * base
                if prec is not None:
                    base = base.truncate(prec)
        return out

    def inv(self, prec):
        """Inverse of a series with unit constant-ish leading term at order 0
        is not required in general; only ord >= 0 with invertible lowest
        coefficient is supported."""
        m = self.ord()
        c0 = self.terms[m]
        c0_inv = c0.inv()
        shifted = self.shift(-m)
        u = CoeffSeries.one(self.tower, prec) - shifted.scale(c0_inv).truncate(prec)
        acc = CoeffSeries.one(self.tower, prec)
        term = CoeffSeries.one(self.tower, prec)
        for _ in range(prec + 1):
            term = (term * u).truncate(prec)
            if not term.terms:
                break
            acc = acc + term
        return acc.scale(c0_inv).shift(-m)

    def substitute(self, inner, prec):
        """Replace the variable by `inner` (ord >= 1), truncating to prec."""
        if inner.terms and inner.ord() < 1:
            raise ValueError("substitution needs ord(inner) >= 1")
        out = CoeffSeries.zero(self.tower, prec)
        power, at = CoeffSeries.one(inner.tower), 0  # inner^at, from the previous term
        for e in sorted(self.terms):
            if e < 0:
                raise ValueError("substitute expects nonnegative exponents")
            if e > at:
                step = inner.truncate(prec) if e - at == 1 else inner.pow(e - at, prec)
                power = step if at == 0 else (power * step).truncate(prec)
                at = e
            out = out + power.scale(self.terms[e]).truncate(prec)
        return out.truncate(prec)

    def evaluate(self, x):
        """Evaluate at a TowerElem by Horner."""
        tower = x.tower
        acc = tower.zero()
        for e in range(self.degree_bound(), -1, -1):
            acc = acc * x
            c = self.terms.get(e)
            if c is not None:
                acc = acc + tower.lift_from(c)
        return acc

    def coeff_pow_map(self, fn):
        """Apply fn to every coefficient (e.g. a Frobenius power)."""
        return CoeffSeries(self.tower, {e: fn(c) for e, c in self.terms.items()}, self.prec)

    def __repr__(self):
        items = ", ".join("%d: %r" % (e, c) for e, c in sorted(self.terms.items()))
        tail = "" if self.prec is None else " + O(var^%d)" % self.prec
        return "CoeffSeries{%s}%s" % (items, tail)


def _deeper(t1, t2):
    d1 = len(t1.depth_levels())
    d2 = len(t2.depth_levels())
    return d1 >= d2


def _ord_lb(cs):
    nz = [e for e, c in cs.terms.items() if c.series.terms]
    if nz:
        return min(nz)
    return cs.prec


def poly_at_series(poly, point, prec, tower):
    """Horner evaluation of a polynomial-with-coefficients at any series
    point (the substitute method only accepts ord >= 1 inners)."""
    if poly.terms and max(poly.terms) == 0 and poly.prec is None:
        return CoeffSeries(tower, {0: poly.terms[0]})
    acc = CoeffSeries.zero(tower, prec)
    for deg in range(poly.degree_bound(), -1, -1):
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
    if g1 is None or not g1.series.terms:
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
