"""Explicit towers of finite extensions of F_{q_v}((z)).

A tower starts from the Laurent series field F_{q_v}((z)) with the absolute
valuation normalized by v(z) = 1 and grows by two kinds of steps:

* unramified steps, which enlarge the residue field, and
* Eisenstein steps X^m + a_{m-1} X^{m-1} + ... + a_0 (monic, v(a_0) exactly
  one unit of the previous level, v(a_j) > 0 otherwise), which adjoin a new
  uniformizer and multiply the ramification index by m.  A step is stored
  sparsely, as the map {j: a_j} of a_0 and every coefficient that is not an
  exact zero (an inexact zero O(T^k) is kept: it still bounds precision), so
  an extension costs its nonzero coefficients, not its degree m.

Every element is stored as a truncated sparse Laurent series in the *top*
uniformizer with coefficients in the top residue field.  When a tower is
extended by an Eisenstein step, the previous uniformizer is re-expanded in
the new one by Newton's method on the defining equation; the error of the
iterate must grow at every step (it doubles), otherwise the step data was
not Eisenstein and we refuse to continue.  Each level memoizes the
substitutions its lifts make, seeded by the last Newton step, so a lift from
far below costs one new substitution per level.  The root solvers lift a
simple residue root through one Newton loop, `_newton`, under the same rule:
ord F(x) must grow at every step.  All valuations are exact Fractions with
denominator dividing the absolute ramification index.
"""

from fractions import Fraction
from math import gcd

from .fields import FqField, PolyFq, factor_prime_power
from .series import TruncSeries, _powers_of


class TowerError(Exception):
    pass


class NotEisensteinError(TowerError):
    pass


class TowerBoundError(TowerError):
    pass


def degree_str(n):
    try:
        return "%d" % n
    except ValueError:  # longer than sys.get_int_max_str_digits() allows
        return ">= 2^%d" % (n.bit_length() - 1)


class NonConvergenceError(TowerError):
    pass


class UnsupportedKummerError(TowerError):
    pass


class WildTowerError(TowerError):
    """Raised where only tame towers carry the requested Galois structure."""


class LocalFieldTower:
    """One level of a tower; `previous` links to the tower below.  Built with
    a `bound`, a tower refuses to grow past that degree; else it has no cap."""

    def __init__(self, q_v, residue, e_abs, f_abs, previous, step, bound, prec, name,
                 units=2):
        self.q_v = q_v
        self.residue = residue
        self.p = residue.p
        self.e_abs = e_abs
        self.f_abs = f_abs
        self.previous = previous
        # None | ("unramified", f, embed) | ("eisenstein", {j: a_j}, m), the map
        # holding a_0 and every a_j that is not an exact zero, by increasing j
        self.step = step
        self.bound = bound
        self.prec = prec
        self.name = name
        self.units = units  # absolute units of precision an Eisenstein step sizes for
        self._prev_unif_cache = {}  # prec -> TruncSeries
        self._subst_memo = {}  # (series, w, prec) -> _subst(series, w, prec)

    # -- construction --------------------------------------------------------

    @classmethod
    def base(cls, q_v, bound=None, prec=32, units=2):
        p, k = factor_prime_power(q_v)
        return cls(q_v, FqField(p, k), 1, 1, None, None, bound, prec, "z", units)

    @classmethod
    def tame(cls, q_v, f, e, bound=None, units=2):
        """F_{q_v}((z)), the unramified step of degree f, then (e > 1) the
        Kummer step X^e - z, whose root "pi" is the top uniformizer."""
        tower = cls.base(q_v, bound=bound, units=units).extend_unramified(f)
        if e > 1:
            tower = tower.extend_eisenstein({0: -tower.uniformizer()}, name="pi", degree=e)
        return tower

    def degree(self):
        return self.e_abs * self.f_abs

    def _check_bound(self, factor):
        if self.bound is not None and self.degree() * factor > self.bound:
            raise TowerBoundError("tower degree %s exceeds bound %d"
                                  % (degree_str(self.degree() * factor), self.bound))

    def extend_unramified(self, f):
        if f < 1:
            raise ValueError("unramified degree must be >= 1")
        if f == 1:
            return self
        self._check_bound(f)
        new_res = FqField(self.residue.p, self.residue.k * f)
        embed = self.residue.embedding(new_res)
        return LocalFieldTower(
            self.q_v, new_res, self.e_abs, self.f_abs * f, self,
            ("unramified", f, embed), self.bound, self.prec, self.name, self.units,
        )

    def extend_eisenstein(self, coeffs, name=None, degree=None):
        """Adjoin a root of X^m + a_{m-1} X^(m-1) + ... + a_0.

        `coeffs` is the dense list [a_0, ..., a_{m-1}] (m = its length) or a
        map {j: a_j} with the degree m given; absent indices are zero.  The
        root becomes the new uniformizer.  Coefficients are elements of this
        tower; the polynomial must be Eisenstein within precision.
        """
        if isinstance(coeffs, dict):
            if degree is None:
                raise ValueError("a coefficient map needs its degree")
            m, items = degree, sorted(coeffs.items())
        else:
            m, items = len(coeffs), enumerate(coeffs)
        coeffs = {j: self.lift_from(c) for j, c in items}
        if 0 not in coeffs or not all(0 <= j < m for j in coeffs):
            raise ValueError("need the constant coefficient and indices 0 <= j < %d" % m)
        coeffs = {j: c for j, c in coeffs.items()
                  if j == 0 or c.series.terms or c.series.prec is not None}
        a0 = coeffs[0]
        if not a0.series.terms:
            raise NotEisensteinError("constant term not determined within precision")
        if a0.ord() != 1:
            raise NotEisensteinError(
                "constant term has order %d in the current uniformizer, expected 1" % a0.ord()
            )
        for j, c in list(coeffs.items())[1:]:
            lb = c.series.ord_lower_bound()
            if c.series.terms:
                if c.series.ord() <= 0:
                    raise NotEisensteinError("coefficient %d has non-positive valuation" % j)
            elif lb is not None and lb <= 0:
                raise NotEisensteinError("coefficient %d not determined within precision" % j)
        self._check_bound(m)
        # `units` absolute units: the largest valuation the series route reads
        # is v(psi(y)) = 1/e <= 1, so one unit sees every leading term (half a
        # unit fails at e = 1); two is the default elsewhere
        prec = max(self.units * self.e_abs * m + 32, 4 * m + 8)
        tower = LocalFieldTower(
            self.q_v, self.residue, self.e_abs * m, self.f_abs, self,
            ("eisenstein", coeffs, m), self.bound, prec,
            name if name is not None else self.name + "'", self.units,
        )
        # re-expand once, at the working precision: a bad step fails here, and
        # every later lift shares this solve
        tower._prev_uniformizer(prec)
        return tower

    # -- elements -------------------------------------------------------------

    def lift_from(self, x):
        if not isinstance(x, TowerElem):
            raise TypeError("expected a TowerElem, got %r" % (x,))
        return x if x.tower is self else self.lift(x)

    # the coefficient-ring side of a TruncSeries over this tower

    def elem(self, x):
        """An int, or an element of this tower or of one below it."""
        return self.integer(x) if isinstance(x, int) else self.lift_from(x)

    def _packed_tables(self):
        return None  # the packed product is for residue fields only

    def zero(self, prec=None):
        return TowerElem(self, TruncSeries.zero(self.residue, prec))

    def one(self):
        return TowerElem(self, TruncSeries.one(self.residue))

    def uniformizer(self):
        return TowerElem(self, TruncSeries.monomial(self.residue, 1))

    def from_residue(self, c):
        """Constant element from a residue-field value (or int)."""
        c = self.residue.elem(c)
        return TowerElem(self, TruncSeries(self.residue, {0: c}))

    def element(self, terms, prec=None):
        return TowerElem(self, TruncSeries(self.residue, terms, prec))

    def integer(self, n):
        return self.from_residue(self.residue.one.scale_int(n))

    # -- re-expansion ----------------------------------------------------------

    def _prev_uniformizer(self, prec):
        """The previous level's uniformizer as a series in ours, to O(T^prec):
        cached, truncated from a higher-precision entry, or re-expanded."""
        cache = self._prev_unif_cache
        if prec not in cache:
            higher = [p0 for p0 in cache if p0 >= prec]
            cache[prec] = cache[min(higher)].truncate(prec) if higher else self._reexpand(prec)
        return cache[prec]

    def _reexpand(self, prec):
        """Solve F(w) = pi^m + sum_j a_j(w) pi^j = 0 for the previous
        uniformizer w by Newton's method, w <- w - c with c = F(w)/F'(w), from
        the exact w = -pi^m/c_1, c_1 the pi_old coefficient of a_0, so F'(w) =
        c_1 mod pi is a unit.  ord F(w) = ord c = k is the order of w's error:
        it must grow at every step, and doubles.  A step before the last needs
        F'(w)^-1 only mod T^k to make w right mod T^(2k), so it substitutes
        a_j' to that precision and carries w - c, cut at 2k, as exact (as
        `inv` does).  The last step, 2k >= prec, takes F'(w) to T^(prec - k)
        and seeds the lifts' memo with a_j(w - c) = a_j(w) - a_j'(w) c, exact
        mod T^prec.
        """
        assert self.step is not None and self.step[0] == "eisenstein"
        coeffs, m = self.step[1], self.step[2]
        a0 = coeffs[0].series
        if 1 not in a0.terms:
            raise NonConvergenceError("F'(w) is not a unit: a_0 has no pi_old term")
        w, last = TruncSeries.monomial(self.residue, m, -a0.terms[1].inv()), 0
        if len(coeffs) == 1 and a0.prec is None and len(a0.terms) == 1:
            return w  # pure Kummer step X^m - c*pi_old: w is exact
        while True:
            power = _powers_of(w, prec)  # one table of w for F and F'
            vals = {j: _subst(cj.series, w, prec, power) for j, cj in coeffs.items()}
            f = sum((v.shift(j) for j, v in vals.items()), TruncSeries.monomial(self.residue, m))
            if not f.terms:  # w is the root to f's precision
                w = w.truncate(f.prec)
                break
            k = f.ord()
            if k <= last:
                raise NonConvergenceError("re-expansion error stuck at order %d" % k)
            last = k
            done = 2 * k >= prec  # F'(w) pi^j to T^(prec - k) on the last step, else to T^k
            dvals = {j: _subst(cj.series.derivative(), w, prec - k if done else k - min(j, 0),
                               power) for j, cj in coeffs.items()}
            c = f * sum((v.shift(j) for j, v in dvals.items() if j), dvals[0]).inv()
            if done:
                w, vals = (w - c).truncate(prec), {j: v - dvals[j] * c for j, v in vals.items()}
                break
            w = TruncSeries._of(self.residue, (w - c).truncate(2 * k).terms, None)
        if not w.terms:  # no term known (prec <= m): nothing worth a memo entry
            return w
        # seed the lifts' memo: a fresh _subst of a_j stops at w.prec + (low - 1)
        # ord w, low the lowest positive exponent of a_j, and vals[j] already
        # stops where a_j's own prec and the target make it
        for j, cj in coeffs.items():
            s = cj.series
            low = min((e for e in s.terms if e), default=None)
            self._subst_memo[s, w, prec] = (
                vals[j] if low is None else vals[j].truncate(w.prec + (low - 1) * w.ord()))
        return w

    def lift(self, elem, prec=None):
        """Express an element of a lower tower in this tower."""
        if elem.tower is self:
            return elem
        chain = []
        t = self
        while t is not None and t is not elem.tower:
            chain.append(t)
            t = t.previous
        if t is None:
            raise TowerError("element does not live below this tower")
        cur = elem
        for tower in reversed(chain):
            cur = tower._lift_one(cur, prec)
        return cur

    def _lift_one(self, elem, prec=None):
        kind = self.step[0]
        if kind == "unramified":
            embed = self.step[2]
            return TowerElem(self, elem.series.map_coeffs(embed, self.residue))
        m = self.step[2]
        target = self.prec if prec is None else prec
        s = elem.series
        lb = s.ord_lower_bound()
        if lb is not None and lb * m >= target:
            # invisible at this precision; keep the ord bound, skip the work
            return TowerElem(self, TruncSeries.zero(self.residue, min(target, lb * m)))
        w = self._prev_uniformizer(target)
        pos = TruncSeries(self.residue, {e: c for e, c in s.terms.items() if e >= 0},
                          s.prec)
        key = (pos, w, target)
        out = self._subst_memo.get(key)
        if out is None:
            out = self._subst_memo[key] = _subst(pos, w, target)
        negs = {e: c for e, c in s.terms.items() if e < 0}
        if negs:
            # w^-1 to O(T^(target + (k-1) m)) keeps w^-k known to the target
            k = -min(negs)
            w_inv = self._prev_uniformizer(target + (k + 1) * m).inv()
            for e, c in negs.items():
                out = out + w_inv.pow_int(-e).scale(c).truncate(target)
        # out is cut at the target, and at s.prec * m, since ord w = m or w
        # has no term below O(T^m): _subst and compose claim no more
        return TowerElem(self, out)

    def level_uniformizer(self, level):
        """The uniformizer of Eisenstein level `level` (0 = the base
        uniformizer z) expressed in this tower."""
        towers = self.depth_levels()
        eis = [t for t in towers if t.step is None or t.step[0] == "eisenstein"]
        if level < 0 or level >= len(eis):
            raise ValueError("no Eisenstein level %d in this tower" % level)
        return self.lift(eis[level].uniformizer())

    def depth_levels(self):
        out = [self]
        while out[-1].previous is not None:
            out.append(out[-1].previous)
        return out[::-1]

    # -- invariants ------------------------------------------------------------

    def different_valuation(self):
        """v(D) over the base with v(z) = 1: sum over Eisenstein levels of
        v(P'(pi)); unramified steps contribute nothing (the different is
        multiplicative in towers)."""
        total = Fraction(0)
        for t in self.depth_levels():
            if t.step is None or t.step[0] != "eisenstein":
                continue
            coeffs, m = t.step[1], t.step[2]
            pi = t.uniformizer()
            val = t.integer(m) * pi.pow(m - 1)
            for j, cj in coeffs.items():
                if not j or not cj.series.terms:
                    continue
                val = val + t.lift_from(cj).scale_residue_int(j) * pi.pow(j - 1)
            if not val.series.terms:
                raise TowerError(
                    "derivative vanishes within precision: inseparable step or "
                    "precision too low at level %s" % t.name
                )
            total += val.valuation()
        return total

    def tame_shape(self):
        """(f, e, kummer_unit) when the tower is one optional unramified step
        followed by at most one Kummer step X^e - c*z; None otherwise."""
        f = 1
        e = 1
        unit = None
        seen_eis = False
        for t in self.depth_levels():
            if t.step is None:
                continue
            if seen_eis:  # no step may follow the Kummer step
                return None
            if t.step[0] == "unramified":
                f *= t.step[1]
                continue
            seen_eis = True
            coeffs, m = t.step[1], t.step[2]
            if any(c.series.terms for j, c in coeffs.items() if j):
                return None
            a0 = coeffs[0].series
            if a0.prec is not None or set(a0.terms) != {1}:
                return None
            e = m
            unit = -a0.terms[1]
        if (e > 1 and (self.q_v ** f - 1) % e != 0) or e % self.residue.p == 0:
            return None
        return (f, e, unit)


def _subst(series, w, prec, power=None):
    """Substitute w into `series` (nonnegative exponents), truncating to prec;
    `power` is a power table of w cut at prec or above."""
    if not series.terms:
        if series.prec is None:
            return TruncSeries.zero(w.field, prec)
        lb = w.ord() if w.terms else 1
        return TruncSeries.zero(w.field, min(prec, series.prec * max(lb, 1)))
    return series.compose(w, power).truncate(prec)


class TowerElem:
    """An element of (the top level of) a LocalFieldTower."""

    __slots__ = ("tower", "series")

    def __init__(self, tower, series):
        assert series.field is tower.residue
        self.tower = tower
        self.series = series

    def _pair(self, other):
        if not isinstance(other, TowerElem):
            raise TypeError("cannot combine %r with %r" % (self, other))
        if other.tower is self.tower:
            return self, other
        if _is_below(other.tower, self.tower):
            return self, self.tower.lift(other)
        if _is_below(self.tower, other.tower):
            return other.tower.lift(self), other
        raise TowerError("elements live in unrelated towers")

    def __add__(self, other):
        a, b = self._pair(other)
        return TowerElem(a.tower, a.series + b.series)

    def __sub__(self, other):
        a, b = self._pair(other)
        return TowerElem(a.tower, a.series - b.series)

    def __neg__(self):
        return TowerElem(self.tower, -self.series)

    def __mul__(self, other):
        a, b = self._pair(other)
        return TowerElem(a.tower, a.series * b.series)

    def scale_coeff(self, c):
        return TowerElem(self.tower, self.series.scale(c))

    def scale_residue_int(self, n):
        return TowerElem(self.tower, self.series.scale(self.tower.residue.one.scale_int(n)))

    def inv(self, prec=None):
        if prec is None and self.series.prec is None and len(self.series.terms) != 1:
            prec = self.tower.prec  # exact non-monomials invert to working precision
        return TowerElem(self.tower, self.series.inv(prec))

    def pow(self, n):
        return TowerElem(self.tower, self.series.pow_int(n))

    __pow__ = pow

    def frobenius_power(self, n=1):
        """x -> x^(q_v^n), the arithmetic Frobenius over the base."""
        if n < 0:
            raise TowerError("negative Frobenius powers are not supported")
        return self.pow(self.tower.q_v ** n)

    def coeff_frobenius(self, n=1):
        """q_v-power Frobenius on residue coefficients only, exponents fixed.

        A field map of the abstract Laurent series field; whether it respects
        a given tower's defining relations is the caller's business.
        """
        _, k = factor_prime_power(self.tower.q_v)
        return TowerElem(self.tower, self.series.frobenius_coeffs(k * n))

    def is_zero_within_precision(self):
        return not self.series.terms

    is_zero = is_zero_within_precision  # the zero test of the series core

    def ord(self):
        return self.series.ord()

    def valuation(self):
        """Absolute valuation with v(z) = 1, as an exact Fraction."""
        return Fraction(self.series.ord(), self.tower.e_abs)

    def leading_coeff(self):
        return self.series.leading_coeff()

    def truncate(self, prec):
        return TowerElem(self.tower, self.series.truncate(prec))

    def __repr__(self):
        return "TowerElem(%s; %r)" % (self.tower.name, self.series)


def _is_below(lower, upper):
    while upper is not None and upper is not lower:
        upper = upper.previous
    return upper is lower


# ---------------------------------------------------------------------------
# root solvers


def _newton(x, f, step, target, error):
    """Newton's method from an approximate root x of F: x <- (x -
    step(x, F(x))).truncate(target), where f(x) = F(x) and step returns the
    correction F(x)/F'(x), until F(x) has no visible term.  x is a TowerElem
    or a TruncSeries over a tower.  ord F(x) is the order of x's error: it
    must grow at every step, else `error` is raised."""
    last = None
    while True:
        fx = f(x)
        if not (fx.series if isinstance(fx, TowerElem) else fx).terms:
            return x
        if last is not None and fx.ord() <= last:
            raise error
        last = fx.ord()
        x = (x - step(x, fx)).truncate(target)


def newton_root(tower, coeffs, residue_root):
    """Root of P(X) = sum coeffs[j] X^j lifted from a simple residue root, to
    the tower's precision.

    Requires P(x0) = 0 and P'(x0) a unit at the residue level.
    """
    target = tower.prec
    coeffs = [tower.lift_from(c).truncate(target) for c in coeffs]
    dcoeffs = [c.scale_residue_int(j) for j, c in enumerate(coeffs)][1:]

    def ev(cs, x):
        acc = tower.zero()
        for c in reversed(cs):
            acc = acc * x + c
        return acc.truncate(target)

    def step(x, fx):
        dfx = ev(dcoeffs, x)
        inv_target = target if dfx.series.prec is None else min(target, dfx.series.prec)
        return fx * dfx.inv(inv_target)

    x = tower.from_residue(residue_root)
    dfx = ev(dcoeffs, x)
    if not dfx.series.terms or dfx.ord() != 0:
        raise TowerError("residue root is not simple; Newton cannot start")
    return _newton(x, lambda x: ev(coeffs, x), step, target,
                   NonConvergenceError("Newton iteration stalled"))


def unit_nth_root(tower, elem, n):
    """An n-th root of a valuation-zero element, gcd(n, p) = 1.

    Takes the lexicographically smallest residue root, the first root of
    X^n - c (c != 0, so no root is 0), and Newton-lifts it; raises
    UnsupportedKummerError when the residue field has no root.
    """
    if elem.ord() != 0:
        raise ValueError("unit_nth_root needs a valuation-zero element")
    res = tower.residue
    root0 = PolyFq(res, [-elem.leading_coeff()] + [0] * (n - 1) + [1]).first_root()
    if root0 is None:
        raise UnsupportedKummerError(
            "no %d-th root of the leading coefficient in %r" % (n, res)
        )
    coeffs = [-elem] + [tower.zero()] * (n - 1) + [tower.one()]
    return newton_root(tower, coeffs, root0)


def unit_nth_root_with_extension(tower, unit, n):
    """(tower', x) with x^n = unit: the residue field F_Q is extended
    unramified (once, by the minimal degree t) when it carries no n-th root
    of the leading coefficient c.

    F_(Q^t) holds one when c^((Q^t - 1)/gcd(n, Q^t - 1)) = 1, which is read
    in F_Q itself; t never exceeds the order of Q mod n(Q - 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    q, lead = tower.residue.q, unit.leading_coeff()
    t = 1
    while lead ** ((q ** t - 1) // gcd(n, q ** t - 1)) != tower.residue.one:
        t += 1
    if t > 1:
        tower = tower.extend_unramified(t)
        unit = tower.lift_from(unit)
    return tower, unit_nth_root(tower, unit, n)


def solve_kummer(tower, m, a, name=None):
    """Solve x^m = a, extending the tower if needed; returns (tower', root).

    Supported shapes: m = 1; ord(a) a multiple of m (in-field root, after an
    unramified step adjoining mu_m); ord(a) = 1 (Kummer-Eisenstein step
    X^m - a whose root is the new uniformizer).
    """
    if m < 1:
        raise ValueError("m must be positive")
    a = tower.lift_from(a)
    if m == 1:
        return tower, a
    if m % tower.residue.p == 0:
        raise UnsupportedKummerError("m must be coprime to the characteristic")
    f_extra = _mul_order(tower.residue.q, m)  # the degree of F_q(mu_m) over F_q
    if f_extra > 1:
        tower = tower.extend_unramified(f_extra)
        a = tower.lift(a)
    r = a.ord()
    if r % m == 0:
        unit = TowerElem(tower, a.series.shift(-r))
        tower, root_unit = unit_nth_root_with_extension(tower, unit, m)
        return tower, TowerElem(tower, root_unit.series.shift(r // m))
    if r == 1:
        tower2 = tower.extend_eisenstein({0: -a}, name=name, degree=m)
        return tower2, tower2.uniformizer()
    raise UnsupportedKummerError(
        "cannot take an m-th root at order %d (supported: 0 mod m, or 1)" % r
    )


def solve_frobenius_recursion(tower, xi, q_tilde, depth):
    """Adjoin l_0^(qt-1) = -xi and l_n^qt + xi*l_n = l_(n-1) for n <= depth.

    Returns (tower', [l_0..l_depth], xi), all in the final tower; raises TowerError
    where the valuation law v(l_n) = v(xi) qt^(-n) / (qt-1) fails.

    Level n lifts only xi; l_n is its uniformizer.  At the top, l_(depth-1) is
    lifted once, and each older l_j is l_(j+1)^qt + xi l_(j+1): known, as a
    lift is, to the top precision, since xi and l_(j+1) are.
    """
    qt, power = q_tilde, 1
    while power < qt:
        power *= tower.q_v
    if power != qt:
        raise ValueError("q_tilde must be a power of q_v")
    xi = tower.lift_from(xi)
    v_xi = xi.valuation()
    if v_xi <= 0:
        raise ValueError("xi must have positive valuation")
    tower, ell = solve_kummer(tower, qt - 1, -xi)
    if ell.valuation() != v_xi / (qt - 1):
        raise TowerError("l_0 breaks the valuation law v(l_0) = v(xi)/(qt-1)")
    xi = tower.lift(xi)
    for n in range(1, depth + 1):
        below = ell  # l_(n-1), in the level below
        tower = tower.extend_eisenstein({0: -ell, 1: xi}, degree=qt)
        xi = tower.lift(xi)  # the converged re-expansion memoized this substitution
        ell = tower.uniformizer()
        if ell.valuation() != v_xi * Fraction(1, qt ** n * (qt - 1)):
            raise TowerError("l_%d breaks the valuation law v(l_n) = v(xi) qt^-n/(qt-1)" % n)
    ells = [ell]
    if depth:
        ells.append(tower.lift(below))
    while len(ells) <= depth:
        nxt = ells[-1]
        ell = (nxt.pow(qt) + xi * nxt).truncate(tower.prec)
        if ell.series.prec < tower.prec:
            raise TowerError("l_j lost precision in the recursion relation")
        ells.append(ell)
    ells.reverse()
    return tower, ells, xi


def solve_additive_twist(tower, rhs, q_tilde):
    """Solve g - g^qt = rhs to the working precision, extending the residue
    field when the residue equation requires it; returns (tower', g)."""
    qt = q_tilde
    rhs = tower.lift_from(rhs)
    target = tower.prec
    if not rhs.series.terms:
        return tower, tower.zero(rhs.series.prec)
    if rhs.ord() < 0:
        raise ValueError("rhs must be integral")
    if rhs.ord() > 0:
        g0 = tower.residue.zero
    else:
        g0 = _residue_twist_root(tower.residue, rhs.leading_coeff(), qt)
        if g0 is None:
            tower = tower.extend_unramified(tower.residue.p)
            rhs = tower.lift(rhs)
            g0 = _residue_twist_root(tower.residue, rhs.leading_coeff(), qt)
            if g0 is None:
                raise NonConvergenceError("no residue solution of g - g^qt = rhs")
    if rhs.series.prec is not None:
        target = min(target, rhs.series.prec)
    # f(g) = g - g^qt - rhs satisfies f(g - d) = f(g) - d + d^qt: F' = 1, so the
    # correction is f(g) itself, whose order multiplies by qt every round
    return tower, _newton(
        tower.from_residue(g0).truncate(target),
        lambda g: (g - g.pow(qt) - rhs).truncate(target), lambda g, fg: fg, target,
        NonConvergenceError("additive-twist solve failed to gain valuation"))


def _residue_twist_root(res, lead, qt):
    for cand in res.elements():
        if cand - cand ** qt == lead:
            return cand
    return None


# ---------------------------------------------------------------------------
# tame automorphisms and the mu measure


class TameAut:
    """Automorphism datum (a mod f, k mod e) of a tame tower.

    a is the residue Frobenius exponent, k the root-of-unity index on the
    uniformizer.  Composition follows the fixed semidirect law
    (a, k) * (a', k') = (a + a', k * q_v^a' + k'): the product acts by the
    left factor first.
    """

    __slots__ = ("a", "k", "f", "e", "q_v")

    def __init__(self, a, k, f, e, q_v):
        self.f = f
        self.e = e
        self.q_v = q_v
        self.a = a % f
        self.k = k % e

    def __mul__(self, other):
        assert (self.f, self.e, self.q_v) == (other.f, other.e, other.q_v)
        k = 0 if self.e == 1 else (self.k * pow(self.q_v, other.a, self.e) + other.k)
        return TameAut(self.a + other.a, k, self.f, self.e, self.q_v)

    def inverse(self):
        if self.e == 1:
            return TameAut(-self.a, 0, self.f, self.e, self.q_v)
        o = _mul_order(self.q_v, self.e)
        qinv = pow(self.q_v, (-self.a) % o, self.e)
        return TameAut(-self.a, -self.k * qinv, self.f, self.e, self.q_v)

    def __eq__(self, other):
        return isinstance(other, TameAut) and (
            self.a, self.k, self.f, self.e, self.q_v,
        ) == (other.a, other.k, other.f, other.e, other.q_v)

    def __hash__(self):
        return hash((self.a, self.k, self.f, self.e, self.q_v))

    def __repr__(self):
        return "TameAut(a=%d, k=%d; f=%d, e=%d)" % (self.a, self.k, self.f, self.e)


def _mul_order(x, m):
    if m == 1:
        return 1
    o = 1
    acc = x % m
    while acc != 1:
        acc = (acc * x) % m
        o += 1
        if o > m:
            raise ValueError("x not invertible mod m")
    return o


def tame_group(q_v, f, e):
    """All automorphisms of the tame datum with invariants (f, e)."""
    return [TameAut(a, k, f, e, q_v) for a in range(f) for k in range(e)]


def tame_apply(tower, g, elem):
    """Apply a TameAut to an element of a tame tower: pi -> w^k pi (w the
    canonical generator of mu_e) and the q_v^a Frobenius on coefficients."""
    shape = tower.tame_shape()
    if shape is None:
        raise WildTowerError("tower is not of the supported tame shape")
    f, e, _ = shape
    if (g.f, g.e) != (f, e):
        raise ValueError("automorphism invariants do not match the tower")
    elem = tower.lift_from(elem)
    res = tower.residue
    _, k0 = factor_prime_power(tower.q_v)
    omega = res.root_of_unity(e)
    t = {}
    for exp, c in elem.series.terms.items():
        nc = c.frobenius(k0 * g.a)
        if (g.k * exp) % e:
            nc = nc * omega ** ((g.k * exp) % e)
        t[exp] = nc
    return TowerElem(tower, TruncSeries(res, t, elem.series.prec))


def mu_value(tower, g):
    """mu_L(g) on a tame tower: 0 off inertia; -v(g(pi) - pi) for inertia
    moving the uniformizer; v(D) for inertia fixing it."""
    shape = tower.tame_shape()
    if shape is None:
        raise WildTowerError("mu is only computed on tame towers here")
    if g.f > 1 and g.a % g.f != 0:
        return Fraction(0)
    if g.e > 1 and g.k % g.e != 0:
        pi = tower.uniformizer()
        moved = tame_apply(tower, g, pi) - pi
        return -moved.valuation()
    return tower.different_valuation()
