"""Local shtukas with complex multiplication in standard form and their
period elements.

A CM algebra is a product of local components, each described by its residue
degree f, ramification index e and tameness.  Tame components use the pure
Kummer model y^e = z: the embeddings are (j mod f, k mod e), sending y to
w^k pi for the canonical generator w of mu_e and the chosen root pi of
X^e - z.  Wild components carry no explicit model here; they participate
through user-supplied valuation tables only.

The central computation adjoins the recursion family l_0^(qt-1) = -xi,
l_n^qt + xi l_n = l_(n-1) for xi = phi(y), forms the eigencomponent period

    (y - phi(y))^[j(psi) = j(phi)] * sum_n l_n^(q_v^s) y^n   at   y = psi(y) + w,

s = (j(psi) - j(phi)) mod f, and re-expands it in powers of z - zeta.  The
two canonical outputs are the (z-zeta)-order and the valuation of the
leading coefficient, so omega_period builds only that head; the element
itself is determined only up to the documented unit ambiguity, and its
expansion is built on first access for internal consistency checks.
"""

from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm

from .coeffseries import poly_at_series, reversion
from .fields import factor_prime_power
from .lfunctions import (
    LocalGaloisDatum,
    TameEmbedding,
    act_on_embedding,
    cm_characters,
    indicator_pair_function,
    mu_art_v,
    z_v_at_one,
)
from .records import FrozenRecord, Record
from .series import InsufficientPrecisionError, TruncSeries
from .towers import (
    LocalFieldTower,
    TowerBoundError,
    TowerElem,
    TowerError,
    degree_str,
    solve_additive_twist,
    solve_frobenius_recursion,
    unit_nth_root_with_extension,
)


class MixedComponentError(ValueError):
    pass


class WildComponentError(ValueError):
    pass


class AmbiguousLeadingTermError(ArithmeticError):
    pass


class LeadingTermMismatchError(AmbiguousLeadingTermError):
    """Two readings of one leading term disagree."""


class CrossCheckError(AssertionError):
    """Two independent routes to one value disagree (raised, not asserted,
    so that python -O keeps the check)."""


class CMComponent(FrozenRecord):
    # pairwise: ((k1, k2, value), ...) for wild components
    __slots__ = __match_args__ = ("f", "e", "tame", "diff_valuation", "pairwise")

    def __init__(self, f, e, tame=True, diff_valuation=None, pairwise=None):
        if f < 1 or e < 1:
            raise ValueError("f and e must be positive")
        self._set(f, e, tame, diff_valuation, pairwise)

    def degree(self):
        return self.f * self.e

    def pairwise_value(self, k1, k2):
        if self.pairwise is None:
            raise WildComponentError("wild component needs the pairwise table")
        for a, b, v in self.pairwise:
            if (a, b) == (k1, k2) or (a, b) == (k2, k1):
                return Fraction(v)
        raise WildComponentError("pairwise value (%s, %s) missing" % (k1, k2))


class CMAlgebra:
    """E_v = product of local components; q_v the base residue cardinality."""

    def __init__(self, q_v, components):
        self.q_v = q_v
        self.p = factor_prime_power(q_v)[0]
        self.components = tuple(components)
        for c in self.components:
            if c.tame:
                if c.e > 1 and (q_v ** c.f - 1) % c.e != 0:
                    raise ValueError(
                        "tame component needs e | q_v^f - 1 (e=%d, q_v^f=%d)"
                        % (c.e, q_v ** c.f)
                    )
                if c.e % self.p == 0:
                    raise ValueError("tame component cannot have p | e")

    def q_tilde(self, i):
        return self.q_v ** self.components[i].f

    def embeddings(self, i=None):
        out = []
        comps = range(len(self.components)) if i is None else [i]
        for ci in comps:
            c = self.components[ci]
            for j in range(c.f):
                for k in range(c.e):
                    out.append(Embedding(ci, j, k))
        return out


class Embedding(FrozenRecord):
    __slots__ = __match_args__ = ("i", "j", "k")

    def __init__(self, i, j, k):
        self._set(i, j, k)

    def to_tame(self, cm):
        c = cm.components[self.i]
        return TameEmbedding(self.j, self.k, c.f, c.e)


def frobenius_distance(cm, psi, phi):
    """(j(psi), j(phi)): the representative of j(psi) - j(phi) in 0..f-1."""
    return (psi.j - phi.j) % cm.components[psi.i].f


class LocalShtukaStd:
    """Standard form: per (i, j) the twist is eps_(i,j) times the product of
    (y - phi(y))^d_phi over the embeddings phi with that (i, j)."""

    def __init__(self, cm, cm_type, eps=None):
        self.cm = cm
        self.cm_type = {e: int(d) for e, d in dict(cm_type).items()}
        for emb in self.cm_type:
            if emb.i >= len(cm.components):
                raise ValueError("CM-type references a missing component")
        self.eps = dict(eps or {})
        for (i, j), series in self.eps.items():
            if 0 not in series.terms:
                raise ValueError("eps_(%d,%d) must be a unit power series" % (i, j))

    def d(self, emb):
        return self.cm_type.get(emb, 0)

    def cm_type_readback(self):
        return {emb: self.d(emb) for emb in self.cm.embeddings() if self.d(emb)}

    def eps_series(self, i, j):
        return self.eps.get((i, j))

    def tau_poly(self, i, j):
        """tau_(i,j) without its eps factor, as a polynomial in y with
        coefficients in the component tower (d_phi >= 0 only)."""
        c = self.cm.components[i]
        if not c.tame:
            raise WildComponentError("explicit tau needs a tame component")
        tower, pi, _ = component_tower(self.cm, i)
        out = TruncSeries.one(tower)
        for emb in self.cm.embeddings(i):
            if emb.j != j or self.d(emb) == 0:
                continue
            dval = self.d(emb)
            if dval < 0:
                raise ValueError("tau_poly displays effective types only")
            phi_y = embedding_value(tower, self.cm, emb, pi)
            lin = TruncSeries(tower, {0: -phi_y, 1: tower.one()})
            out = out * lin.pow_int(dval)
        return out


def std_shtuka(cm, phi_type, eps=None):
    """Build the standard-form shtuka; the CM-type must read back verbatim."""
    sh = LocalShtukaStd(cm, phi_type, eps)
    assert sh.cm_type_readback() == {e: d for e, d in dict(phi_type).items() if d}
    return sh


# ---------------------------------------------------------------------------
# towers of a component, embedding values


def component_tower(cm, i, bound=None, units=2):
    """(tower, pi, omega): unramified-then-Kummer tower of component i; pi is
    the chosen root of X^e - z (z itself when e = 1), omega generates mu_e."""
    c = cm.components[i]
    if not c.tame:
        raise WildComponentError("explicit towers exist only for tame components")
    tower = LocalFieldTower.tame(cm.q_v, c.f, c.e, bound=bound, units=units)
    return tower, tower.uniformizer(), tower.residue.root_of_unity(c.e)


def component_uniformizer(tower, c):
    """The component's Kummer uniformizer inside a taller tower."""
    return tower.level_uniformizer(1 if c.e > 1 else 0)


def family_uniformizer(fam, cm, phi):
    """pi read off the family's xi = phi(y) = omega^k pi, not lifted through
    every level again.  omega is the one of xi's own tower: the recursion
    adjoins (qt-1)-th roots over a residue field of at least qt = q_v^f
    elements, which holds mu_(qt-1), so it never extends the residue field."""
    c = cm.components[phi.i]
    if c.e == 1 or phi.k == 0:
        return fam.xi
    return fam.xi.scale_coeff((fam.tower.residue.root_of_unity(c.e) ** phi.k).inv())


def embedding_value(tower, cm, emb, pi):
    """psi(y) = omega^k pi in the given tower."""
    c = cm.components[emb.i]
    pi = tower.lift_from(pi)
    if c.e == 1 or emb.k == 0:
        return pi
    omega = tower.residue.root_of_unity(c.e)
    return pi.scale_coeff(omega ** emb.k)


# ---------------------------------------------------------------------------
# the recursion family and its defining property


class RecursionFamily(Record):
    """Solution family of sigma^f(l+) = (y - xi) l+ with xi = phi(y)."""

    __slots__ = __match_args__ = ("tower", "xi", "q_tilde", "ells")

    def __init__(self, tower, xi, q_tilde, ells):
        self._set(tower, xi, q_tilde, ells)

    def depth(self):
        return len(self.ells) - 1

    def verify_tau_property(self):
        """l_0^qt = -xi l_0 and l_n^qt + xi l_n = l_(n-1), within precision."""
        qt, ells = self.q_tilde, self.ells
        rel = ells[0].pow(qt) + self.xi * ells[0]
        if not rel.is_zero_within_precision():
            return False
        for n in range(1, len(ells)):
            rel = ells[n].pow(qt) + self.xi * ells[n] - ells[n - 1]
            if not rel.is_zero_within_precision():
                return False
        return True


def recursion_family(cm, phi, depth, bound=None, base_tower=None, units=2):
    c = cm.components[phi.i]
    if not c.tame:
        raise WildComponentError("the series route needs a tame component")
    if base_tower is None:
        tower, pi, _ = component_tower(cm, phi.i, bound=bound, units=units)
    else:
        tower = base_tower
        pi = component_uniformizer(tower, c)
    xi = embedding_value(tower, cm, phi, pi)
    qt = cm.q_tilde(phi.i)
    tower, ells, xi = solve_frobenius_recursion(tower, xi, qt, depth)
    fam = RecursionFamily(tower, xi, qt, ells)
    if not fam.verify_tau_property():
        raise TowerError("recursion family fails its defining relation")
    return fam


# omega_period builds its recursion tower at PRECISION_UNITS[0] absolute units
# of precision, and once more at PRECISION_UNITS[1] (the default of every other
# tower) if that raises a precision error.
PRECISION_UNITS = (1, 2)

# the tower degree cap of omega_period, integral_u_omega and galois_character_check
# when the caller gives none (FFP_TOWER_BOUND in the CLI); no other tower is capped
DEFAULT_TOWER_BOUND = 64
MAX_RECURSION_DEPTH = 3  # the deepest recursion max_recursion_depth picks


def recursion_degrees(c, qt, depth):
    """The degrees that the recursion tower of tame component c (q~ = qt)
    grows through to `depth`, in order: 1, f if f > 1, f e if e > 1, f e (q~ - 1)
    if q~ > 2, then one factor q~ per level.  The last depth + 1 are the
    degrees at depths 0 to `depth`."""
    degree = 1
    yield degree
    for factor in (c.f, c.e, qt - 1):
        if factor > 1:
            degree *= factor
            yield degree
    for _ in range(depth):
        degree *= qt
        yield degree


def max_recursion_depth(cm, i, bound=DEFAULT_TOWER_BOUND):
    """Largest depth <= MAX_RECURSION_DEPTH whose recursion tower stays
    within the bound; a bound of None caps nothing."""
    if bound is None:
        return MAX_RECURSION_DEPTH
    degrees = list(recursion_degrees(cm.components[i], cm.q_tilde(i), MAX_RECURSION_DEPTH))
    base, *levels = degrees[-MAX_RECURSION_DEPTH - 1:]
    if base > bound:
        raise TowerBoundError("even depth 0 needs tower degree %s, above the bound %d"
                              % (degree_str(base), bound))
    return sum(1 for degree in levels if degree <= bound)


# ---------------------------------------------------------------------------
# period elements


class PeriodElement(Record):
    """A truncated element of C_v((z - zeta)): the (z-zeta)-order, the
    leading coefficient, the exact valuations of the terms that built it
    (strictly increasing for all supported inputs; checked before any
    valuation is reported), and `expand()`, which builds the coefficients
    from that order on; `zeta_coeffs` calls it once (cached in `__dict__`)."""

    __match_args__ = ("hat_order", "leading", "term_valuations", "tower", "expand")

    def __init__(self, hat_order, leading, term_valuations, tower, expand):
        self._set(hat_order, leading, term_valuations, tower, expand)

    @cached_property
    def zeta_coeffs(self):
        return self._checked(self.expand())

    def _checked(self, coeffs):
        """`coeffs`, once its hat-order coefficient has the leading valuation."""
        c = coeffs.terms.get(self.hat_order)
        if c is None or not c.series.terms:
            raise AmbiguousLeadingTermError("period has no visible leading coefficient")
        if c.valuation() != self.leading.valuation():
            raise LeadingTermMismatchError("leading coefficient disagrees with expansion")
        return coeffs

    def hat_valuation(self):
        if not self.leading.series.terms:
            raise AmbiguousLeadingTermError(
                "leading coefficient invisible at the working precision"
            )
        vals = self.term_valuations
        if vals and any(a >= b for a, b in zip(vals, vals[1:])):
            raise LeadingTermMismatchError("term valuations fail to increase strictly")
        return self.hat_order

    def series_valuation(self):
        self.hat_valuation()
        return self.leading.valuation()


def hat_valuation(period):
    return period.hat_valuation()


def period_valuation_series(period):
    return period.series_valuation()


def _binom_mod_p(tower, n, r):
    return tower.residue.one.scale_int(comb(n, r))


def _evaluation_series(fam, cm, psi, pi, w_prec, sigma_power):
    """sum_n l_n^(q_v^s) (psi(y) + w)^n as a w-series, together with the exact
    valuations of its w^0 summands."""
    tower = fam.tower
    psi_y = embedding_value(tower, cm, psi, pi)
    qpow = cm.q_v ** sigma_power
    terms = {}
    term_vals = []
    for n, ell in enumerate(fam.ells):
        ell_s = ell.pow(qpow)
        term_vals.append(ell_s.valuation() + n * psi_y.valuation())
        for r in range(0, min(n, w_prec - 1) + 1):
            b = _binom_mod_p(tower, n, r)
            if b.is_zero():
                continue
            piece = ell_s.scale_coeff(b)
            if n - r:
                piece = piece * psi_y.pow(n - r)
            terms[r] = terms[r] + piece if r in terms else piece
    series = TruncSeries(tower, terms, w_prec)
    leading = terms.get(0, tower.zero())
    return series, term_vals, leading


def _zeta_minus_z_series(tower, cm, psi, pi, w_prec):
    """z - zeta = (psi(y) + w)^e - psi(y)^e in w, built only to O(w^w_prec)."""
    e = cm.components[psi.i].e
    psi_y = embedding_value(tower, cm, psi, pi)
    terms = {}
    for r in range(1, min(e, w_prec - 1) + 1):
        b = _binom_mod_p(tower, e, r)
        if b.is_zero():
            continue
        c = tower.from_residue(b)
        if e - r:
            c = c * psi_y.pow(e - r)
        terms[r] = c
    return TruncSeries(tower, terms, w_prec)


def _omega_w_series(fam, cm, phi, psi, w_prec, pi):
    """The w-expansion of Omega(phi, psi) over the family's tower, plus the
    leading data (leading coefficient, term valuations); pi is the
    component's uniformizer in that tower.

    The linear factor (y - phi(y)) is present exactly when the residue parts
    agree: it is w itself for phi = psi and (psi(y) - phi(y)) + w otherwise;
    embeddings with different residue parts contribute no such factor.
    """
    tower = fam.tower
    s = frobenius_distance(cm, psi, phi)
    series, term_vals, leading = _evaluation_series(fam, cm, psi, pi, w_prec, s)
    psi_y = embedding_value(tower, cm, psi, pi)
    phi_y = embedding_value(tower, cm, phi, pi)
    if phi == psi:
        factor1 = TruncSeries.monomial(tower, 1)
        hat = 1
    elif phi.j == psi.j:
        diff = psi_y - phi_y
        if not diff.series.terms:
            raise AmbiguousLeadingTermError("psi(y) - phi(y) vanishes within precision")
        factor1 = TruncSeries(tower, {0: diff, 1: tower.one()})
        leading = leading * diff
        term_vals = [v + diff.valuation() for v in term_vals]
        hat = 0
    else:
        factor1 = TruncSeries.one(tower)
        hat = 0
    return factor1 * series, hat, leading, term_vals


def _to_zeta_coordinates(tower, cm, psi, pi, w_series, w_prec):
    """Re-expand a w-series in powers of u = z - zeta.  Also returns dy/dz at
    psi (the linear coefficient of w in u), or None when e = 1."""
    if cm.components[psi.i].e == 1:
        return w_series, None
    zmz = _zeta_minus_z_series(tower, cm, psi, pi, w_prec + 1)
    w_of_u = reversion(zmz, w_prec + 1, tower)
    return w_series.compose(w_of_u.truncate(w_prec)), w_of_u.coeff(1)


def omega_period(cm, phi, psi, depth=None, bound=DEFAULT_TOWER_BOUND):
    """The eigencomponent period of the elementary CM shtuka of phi, read in
    the psi-coordinate, as a PeriodElement.

    Verifies the defining recursion to `depth` (by default the deepest that
    `bound` allows); `bound` caps the recursion tower's degree, checked before
    any tower is built, and None leaves it uncapped.
    """
    if phi.i != psi.i:
        raise MixedComponentError("period components must agree: %r vs %r" % (phi, psi))
    if not cm.components[phi.i].tame:
        raise WildComponentError(
            "the series route is disabled for wild components; closed forms only"
        )
    if depth is None:
        depth = max_recursion_depth(cm, phi.i, bound)
    elif bound is not None:
        for degree in recursion_degrees(cm.components[phi.i], cm.q_tilde(phi.i), depth):
            if degree > bound:
                raise TowerBoundError("tower degree %s exceeds bound %d"
                                      % (degree_str(degree), bound))

    def run(units):
        fam = recursion_family(cm, phi, depth, bound, units=units)
        pe = _omega_from_family(fam, cm, phi, psi)
        pe.series_valuation()  # raise a late precision failure where it can rerun
        return pe

    first, second = PRECISION_UNITS
    try:
        return run(first)
    except (InsufficientPrecisionError, AmbiguousLeadingTermError):
        return run(second)


def _omega_from_family(fam, cm, phi, psi):
    """The period from its head: the w- and (z - zeta)-series to hat + 1
    terms, where the hat order is 1 iff phi = psi.  The expansion to depth + 2
    terms is left to the first read of zeta_coeffs."""
    tower = fam.tower
    w_prec = fam.depth() + 2
    pi = family_uniformizer(fam, cm, phi)
    hat = int(phi == psi)
    w_head, _, leading, term_vals = _omega_w_series(fam, cm, phi, psi, hat + 1, pi)
    head, dy_dz = _to_zeta_coordinates(tower, cm, psi, pi, w_head, hat + 1)
    if dy_dz is not None and hat:
        leading = leading * dy_dz.pow(hat)

    def expand():
        w_series = _omega_w_series(fam, cm, phi, psi, w_prec, pi)[0]
        return _to_zeta_coordinates(tower, cm, psi, pi, w_series, w_prec)[0]

    pe = PeriodElement(hat, leading, term_vals, tower, expand)
    pe._checked(head)
    return pe


# ---------------------------------------------------------------------------
# closed forms


def component_diff_valuation(c):
    """v(D) of the component over the base: (e-1)/e for tame, table for wild."""
    if c.tame:
        return Fraction(c.e - 1, c.e)
    if c.diff_valuation is None:
        raise WildComponentError("wild component needs diff_valuation")
    return Fraction(c.diff_valuation)


def embedding_difference_valuation(cm, phi, psi):
    """v(psi(y) - phi(y)) for distinct embeddings with equal residue part."""
    c = cm.components[phi.i]
    if phi.j != psi.j or phi == psi:
        raise ValueError("defined for distinct embeddings with equal residue part")
    if c.tame:
        return Fraction(1, c.e)  # omega^k1 - omega^k2 is a unit
    return c.pairwise_value(phi.k, psi.k)


def omega_valuation_closed(cm, phi, psi):
    """The three-case closed form for v(Omega(phi, psi))."""
    if phi.i != psi.i:
        raise MixedComponentError("closed form needs i(phi) = i(psi)")
    c = cm.components[phi.i]
    qt = cm.q_tilde(phi.i)
    base = Fraction(1, c.e * (qt - 1))
    if phi == psi:
        return base - component_diff_valuation(c)
    if phi.j == psi.j:
        return base + embedding_difference_valuation(cm, phi, psi)
    s = frobenius_distance(cm, psi, phi)
    return Fraction(cm.q_v ** s, c.e * (qt - 1))


def omega_valuation_via_L(cm, phi, psi, datum=None, pair_function=None):
    """Z_v(a_{psi,phi}, 1) - mu_Art,v(a_{psi,phi}) through the Galois datum;
    tame data are built here, wild components must supply datum and class
    function."""
    if phi.i != psi.i:
        raise MixedComponentError("need i(phi) = i(psi)")
    c = cm.components[phi.i]
    if not c.tame and (datum is None or pair_function is None):
        raise WildComponentError(
            "wild components need a user-supplied datum and class function"
        )
    if datum is None:
        datum = LocalGaloisDatum.tame(cm.q_v, c.f, c.e)
    if pair_function is None:
        # a(g) = 1 iff g.psi = phi: source psi, target phi
        pair_function = indicator_pair_function(datum, psi.to_tame(cm), phi.to_tame(cm))
    return z_v_at_one(datum, pair_function) - mu_art_v(datum, pair_function)


# ---------------------------------------------------------------------------
# the unit part (all d_phi = 0)


def tau_invariant_unit_part(shtuka, depth):
    """Solve c = tau_0 sigma(c) for the unit twist tau_0 = (eps_(i,j)).

    Returns {"tower": t, "c": {(i, j): TruncSeries in y}}; the tower is only
    extended unramified (asserted), realizing the statement that the
    invariants generate an unramified extension.
    """
    cm = shtuka.cm
    out = {}
    tower = LocalFieldTower.base(cm.q_v)
    base_k = tower.residue.k
    for i, c in enumerate(cm.components):
        if not c.tame:
            raise WildComponentError("unit-part solving needs tame components")
        need_f = c.f
        for j in range(c.f):
            series = shtuka.eps_series(i, j)
            if series is not None:
                # the twist coefficients must embed into the residue field
                need_f = lcm(need_f, series.field.k // gcd(series.field.k, base_k))
        tower = tower.extend_unramified(lcm(tower.f_abs, need_f) // tower.f_abs)
        qt = cm.q_tilde(i)
        eps_total = TruncSeries.one(tower, depth + 1)
        for step in range(c.f):
            j = (c.f - step) % c.f  # epsilon_i = eps_0 sigma(eps_(f-1)) ... sigma^(f-1)(eps_1)
            series = shtuka.eps_series(i, j)
            if series is None:
                continue
            lifted = _lift_eps(tower, series, depth + 1)
            twisted = lifted.map_coeffs(lambda x, s=step: x.frobenius_power(s))
            eps_total = (eps_total * twisted).truncate(depth + 1)
        b = [eps_total.coeff(n) for n in range(depth + 1)]
        if not b[0].series.terms or b[0].ord() != 0:
            raise ValueError("component %d: twist has no unit leading term" % i)
        tower, c00 = unit_nth_root_with_extension(tower, b[0].inv(), qt - 1)
        b = [tower.lift_from(x) for x in b]
        b0_inv = b[0].inv()
        gammas = [tower.one()]
        for n in range(1, depth + 1):
            rhs = tower.zero()
            for l in range(1, n + 1):
                if b[l].is_zero_within_precision():
                    continue
                rhs = rhs + (b[l] * b0_inv) * gammas[n - l].pow(qt)
            tower, g = solve_additive_twist(tower, rhs, qt)
            gammas = [tower.lift_from(x) for x in gammas]
            gammas.append(g)
        c00 = tower.lift_from(c00)
        comps = {0: TruncSeries(tower, {n: gammas[n] * c00 for n in range(depth + 1)},
                                depth + 1)}
        for j in range(1, c.f):
            sigma_prev = comps[j - 1].map_coeffs(lambda x: x.frobenius_power(1))
            series = shtuka.eps_series(i, j)
            if series is not None:
                sigma_prev = (_lift_eps(tower, series, depth + 1) * sigma_prev
                              ).truncate(depth + 1)
            comps[j] = sigma_prev
        for j in range(c.f):
            out[(i, j)] = comps[j]
    assert tower.e_abs == 1, "unit-part tower must stay unramified"
    # cyclic verification: c_(i,j) = eps_(i,j) sigma(c_(i,j-1)) including wrap
    for i, c in enumerate(cm.components):
        for j in range(c.f):
            lhs = out[(i, j)].map_coeffs(tower.lift_from, tower)
            prev = out[(i, (j - 1) % c.f)].map_coeffs(tower.lift_from, tower)
            rhs = prev.map_coeffs(lambda x: x.frobenius_power(1))
            series = shtuka.eps_series(i, j)
            if series is not None:
                rhs = (_lift_eps(tower, series, depth + 1) * rhs).truncate(depth + 1)
            if (lhs - rhs).terms:
                raise TowerError("unit-part solution fails c = tau_0 sigma(c)")
    return {"tower": tower, "c": out}


def _lift_eps(tower, series, prec):
    """An eps series (coefficients in a residue field below) over `tower`."""
    emb = series.field.embedding(tower.residue)
    terms = {}
    for e, c in series.terms.items():
        if e >= prec:
            continue
        terms[e] = tower.from_residue(emb(c))
    eff = prec if series.prec is None else min(prec, series.prec)
    return TruncSeries(tower, terms, eff)




# ---------------------------------------------------------------------------
# scalings, full-shtuka pairing elements and their valuations


class ScalingData(Record):
    """u-scaling a in E_v^x as per-component uniformizer powers (unit part
    implicit), and omega-scaling x by a leading-coefficient valuation plus a
    (z-zeta)-order."""

    __slots__ = __match_args__ = ("u_powers", "x_leading_valuation", "x_order")

    def __init__(self, u_powers=None, x_leading_valuation=Fraction(0), x_order=0):
        self._set({} if u_powers is None else u_powers, x_leading_valuation, x_order)

    def v_psi_u(self, cm, psi):
        return Fraction(self.u_powers.get(psi.i, 0), cm.components[psi.i].e)


CANONICAL = ScalingData()


def integral_u_omega(shtuka, psi, u_scaling=None, omega_scaling=None, depth=None,
                     bound=DEFAULT_TOWER_BOUND):
    """The pairing element of the full shtuka against scaled canonical
    generators: (a x 1) x * (eps c^-1) * prod_phi Omega(phi, psi)^d_phi.

    All recursion families are adjoined to one shared tower; CM-types
    supported on several embeddings of the component therefore require
    depth 0 (deeper steps would not be Eisenstein over the shared tower).
    """
    cm = shtuka.cm
    u_scaling = u_scaling or CANONICAL
    omega_scaling = omega_scaling or CANONICAL
    i = psi.i
    c = cm.components[i]
    if not c.tame:
        raise WildComponentError("element-level periods need a tame component")
    support = [phi for phi in cm.embeddings(i) if shtuka.d(phi)]
    if depth is None:
        depth = max_recursion_depth(cm, i, bound) if len(support) <= 1 else 0
    unit_data = tau_invariant_unit_part(shtuka, depth) if shtuka.eps else None
    tower, pi0, _ = component_tower(cm, i, bound=bound)
    if unit_data is not None:
        # host the unramified unit invariants alongside the ramified tower
        tower = tower.extend_unramified(lcm(unit_data["tower"].f_abs, tower.f_abs) // tower.f_abs)
        pi0 = tower.lift_from(pi0)
    current = tower
    fams = []
    for phi in support:
        fam = recursion_family(cm, phi, depth, bound=bound, base_tower=current)
        current = fam.tower
        fams.append((phi, fam))
    w_prec = depth + 2
    pi_here = current.lift_from(pi0)
    result = TruncSeries.one(current, w_prec)
    hat = 0
    lead_val_terms = Fraction(0)
    for phi, fam in fams:
        fam_up = RecursionFamily(
            current, current.lift_from(fam.xi), fam.q_tilde,
            [current.lift_from(x) for x in fam.ells],
        )
        om_w, om_hat, om_lead, _ = _omega_w_series(fam_up, cm, phi, psi, w_prec, pi_here)
        d = shtuka.d(phi)
        hat += om_hat * d
        lead_val_terms += d * om_lead.valuation()
        result = (result * om_w.pow_int(d, w_prec)).truncate(w_prec)
    if unit_data is not None:
        result = (result * _unit_factor_w(shtuka, psi, current, unit_data, w_prec)
                  ).truncate(w_prec)
    n_i = u_scaling.u_powers.get(i, 0)
    if n_i:
        psi_y = embedding_value(current, cm, psi, pi_here)
        result = result.scale(psi_y.pow(n_i))
    if omega_scaling.x_leading_valuation:
        ordx = omega_scaling.x_leading_valuation * current.e_abs
        if ordx.denominator != 1:
            raise ValueError("x-scaling valuation not representable in the tower")
        result = result.scale(
            TowerElem(current, TruncSeries.monomial(current.residue, int(ordx)))
        )
    zeta_coeffs, _ = _to_zeta_coordinates(current, cm, psi, pi_here, result, w_prec)
    lead = zeta_coeffs.terms.get(hat)
    if lead is None or not lead.series.terms:
        raise AmbiguousLeadingTermError("pairing element has no visible leading term")
    # the product's leading valuation must assemble from its factors: the
    # omega leads, the unit factor (valuation 0), the scaling shifts, and the
    # coordinate-change derivative to the hat-th power
    expected = (lead_val_terms
                + u_scaling.v_psi_u(cm, psi) + omega_scaling.x_leading_valuation)
    if c.e > 1 and hat:
        expected -= hat * Fraction(c.e - 1, c.e)
    if lead.valuation() != expected:
        raise LeadingTermMismatchError(
            "pairing leading valuation %s disagrees with its factors (%s)"
            % (lead.valuation(), expected)
        )
    if omega_scaling.x_order:
        zeta_coeffs = zeta_coeffs.shift(omega_scaling.x_order)
        hat += omega_scaling.x_order
    return PeriodElement(hat, lead, [], current, lambda: zeta_coeffs)


def _unit_factor_w(shtuka, psi, tower, unit_data, w_prec):
    """eps_(i,j(psi)) * c_(i,j(psi))^(-1) evaluated at y = psi(y) + w.

    Requires the unit data to live over residue constants so the unramified
    invariants transport into the ramified recursion tower (whose residue
    field must already contain them).
    """
    cm = shtuka.cm
    c_series = unit_data["c"][(psi.i, psi.j)]
    if tower.residue.k % unit_data["tower"].residue.k != 0:
        raise WildComponentError(
            "pairing tower's residue field cannot host the unit invariants"
        )
    comp = cm.components[psi.i]
    pi = component_uniformizer(tower, comp)
    psi_y = embedding_value(tower, cm, psi, pi)
    y_sub = TruncSeries(tower, {0: psi_y, 1: tower.one()}, w_prec)

    def transport(series):
        terms = {}
        for m, coeff in series.terms.items():
            if not coeff.series.terms:
                continue
            if coeff.ord() != 0 or len(coeff.series.terms) != 1:
                raise WildComponentError(
                    "unit invariants with non-constant coefficients are not "
                    "transportable into the ramified tower"
                )
            const = coeff.leading_coeff()
            emb = coeff.tower.residue.embedding(tower.residue)
            terms[m] = tower.from_residue(emb(const))
        return TruncSeries(tower, terms, series.prec)

    c_w = poly_at_series(transport(c_series), y_sub, w_prec, tower)
    eps = shtuka.eps_series(psi.i, psi.j)
    eps_w = (
        poly_at_series(_lift_eps(tower, eps, w_prec), y_sub, w_prec, tower)
        if eps is not None
        else TruncSeries.one(tower, w_prec)
    )
    return eps_w * c_w.inv(w_prec)


def cm_period_valuation(cm, phi_type, psi, u_scaling=None, omega_scaling=None):
    """v of the pairing for the full CM-type: sum of closed forms plus the
    scaling shifts; for tame components the L-route value is recomputed from
    the induced class function and must agree."""
    u_scaling = u_scaling or CANONICAL
    omega_scaling = omega_scaling or CANONICAL
    i = psi.i
    c = cm.components[i]
    phi_type = dict(phi_type)
    total_closed = Fraction(0)
    for phi in cm.embeddings(i):
        d = phi_type.get(phi, 0)
        if d:
            total_closed += d * omega_valuation_closed(cm, phi, psi)
    if c.tame:
        datum = LocalGaloisDatum.tame(cm.q_v, c.f, c.e)
        values = {e2.to_tame(cm): d for e2, d in phi_type.items() if e2.i == i}
        a, _ = cm_characters(datum, values, psi.to_tame(cm))
        l_route = z_v_at_one(datum, a) - mu_art_v(datum, a)
        if l_route != total_closed:
            raise CrossCheckError("L-route %s != closed form %s" % (l_route, total_closed))
    return total_closed + u_scaling.v_psi_u(cm, psi) + omega_scaling.x_leading_valuation


def averaged_period_valuation(cm, phi_type, psi, scalings_per_eta=None):
    """(1/#G) sum_eta v(pairing for the eta-twisted data), computed per eta
    through the transported CM-types and cross-checked against the
    conjugation-averaged class function a0."""
    i = psi.i
    c = cm.components[i]
    if not c.tame:
        raise WildComponentError("averaging needs the tame embedding action")
    datum = LocalGaloisDatum.tame(cm.q_v, c.f, c.e)
    n = len(datum.elements)
    phi_type = dict(phi_type)
    direct = Fraction(0)
    scaling_avg = Fraction(0)
    for idx, eta in enumerate(datum.elements):
        eta_inv = datum.inverse(eta)
        transported = {e2: d for e2, d in phi_type.items() if e2.i != i}
        for phi in cm.embeddings(i):
            src = act_on_embedding(datum, eta_inv, phi.to_tame(cm))
            d = phi_type.get(Embedding(i, src.j, src.k), 0)
            if d:
                transported[phi] = d
        eta_psi_t = act_on_embedding(datum, eta, psi.to_tame(cm))
        eta_psi = Embedding(i, eta_psi_t.j, eta_psi_t.k)
        scaling = (scalings_per_eta or {}).get(idx, CANONICAL)
        direct += cm_period_valuation(cm, transported, eta_psi, scaling, scaling)
        scaling_avg += scaling.v_psi_u(cm, eta_psi) + scaling.x_leading_valuation
    direct = direct / n
    scaling_avg = scaling_avg / n
    values = {e2.to_tame(cm): d for e2, d in phi_type.items() if e2.i == i}
    _, a0 = cm_characters(datum, values, psi.to_tame(cm))
    formula = z_v_at_one(datum, a0) - mu_art_v(datum, a0) + scaling_avg
    if direct != formula:
        raise CrossCheckError("averaged periods %s != averaged formula %s" % (direct, formula))
    return direct


# ---------------------------------------------------------------------------
# Galois character check


def galois_character_check(cm, phi, psi, g_kind, g_index, depth=2,
                           bound=DEFAULT_TOWER_BOUND):
    """Verify g(Omega) = psi(chi(g)) Omega for an automorphism of the
    recursion tower over the component field.

    g_kind "inertia": g(l_n) = w^g_index l_n, w the canonical generator of
    mu_(qt-1) (the tame quotient of the torsion tower).  g_kind "frobenius":
    the coefficient-Frobenius power, admissible only when it fixes the
    recursion datum xi.  chi(g) = g(l+)/l+ must land in the sigma^f-invariant
    units; both that and the Omega identity are checked coefficientwise.
    """
    if phi.i != psi.i:
        raise MixedComponentError("need i(phi) = i(psi)")
    c = cm.components[phi.i]
    if not c.tame:
        raise WildComponentError("Galois checks are implemented for tame components")
    qt = cm.q_tilde(phi.i)
    fam = recursion_family(cm, phi, depth, bound=bound)
    tower = fam.tower
    if g_kind == "inertia":
        if qt == 2:
            twisted = list(fam.ells)
        else:
            w = tower.residue.root_of_unity(qt - 1)
            twisted = [ell.scale_coeff(w ** g_index) for ell in fam.ells]
    elif g_kind == "frobenius":
        g_xi = fam.xi.coeff_frobenius(g_index)
        if not (g_xi - fam.xi).is_zero_within_precision():
            raise TowerError(
                "coefficient Frobenius moves xi; unsupported for this embedding"
            )
        twisted = [ell.coeff_frobenius(g_index) for ell in fam.ells]
    else:
        raise ValueError("g_kind must be 'inertia' or 'frobenius'")
    tfam = RecursionFamily(tower, fam.xi, qt, twisted)
    if not tfam.verify_tau_property():
        return False
    # chi(g) = g(l+)/l+: triangular solve of chi * l+ = g(l+)
    chi = []
    l0_inv = fam.ells[0].inv()
    for n in range(depth + 1):
        acc = twisted[n]
        for m in range(n):
            acc = acc - chi[m] * fam.ells[n - m]
        chi.append(acc * l0_inv)
    for coeff in chi:
        if not (coeff.pow(qt) - coeff).is_zero_within_precision():
            return False  # not sigma^f-invariant: not in O_E^x
    w_prec = depth + 2
    pi = family_uniformizer(fam, cm, phi)
    om, _, _, _ = _omega_w_series(fam, cm, phi, psi, w_prec, pi)
    g_om, _, _, _ = _omega_w_series(tfam, cm, phi, psi, w_prec, pi)
    s = frobenius_distance(cm, psi, phi)
    psi_y = embedding_value(tower, cm, psi, pi)
    psi_chi = tower.zero()
    for m, coeff in enumerate(chi):
        term = coeff.pow(cm.q_v ** s)
        if m:
            term = term * psi_y.pow(m)
        psi_chi = psi_chi + term
    rhs = om.scale(psi_chi)
    return not (g_om - rhs).terms
