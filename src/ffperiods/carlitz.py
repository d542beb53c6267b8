"""End-to-end reproduction of the Carlitz product formula.

Three ingredients, all exact:

* the infinite-place value log|pairing|_infty = (q/(q-1)) log q, read off
  from the tower F_q((beta)) with beta^(q-1) = -zeta and the 1-unit product
  prod_(i>=1) (1 - zeta^(q^i - 1));
* per finite place v the series value log|pairing|_v = -(1/(q_v-1)) log q_v,
  computed once per q_v through the recursion tower (not the closed form),
  checked to have a simple pole in z - zeta and to equal -Z_v(1, 1) log q_v;
* the tail of the divergent sum over the remaining places, regularized with
  the trivial tail character, genus 0 and no conductor term.

The grand total is exactly 0 * log q.
"""

from fractions import Fraction
from functools import lru_cache

from .cmshtuka import (
    CMAlgebra,
    CMComponent,
    CrossCheckError,
    Embedding,
    hat_valuation,
    omega_period,
    period_valuation_series,
)
from .fields import FqField, factor_prime_power, monic_irreducibles
from .lfunctions import (
    ClassFunctionQ,
    ExplicitPlaceTerm,
    LocalGaloisDatum,
    LogQValue,
    log_q_value,
    regularized_sum,
    z_infty_at,
    z_v_at_one,
    zeta_closed_forms,
)
from .records import FrozenRecord, Record
from .towers import LocalFieldTower, solve_kummer

_INFTY_PREC_CAP = 20000  # precision cap of the infinite-place product


class Place(FrozenRecord):
    """A closed point of the projective line: infinity or a monic irreducible."""

    __slots__ = __match_args__ = ("q", "poly")  # poly: PolyFq; None encodes infinity

    def __init__(self, q, poly=None):
        self._set(q, poly)

    @property
    def is_infinite(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    @property
    def q_v(self):
        return self.q ** self.degree

    def label(self):
        return "infty" if self.poly is None else repr(self.poly)


def finite_places(q, max_degree):
    """All finite places of degree <= max_degree, by degree then lexicographic."""
    p, k = factor_prime_power(q)
    F = FqField(p, k)
    out = []
    for d in range(1, max_degree + 1):
        for poly in monic_irreducibles(F, d):
            out.append(Place(q, poly))
    return out


def carlitz_infty_log_abs(q, n_terms):
    """(log|pairing|_infty as LogQValue, the truncated 1-unit product).

    The value is q/(q-1) log q for every n_terms >= 1: the product of
    1 - zeta^(q^i - 1) is a 1-unit, so only beta^q contributes valuation.
    That holds at any precision >= 1, so the precision is capped, and the
    product stops at the first factor that is 1 to that precision.
    """
    if n_terms < 1:
        raise ValueError("need at least one product term")
    prec = max(1, min(q ** n_terms + q + 8, _INFTY_PREC_CAP))
    tower = LocalFieldTower.base(q, prec=prec)
    zeta = tower.uniformizer()
    tower, beta = solve_kummer(tower, q - 1, -zeta, name="beta")
    zeta = tower.lift_from(zeta)
    product = tower.one()
    for i in range(1, n_terms + 1):
        if q ** i - 1 >= tower.prec:
            break  # this factor and every later one is 1 + O(T^prec)
        product = product * (tower.one() - zeta.pow(q ** i - 1)).truncate(tower.prec)
    if product.ord() != 0 or product.leading_coeff() != tower.residue.one:
        raise CrossCheckError("the infinite-place product is not a 1-unit")
    total = beta.pow(q) * product
    # |pairing|_infty = |(beta^q * product)^(-1)| = q^(+v(beta^q * product))
    value = log_q_value(total.valuation())
    if value.coeff != Fraction(q, q - 1):
        raise CrossCheckError("infinite place gives %s log q, expected %s"
                              % (value.coeff, Fraction(q, q - 1)))
    return value, product


class PlaceValue(Record):
    # log_abs = log|pairing|_v; via_series is always True (every place takes the series route)
    __slots__ = __match_args__ = ("place", "log_abs", "z_v_at_one", "via_series", "hat_order")

    def __init__(self, place, log_abs, z_v_at_one, via_series, hat_order):
        self._set(place, log_abs, z_v_at_one, via_series, hat_order)


@lru_cache(maxsize=None)
def _series_period(q_v, depth):
    """(Z_v(1, 1), hat order, valuation) of the Carlitz period over a residue
    field of size q_v, through the recursion tower to `depth`.  The period
    depends on the place only through q_v, so each is computed once."""
    datum = LocalGaloisDatum.tame(q_v, 1, 1)
    zv1 = z_v_at_one(datum, ClassFunctionQ.trivial(datum))
    cm = CMAlgebra(q_v, [CMComponent(1, 1)])
    psi = Embedding(0, 0, 0)
    pe = omega_period(cm, psi, psi, depth=depth, bound=None)
    hat = hat_valuation(pe)
    if hat != 1:
        raise CrossCheckError("pairing at q_v = %d has pole order %d, expected 1" % (q_v, hat))
    return zv1, hat, period_valuation_series(pe)


def carlitz_v_log_abs(q, place, depth):
    """log|pairing|_v at a finite place, through the recursion tower."""
    if place.is_infinite:
        raise ValueError("use carlitz_infty_log_abs at infinity")
    deg = place.degree
    zv1, hat, v_val = _series_period(place.q_v, depth)
    value = log_q_value(-v_val * deg)
    if value.coeff != -zv1 * deg:
        raise CrossCheckError(
            "place %s: series value %s != -Z_v(1,1) log q_v" % (place.label(), value)
        )
    return PlaceValue(place, value, zv1, True, hat)


class ProductFormulaReport(Record):
    # LogQValues, but `places`: PlaceValues, ordered by degree then lexicographically
    __slots__ = __match_args__ = ("q", "infty", "places", "z_infty_at_zero", "mu_term",
                                  "genus_term", "tail_value", "total")

    def __init__(self, q, infty, places, z_infty_at_zero, mu_term, genus_term,
                 tail_value, total):
        self._set(q, infty, places, z_infty_at_zero, mu_term, genus_term, tail_value, total)


def carlitz_product_formula(q, max_degree, depth):
    """Combine the infinite place, the direct values at places of degree <=
    max_degree and the regularized tail; the total must vanish exactly."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    infty, _ = carlitz_infty_log_abs(q, max(depth, 1))
    values = [carlitz_v_log_abs(q, pl, depth) for pl in finite_places(q, max_degree)]
    zeta_a, _ = zeta_closed_forms(q)
    explicit = [
        ExplicitPlaceTerm(pv.place.label(), pv.place.degree, pv.log_abs, pv.z_v_at_one)
        for pv in values
    ]
    tail = regularized_sum(zeta_a, q, log_q_value(0), 0, 1, explicit)
    z_inf0 = z_infty_at(zeta_a, q, 0)
    total = infty + tail
    report = ProductFormulaReport(
        q=q,
        infty=infty,
        places=values,
        z_infty_at_zero=z_inf0,
        mu_term=log_q_value(0),
        genus_term=log_q_value(0),
        tail_value=tail,
        total=total,
    )
    if total.coeff != 0:
        raise CrossCheckError("product formula total is %s, expected 0" % total)
    return report


def report_as_dict(report):
    """JSON-ready dictionary with exact rationals as 'num/den' strings."""

    def frac(x):
        f = x.coeff if isinstance(x, LogQValue) else Fraction(x)
        return "%d/%d" % (f.numerator, f.denominator)

    return {
        "schema": "1",
        "q": report.q,
        "infty": frac(report.infty),
        "places": [
            {
                "place": pv.place.label(),
                "degree": pv.place.degree,
                "q_v": pv.place.q_v,
                "log_abs": frac(pv.log_abs),
                "z_v_at_1": frac(pv.z_v_at_one),
                "hat_order": pv.hat_order,
                "via_series": pv.via_series,
            }
            for pv in report.places
        ],
        "regularization": {
            "z_infty_at_0": frac(report.z_infty_at_zero),
            "mu_infty": frac(report.mu_term),
            "genus_term": frac(report.genus_term),
            "tail_value": frac(report.tail_value),
        },
        "total": frac(report.total),
    }
