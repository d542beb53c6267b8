"""Class functions on local Galois data, the local zeta operator Z_v, the
Artin measure mu_Art, and the regularization of divergent sums over places.

Local computations are rational functions in x = q_v^(-s); global quantities
are rational functions in u = q^(-s).  The conversion between the two is
always explicit: a place of degree d has q_v = q^d, so x = u^d there.
Log-derivative values are exact rational multiples of log q, carried by
LogQValue and never evaluated in floating point.
"""

from fractions import Fraction

from .ratfunc import PoleOrZeroError, QPoly, RatFunc
from .records import FrozenRecord, Record
from .towers import (
    LocalFieldTower,
    TameAut,
    WildTowerError,
    mu_value,
    tame_group,
)


class LogQValue(FrozenRecord):
    """An exact rational multiple of log q."""

    __slots__ = __match_args__ = ("coeff",)

    def __init__(self, coeff):
        self._set(coeff)

    def __add__(self, other):
        return LogQValue(self.coeff + other.coeff)

    def __sub__(self, other):
        return LogQValue(self.coeff - other.coeff)

    def __neg__(self):
        return LogQValue(-self.coeff)

    def __str__(self):
        return "%s·log q" % self.coeff


def log_q_value(coeff):
    return LogQValue(Fraction(coeff))


class MissingMuError(ValueError):
    pass


class LocalGaloisDatum:
    """A finite quotient Gal(L/Q_v) with inertia, Frobenius classes and mu.

    Two constructions: the tame shape (f, e) with the fixed semidirect law,
    where mu comes from the explicit Kummer tower; or an explicit table with
    a designated inertia subgroup, Frobenius coset and user-supplied mu.

    Interface expected by the operators below:
      elements           -- list of hashable group elements
      inertia            -- subset of elements
      e, f               -- inertia order and residue degree of L
      frobenius_class(g) -- n mod f with g acting as x -> x^(q_v^n) on residues
      mu(g)              -- Fraction
      compose(g, h), inverse(g) -- group structure (for conjugation)
    """

    def __init__(self, q_v, elements, inertia, e, f, frob_class, mu_of, compose, inverse,
                 identity):
        self.q_v = q_v
        self.elements = list(elements)
        self.inertia = set(inertia)
        self.e = e
        self.f = f
        self._frob_class = frob_class
        self._mu_of = mu_of  # g -> mu(g), None where unknown
        self._mu = {}  # mu_of's values, each asked once
        self._compose = compose
        self._inverse = inverse
        self.identity = identity
        if len(self.elements) != e * f:
            raise ValueError("group order %d != e*f = %d" % (len(self.elements), e * f))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def tame(cls, q_v, f, e):
        """The Galois closure of the tame extension with invariants (f, e),
        e | q_v^f - 1: elements (a mod f, k mod e), inertia a = 0, mu from
        the explicit Kummer tower X^e - z over the unramified base, built
        with each mu(g) on its first ask (off inertia mu is 0: no tower)."""
        if e < 1 or e > 1 and (q_v ** f - 1) % e != 0:
            raise ValueError("tame datum needs e >= 1 with e | q_v^f - 1")
        if f < 1:
            raise ValueError("unramified degree must be >= 1")
        towers = []

        def mu_of(g):
            if g.a:
                return Fraction(0)
            if not towers:
                towers.append(LocalFieldTower.tame(q_v, f, e))
            return mu_value(towers[0], g)

        elements = tame_group(q_v, f, e)
        return cls(
            q_v,
            elements,
            [g for g in elements if g.a == 0],
            e,
            f,
            lambda g: g.a % f,
            mu_of,
            lambda g, h: g * h,
            lambda g: g.inverse(),
            TameAut(0, 0, f, e, q_v),
        )

    @classmethod
    def from_table(cls, q_v, elements, table, inertia, frobenius_coset, mu=None):
        """Explicit presentation: `table[g][h]` is the product g*h, `inertia`
        a normal subgroup, `frobenius_coset` the coset acting as x -> x^q_v
        on residues.  mu maps elements to Fractions (0 off inertia)."""
        elements = list(elements)
        e = len(inertia)
        if e == 0 or len(elements) % e != 0:
            raise ValueError("inertia order must divide the group order")
        f = len(elements) // e
        inertia = set(inertia)
        frob = set(frobenius_coset)
        if len(frob) != e:
            raise ValueError("the Frobenius coset must have the inertia's size")

        def compose(g, h):
            return table[g][h]

        identity = None
        for g in elements:
            if _is_identity(g, elements, compose):
                identity = g
                break
        if identity is None:
            raise ValueError("multiplication table has no identity")

        def inverse(g):
            for h in elements:
                if compose(g, h) == identity and compose(h, g) == identity:
                    return h
            raise ValueError("no inverse found; multiplication table is broken")

        # Frobenius class: distance to the identity coset along the frob coset
        cosets = _coset_classes(elements, inertia, compose)
        frob_key = None
        for key, members in cosets.items():
            if members == frob:
                frob_key = key
        if frob_key is None:
            raise ValueError("frobenius_coset is not a coset of the inertia subgroup")
        order = _cyclic_order(cosets, frob_key, compose, inertia)

        def frob_class(g):
            return order[_coset_key_of(g, cosets)]

        mu = mu or {}
        mu_map = {}
        for g in elements:
            if g not in inertia:
                mu_map[g] = Fraction(0)
            else:
                mu_map[g] = Fraction(mu[g]) if g in mu else None
        return cls(q_v, elements, inertia, e, f, frob_class, mu_map.__getitem__, compose, inverse,
                   identity)

    # -- accessors -------------------------------------------------------------

    def frobenius_class(self, g):
        return self._frob_class(g) % self.f

    def mu(self, g):
        if g not in self._mu:
            self._mu[g] = self._mu_of(g)
        v = self._mu[g]
        if v is None:
            raise MissingMuError("mu value missing for %r" % (g,))
        return v

    def compose(self, g, h):
        return self._compose(g, h)

    def inverse(self, g):
        return self._inverse(g)

    def conjugate(self, g, h):
        """h^(-1) g h."""
        return self.compose(self.compose(self.inverse(h), g), h)


def _is_identity(g, elements, compose):
    return all(compose(g, x) == x for x in elements)


def _coset_classes(elements, inertia, compose):
    cosets = {}
    for g in elements:
        members = frozenset(compose(g, i) for i in inertia)
        cosets.setdefault(members, set()).update({g})
    # keys are frozensets of members; normalize: map key -> set of members
    return {k: set(k) for k in cosets}


def _coset_key_of(g, cosets):
    for k in cosets:
        if g in k:
            return k
    raise ValueError("element outside the listed cosets")


def _cyclic_order(cosets, frob_key, compose, inertia):
    """Assign to each coset its discrete log with respect to the Frobenius
    coset in the cyclic quotient."""
    keys = list(cosets)
    id_key = None
    for k in keys:
        if set(k) == set(inertia):
            id_key = k
    if id_key is None:
        raise ValueError("inertia is not among its own cosets?")
    order = {id_key: 0}
    current = id_key
    rep_frob = next(iter(frob_key))
    for n in range(1, len(keys) + 1):
        rep = next(iter(current))
        nxt_elem = compose(rep, rep_frob)
        nxt = _coset_key_of(nxt_elem, cosets)
        if nxt == id_key:
            break
        order[nxt] = n
        current = nxt
    if len(order) != len(keys):
        raise ValueError("Frobenius coset does not generate the quotient")
    return order


class ClassFunctionQ:
    """A rational-valued function on a LocalGaloisDatum."""

    def __init__(self, datum, values):
        self.datum = datum
        self.values = {g: Fraction(values[g]) for g in datum.elements}

    @classmethod
    def trivial(cls, datum):
        return cls(datum, {g: Fraction(1) for g in datum.elements})

    @classmethod
    def from_callable(cls, datum, fn):
        return cls(datum, {g: Fraction(fn(g)) for g in datum.elements})

    def __call__(self, g):
        return self.values[g]


# ---------------------------------------------------------------------------
# the operators


def z_v_rational(datum, a):
    """Z_v(a, s) = (1/e_L) sum_{n>=1} sum_{g in W^n} a(g) x^n as a rational
    function of x = q_v^(-s).

    W^n consists of the elements whose residue action is the q_v^n Frobenius;
    the inner sums are periodic in n with period f_L, so the series resums to
    (1/e_L) * sum_{r=1..f} S_r x^r / (1 - x^f).
    """
    f = datum.f
    s_by_class = [Fraction(0)] * f
    for g in datum.elements:
        s_by_class[datum.frobenius_class(g)] += a(g)
    num = QPoly([0])
    for r in range(1, f + 1):
        s_r = s_by_class[r % f]
        if s_r:
            num = num + QPoly([0] * r + [s_r])
    den = QPoly([1] + [0] * (f - 1) + [-1])  # 1 - x^f
    return RatFunc(num, den).scale(Fraction(1, datum.e))


def z_v_at_one(datum, a):
    """Z_v(a, 1) = (1/e_L) sum_r S_r x^r / (1 - x^f) at x = 1/q_v, as
    z_v_rational resums it: a(g) enters S_r for r = its class, f for class 0."""
    f, x = datum.f, Fraction(1, datum.q_v)
    num = sum(v * x ** (datum.frobenius_class(g) or f) for g in datum.elements if (v := a(g)))
    return num / (datum.e * (1 - x ** f))


def mu_art_v(datum, a):
    """mu_Art,v(a) = sum_g a(g) mu_L(g)."""
    total = Fraction(0)
    for g in datum.elements:
        v = a(g)
        if v:
            total += v * datum.mu(g)
    return total


# ---------------------------------------------------------------------------
# embeddings of a tame component and the induced class functions


class TameEmbedding(FrozenRecord):
    """An embedding of the tame component with invariants (f, e): residue
    part j mod f, uniformizer-root index k mod e (psi(y) = w^k pi)."""

    __slots__ = __match_args__ = ("j", "k", "f", "e")

    def __init__(self, j, k, f, e):
        self._set(j % f, k % e if e > 1 else 0, f, e)


def act_on_embedding(datum, g, psi):
    """The composed embedding g . psi on the tame datum."""
    if not isinstance(g, TameAut):
        raise WildTowerError("embedding actions are defined on the tame datum")
    j = (psi.j + g.a) % psi.f
    if psi.e == 1:
        return TameEmbedding(j, 0, psi.f, psi.e)
    k = (psi.k * pow(datum.q_v, g.a, psi.e) + g.k) % psi.e
    return TameEmbedding(j, k, psi.f, psi.e)


def indicator_pair_function(datum, phi, psi):
    """a_{K,phi,psi}(g) = 1 iff g.phi = psi."""
    return ClassFunctionQ.from_callable(
        datum, lambda g: 1 if act_on_embedding(datum, g, phi) == psi else 0
    )


def cm_characters(datum, cm_type_values, psi):
    """The functions a(g) = d_{g.psi} and a0(g) = (1/#G) sum_eta d_{(eta^-1 g eta).psi}.

    `cm_type_values` maps TameEmbedding -> integer for the component of psi.
    a0 is constant on conjugacy classes by construction.
    """
    def d_of(embedding):
        return cm_type_values.get(embedding, 0)

    a = ClassFunctionQ.from_callable(
        datum, lambda g: d_of(act_on_embedding(datum, g, psi))
    )
    n = len(datum.elements)
    vals = {}
    for g in datum.elements:
        total = Fraction(0)
        for eta in datum.elements:
            conj = datum.conjugate(g, eta)
            total += d_of(act_on_embedding(datum, conj, psi))
        vals[g] = total / n
    a0 = ClassFunctionQ(datum, vals)
    return a, a0


# ---------------------------------------------------------------------------
# global zeta functions and the regularized sum


def zeta_closed_forms(q):
    """(zeta_A, zeta_C) as rational functions of u = q^(-s):
    zeta_A = 1/(1 - q u) and zeta_C = 1/((1 - u)(1 - q u))."""
    zeta_a = RatFunc(QPoly([1]), QPoly([1, -q]))
    zeta_c = RatFunc(QPoly([1]), QPoly([1, -q]) * QPoly([1, -1]))
    return zeta_a, zeta_c


def z_infty_at(lfun, q, s0):
    """Z^infty at an integer point s0 for an L-function given as a RatFunc in
    u = q^(-s): the value is -u0 L'(u0)/L(u0) log q with u0 = q^(-s0)."""
    u0 = Fraction(q) ** (-s0)
    if lfun.has_pole_at(u0):
        raise PoleOrZeroError("L has a pole at s = %s" % s0)
    val = lfun.evaluate(u0)
    if val == 0:
        raise PoleOrZeroError("L vanishes at s = %s" % s0)
    dl = lfun.derivative().evaluate(u0)
    return LogQValue(-u0 * dl / val)


class ExplicitPlaceTerm(Record):
    """One explicitly computed summand x_v, tagged with the place data needed
    to reconstitute the tail convention there."""

    __slots__ = __match_args__ = ("label", "degree", "x_v", "z_v_at_one")
    # z_v_at_one: Z_v(a, 1) for the tail character at this place

    def __init__(self, label, degree, x_v, z_v_at_one):
        self._set(label, degree, x_v, z_v_at_one)


def regularized_sum(l_infty_star, q, mu_infty, genus, a_at_identity, explicit_terms):
    """Value of sum_{v != infty} x_v under the tail convention.

    The tail character a has x_v = -Z_v(a,1) log q_v at every place not
    listed; the value is

        -Z^infty(a*, 0) - mu^infty_Art(a) - 2 genus a(1) log q
            + sum_explicit (x_v + Z_v(a,1) log q_v).

    `l_infty_star` is the RatFunc (in u) representing L^infty(a*, s); the
    trivial character uses zeta_A.  `mu_infty` is an exact LogQValue.
    """
    total = -z_infty_at(l_infty_star, q, 0)
    total = total - mu_infty
    total = total - LogQValue(Fraction(2 * genus) * Fraction(a_at_identity))
    for term in explicit_terms:
        correction = term.x_v + LogQValue(term.z_v_at_one * term.degree)
        total = total + correction
    return total
