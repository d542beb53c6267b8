import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from ffperiods import towers
from ffperiods.cmshtuka import (
    PRECISION_UNITS,
    CMAlgebra,
    CMComponent,
    component_tower,
    max_recursion_depth,
    omega_period,
    recursion_family,
)
from ffperiods.fields import FqField
from ffperiods.lfunctions import LocalGaloisDatum
from ffperiods.series import InsufficientPrecisionError, TruncSeries
from ffperiods.towers import (
    LocalFieldTower,
    NonConvergenceError,
    NotEisensteinError,
    TameAut,
    TowerBoundError,
    TowerElem,
    TowerError,
    UnsupportedKummerError,
    mu_value,
    solve_additive_twist,
    solve_frobenius_recursion,
    solve_kummer,
    tame_apply,
    tame_group,
    newton_root,
    unit_nth_root_with_extension,
)
from test_acceptance import TAME_GRID


def kummer_tower(q_v, e, **kw):
    t = LocalFieldTower.base(q_v, **kw)
    z = t.uniformizer()
    return t.extend_eisenstein([-z] + [t.zero()] * (e - 1), name="pi")


def test_base_valuation():
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    assert z.valuation() == 1
    assert (z * z).valuation() == 2


def test_tame_kummer_extension():
    t2 = kummer_tower(3, 2)
    assert t2.e_abs == 2
    pi = t2.uniformizer()
    assert pi.valuation() == Fraction(1, 2)
    # pi^2 = z: check against the lifted base uniformizer
    z_up = t2.level_uniformizer(0)
    assert (pi.pow(2) - z_up).is_zero_within_precision()


def test_unramified_extension():
    t = LocalFieldTower.base(2).extend_unramified(2)
    assert t.residue.q == 4
    assert t.e_abs == 1 and t.f_abs == 2


def test_artin_schreier_shaped_eisenstein_accepted():
    # X^2 + z X - z over q_v = 2: v(const) = 1, v(middle) = 1 > 0
    t = LocalFieldTower.base(2)
    z = t.uniformizer()
    t2 = t.extend_eisenstein([-z, z], name="pi")
    assert t2.e_abs == 2
    # the defining polynomial vanishes at the uniformizer
    pi = t2.uniformizer()
    val = pi.pow(2) + t2.lift(z) * pi - t2.lift(z)
    assert val.is_zero_within_precision()


def test_not_eisenstein_rejected():
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    with pytest.raises(NotEisensteinError):
        t.extend_eisenstein([-z * z])  # constant term has order 2
    with pytest.raises(NotEisensteinError):
        t.extend_eisenstein([-z, t.one()])  # unit middle coefficient


def test_reexpand_identity_and_roundtrip():
    t2 = kummer_tower(3, 2)
    top = t2.level_uniformizer(1)
    assert top.series.terms == {1: t2.residue.one}
    # round-trip: z's re-expansion satisfies X - pi^2 = 0
    z_up = t2.level_uniformizer(0)
    assert (z_up - t2.uniformizer().pow(2)).is_zero_within_precision()


def test_reexpand_artin_schreier_by_hand():
    # tower base l0 with X^q + theta X - l0, theta = -l0^(q-1), q = 2:
    # l0 = l1^2 + l1^3 + l1^4 + ... (geometric, verified by hand for 2 terms)
    t = LocalFieldTower.base(2)
    tower, ells, _ = solve_frobenius_recursion(t, t.uniformizer(), 2, 1)
    # here l0 = zeta is the base uniformizer itself (qt - 1 = 1)
    l0 = tower.level_uniformizer(0)
    terms = l0.series.terms
    assert min(terms) == 2
    # first few coefficients are all 1: l1^2 + l1^3 + l1^4 ...
    for e in range(2, min(l0.series.prec, 8)):
        assert terms.get(e) == tower.residue.one


def test_reexpansion_refuses_a_non_unit_derivative():
    # X^2 - z^2 is not Eisenstein (extend_eisenstein refuses it first), so the
    # step is built by hand: a_0 has no z term and F'(w) = 2w is no unit
    base = LocalFieldTower.base(3)
    z = base.uniformizer()
    with pytest.raises(NotEisensteinError):
        base.extend_eisenstein({0: -(z * z)}, degree=2)
    top = LocalFieldTower(3, base.residue, 2, 1, base, ("eisenstein", {0: -(z * z)}, 2),
                          None, 40, "pi")
    with pytest.raises(NonConvergenceError, match="not a unit"):
        top._reexpand(40)


def test_reexpansion_refuses_an_error_that_does_not_grow():
    # X + z + z^2 X^-1 over F_2, built by hand (extend_eisenstein takes no
    # negative index): times X it is X^2 + zX + z^2, whose roots z w (w^2 + w
    # + 1 = 0) need F_4, so from w = z Newton's error stays at order 1
    base = LocalFieldTower.base(2)
    z = base.uniformizer()
    top = LocalFieldTower(2, base.residue, 1, 1, base, ("eisenstein", {0: z, -1: z * z}, 1),
                          None, 40, "pi")
    with pytest.raises(NonConvergenceError, match="stuck at order 1"):
        top._reexpand(40)


def test_solve_kummer_adjoins_mu_m_of_any_order():
    # mu_67 lives in F_(2^66): the unramified step has the multiplicative order
    # of 2 mod 67 as its degree, and only a tower's bound caps it
    t = LocalFieldTower.base(2)
    z = t.uniformizer()
    top, root = solve_kummer(t, 67, z)
    assert top.degree() == 66 * 67 and top.residue.q == 2 ** 66
    assert (root.pow(67) - top.lift(z)).is_zero_within_precision()
    capped = LocalFieldTower.base(2, bound=64)
    with pytest.raises(TowerBoundError):
        solve_kummer(capped, 67, capped.uniformizer())


def test_tower_bound():
    t = LocalFieldTower.base(2, bound=4)
    z = t.uniformizer()
    t2 = t.extend_eisenstein([-z] + [t.zero()] * 2)  # degree 3
    with pytest.raises(TowerBoundError):
        t2.extend_eisenstein([-t2.uniformizer(), t2.lift(z)])


def test_base_tower_has_no_cap():
    # only a tower built with a bound is capped
    t = LocalFieldTower.base(2)
    z = t.uniformizer()
    top = t.extend_eisenstein({0: -z}, degree=65)
    assert top.degree() == 65 and top.bound is None
    assert (top.uniformizer().pow(65) - top.lift(z)).is_zero_within_precision()


@pytest.mark.parametrize("q_v,f,e", [(2, 1, 1), (2, 2, 3), (3, 1, 2), (4, 2, 5)])
def test_tame_tower_shape(q_v, f, e):
    t = LocalFieldTower.tame(q_v, f, e)
    assert t.degree() == f * e and t.bound is None
    assert t.tame_shape()[:2] == (f, e)
    assert t.name == ("pi" if e > 1 else "z")


def test_component_and_galois_towers_share_the_tame_builder(monkeypatch):
    built = []
    tame = LocalFieldTower.tame.__func__

    def spy(cls, *args, **kw):
        built.append(args)
        return tame(cls, *args, **kw)

    monkeypatch.setattr(LocalFieldTower, "tame", classmethod(spy))
    component_tower(CMAlgebra(3, [CMComponent(1, 2)]), 0)
    datum = LocalGaloisDatum.tame(3, 1, 2)
    assert built == [(3, 1, 2)]  # the datum builds its tower on the first inertia mu
    datum.mu(TameAut(0, 1, 1, 2, 3))
    assert built == [(3, 1, 2), (3, 1, 2)]


def test_solve_kummer_eisenstein_case():
    # q_v = 3: x^2 = -z gives a uniformizer of valuation 1/2
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    t2, root = solve_kummer(t, 2, -z)
    assert root.valuation() == Fraction(1, 2)
    assert (root.pow(2) + t2.lift(z)).is_zero_within_precision()


def test_solve_kummer_trivial_and_unramified_first():
    t = LocalFieldTower.base(2)
    z = t.uniformizer()
    t1, r1 = solve_kummer(t, 1, z)
    assert r1.series.terms == z.series.terms
    # m = 3 over q_v = 2: 3 | 2^2 - 1 forces the residue extension to F_4
    t3, r3 = solve_kummer(t, 3, z)
    assert t3.residue.q == 4
    assert r3.valuation() == Fraction(1, 3)
    assert (r3.pow(3) - t3.lift(z)).is_zero_within_precision()


def test_solve_kummer_in_field_unit_root():
    # x^2 = z^2 * unit over q_v = 3 stays in the field
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    a = z * z
    t2, r = solve_kummer(t, 2, a)
    assert t2 is t
    assert (r * r - a).is_zero_within_precision()


def test_solve_kummer_unsupported_order():
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    with pytest.raises(UnsupportedKummerError):
        solve_kummer(t, 2, z.pow(3))


def test_frobenius_recursion_valuations():
    # criterion-7 shape: v(l_n) = v(xi) qt^(-n) / (qt - 1)
    for q_v, qt in [(2, 2), (3, 3), (4, 4)]:
        t = LocalFieldTower.base(q_v)
        tower, ells, _ = solve_frobenius_recursion(t, t.uniformizer(), qt, 2)
        for n, ell in enumerate(ells):
            assert ell.valuation() == Fraction(1, qt ** n * (qt - 1))


def test_frobenius_recursion_base_cases():
    # q_v=2, qt=2, N=0: l0 = -zeta = zeta in char 2
    t = LocalFieldTower.base(2)
    tower, ells, _ = solve_frobenius_recursion(t, t.uniformizer(), 2, 0)
    assert tower is t
    assert ells[0].series.terms == t.uniformizer().series.terms
    # q_v=3, qt=3, N=0: v(l0) = 1/2
    t3 = LocalFieldTower.base(3)
    tower3, ells3, _ = solve_frobenius_recursion(t3, t3.uniformizer(), 3, 0)
    assert ells3[0].valuation() == Fraction(1, 2)
    # q_v=2, qt=2, N=1: v(l1) = 1/2
    t2 = LocalFieldTower.base(2)
    tower2, ells2, _ = solve_frobenius_recursion(t2, t2.uniformizer(), 2, 1)
    assert ells2[1].valuation() == Fraction(1, 2)


def test_recursion_lifts_xi_per_level_and_reads_each_older_ell_once(monkeypatch):
    # one lift of xi per level (plus one onto l_0's tower), one lift of
    # l_(d-1) to the top and d - 1 relation powers: 10 lifts and 7 powers at
    # depth 8, where lifting every l_j at every level made 17 and 28
    lifts, powers = [], []
    lift, power = LocalFieldTower.lift, TowerElem.pow

    def counted_lift(self, elem, prec=None):
        lifts.append(elem)
        return lift(self, elem, prec)

    def counted_pow(self, n):
        powers.append(n)
        return power(self, n)

    monkeypatch.setattr(LocalFieldTower, "lift", counted_lift)
    monkeypatch.setattr(TowerElem, "pow", counted_pow)
    t = LocalFieldTower.base(2)
    tower, ells, _ = solve_frobenius_recursion(t, t.uniformizer(), 2, 8)
    assert (len(lifts), powers) == (10, [2] * 7)
    assert len(ells) == 9 and tower.degree() == 2 ** 8


def test_recursion_l0_is_minus_xi_at_qt_2():
    # at qt = 2, l_0 = -xi is no uniformizer: over F_4, xi = c z with c != 1
    t = LocalFieldTower.base(2).extend_unramified(2)
    c = next(a for a in t.residue.elements() if not a.is_zero() and a != t.residue.one)
    xi = t.uniformizer().scale_coeff(c)
    tower, ells, xi_top = solve_frobenius_recursion(t, xi, 2, 3)
    assert ells[0].series == tower.lift(-xi).series
    assert ells[0].series != tower.level_uniformizer(0).series
    for n in range(1, 4):
        assert (ells[n].pow(2) + xi_top * ells[n] - ells[n - 1]).is_zero_within_precision()


def test_defining_polynomials_vanish_at_uniformizers():
    t = LocalFieldTower.base(3)
    tower, ells, xi = solve_frobenius_recursion(t, t.uniformizer(), 3, 2)
    # the returned xi is the base uniformizer lifted to the top
    assert xi.series == tower.level_uniformizer(0).series == tower.lift(t.uniformizer()).series
    for n in range(1, 3):
        lhs = ells[n].pow(3) + xi * ells[n] - ells[n - 1]
        assert lhs.is_zero_within_precision()
    assert (ells[0].pow(2) + xi).is_zero_within_precision()


def test_different_unramified_is_zero():
    t = LocalFieldTower.base(2).extend_unramified(3)
    assert t.different_valuation() == 0


def test_different_tame_kummer():
    t2 = kummer_tower(3, 2)
    assert t2.different_valuation() == Fraction(1, 2)


@pytest.mark.parametrize("e,q_v", [(2, 3), (3, 4), (4, 5), (5, 11), (6, 7), (7, 8), (8, 9)])
def test_different_tame_formula(e, q_v):
    # derivative oracle: for X^e - z the different is (e-1)/e
    t = kummer_tower(q_v, e, bound=16)
    assert t.different_valuation() == Fraction(e - 1, e)


def test_different_wild_artin_schreier():
    # X^2 + zX - z over q_v = 2: derivative is z in char 2, so v(D) = 1
    t = LocalFieldTower.base(2)
    z = t.uniformizer()
    t2 = t.extend_eisenstein([-z, z])
    assert t2.different_valuation() == 1


def test_valuation_homomorphism():
    t = kummer_tower(3, 2)
    pi = t.uniformizer()
    z = t.level_uniformizer(0)
    a = pi + z
    b = pi.pow(3) + z * pi
    assert (a * b).valuation() == a.valuation() + b.valuation()
    s = a + b
    assert s.valuation() >= min(a.valuation(), b.valuation())


def test_tame_aut_group_law_and_mu():
    # e=2 over q_v=3: mu(identity) = v(D) = 1/2, mu(inertia flip) = -1/2
    t = kummer_tower(3, 2)
    gid = TameAut(0, 0, 1, 2, 3)
    gflip = TameAut(0, 1, 1, 2, 3)
    assert mu_value(t, gid) == Fraction(1, 2)
    assert mu_value(t, gflip) == Fraction(-1, 2)
    # off inertia
    t4 = LocalFieldTower.base(2).extend_unramified(2)
    frob = TameAut(1, 0, 2, 1, 2)
    assert mu_value(t4, frob) == 0


@pytest.mark.parametrize("q_v,f,e", [(3, 1, 2), (2, 2, 3), (3, 2, 4), (2, 2, 1)])
def test_inertia_sum_zero(q_v, f, e):
    t = LocalFieldTower.base(q_v).extend_unramified(f)
    if e > 1:
        z = t.uniformizer()
        t = t.extend_eisenstein([-z] + [t.zero()] * (e - 1))
    total = Fraction(0)
    for g in tame_group(q_v, f, e):
        if g.a == 0:
            total += mu_value(t, g)
    assert total == 0


def test_tame_apply_respects_relations():
    # g(pi)^e must equal g(z) = z
    q_v, f, e = 2, 2, 3
    t = LocalFieldTower.base(q_v).extend_unramified(f)
    z = t.uniformizer()
    t = t.extend_eisenstein([-z] + [t.zero()] * (e - 1))
    for g in tame_group(q_v, f, e):
        gpi = tame_apply(t, g, t.uniformizer())
        assert (gpi.pow(e) - t.level_uniformizer(0)).is_zero_within_precision()


def test_tame_aut_composition_is_consistent_with_action():
    q_v, f, e = 2, 2, 3
    t = LocalFieldTower.base(q_v).extend_unramified(f)
    z = t.uniformizer()
    t = t.extend_eisenstein([-z] + [t.zero()] * (e - 1))
    pi = t.uniformizer()
    x = pi + t.level_uniformizer(0)
    for g in tame_group(q_v, f, e):
        for h in tame_group(q_v, f, e):
            # the fixed law composes left-factor-first
            lhs = tame_apply(t, g * h, x)
            rhs = tame_apply(t, h, tame_apply(t, g, x))
            assert (lhs - rhs).is_zero_within_precision()


def derivative_congruence_check(z_series, psi_of_y):
    """Check ((f(y) - f(a)) / (y - a))|_{y=a} == f'(a) at a = psi_of_y.

    f = z_series over the tower's residue field; the quotient is produced by
    exact synthetic division, then both sides are evaluated in the tower.
    """
    tower = psi_of_y.tower
    if z_series.field is not tower.residue:
        raise ValueError("series coefficients must live in the tower's residue field")
    if z_series.prec is not None and z_series.prec < 2:
        raise InsufficientPrecisionError("need at least two known coefficients")
    if z_series.terms and min(z_series.terms) < 0:
        raise ValueError("z must be integral in y")
    a = psi_of_y
    hi = max(z_series.terms) if z_series.terms else 0
    coeffs = [tower.from_residue(z_series.terms.get(e, tower.residue.zero))
              for e in range(hi + 1)]
    # synthetic division f(y) - f(a) = (y - a) q(y): q_{j-1} = b_j + a*q_j
    q = [tower.zero()] * max(hi, 1)
    carry = tower.zero()
    for j in range(hi, 0, -1):
        carry = coeffs[j] + carry * a
        q[j - 1] = carry
    quotient_at_a = tower.zero()
    for j in range(len(q) - 1, -1, -1):
        quotient_at_a = quotient_at_a * a + q[j]
    deriv = z_series.derivative()
    deriv_at_a = tower.zero()
    for e in sorted(deriv.terms):
        deriv_at_a = deriv_at_a + a.pow(e).scale_coeff(deriv.terms[e])
    return (quotient_at_a - deriv_at_a).is_zero_within_precision()


def test_derivative_congruence_examples():
    F3 = FqField(3, 1)
    t = kummer_tower(3, 2)
    pi = t.uniformizer()
    # z = y: quotient is 1
    assert derivative_congruence_check(TruncSeries(F3, {1: 1}), pi)
    # z = y^2: (y^2 - pi^2)/(y - pi) = y + pi -> 2*pi = psi(2y)
    assert derivative_congruence_check(TruncSeries(F3, {2: 1}), pi)
    # z = y^3 in char 3: derivative 0, quotient y^2+y*pi+pi^2 -> 3 pi^2 = 0
    assert derivative_congruence_check(TruncSeries(F3, {3: 1}), pi)


def test_newton_root_simple():
    # sqrt of 1 + z over q_v = 3
    t = LocalFieldTower.base(3)
    a = t.one() + t.uniformizer()
    root = newton_root(t, [-a, t.zero(), t.one()], t.residue.one)
    assert ((root * root) - a).is_zero_within_precision()


def test_newton_raises_when_the_error_does_not_shrink():
    # a correction that leaves x where it is: the second F(x) has the order of
    # the first, and the loop raises right there
    t = LocalFieldTower.base(3, prec=10)
    z = t.uniformizer()
    seen = []

    def f(x):
        seen.append(x)
        return x - z

    with pytest.raises(NonConvergenceError, match="no progress"):
        towers._newton(t.zero(), f, lambda x, fx: t.zero(), 10,
                       NonConvergenceError("no progress"))
    assert len(seen) == 2
    # the true correction F(x)/F'(x) = F(x) reaches the root z in one step
    root = towers._newton(t.zero(), f, lambda x, fx: fx, 10, NonConvergenceError("no progress"))
    assert root.series.terms == z.series.terms


def field_walk_root_degree(res, lead, n, limit=4096):
    """The least t such that F_(Q^t), Q = |res|, holds an n-th root of lead,
    found as unit_nth_root_with_extension once did: each candidate field is
    built and lead is embedded into it.  None when Q^t would pass `limit`."""
    t = 1
    while res.q ** t <= limit:
        order = res.q ** t - 1
        if t == 1:
            big, emb = res, lead
        else:
            big = FqField(res.p, res.k * t)
            emb = res.embedding(big)(lead)
        if emb ** (order // gcd(n, order)) == big.one:
            return t
        t += 1
    return None


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_unit_root_extension_degree_matches_the_field_walk(q):
    # the degree is read in F_q itself; an embedding is injective, so it is
    # the degree that building each larger field and embedding c into it gave
    base = LocalFieldTower.base(q, prec=8)
    res = base.residue
    for c in res.elements():
        for n in range(1, 9):
            t = None if c.is_zero() or n % res.p == 0 else field_walk_root_degree(res, c, n)
            if t is None:
                continue
            unit = base.from_residue(c) + base.uniformizer()
            tower, x = unit_nth_root_with_extension(base, unit, n)
            assert tower.residue.q == q ** t, (c, n)
            assert (x.pow(n) - tower.lift(unit)).is_zero_within_precision()


def test_additive_twist_solver():
    # g - g^2 = z has the solution with residue 0
    t = LocalFieldTower.base(2)
    tower, g = solve_additive_twist(t, t.uniformizer(), 2)
    assert (g - g.pow(2) - tower.lift(t.uniformizer())).is_zero_within_precision()
    # unit right-hand side forcing a residue extension: g - g^2 = 1 over F_2
    tower2, g2 = solve_additive_twist(t, t.one(), 2)
    assert tower2.residue.q == 4
    assert (g2 - g2.pow(2) - tower2.one()).is_zero_within_precision()


def reexpand_down(tower, level, depth):
    """Test-side reference: the uniformizer of Eisenstein level `level` as an
    element of `tower`, to absolute precision depth/e_abs (depth in
    top-uniformizer units)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    eis = [t for t in tower.depth_levels() if t.step is None or t.step[0] == "eisenstein"]
    return tower.lift(eis[level].uniformizer(), depth)


def test_reexpand_down_function():
    t2 = kummer_tower(3, 2)
    z_up = reexpand_down(t2, 0, 8)
    assert (z_up - t2.uniformizer().pow(2)).is_zero_within_precision()
    assert reexpand_down(t2, 1, 4).series.terms == {1: t2.residue.one}
    with pytest.raises(ValueError):
        reexpand_down(t2, 0, 0)


from hypothesis import example, given, settings, strategies as st

_tower34 = None


def _hyp_tower():
    global _tower34
    if _tower34 is None:
        _tower34 = kummer_tower(3, 4, bound=8)
    return _tower34


small_elems = st.dictionaries(
    st.integers(min_value=-2, max_value=6),
    st.integers(min_value=0, max_value=2),
    min_size=1, max_size=4,
)


@given(small_elems, small_elems)
@settings(max_examples=40, deadline=None)
def test_valuation_multiplicative_property(ta, tb):
    t = _hyp_tower()
    a = t.element(ta)
    b = t.element(tb)
    if a.series.terms and b.series.terms:
        assert (a * b).valuation() == a.valuation() + b.valuation()
        s = a + b
        if s.series.terms:
            assert s.valuation() >= min(a.valuation(), b.valuation())


# -- sparse Eisenstein steps ----------------------------------------------------


def _outcome(fn):
    """fn()'s value, or the type and message of the TowerError it raised."""
    try:
        return ("value", fn())
    except TowerError as exc:
        return ("error", type(exc), str(exc))


@st.composite
def eisenstein_data(draw):
    q_v = draw(st.sampled_from([2, 3, 4, 9]))
    m = draw(st.integers(min_value=1, max_value=5))
    residue = st.integers(min_value=0, max_value=q_v - 1)
    a0 = {1: draw(st.integers(min_value=1, max_value=q_v - 1))}
    a0.update({e: draw(residue) for e in range(2, draw(st.integers(2, 4)))})
    others = []
    for _ in range(m - 1):
        kind = draw(st.sampled_from(["exact zero", "inexact zero", "positive"]))
        if kind == "positive":
            others.append((kind, {e: draw(residue) for e in range(1, draw(st.integers(2, 4)))}))
        else:
            others.append((kind, draw(st.integers(min_value=1, max_value=4))))
    return q_v, a0, others, draw(st.integers(min_value=1, max_value=24))


def _drawn_step(data, units=2):
    """The tower over F_{q_v}((z)) with the Eisenstein step eisenstein_data
    draws, or None where that step is not Eisenstein."""
    q_v, a0_terms, others, _ = data
    t = LocalFieldTower.base(q_v, units=units)
    coeffs = {0: t.element(a0_terms).scale_coeff(-t.residue.one)}
    for j, (kind, spec) in enumerate(others, 1):
        if kind != "exact zero":
            coeffs[j] = t.zero(spec) if kind == "inexact zero" else t.element(spec)
    try:
        return t, coeffs, t.extend_eisenstein(coeffs, degree=len(others) + 1)
    except NotEisensteinError:
        return None  # a_0's z coefficient is 0 in characteristic p


@given(eisenstein_data())
@settings(max_examples=60, deadline=None)
def test_sparse_step_matches_dense_list(data):
    q_v, a0_terms, others, prec = data
    t = LocalFieldTower.base(q_v)
    coeffs = [t.element(a0_terms).scale_coeff(-t.residue.one)]
    for kind, spec in others:
        if kind == "exact zero":
            coeffs.append(t.zero())
        elif kind == "inexact zero":
            coeffs.append(t.zero(spec))
        else:
            coeffs.append(t.element(spec))
    sparse = {j: c for j, c in enumerate(coeffs)
              if j == 0 or c.series.terms or c.series.prec is not None}
    dense = _outcome(lambda: t.extend_eisenstein(coeffs))
    mapped = _outcome(lambda: t.extend_eisenstein(sparse, degree=len(coeffs)))
    assert dense[0] == mapped[0]
    if dense[0] == "error":
        assert dense == mapped
        return
    t_dense, t_map = dense[1], mapped[1]
    assert t_map.step[1] == sparse
    for fn in (lambda t2: t2._prev_uniformizer(prec), lambda t2: t2.different_valuation(),
               lambda t2: t2.tame_shape()):
        assert _outcome(lambda: fn(t_dense)) == _outcome(lambda: fn(t_map))


def test_sparse_step_index_out_of_range():
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    for bad in ({0: -z, 3: z}, {-1: z, 0: -z}, {1: z}):
        with pytest.raises(ValueError):
            t.extend_eisenstein(bad, degree=3)
    with pytest.raises(ValueError):
        t.extend_eisenstein({0: -z})  # a map needs its degree
    with pytest.raises(ValueError):
        t.extend_eisenstein([])


def test_recursion_step_costs_its_nonzero_coefficients(monkeypatch):
    # q_v = 2^18: the steps have degree 2^18 - 1 and 2^18, but two coefficients
    calls = []
    lift_from = LocalFieldTower.lift_from

    def counting_lift_from(self, x):
        calls.append(x)
        return lift_from(self, x)

    monkeypatch.setattr(LocalFieldTower, "lift_from", counting_lift_from)
    t = LocalFieldTower.base(2 ** 18, bound=2 ** 40)
    tower, ells, _ = solve_frobenius_recursion(t, t.uniformizer(), 2 ** 18, 1)
    steps = [lvl.step for lvl in tower.depth_levels()
             if lvl.step is not None and lvl.step[0] == "eisenstein"]
    assert [s[2] for s in steps] == [2 ** 18 - 1, 2 ** 18]
    assert all(len(s[1]) <= 2 for s in steps)
    assert len(calls) <= 8


# -- Newton re-expansion against the fixed point -----------------------------------


def reexpand_by_fixed_point(tower, prec):
    """The re-expansion by the linear fixed point w <- -(pi^m + sum_{j>=1}
    a_j(w) pi^j) / u(w), with a_0 = sum c_r T^r and u = sum c_r T^(r-1),
    from the exact w = 0; each sweep must gain valuation."""
    coeffs, m = tower.step[1], tower.step[2]
    res = tower.residue
    a0 = coeffs[0].series
    if len(coeffs) == 1 and a0.prec is None and set(a0.terms) == {1}:
        return TruncSeries.monomial(res, m, (-a0.terms[1].inv()))
    u_series = TruncSeries(res, {e - 1: c for e, c in a0.terms.items()},
                           None if a0.prec is None else a0.prec - 1)
    w, last_gain = TruncSeries.zero(res), None
    for _ in range(prec + 8):
        sweep = {s: towers._subst(s, w, prec)
                 for s in {u_series, *(cj.series for j, cj in coeffs.items() if j)}}
        rhs = TruncSeries.monomial(res, m)
        for j, cj in coeffs.items():
            if j:
                rhs = rhs + sweep[cj.series] * TruncSeries.monomial(res, j)
        rhs = rhs.scale(-res.one)
        denom = sweep[u_series]
        inv_target = prec if denom.prec is None else min(prec, denom.prec)
        new_w = (rhs * denom.inv(inv_target)).truncate(prec)
        diff = new_w - w
        if not diff.terms or diff.ord() >= prec:
            return new_w
        assert last_gain is None or diff.ord() > last_gain, "the fixed point stalled"
        last_gain = diff.ord()
        w = new_w
    raise AssertionError("the fixed point did not converge")


def test_newton_reexpansion_matches_fixed_point_on_grid_families(monkeypatch):
    # every Eisenstein step of every recursion family of the acceptance grid,
    # at both precision units; the memo entries a solve seeds are the fresh
    # substitutions the lifts would make
    seeded = []
    reexpand = LocalFieldTower._reexpand

    def recording(self, prec):
        before = set(self._subst_memo)
        w = reexpand(self, prec)
        seeded.extend((key, self._subst_memo[key]) for key in set(self._subst_memo) - before)
        return w

    monkeypatch.setattr(LocalFieldTower, "_reexpand", recording)
    steps = inexact = seeds = 0
    for q_v, f, e in TAME_GRID:
        cm = CMAlgebra(q_v, [CMComponent(f, e)])
        for phi in cm.embeddings():
            for units in PRECISION_UNITS:
                fam = recursion_family(cm, phi, max_recursion_depth(cm, 0), units=units)
                for t in fam.tower.depth_levels():
                    if t.step is None or t.step[0] != "eisenstein":
                        continue
                    got = t._prev_uniformizer(t.prec)
                    assert got == reexpand_by_fixed_point(t, t.prec), (q_v, f, e, phi, t.name)
                    coeffs, a0 = t.step[1], t.step[1][0].series
                    steps += 1
                    inexact += any(c.series.prec is not None for c in coeffs.values())
                    if len(coeffs) > 1 or a0.prec is not None or set(a0.terms) != {1}:
                        # not a pure Kummer step: Newton ran, and seeded each series
                        seeds += len({c.series for c in coeffs.values()})
    assert steps > 100 and inexact > 10
    assert len(seeded) == seeds > 40
    for (series, w, prec), value in seeded:
        assert value == towers._subst(series, w, prec)


def _step(q_v, coeffs, m):
    """The tower over F_{q_v}((z)) with the Eisenstein step {j: (terms, prec)}."""
    base = LocalFieldTower.base(q_v)
    return base.extend_eisenstein({j: base.element(*c) for j, c in coeffs.items()}, degree=m)


def _assert_seeded_fresh(top, coeffs):
    # the construction seeded one memo entry per coefficient, each the
    # substitution a lift would make
    assert len(top._subst_memo) == len(coeffs)
    for (series, w, prec), value in top._subst_memo.items():
        assert value == towers._subst(series, w, prec)


@pytest.mark.parametrize("q_v, coeffs, m", [
    (3, {0: ({1: -1, 2: 1}, 4)}, 2),  # inexact a_0 alone
    (3, {0: ({1: 1}, None), 1: ({1: 1, 3: 1}, 5)}, 3),  # inexact a_1
    (2, {0: ({1: 1, 3: 1}, 6), 1: ({2: 1}, 4), 3: ({1: 1, 2: 1}, None)}, 4),
    (4, {0: ({1: 1, 2: 1}, None), 1: ({1: 1}, 3), 2: ({2: 1, 5: 1}, None),
         4: ({1: 1}, 7)}, 5),  # four coefficients
    (9, {0: ({1: 2, 4: 1}, None), 1: ({1: 1}, None), 2: ({3: 1}, None)}, 3),
])
def test_newton_reexpansion_matches_fixed_point_on_inexact_steps(q_v, coeffs, m):
    top = _step(q_v, coeffs, m)
    _assert_seeded_fresh(top, coeffs)
    for prec in (top.prec, 7, 20):
        got = top._reexpand(prec)
        assert got == reexpand_by_fixed_point(top, prec), prec


def test_newton_reexpansion_refines_the_fixed_point_on_inexact_zeros():
    # X^3 + O(z^2) X + z over F_3: the fixed point's first sweep from w = 0
    # knows a_1(0) only to O(T^2), so it returns O(T^3) with no term; Newton
    # starts from the exact w = -T^3, where a_1(w) T is known to O(T^7)
    top = _step(3, {0: ({1: 1}, None), 1: ({}, 2)}, 3)
    _assert_seeded_fresh(top, {0: None, 1: None})
    got, ref = top._prev_uniformizer(top.prec), reexpand_by_fixed_point(top, top.prec)
    assert ref == TruncSeries.zero(top.residue, 3)
    assert got == TruncSeries(top.residue, {3: -1}, 7)


@given(eisenstein_data())
@settings(max_examples=60, deadline=None)
def test_newton_reexpansion_agrees_with_fixed_point(data):
    # equal on a step without an inexact zero coefficient; with one, the
    # fixed point's first sweep from w = 0 may lose precision, and Newton
    # agrees with it to its precision and knows at least as far
    built = _drawn_step(data)
    if built is None:
        return
    top, others, prec = built[2], data[2], data[3]
    got, ref = top._reexpand(prec), reexpand_by_fixed_point(top, prec)
    if any(kind == "inexact zero" for kind, _ in others):
        assert got.prec >= ref.prec and got.truncate(ref.prec) == ref
    else:
        assert got == ref


# -- each substitution once -------------------------------------------------------


def test_omega_period_substitutes_nothing_twice(monkeypatch):
    # every towers._subst call, keyed by the tower that makes it
    calls = Counter()
    subst = towers._subst

    def recording_subst(series, w, prec, power=None):
        frame = sys._getframe(1)
        while not isinstance(frame.f_locals.get("self"), LocalFieldTower):
            frame = frame.f_back
        calls[frame.f_locals["self"], series, w, prec] += 1
        return subst(series, w, prec, power)

    monkeypatch.setattr(towers, "_subst", recording_subst)
    cm = CMAlgebra(9, [CMComponent(1, 8)])
    phi, psi = cm.embeddings()[:2]
    omega_period(cm, phi, psi, depth=3, bound=10 ** 5)
    repeated = [(key[0].name, key[3], n) for key, n in calls.items() if n > 1]
    assert calls and not repeated


@given(st.sampled_from([2, 3, 4]), st.integers(min_value=2, max_value=4),
       st.dictionaries(st.integers(min_value=-1, max_value=6),
                       st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
@settings(max_examples=40, deadline=None)
def test_lift_at_two_precisions_truncates_correctly(q_v, m, terms, p1, p2):
    # a fresh tower per precision is the reference: the memo must not hand
    # one target's substitution to another
    def fresh():
        t = LocalFieldTower.base(q_v)
        z = t.uniformizer()
        return t, t.extend_eisenstein({0: -z, 1: z * z}, degree=m)

    terms = {e: c % q_v or 1 for e, c in terms.items()}
    base, top = fresh()
    got = [top.lift(base.element(terms), p) for p in (p1, p2, p1)]
    for p, y in zip((p1, p2, p1), got):
        base2, top2 = fresh()
        assert y.series == top2.lift(base2.element(terms), p).series


def test_lift_of_a_better_known_input_claims_no_less():
    # X^2 + O(z) X - z over F_2: w = T^2 + O(T^3), and (w + O(T^3))^2 is
    # known to O(T^5), so z^2 lifts past the O(T^4) that O(z^2) lifts to
    base = LocalFieldTower.base(2)
    z = base.uniformizer()
    top = base.extend_eisenstein({0: -z, 1: base.zero(1)}, degree=2)
    assert top._prev_uniformizer(top.prec) == TruncSeries(top.residue, {2: 1}, 3)
    assert top.lift(base.zero(2)).series == TruncSeries.zero(top.residue, 4)
    assert top.lift(z * z).series == TruncSeries(top.residue, {4: 1}, 5)
    assert top.lift(z.pow(3)).series == TruncSeries(top.residue, {6: 1}, 7)


@pytest.mark.parametrize("target", [1, 2, 7, 8, 9, 20])
def test_lift_negative_exponent_to_full_target(target):
    # X^4 + z^2 X + z over F_2: 1 + z^-1 lifts to O(T^target) at every
    # target, and z^-1 times the lift of z is 1 to the product's precision
    base = LocalFieldTower.base(2)
    z = base.uniformizer()
    top = base.extend_eisenstein({0: z, 1: z * z}, degree=4)
    y = top.lift(base.element({0: 1, -1: 1}), target)
    assert y.series.prec == target and y.ord() == -4
    check = (y - top.one()) * top.lift(z, target + 8) - top.one()
    assert not check.series.terms and check.series.prec == target + 4


@pytest.mark.parametrize("q_v, law", [(3, "l_0"), (2, "l_1")])
def test_recursion_valuation_law_raises(monkeypatch, q_v, law):
    # a wrong valuation must stop the solver even under python -O
    monkeypatch.setattr(TowerElem, "valuation", lambda self: Fraction(1))
    t = LocalFieldTower.base(q_v, bound=10 ** 4)
    with pytest.raises(TowerError, match=law):
        solve_frobenius_recursion(t, t.uniformizer(), q_v, 1)


# -- precision that is never overclaimed ---------------------------------------------


@given(eisenstein_data(), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_lift_claims_no_term_its_input_does_not_know(data, known, extra, draw):
    # x is known to O(z^P); y agrees with x below z^P, has a term at z^P and
    # is known further.  Their lifts must agree below the precisions both
    # claim: a lift of x that claimed the T^(P m) coefficient would differ
    built = _drawn_step(data)
    if built is None:
        return
    base, _, top = built
    q_v = data[0]
    digits = st.integers(min_value=0, max_value=q_v - 1)
    terms = draw.draw(st.dictionaries(st.integers(0, known - 1), digits, max_size=4))
    more = {known: draw.draw(st.integers(min_value=1, max_value=q_v - 1))}
    more.update(draw.draw(st.dictionaries(st.integers(known + 1, known + extra), digits)))
    x = top.lift(base.element(terms, prec=known))
    y = top.lift(base.element({**terms, **more}, prec=draw.draw(
        st.sampled_from([None, known + extra + 1]))))
    prec = min(x.series.prec, y.series.prec)
    assert y.series.truncate(prec) == x.series.truncate(prec)


@given(eisenstein_data(), st.integers(min_value=1, max_value=8))
@example(data=(2, {1: 1, 2: 1}, [], 1), units=1)  # prec 33; Newton passes ord c = 16
@settings(max_examples=60, deadline=None)
def test_lift_through_the_seeded_memo_equals_a_fresh_substitution(data, units):
    # the re-expansion seeds the memo with each coefficient's substitution;
    # that seed must be what the substitution itself gives, in terms and prec,
    # at every working precision the units draw
    built = _drawn_step(data, units)
    if built is None:
        return
    _, coeffs, top = built
    seeded = [top.lift(c) for c in coeffs.values()]
    top._subst_memo.clear()
    assert [top.lift(c).series for c in coeffs.values()] == [y.series for y in seeded]


def reexpand_at_full_precision(tower, prec):
    """The re-expansion with every Newton step at the working precision: F'(w)
    to T^(prec - k) and w carried at its own precision.  Returns the root and
    the memo seeds {series: seed} the re-expansion would make."""
    coeffs, m = tower.step[1], tower.step[2]
    res, a0 = tower.residue, coeffs[0].series
    w, last = TruncSeries.monomial(res, m, -a0.terms[1].inv()), 0
    if len(coeffs) == 1 and a0.prec is None and len(a0.terms) == 1:
        return w, {}
    while True:
        power = towers._powers_of(w, prec)
        vals = {j: towers._subst(cj.series, w, prec, power) for j, cj in coeffs.items()}
        f = sum((v.shift(j) for j, v in vals.items()), TruncSeries.monomial(res, m))
        if not f.terms:
            w = w.truncate(f.prec)
            break
        k = f.ord()
        assert k > last, "the error stopped growing"
        last = k
        dvals = {j: towers._subst(cj.series.derivative(), w, prec - k, power)
                 for j, cj in coeffs.items()}
        c = f * sum((v.shift(j) for j, v in dvals.items() if j), dvals[0]).inv()
        if 2 * k >= prec:
            w, vals = (w - c).truncate(prec), {j: v - dvals[j] * c for j, v in vals.items()}
            break
        w = w - c
    if not w.terms:
        return w, {}
    seeds = {}
    for j, cj in coeffs.items():
        low = min((e for e in cj.series.terms if e), default=None)
        seeds[cj.series] = (vals[j] if low is None
                            else vals[j].truncate(w.prec + (low - 1) * w.ord()))
    return w, seeds


@st.composite
def recursion_steps(draw):
    """X^qt + xi X - l over F_{q_v}((z)): l of order 1, xi of positive order,
    each sparse or dense, exact or known to a drawn precision.  A coefficient
    is drawn as its index in the field's code order."""
    q_v = draw(st.sampled_from([2, 3, 9]))
    qt = q_v ** draw(st.integers(min_value=1, max_value=2 if q_v < 9 else 1))
    unit = st.integers(min_value=1, max_value=q_v - 1)

    def series(low):
        top = low + draw(st.sampled_from([1, 2, 12]))  # sparse or dense
        terms = {low: draw(unit)}
        terms.update({e: draw(st.integers(0, q_v - 1)) for e in range(low + 1, top)
                      if draw(st.booleans())})
        return terms, draw(st.sampled_from([None, top, top + 5]))

    return q_v, qt, series(1), series(draw(st.integers(min_value=1, max_value=3)))


@given(recursion_steps(), st.integers(min_value=1, max_value=80))
@example(data=(2, 2, ({1: 1, 2: 1}, None), ({1: 1}, None)), prec=7)  # 2k = prec - 1
@settings(max_examples=80, deadline=None)
def test_reexpansion_steps_at_delivered_precision_match_full_precision(data, prec):
    # Newton steps before the last run only to the precision they deliver;
    # the root and the memo seeds must be what full-precision steps give
    q_v, qt, (l_terms, l_prec), (xi_terms, xi_prec) = data
    base = LocalFieldTower.base(q_v)
    codes = list(base.residue.elements())

    def element(terms, known):
        return base.element({e: codes[i] for e, i in terms.items()}, known)

    step = {0: -element(l_terms, l_prec), 1: element(xi_terms, xi_prec)}
    top = base.extend_eisenstein(step, degree=qt)
    for target in (prec, top.prec):
        top._subst_memo.clear()
        root, seeds = reexpand_at_full_precision(top, target)
        assert top._reexpand(target) == root
        assert {s: v for (s, _, p), v in top._subst_memo.items() if p == target} == seeds
