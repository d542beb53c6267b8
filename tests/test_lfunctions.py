import os
import sys
from fractions import Fraction

import pytest

from ffperiods.cmshtuka import (
    CMAlgebra,
    CMComponent,
    Embedding,
    omega_period,
    omega_valuation_closed,
    omega_valuation_via_L,
)
from ffperiods.fields import FqField, factor_prime_power, monic_irreducibles
from ffperiods.lfunctions import (
    ClassFunctionQ,
    ExplicitPlaceTerm,
    LocalGaloisDatum,
    LogQValue,
    MissingMuError,
    TameEmbedding,
    act_on_embedding,
    cm_characters,
    indicator_pair_function,
    log_q_value,
    mu_art_v,
    regularized_sum,
    z_infty_at,
    z_v_at_one,
    z_v_rational,
    zeta_closed_forms,
)
from ffperiods.ratfunc import PoleOrZeroError, QPoly, RatFunc
from ffperiods.towers import LocalFieldTower, TameAut, mu_value
from paper_checks import lemma_pair_check, pair_z_closed_form


def is_class_function(a):
    """Test-side reference: a is constant on every conjugacy class."""
    d = a.datum
    return all(a.values[d.conjugate(g, h)] == a.values[g]
               for g in d.elements for h in d.elements)


def test_trivial_character_z():
    for q_v, f, e in [(2, 1, 1), (2, 2, 3), (3, 2, 4), (3, 1, 2)]:
        d = LocalGaloisDatum.tame(q_v, f, e)
        z = z_v_rational(d, ClassFunctionQ.trivial(d))
        # x/(1-x) regardless of the datum
        assert z == RatFunc(QPoly([0, 1]), QPoly([1, -1]))
        assert z_v_at_one(d, ClassFunctionQ.trivial(d)) == Fraction(1, q_v - 1)


def test_zero_function():
    d = LocalGaloisDatum.tame(2, 2, 1)
    zero = ClassFunctionQ.from_callable(d, lambda g: 0)
    z = z_v_rational(d, zero)
    assert z.num.is_zero()
    assert mu_art_v(d, zero) == 0


def test_unramified_pair_closed_form():
    # f=2, e=1, j(phi) != j(psi), q_v=2: Z(a)(s=1) = q_v/(q_v^2-1) = 2/3
    d = LocalGaloisDatum.tame(2, 2, 1)
    phi = TameEmbedding(0, 0, 2, 1)
    psi = TameEmbedding(1, 0, 2, 1)
    a = indicator_pair_function(d, psi, phi)  # source psi, target phi
    assert z_v_at_one(d, a) == Fraction(2, 3)
    assert mu_art_v(d, a) == 0


def test_mu_art_examples():
    # trivial character on tame data: inertia sums to zero
    for q_v, f, e in [(3, 1, 2), (2, 2, 3)]:
        d = LocalGaloisDatum.tame(q_v, f, e)
        assert mu_art_v(d, ClassFunctionQ.trivial(d)) == 0
    # a_{K,psi,psi} over e=2, q_v=3: mu = v(D) = 1/2
    d = LocalGaloisDatum.tame(3, 1, 2)
    psi = TameEmbedding(0, 0, 1, 2)
    a = indicator_pair_function(d, psi, psi)
    assert mu_art_v(d, a) == Fraction(1, 2)


def test_s3_datum_by_hand():
    # q_v=2, f=2, e=3 is the nonabelian order-6 datum; worked by hand:
    # phi=(0,0), psi=(0,1): Z(a_{psi,phi})(1) = 1/9, mu = -1/3
    d = LocalGaloisDatum.tame(2, 2, 3)
    phi = TameEmbedding(0, 0, 2, 3)
    psi = TameEmbedding(0, 1, 2, 3)
    a = indicator_pair_function(d, psi, phi)
    assert z_v_at_one(d, a) == Fraction(1, 9)
    assert mu_art_v(d, a) == Fraction(-1, 3)
    # phi=(0,0), psi=(1,0): Z = 2/9 at s=1, mu = 0
    psi2 = TameEmbedding(1, 0, 2, 3)
    a2 = indicator_pair_function(d, psi2, phi)
    assert z_v_at_one(d, a2) == Fraction(2, 9)
    assert mu_art_v(d, a2) == 0


def test_lemma_pair_check_grid():
    grid = [(2, 1, 1), (2, 2, 1), (2, 2, 3), (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 2, 4)]
    for q_v, f, e in grid:
        d = LocalGaloisDatum.tame(q_v, f, e)
        embs = [TameEmbedding(j, k, f, e) for j in range(f) for k in range(e)]
        for phi in embs:
            for psi in embs:
                lhs_mu, rhs_mu, lhs_z, rhs_z, ok = lemma_pair_check(d, phi, psi)
                assert ok, (q_v, f, e, phi, psi, lhs_mu, rhs_mu)
                # numeric agreement at s=1 as well
                x1 = Fraction(1, q_v)
                assert lhs_z.evaluate(x1) == rhs_z.evaluate(x1)


def test_lemma_pair_f3_direction_convention():
    # f=3 distinguishes the exponent order; the group-side sum fixes it
    d = LocalGaloisDatum.tame(2, 3, 1)
    phi = TameEmbedding(0, 0, 3, 1)
    psi = TameEmbedding(1, 0, 3, 1)
    a = indicator_pair_function(d, phi, psi)  # source phi, target psi
    # nonzero on the classes n = 1 mod 3: Z = x/(1-x^3)
    assert z_v_rational(d, a) == RatFunc(QPoly([0, 1]), QPoly([1, 0, 0, -1]))
    assert z_v_rational(d, a) == pair_z_closed_form(d, phi, psi)


def test_act_on_embedding_composition():
    d = LocalGaloisDatum.tame(2, 2, 3)
    psi = TameEmbedding(0, 1, 2, 3)
    for g in d.elements:
        for h in d.elements:
            one_shot = act_on_embedding(d, g * h, psi)
            # the fixed composition law applies the left factor first
            two_shot = act_on_embedding(d, h, act_on_embedding(d, g, psi))
            assert one_shot == two_shot


def test_cm_characters_carlitz():
    d = LocalGaloisDatum.tame(3, 1, 1)
    psi = TameEmbedding(0, 0, 1, 1)
    a, a0 = cm_characters(d, {psi: 1}, psi)
    assert a.values == ClassFunctionQ.trivial(d).values
    assert a0.values == a.values


def test_cm_characters_zero_type():
    d = LocalGaloisDatum.tame(2, 2, 1)
    psi = TameEmbedding(0, 0, 2, 1)
    a, a0 = cm_characters(d, {}, psi)
    assert all(v == 0 for v in a.values.values())
    assert all(v == 0 for v in a0.values.values())


def test_cm_characters_f2_partial_type():
    # f=2, e=1, d = 1 on the identity embedding only: a(g) = [g in inertia-part]
    d = LocalGaloisDatum.tame(2, 2, 1)
    psi = TameEmbedding(0, 0, 2, 1)
    a, a0 = cm_characters(d, {psi: 1}, psi)
    for g in d.elements:
        expected = 1 if g.a % 2 == 0 else 0
        assert a(g) == expected
    # abelian datum: a0 = a
    assert a0.values == a.values
    assert is_class_function(a0)


def test_cm_characters_class_function_nonabelian():
    d = LocalGaloisDatum.tame(2, 2, 3)
    psi = TameEmbedding(0, 1, 2, 3)
    values = {TameEmbedding(0, 1, 2, 3): 2, TameEmbedding(1, 0, 2, 3): 1}
    a, a0 = cm_characters(d, values, psi)
    assert is_class_function(a0)


def test_zeta_closed_forms_and_euler_product():
    for q in (2, 3, 4):
        zeta_a, zeta_c = zeta_closed_forms(q)
        assert zeta_a == RatFunc(QPoly([1]), QPoly([1, -q]))
        # zeta_C / zeta_A = 1/(1 - u), cross-multiplied
        assert (zeta_c.num * zeta_a.den * QPoly([1, -1])
                == zeta_a.num * zeta_c.den)
        # Euler product over places of degree <= 6 matches the series of
        # zeta_A modulo u^7: counts via the irreducible enumeration
        p, k = factor_prime_power(q)
        F = FqField(p, k)
        max_deg = 6
        # power series of prod_(deg d) (1-u^d)^(-N_d) up to u^max_deg
        coeffs = [Fraction(1)] + [Fraction(0)] * max_deg
        for dplace in range(1, max_deg + 1):
            n_d = len(monic_irreducibles(F, dplace))
            for _ in range(n_d):
                # multiply by 1/(1-u^dplace) = sum u^(j*dplace)
                new = list(coeffs)
                for i in range(dplace, max_deg + 1):
                    new[i] = new[i] + new[i - dplace]
                coeffs = new
        for i in range(max_deg + 1):
            assert coeffs[i] == q ** i  # zeta_A = sum q^n u^n


def test_z_infty_at_zero():
    for q in (2, 3, 4, 5):
        zeta_a, _ = zeta_closed_forms(q)
        val = z_infty_at(zeta_a, q, 0)
        assert val == log_q_value(Fraction(q, q - 1))
    # constant L-function has vanishing logarithmic derivative
    assert z_infty_at(RatFunc(QPoly([5])), 2, 0).coeff == 0


def test_z_infty_pole_detection():
    # L = 1/(1-u) has a pole at s = 0 (u = 1)
    bad = RatFunc(QPoly([1]), QPoly([1, -1]))
    with pytest.raises(PoleOrZeroError):
        z_infty_at(bad, 2, 0)


def test_regularized_sum_carlitz_tail():
    # a = trivial, no exceptional places, genus 0: the value is
    # -Z^infty(1,0) = -(q/(q-1)) log q
    for q in (2, 3):
        zeta_a, _ = zeta_closed_forms(q)
        val = regularized_sum(zeta_a, q, log_q_value(0), 0, 1, [])
        assert val == log_q_value(Fraction(-q, q - 1))


def test_regularized_sum_explicit_linearity():
    q = 2
    zeta_a, _ = zeta_closed_forms(q)
    base = regularized_sum(zeta_a, q, log_q_value(0), 0, 1, [])
    # a perturbed place with x_v = -Z_v + delta shifts the total by delta
    delta = Fraction(5, 7)
    zv1 = Fraction(1, q - 1)
    term = ExplicitPlaceTerm("t", 1, LogQValue(-zv1 + delta), zv1)
    shifted = regularized_sum(zeta_a, q, log_q_value(0), 0, 1, [term])
    assert shifted.coeff - base.coeff == delta


def test_table_datum_matches_tame():
    # present the tame (f=2, e=1) datum as an explicit table
    tame = LocalGaloisDatum.tame(2, 2, 1)
    els = ["id", "frob"]
    table = {
        "id": {"id": "id", "frob": "frob"},
        "frob": {"id": "frob", "frob": "id"},
    }
    d = LocalGaloisDatum.from_table(
        2, els, table, inertia=["id"], frobenius_coset=["frob"], mu={"id": 0}
    )
    a_tame = ClassFunctionQ.trivial(tame)
    a_tab = ClassFunctionQ.trivial(d)
    assert z_v_rational(tame, a_tame) == z_v_rational(d, a_tab)
    assert mu_art_v(d, a_tab) == 0


def test_table_datum_missing_mu():
    els = ["id", "g"]
    table = {"id": {"id": "id", "g": "g"}, "g": {"id": "g", "g": "id"}}
    d = LocalGaloisDatum.from_table(2, els, table, inertia=["id", "g"],
                                    frobenius_coset=["id", "g"], mu={"id": 1})
    a = ClassFunctionQ.trivial(d)
    with pytest.raises(MissingMuError):
        mu_art_v(d, a)


def test_linearity_of_z_and_mu():
    d = LocalGaloisDatum.tame(3, 1, 2)
    a = ClassFunctionQ.from_callable(d, lambda g: 1 + g.k)
    b = ClassFunctionQ.from_callable(d, lambda g: 2 - g.k)
    a_plus_b = ClassFunctionQ.from_callable(d, lambda g: a(g) + b(g))
    x1 = Fraction(1, 3)
    assert (
        z_v_rational(d, a_plus_b).evaluate(x1)
        == z_v_rational(d, a).evaluate(x1) + z_v_rational(d, b).evaluate(x1)
    )
    assert mu_art_v(d, a_plus_b) == mu_art_v(d, a) + mu_art_v(d, b)


def test_a0_equals_a_for_abelian_data():
    # conjugation is trivial on abelian data, so the averaged function is a
    for q_v, f, e in [(2, 2, 1), (3, 1, 2), (2, 1, 1)]:
        d = LocalGaloisDatum.tame(q_v, f, e)
        psi = TameEmbedding(0, 0, f, e)
        values = {TameEmbedding(j, k, f, e): j + k + 1 for j in range(f) for k in range(e)}
        a, a0 = cm_characters(d, values, psi)
        assert a0.values == a.values


# -- the tame datum builds its tower, and each mu, on demand -------------------------


def _omega_deep_data():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.append(os.path.join(root, "bench"))
    from workloads import tame_data
    return tame_data()


@pytest.fixture
def tame_builds(monkeypatch):
    """The (q_v, f, e) of every LocalFieldTower.tame call, in order."""
    built = []
    tame = LocalFieldTower.tame.__func__

    def spy(cls, *args, **kw):
        built.append(args)
        return tame(cls, *args, **kw)

    monkeypatch.setattr(LocalFieldTower, "tame", classmethod(spy))
    return built


def test_lazy_tame_datum_matches_an_eager_mu_map():
    # every tame datum of the omega-deep pool, the trivial character and every
    # indicator pair: Z_v(a, 1) is the rational function's value at 1/q_v, and
    # mu_Art,v(a) reads mu from a tower built for every element up front
    for q_v, f, e in _omega_deep_data():
        datum = LocalGaloisDatum.tame(q_v, f, e)
        tower = LocalFieldTower.tame(q_v, f, e)
        mu = {g: mu_value(tower, g) for g in datum.elements}
        embeddings = [TameEmbedding(j, k, f, e) for j in range(f) for k in range(e)]
        chars = [ClassFunctionQ.trivial(datum)] + [
            indicator_pair_function(datum, phi, psi) for phi in embeddings for psi in embeddings]
        for a in chars:
            assert z_v_at_one(datum, a) == z_v_rational(datum, a).evaluate(Fraction(1, q_v))
            assert mu_art_v(datum, a) == sum(a(g) * mu[g] for g in datum.elements)


@pytest.mark.parametrize("q_v, f, e", [(3, 0, 2), (2, 0, 1), (3, -1, 2), (2, -2, 1),
                                       (3, 1, 4), (2, 2, 5), (4, 1, 0)])
def test_tame_datum_refuses_bad_invariants_before_any_tower(tame_builds, q_v, f, e):
    with pytest.raises(ValueError):
        LocalGaloisDatum.tame(q_v, f, e)
    assert tame_builds == []


def test_omega_off_the_diagonal_residue_part_builds_one_tower(tame_builds):
    # phi.j != psi.j: the indicator lies off inertia, so the L-route asks mu
    # only where it is 0 and builds no tower; the series route builds one
    cm = CMAlgebra(2, [CMComponent(2, 3)])
    phi, psi = Embedding(0, 0, 1), Embedding(0, 1, 2)
    assert omega_valuation_via_L(cm, phi, psi) == omega_valuation_closed(cm, phi, psi)
    assert tame_builds == []
    omega_period(cm, phi, psi)
    assert tame_builds == [(2, 2, 3)]
