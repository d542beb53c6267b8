"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is exact (the targets are rational identities); the stated
runtime budgets are asserted as well.  Run with `pytest -s` to see the
per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from ffperiods.amotive import (
    amotive_to_local_shtuka,
    carlitz_model,
    shtuka_determinant,
    z_series_hat_order,
)
from ffperiods.carlitz import (
    carlitz_infty_log_abs,
    carlitz_product_formula,
    carlitz_v_log_abs,
    finite_places,
)
from ffperiods.cmshtuka import (
    CMAlgebra,
    CMComponent,
    Embedding,
    ScalingData,
    cm_period_valuation,
    galois_character_check,
    hat_valuation,
    integral_u_omega,
    max_recursion_depth,
    omega_period,
    omega_valuation_closed,
    omega_valuation_via_L,
    period_valuation_series,
    std_shtuka,
    tau_invariant_unit_part,
)
from ffperiods.fields import FqField, PolyFq
from ffperiods.lfunctions import (
    ClassFunctionQ,
    LocalGaloisDatum,
    TameEmbedding,
    log_q_value,
)
from ffperiods.series import TruncSeries
from ffperiods.towers import (
    LocalFieldTower,
    mu_value,
    solve_frobenius_recursion,
    tame_group,
)
from paper_checks import identity_model, lemma_pair_check, rescaled_period

# every tame datum of the acceptance grid: q_v in {2,3}, f in {1,2},
# e in {1,2,3,4} with e | q_v^f - 1
TAME_GRID = [
    (2, 1, 1), (2, 2, 1), (2, 2, 3),
    (3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 2, 4),
]


def _report(name, elapsed=None):
    tail = "" if elapsed is None else "  (%.2fs)" % elapsed
    print("PASS %s%s" % (name, tail))


def test_criterion_1_product_formula():
    for q in (2, 3, 4, 5):
        t0 = time.time()
        report = carlitz_product_formula(q, 2, 2)
        elapsed = time.time() - t0
        assert report.total == log_q_value(0)
        assert elapsed < 1.0, "q=%d took %.2fs" % (q, elapsed)
    _report("criterion 1: Carlitz product formula is exactly 0 for q in {2,3,4,5}")


def test_criterion_2_infty_period():
    t0 = time.time()
    for q in (2, 3, 4, 5):
        for n in (1, 2, 3):
            val, _ = carlitz_infty_log_abs(q, n)
            assert val.coeff == Fraction(q, q - 1)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("criterion 2: infinite-place coefficient q/(q-1) for N in {1,2,3}", elapsed)


def test_criterion_3_v_adic_through_towers():
    t0 = time.time()
    for q in (2, 3):
        for place in finite_places(q, 2):
            pv = carlitz_v_log_abs(q, place, depth=2)
            assert pv.via_series, "place %s fell back to the closed form" % place.label()
            assert pv.hat_order == 1
            # v(pairing) = 1/(q_v - 1), i.e. log|.| = -deg/(q_v-1) log q
            assert pv.log_abs.coeff == Fraction(-place.degree, place.q_v - 1)
            assert pv.log_abs.coeff == -pv.z_v_at_one * place.degree
    elapsed = time.time() - t0
    assert elapsed < 2.0
    _report("criterion 3: v-adic valuations 1/(q_v-1) via towers, deg <= 2, q in {2,3}",
            elapsed)


def test_criterion_4_triangle_full_grid(tower_units):
    t0 = time.time()
    checked = 0
    for q_v, f, e in TAME_GRID:
        cm = CMAlgebra(q_v, [CMComponent(f, e)])
        depth = max_recursion_depth(cm, 0)
        embs = cm.embeddings()
        for phi in embs:
            for psi in embs:
                closed = omega_valuation_closed(cm, phi, psi)
                via_l = omega_valuation_via_L(cm, phi, psi)
                series = period_valuation_series(
                    omega_period(cm, phi, psi, depth=depth))
                assert closed == via_l == series, (q_v, f, e, phi, psi)
                checked += 1
    elapsed = time.time() - t0
    # every period tower ran at one unit: the grid never needs the rerun
    assert tower_units and set(tower_units) == {1}
    assert elapsed < 0.2
    _report("criterion 4: series = closed form = Z - mu on %d grid pairs" % checked,
            elapsed)


def test_criterion_5_hat_law_full_grid():
    t0 = time.time()
    for q_v, f, e in TAME_GRID:
        cm = CMAlgebra(q_v, [CMComponent(f, e)])
        depth = max_recursion_depth(cm, 0)
        embs = cm.embeddings()
        for phi in embs:
            for psi in embs:
                pe = omega_period(cm, phi, psi, depth=depth)
                expected = 1 if phi == psi else 0
                assert hat_valuation(pe) == expected, (q_v, f, e, phi, psi)
    elapsed = time.time() - t0
    assert elapsed < 0.1
    _report("criterion 5: hat valuation is 1 iff phi = psi across the grid", elapsed)


def test_criterion_6_induction_lemma_identities():
    for q_v, f, e in TAME_GRID:
        datum = LocalGaloisDatum.tame(q_v, f, e)
        embs = [TameEmbedding(j, k, f, e) for j in range(f) for k in range(e)]
        for phi in embs:
            for psi in embs:
                lhs_mu, rhs_mu, lhs_z, rhs_z, equal = lemma_pair_check(datum, phi, psi)
                assert equal, (q_v, f, e, phi, psi, lhs_mu, rhs_mu)
                x1 = Fraction(1, q_v)
                assert lhs_z.evaluate(x1) == rhs_z.evaluate(x1)
    _report("criterion 6: both induction-lemma identities, symbolic and at s=1")


def test_criterion_7_recursion_valuation_law():
    for q_v, qt in ((2, 2), (3, 3), (4, 4)):
        tower = LocalFieldTower.base(q_v)
        tower, ells, _ = solve_frobenius_recursion(tower, tower.uniformizer(), qt, 2)
        for n, ell in enumerate(ells):
            assert ell.valuation() == Fraction(1, qt ** n * (qt - 1))
    _report("criterion 7: v(l_n) = v(xi) qt^-n/(qt-1) for n <= 2, qt in {2,3,4}")


def test_criterion_8_property_suites():
    # tau-invariance of the computed invariants (checked internally and here)
    cm = CMAlgebra(3, [CMComponent(1, 2)])
    phi, psi = cm.embeddings()
    from ffperiods.cmshtuka import recursion_family

    fam = recursion_family(cm, phi, depth=2)
    assert fam.verify_tau_property()
    # unit-part invariants satisfy c = tau_0 sigma(c) (verified internally)
    F2 = FqField(2, 1)
    cmu = CMAlgebra(2, [CMComponent(1, 1)])
    sh = std_shtuka(cmu, {}, eps={(0, 0): TruncSeries(F2, {0: 1, 1: 1})})
    tau_invariant_unit_part(sh, depth=3)
    # CM-type linearity
    cm2 = CMAlgebra(3, [CMComponent(2, 2)])
    e0, e1, e2, e3 = cm2.embeddings()
    psi2 = e0
    t1 = {e0: 1, e3: 2}
    t2 = {e1: 3, e3: -1}
    both = {e0: 1, e1: 3, e3: 1}
    assert (cm_period_valuation(cm2, t1, psi2) + cm_period_valuation(cm2, t2, psi2)
            == cm_period_valuation(cm2, both, psi2))
    # scaling covariance: +v(psi(a)) and +v(x)
    cmc = CMAlgebra(2, [CMComponent(1, 1)])
    pc = Embedding(0, 0, 0)
    base = cm_period_valuation(cmc, {pc: 1}, pc)
    assert cm_period_valuation(cmc, {pc: 1}, pc,
                               ScalingData(u_powers={0: 1}), None) == base + 1
    assert cm_period_valuation(cmc, {pc: 1}, pc, None,
                               ScalingData(x_leading_valuation=Fraction(2))) == base + 2
    shc = std_shtuka(cmc, {pc: 1})
    pe0 = integral_u_omega(shc, pc, depth=1)
    pe1 = integral_u_omega(shc, pc, ScalingData(u_powers={0: 1}), None, depth=1)
    assert pe1.leading.valuation() - pe0.leading.valuation() == 1
    # choice-independence of valuations under O^x rescalings of l+
    for rescale in ([2], [1, 1], [2, 0, 1]):
        assert period_valuation_series(
            rescaled_period(cm, phi, psi, 1, rescale)
        ) == period_valuation_series(omega_period(cm, phi, psi, depth=1))
    # inertia sum zero for mu
    for q_v, f, e in TAME_GRID:
        tower = LocalFieldTower.base(q_v).extend_unramified(f)
        if e > 1:
            z = tower.uniformizer()
            tower = tower.extend_eisenstein([-z] + [tower.zero()] * (e - 1))
        total = sum((mu_value(tower, g) for g in tame_group(q_v, f, e) if g.a == 0),
                    Fraction(0))
        assert total == 0
    # tame different (e-1)/e for e <= 8 via the derivative oracle
    for e, q_v in ((2, 3), (3, 4), (4, 5), (5, 11), (6, 7), (7, 8), (8, 9)):
        t = LocalFieldTower.base(q_v, bound=16)
        z = t.uniformizer()
        t = t.extend_eisenstein([-z] + [t.zero()] * (e - 1))
        assert t.different_valuation() == Fraction(e - 1, e)
    _report("criterion 8: tau-invariance, linearity, scalings, rescaling, mu sums, "
            "differents")


def test_criterion_9_amotive_bridge():
    t0 = time.time()
    F2 = FqField(2, 1)
    place1 = PolyFq(F2, [0, 1])
    model1 = carlitz_model(2, place1)
    out1 = amotive_to_local_shtuka(model1, place1, depth=3)
    entry = out1[0][0]
    zeta = model1.tower.uniformizer()
    assert set(entry.terms) == {0, 1}
    assert (entry.terms[0] + zeta).is_zero_within_precision()
    assert (entry.terms[1] - model1.tower.one()).is_zero_within_precision()
    place2 = PolyFq(F2, [1, 1, 1])
    model2 = carlitz_model(2, place2)
    out2 = amotive_to_local_shtuka(model2, place2, depth=4)
    det2 = shtuka_determinant(out2, 5)
    assert z_series_hat_order(det2, model2.tower.uniformizer()) == 1
    etale = identity_model(2, 2)
    out3 = amotive_to_local_shtuka(etale, place1, depth=2)
    assert (out3[0][0].terms[0] - etale.tower.one()).is_zero_within_precision()
    assert not out3[0][1].terms
    elapsed = time.time() - t0
    assert elapsed < 2.0
    _report("criterion 9: A-motive bridge (degree-1 exact, degree-2 pole order 1)",
            elapsed)


def test_criterion_10_galois_character():
    cm = CMAlgebra(3, [CMComponent(1, 2)])
    phi, psi = cm.embeddings()
    assert galois_character_check(cm, phi, phi, "inertia", 1, depth=2)
    assert galois_character_check(cm, phi, psi, "inertia", 1, depth=2)
    cm2 = CMAlgebra(2, [CMComponent(2, 1)])
    a, b = cm2.embeddings()
    assert galois_character_check(cm2, a, a, "frobenius", 1, depth=2, bound=96)
    assert galois_character_check(cm2, a, b, "frobenius", 1, depth=2, bound=96)
    _report("criterion 10: Galois character checks at depth 2 "
            "(inertia e=2/q_v=3 and a Frobenius lift)")
