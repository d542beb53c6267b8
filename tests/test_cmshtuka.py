from collections import Counter
from fractions import Fraction

import pytest

from ffperiods import cmshtuka
from ffperiods.cmshtuka import (
    CANONICAL,
    PRECISION_UNITS,
    RecursionFamily,
    AmbiguousLeadingTermError,
    CMAlgebra,
    CMComponent,
    CrossCheckError,
    Embedding,
    LeadingTermMismatchError,
    MixedComponentError,
    ScalingData,
    WildComponentError,
    averaged_period_valuation,
    cm_period_valuation,
    component_tower,
    component_uniformizer,
    embedding_value,
    family_uniformizer,
    galois_character_check,
    hat_valuation,
    integral_u_omega,
    max_recursion_depth,
    omega_period,
    omega_valuation_closed,
    omega_valuation_via_L,
    period_valuation_series,
    recursion_family,
    std_shtuka,
    tau_invariant_unit_part,
)
from ffperiods.fields import FqField
from ffperiods.series import InsufficientPrecisionError, TruncSeries
from ffperiods.towers import LocalFieldTower, TowerElem
from paper_checks import rescaled_period


def carlitz_cm(q_v):
    return CMAlgebra(q_v, [CMComponent(1, 1)])


def single_cm(q_v, f, e):
    return CMAlgebra(q_v, [CMComponent(f, e)])


def dim(cm):
    """Test-side reference: the dimension of E_v, the sum of f * e."""
    return sum(c.degree() for c in cm.components)


GRID = [(2, 1, 1), (2, 2, 1), (2, 2, 3), (3, 1, 1), (3, 1, 2), (3, 2, 1),
        (3, 2, 2), (3, 2, 4)]


def test_std_shtuka_carlitz_tau():
    cm = carlitz_cm(2)
    psi = Embedding(0, 0, 0)
    sh = std_shtuka(cm, {psi: 1})
    tau = sh.tau_poly(0, 0)
    # tau = y - zeta: coefficients {0: -zeta, 1: 1}
    assert set(tau.terms) == {0, 1}
    zeta = tau.field.level_uniformizer(0)
    assert (tau.terms[0] + zeta).is_zero_within_precision()
    assert (tau.terms[1] - tau.field.one()).is_zero_within_precision()


def test_std_shtuka_etale_and_readback():
    cm = single_cm(2, 2, 1)
    sh = std_shtuka(cm, {})
    assert sh.cm_type_readback() == {}
    tau = sh.tau_poly(0, 0)
    assert set(tau.terms) == {0}  # tau = 1
    # one marked embedding: tau carries it, the other residue slot stays 1
    phi = Embedding(0, 0, 0)
    sh2 = std_shtuka(cm, {phi: 1})
    assert set(sh2.tau_poly(0, 0).terms) == {0, 1}
    assert set(sh2.tau_poly(0, 1).terms) == {0}


def test_factorization_of_z_minus_zeta():
    # product over all embeddings of one (i, j): prod_k (y - w^k pi) = y^e - z
    cm = single_cm(3, 1, 2)
    sh = std_shtuka(cm, {emb: 1 for emb in cm.embeddings()})
    tau = sh.tau_poly(0, 0)
    tower = tau.field
    z = tower.level_uniformizer(0)
    assert set(tau.terms) == {0, 2}
    assert (tau.terms[0] + z).is_zero_within_precision()  # constant = -pi^2 = -z


def test_non_unit_eps_rejected():
    cm = carlitz_cm(2)
    F2 = FqField(2, 1)
    with pytest.raises(ValueError):
        std_shtuka(cm, {}, eps={(0, 0): TruncSeries(F2, {1: 1})})


def test_carlitz_period():
    for q_v in (2, 3, 4):
        cm = carlitz_cm(q_v)
        psi = Embedding(0, 0, 0)
        pe = omega_period(cm, psi, psi, depth=2)
        assert hat_valuation(pe) == 1
        assert period_valuation_series(pe) == Fraction(1, q_v - 1)


def test_hat_law_small():
    cm = single_cm(3, 1, 2)
    e0, e1 = cm.embeddings()
    assert hat_valuation(omega_period(cm, e0, e0)) == 1
    assert hat_valuation(omega_period(cm, e0, e1)) == 0


def test_unit_shtuka_period_is_unit():
    cm = single_cm(2, 1, 1)
    psi = Embedding(0, 0, 0)
    sh = std_shtuka(cm, {})
    pe = integral_u_omega(sh, psi)
    assert pe.hat_order == 0
    assert pe.series_valuation() == 0


def test_closed_form_cases():
    # case 1: f=e=1, q_v=2: 1/(q_v-1) - 0 = 1
    cm = carlitz_cm(2)
    psi = Embedding(0, 0, 0)
    assert omega_valuation_closed(cm, psi, psi) == 1
    # case 2: e=2 tame, q_v=3, j equal: 1/(2*2) + 1/2 = 3/4
    cm2 = single_cm(3, 1, 2)
    phi, psi2 = cm2.embeddings()
    assert omega_valuation_closed(cm2, phi, psi2) == Fraction(3, 4)
    # case 3: f=2, e=1, q_v=2, j different: 2/3
    cm3 = single_cm(2, 2, 1)
    a, b = cm3.embeddings()
    assert omega_valuation_closed(cm3, a, b) == Fraction(2, 3)


def test_via_L_examples():
    # tame e=2, q_v=3, phi=psi: Z=1/4, mu=1/2 -> -1/4
    cm = single_cm(3, 1, 2)
    psi = Embedding(0, 0, 0)
    assert omega_valuation_via_L(cm, psi, psi) == Fraction(-1, 4)
    # unramified f=1, q_v=2: 1/(2-1) = 1
    cmc = carlitz_cm(2)
    p0 = Embedding(0, 0, 0)
    assert omega_valuation_via_L(cmc, p0, p0) == 1
    # f=2, e=1, j differ, q_v=2: 2/3
    cm2 = single_cm(2, 2, 1)
    a, b = cm2.embeddings()
    assert omega_valuation_via_L(cm2, a, b) == Fraction(2, 3)


@pytest.mark.parametrize("q_v,f,e", GRID)
def test_triangle_small_sample(q_v, f, e):
    # full grid runs in the acceptance suite; spot-check each datum here
    cm = single_cm(q_v, f, e)
    embs = cm.embeddings()
    depth = max_recursion_depth(cm, 0)
    phi = embs[0]
    for psi in embs[: min(3, len(embs))]:
        closed = omega_valuation_closed(cm, phi, psi)
        via_l = omega_valuation_via_L(cm, phi, psi)
        series = period_valuation_series(omega_period(cm, phi, psi, depth=depth))
        assert closed == via_l == series, (q_v, f, e, phi, psi)


def test_choice_independence_under_rescale():
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    base_same = period_valuation_series(omega_period(cm, phi, phi, depth=1))
    base_cross = period_valuation_series(omega_period(cm, phi, psi, depth=1))
    for rescale in ([2], [1, 1], [2, 0, 1]):
        assert period_valuation_series(
            rescaled_period(cm, phi, phi, 1, rescale)) == base_same
        assert period_valuation_series(
            rescaled_period(cm, phi, psi, 1, rescale)) == base_cross


def test_omega_period_without_a_bound_runs_to_the_deepest_depth():
    # bound=None caps nothing, so the default depth is MAX_RECURSION_DEPTH
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    assert max_recursion_depth(cm, 0, None) == cmshtuka.MAX_RECURSION_DEPTH
    got = omega_period(cm, phi, psi, bound=None)
    ref = omega_period(cm, phi, psi, depth=cmshtuka.MAX_RECURSION_DEPTH, bound=None)
    assert len(got.term_valuations) == cmshtuka.MAX_RECURSION_DEPTH + 1
    assert got.term_valuations == ref.term_valuations
    assert got.tower.degree() == ref.tower.degree()
    assert period_valuation_series(got) == omega_valuation_closed(cm, phi, psi)


def test_mixed_component_error():
    cm = CMAlgebra(2, [CMComponent(1, 1), CMComponent(1, 1)])
    with pytest.raises(MixedComponentError):
        omega_period(cm, Embedding(0, 0, 0), Embedding(1, 0, 0))


def test_wild_component_paths():
    wild = CMComponent(1, 2, tame=False, diff_valuation=Fraction(3, 2),
                       pairwise=((0, 1, Fraction(1, 2)),))
    cm = CMAlgebra(2, [wild])
    phi, psi = Embedding(0, 0, 0), Embedding(0, 0, 1)
    # closed forms work from the tables
    assert omega_valuation_closed(cm, phi, phi) == Fraction(1, 2) - Fraction(3, 2)
    assert omega_valuation_closed(cm, phi, psi) == Fraction(1, 2) + Fraction(1, 2)
    # series and L routes refuse without explicit data
    with pytest.raises(WildComponentError):
        omega_period(cm, phi, psi)
    with pytest.raises(WildComponentError):
        omega_valuation_via_L(cm, phi, psi)


def test_wild_missing_tables():
    wild = CMComponent(1, 2, tame=False)
    cm = CMAlgebra(2, [wild])
    phi, psi = Embedding(0, 0, 0), Embedding(0, 0, 1)
    with pytest.raises(WildComponentError):
        omega_valuation_closed(cm, phi, phi)
    with pytest.raises(WildComponentError):
        omega_valuation_closed(cm, phi, psi)


def test_tau_invariant_unit_part_trivial():
    cm = single_cm(2, 1, 1)
    sh = std_shtuka(cm, {})
    data = tau_invariant_unit_part(sh, depth=3)
    c = data["c"][(0, 0)]
    assert set(c.terms) == {0}
    assert (c.terms[0] - data["tower"].one()).is_zero_within_precision()


def test_tau_invariant_unit_part_f4_constant():
    # eps = b0 in F_4 over q_v=2, f=1 (after the unramified extension):
    # c0 solves x^(qt-1) = b0^(-1) with qt = 2, so c0 = b0^(-1); brute-force
    # check in F_4 that c0 * b0 = 1
    cm = single_cm(2, 1, 1)
    F4 = FqField(2, 2)
    b0 = F4.gen
    sh = std_shtuka(cm, {}, eps={(0, 0): TruncSeries(F4, {0: b0})})
    data = tau_invariant_unit_part(sh, depth=2)
    tower = data["tower"]
    c0 = data["c"][(0, 0)].terms[0]
    b0_lift = tower.from_residue(F4.embedding(tower.residue)(b0))
    assert (c0 * b0_lift - tower.one()).is_zero_within_precision()


def test_tau_invariant_unit_part_one_plus_y():
    # eps = 1 + y: c_0 = 1 and the triangular recursion fills c_n; the solver
    # itself re-verifies c = eps*sigma(c) to the requested depth
    cm = single_cm(2, 1, 1)
    F2 = FqField(2, 1)
    sh = std_shtuka(cm, {}, eps={(0, 0): TruncSeries(F2, {0: 1, 1: 1})})
    data = tau_invariant_unit_part(sh, depth=3)
    c = data["c"][(0, 0)]
    assert (c.terms[0] - data["tower"].one()).is_zero_within_precision()
    assert 1 in c.terms  # a genuine correction appears at y^1


def test_integral_matches_omega_for_elementary_type():
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    sh = std_shtuka(cm, {phi: 1})
    pe = integral_u_omega(sh, psi, depth=1)
    direct = omega_period(cm, phi, psi, depth=1)
    assert pe.hat_order == direct.hat_order
    assert pe.leading.valuation() == direct.series_valuation()


def test_integral_square_type():
    # d = 2 on the single embedding of f=e=1, q_v=2: hat = 2, v = 2
    cm = carlitz_cm(2)
    psi = Embedding(0, 0, 0)
    sh = std_shtuka(cm, {psi: 2})
    pe = integral_u_omega(sh, psi, depth=1)
    assert pe.hat_order == 2
    assert pe.leading.valuation() == 2
    assert cm_period_valuation(cm, {psi: 2}, psi) == 2


def test_integral_multi_embedding_depth0():
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    sh = std_shtuka(cm, {phi: 1, psi: 1})
    pe = integral_u_omega(sh, psi, depth=0)
    assert pe.hat_order == 1
    expected = omega_valuation_closed(cm, phi, psi) + omega_valuation_closed(cm, psi, psi)
    assert pe.leading.valuation() == expected


def test_cm_period_valuation_carlitz():
    for q_v in (2, 3, 5):
        cm = carlitz_cm(q_v)
        psi = Embedding(0, 0, 0)
        assert cm_period_valuation(cm, {psi: 1}, psi) == Fraction(1, q_v - 1)


def test_cm_period_valuation_zero_type_is_scalings():
    cm = single_cm(2, 2, 1)
    psi = Embedding(0, 0, 0)
    s = ScalingData(u_powers={0: 3}, x_leading_valuation=Fraction(5, 2))
    assert cm_period_valuation(cm, {}, psi, s, s) == 3 + Fraction(5, 2)


def test_cm_period_valuation_linearity():
    cm = single_cm(3, 2, 2)
    embs = cm.embeddings(0)
    psi = embs[0]
    t1 = {embs[0]: 1, embs[2]: 2}
    t2 = {embs[1]: 1, embs[2]: -1}
    v1 = cm_period_valuation(cm, t1, psi)
    v2 = cm_period_valuation(cm, t2, psi)
    both = {e: t1.get(e, 0) + t2.get(e, 0) for e in set(t1) | set(t2)}
    assert cm_period_valuation(cm, both, psi) == v1 + v2


def test_scaling_covariance():
    cm = carlitz_cm(2)
    psi = Embedding(0, 0, 0)
    base = cm_period_valuation(cm, {psi: 1}, psi)
    up = cm_period_valuation(cm, {psi: 1}, psi, ScalingData(u_powers={0: 1}), None)
    assert up - base == 1
    xp = cm_period_valuation(cm, {psi: 1}, psi, None,
                             ScalingData(x_leading_valuation=Fraction(2)))
    assert xp - base == 2
    # element-level: the integral shifts by the same amounts
    sh = std_shtuka(cm, {psi: 1})
    pe0 = integral_u_omega(sh, psi, depth=1)
    pe1 = integral_u_omega(sh, psi, ScalingData(u_powers={0: 1}), None, depth=1)
    assert pe1.leading.valuation() - pe0.leading.valuation() == 1
    pe2 = integral_u_omega(sh, psi, None,
                           ScalingData(x_leading_valuation=Fraction(2)), depth=1)
    assert pe2.leading.valuation() - pe0.leading.valuation() == 2
    pe3 = integral_u_omega(sh, psi, None, ScalingData(x_order=3), depth=1)
    assert pe3.hat_order - pe0.hat_order == 3


def test_averaged_carlitz_and_symmetric():
    cm = carlitz_cm(3)
    psi = Embedding(0, 0, 0)
    assert averaged_period_valuation(cm, {psi: 1}, psi) == Fraction(1, 2)
    # symmetric type: all d equal: average equals d * Z(1,1) (mu terms cancel)
    cm2 = single_cm(3, 1, 2)
    phi_type = {emb: 2 for emb in cm2.embeddings()}
    avg = averaged_period_valuation(cm2, phi_type, cm2.embeddings()[0])
    assert avg == 2 * Fraction(1, 3 - 1)
    # zero type averages to zero without scalings
    assert averaged_period_valuation(cm2, {}, cm2.embeddings()[0]) == 0


def test_galois_character_identity():
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    assert galois_character_check(cm, phi, psi, "inertia", 0, depth=2)


def test_galois_character_inertia_involution():
    # e=2, q_v=3: qt=3, the mu_2-twist sends l_0 to -l_0 (chi = -1 + O(y))
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    assert galois_character_check(cm, phi, phi, "inertia", 1, depth=2)
    assert galois_character_check(cm, phi, psi, "inertia", 1, depth=2)


def test_galois_character_frobenius_lift():
    # unramified coefficient-Frobenius on the f=2, e=1 component over q_v=2
    cm = single_cm(2, 2, 1)
    phi, psi = cm.embeddings()
    assert galois_character_check(cm, phi, phi, "frobenius", 1, depth=2, bound=96)
    assert galois_character_check(cm, phi, psi, "frobenius", 1, depth=2, bound=96)


def test_component_tower_shapes():
    cm = single_cm(3, 2, 4)
    tower, pi, omega = component_tower(cm, 0)
    assert tower.e_abs == 4 and tower.f_abs == 2
    assert omega ** 4 == tower.residue.one and omega ** 2 != tower.residue.one
    psi_y = embedding_value(tower, cm, Embedding(0, 1, 3), pi)
    assert psi_y.valuation() == Fraction(1, 4)


def test_dim_invariant():
    cm = CMAlgebra(3, [CMComponent(2, 2), CMComponent(1, 1)])
    assert dim(cm) == 5
    assert len(cm.embeddings()) == 5


def test_unit_shtuka_with_eps_period():
    # d = 0 with a nontrivial unit twist: the pairing is eps^(-1) c, a unit
    cm = carlitz_cm(2)
    psi = Embedding(0, 0, 0)
    F2 = FqField(2, 1)
    sh = std_shtuka(cm, {}, eps={(0, 0): TruncSeries(F2, {0: 1, 1: 1})})
    pe = integral_u_omega(sh, psi, depth=2)
    assert pe.hat_order == 0
    assert pe.leading.valuation() == 0


def test_triangle_f3_distinguishes_exponent_direction():
    # f = 3 separates rep(j(psi)-j(phi)) from its reverse; all three routes
    # must still agree (the acceptance grid only reaches f = 2)
    cm = single_cm(2, 3, 1)
    embs = cm.embeddings()
    for phi in embs:
        for psi in embs:
            closed = omega_valuation_closed(cm, phi, psi)
            via_l = omega_valuation_via_L(cm, phi, psi)
            series = period_valuation_series(omega_period(cm, phi, psi, depth=0))
            assert closed == via_l == series, (phi, psi)
    # spot values: rep 1 gives 2/7, rep 2 gives 4/7, diagonal 1/7
    a, b, c = embs
    assert omega_valuation_closed(cm, a, b) == Fraction(2, 7)
    assert omega_valuation_closed(cm, a, c) == Fraction(4, 7)
    assert omega_valuation_closed(cm, a, a) == Fraction(1, 7)


def test_multi_component_isolation():
    # a CM type supported on another component contributes nothing at psi
    cm = CMAlgebra(2, [CMComponent(1, 1), CMComponent(2, 1)])
    psi0 = Embedding(0, 0, 0)
    other = {Embedding(1, 0, 0): 5, Embedding(1, 1, 0): -2}
    assert cm_period_valuation(cm, other, psi0) == 0
    mixed = dict(other)
    mixed[psi0] = 1
    assert cm_period_valuation(cm, mixed, psi0) == 1  # only the Carlitz part


def test_wild_via_L_with_user_datum():
    # a wild-marked component whose tables replicate the tame e=2/q_v=3 data
    # must reproduce the tame value through the user-supplied datum route
    from ffperiods.lfunctions import LocalGaloisDatum, indicator_pair_function

    wild = CMComponent(1, 2, tame=False, diff_valuation=Fraction(1, 2),
                       pairwise=((0, 1, Fraction(1, 2)),))
    cm = CMAlgebra(3, [wild])
    phi = Embedding(0, 0, 0)
    datum = LocalGaloisDatum.tame(3, 1, 2)
    a = indicator_pair_function(datum, phi.to_tame(cm), phi.to_tame(cm))
    via = omega_valuation_via_L(cm, phi, phi, datum=datum, pair_function=a)
    assert via == omega_valuation_closed(cm, phi, phi) == Fraction(-1, 4)


def test_recursion_family_rejects_wrong_solutions():
    # rescaling one family member alone breaks the defining recursion
    from ffperiods.cmshtuka import RecursionFamily, recursion_family

    cm = single_cm(3, 1, 2)
    phi = Embedding(0, 0, 0)
    fam = recursion_family(cm, phi, depth=1)
    broken = [fam.ells[0].scale_residue_int(2)] + list(fam.ells[1:])
    bad = RecursionFamily(fam.tower, fam.xi, fam.q_tilde, broken)
    assert not bad.verify_tau_property()
    # and a wrong xi is caught as well
    bad_xi = RecursionFamily(fam.tower, fam.xi + fam.tower.one(), fam.q_tilde,
                             list(fam.ells))
    assert not bad_xi.verify_tau_property()


def test_averaged_with_per_eta_scalings():
    cm = single_cm(3, 1, 2)
    psi = cm.embeddings()[0]
    scalings = {0: ScalingData(u_powers={0: 2}),
                1: ScalingData(x_leading_valuation=Fraction(3))}
    base = averaged_period_valuation(cm, {psi: 1}, psi)
    shifted = averaged_period_valuation(cm, {psi: 1}, psi, scalings)
    # average of the shifts: (2 * 1/2 + 3) / 2 = 2
    assert shifted - base == 2


def test_wrong_l_route_raises(monkeypatch):
    # the closed form and Z_v - mu_Art must agree; a raise, so python -O keeps it
    mu = cmshtuka.mu_art_v
    monkeypatch.setattr(cmshtuka, "mu_art_v", lambda datum, a: mu(datum, a) + 1)
    psi = Embedding(0, 0, 0)
    with pytest.raises(CrossCheckError, match="L-route"):
        cm_period_valuation(carlitz_cm(3), {psi: 1}, psi)


def test_wrong_averaged_formula_raises(monkeypatch):
    # hand the averaged formula the conjugation average of the zero type
    characters = cmshtuka.cm_characters

    def wrong_average(datum, values, psi):
        return characters(datum, values, psi)[0], characters(datum, {}, psi)[1]

    monkeypatch.setattr(cmshtuka, "cm_characters", wrong_average)
    cm = single_cm(3, 1, 2)
    psi = cm.embeddings()[0]
    with pytest.raises(CrossCheckError, match="averaged"):
        averaged_period_valuation(cm, {psi: 1}, psi)


def test_averaged_on_nonabelian_datum():
    # the conjugation-averaged function differs from a on the order-6 datum;
    # the per-eta direct average must still match it (asserted internally)
    cm = single_cm(2, 2, 3)
    psi = Embedding(0, 0, 1)
    phi_type = {Embedding(0, 0, 1): 1, Embedding(0, 1, 0): 2}
    val = averaged_period_valuation(cm, phi_type, psi)
    assert val.denominator in (1, 2, 3, 6, 9, 12, 18, 36)


def test_period_expansion_coefficients_by_hand():
    # Carlitz over q_v = 3 at depth 2: the pairing is (z - zeta) * sum l_n z^n,
    # so around z = zeta the coefficient of (z-zeta)^(r+1) is
    # sum_n C(n, r) l_n zeta^(n-r); check r = 0, 1, 2 against that formula
    from math import comb

    cm = carlitz_cm(3)
    psi = Embedding(0, 0, 0)
    pe = omega_period(cm, psi, psi, depth=2)
    tower = pe.tower
    cmx = CMAlgebra(3, [CMComponent(1, 1)])
    from ffperiods.cmshtuka import recursion_family

    fam = recursion_family(cmx, psi, 2)
    # rebuild on the same tower shape: towers are constructed deterministically,
    # so the coefficients agree elementwise
    ells = fam.ells
    zeta = fam.tower.level_uniformizer(0)
    for r in range(3):
        expected = fam.tower.zero()
        for n in range(r, 3):
            b = comb(n, r) % 3
            if b == 0:
                continue
            term = ells[n].scale_residue_int(b)
            if n - r:
                term = term * zeta.pow(n - r)
            expected = expected + term
        got = pe.zeta_coeffs.coeff(r + 1)
        # the towers are built deterministically, so the element data agrees
        # even though the two tower objects are distinct chains
        assert not (got.series - expected.series).terms


def test_integral_scaling_on_ramified_component():
    # x-scaling by a half-integer valuation is representable on the e=2 tower
    cm = single_cm(3, 1, 2)
    phi, psi = cm.embeddings()
    sh = std_shtuka(cm, {phi: 1})
    pe0 = integral_u_omega(sh, psi, depth=1)
    pe1 = integral_u_omega(sh, psi, None,
                           ScalingData(x_leading_valuation=Fraction(1, 2)), depth=1)
    assert pe1.leading.valuation() - pe0.leading.valuation() == Fraction(1, 2)
    pe2 = integral_u_omega(sh, psi, ScalingData(u_powers={0: 1}), None, depth=1)
    assert pe2.leading.valuation() - pe0.leading.valuation() == Fraction(1, 2)


def test_integral_multi_embedding_hardest_datum():
    # two embeddings of the (3, f=2, e=4) component share one tower at depth 0;
    # the second Kummer solve needs a mid-chain unramified extension (mu_16)
    cm = single_cm(3, 2, 4)
    phi1 = Embedding(0, 0, 0)
    phi2 = Embedding(0, 0, 2)
    sh = std_shtuka(cm, {phi1: 1, phi2: 1})
    pe = integral_u_omega(sh, phi1, depth=0, bound=256)
    assert pe.hat_order == 1
    expected = (omega_valuation_closed(cm, phi1, phi1)
                + omega_valuation_closed(cm, phi2, phi1))
    assert expected == Fraction(-7, 16)
    assert pe.leading.valuation() == expected


@pytest.mark.parametrize("error", [
    InsufficientPrecisionError, AmbiguousLeadingTermError, LeadingTermMismatchError,
])
def test_omega_period_reruns_at_two_units(monkeypatch, tower_units, error):
    cm = carlitz_cm(9)
    psi = Embedding(0, 0, 0)

    def valuation():
        return period_valuation_series(omega_period(cm, psi, psi, depth=1, bound=1000))

    assert valuation() == Fraction(1, 8)
    assert tower_units == [1]
    tower_units.clear()
    read = cmshtuka._omega_from_family

    def short_at_one_unit(fam, *args):
        if fam.tower.units == 1:
            raise error("forced at one unit")
        return read(fam, *args)

    monkeypatch.setattr(cmshtuka, "_omega_from_family", short_at_one_unit)
    assert valuation() == Fraction(1, 8)
    assert tower_units == [1, 2]
    tower_units.clear()

    def short_at_every_unit(fam, *args):
        raise error("forced at %d units" % fam.tower.units)

    monkeypatch.setattr(cmshtuka, "_omega_from_family", short_at_every_unit)
    with pytest.raises(error, match="forced at 2 units"):
        valuation()
    assert tower_units == [1, 2]


def test_integral_and_galois_check_build_at_two_units(tower_units):
    # only omega_period runs at one unit; these keep two, with no rerun
    cm = carlitz_cm(9)
    psi = Embedding(0, 0, 0)
    sh = std_shtuka(cm, {psi: 1})
    assert integral_u_omega(sh, psi, depth=1, bound=1000).leading.valuation() \
        == Fraction(1, 8)
    assert galois_character_check(cm, psi, psi, "inertia", 1, depth=1, bound=1000)
    assert tower_units and set(tower_units) == {2}


def _grid_pairs():
    # test_criterion_4's grid: every embedding pair at the default depth
    for q_v, f, e in GRID:
        cm = single_cm(q_v, f, e)
        depth = max_recursion_depth(cm, 0)
        for phi in cm.embeddings():
            for psi in cm.embeddings():
                yield cm, phi, psi, depth


def test_deferred_expansion_matches_eager_expansion(monkeypatch):
    families = []
    build = cmshtuka.recursion_family

    def recorded(*args, **kw):
        families.append(build(*args, **kw))
        return families[-1]

    monkeypatch.setattr(cmshtuka, "recursion_family", recorded)
    for cm, phi, psi, depth in _grid_pairs():
        families.clear()
        pe = omega_period(cm, phi, psi, depth=depth)
        (fam,) = families  # no rerun
        # the eager value: the full w-series at w_prec, then (z - zeta)-coordinates
        w_prec = depth + 2
        pi = cmshtuka.component_uniformizer(fam.tower, cm.components[0])
        w_series = cmshtuka._omega_w_series(fam, cm, phi, psi, w_prec, pi)[0]
        eager = cmshtuka._to_zeta_coordinates(fam.tower, cm, psi, pi, w_series, w_prec)[0]
        got = pe.zeta_coeffs
        assert got.field is eager.field and got.prec == eager.prec
        assert ({n: c.series for n, c in got.terms.items()}
                == {n: c.series for n, c in eager.terms.items()}), (cm.q_v, phi, psi)
        assert pe.zeta_coeffs is got  # built once


def test_expansion_disagreeing_with_head_raises_on_first_access(monkeypatch):
    to_zeta = cmshtuka._to_zeta_coordinates

    def shifted(tower, cm, psi, pi, w_series, w_prec):
        series, dy_dz = to_zeta(tower, cm, psi, pi, w_series, w_prec)
        return series.scale(tower.uniformizer()), dy_dz

    for cm, phi, psi, depth in _grid_pairs():
        pe = omega_period(cm, phi, psi, depth=depth)  # the head agrees with itself
        monkeypatch.setattr(cmshtuka, "_to_zeta_coordinates", shifted)
        with pytest.raises(LeadingTermMismatchError, match="disagrees with expansion"):
            pe.zeta_coeffs
        monkeypatch.undo()
        assert pe.zeta_coeffs.terms[pe.hat_order].valuation() == pe.leading.valuation()


def test_omega_period_reverts_only_the_head(monkeypatch):
    precs = []
    revert = cmshtuka.reversion

    def recorded(g, prec, tower):
        precs.append(prec)
        return revert(g, prec, tower)

    monkeypatch.setattr(cmshtuka, "reversion", recorded)
    full_prec_seen = False
    for cm, phi, psi, depth in _grid_pairs():
        precs.clear()
        pe = omega_period(cm, phi, psi, depth=depth)
        ramified = cm.components[0].e > 1
        # the head reverts z - zeta to hat + 2 terms, and only when e > 1
        assert precs == ([pe.hat_order + 2] if ramified else []), (cm.q_v, phi, psi)
        pe.zeta_coeffs
        if ramified:
            assert precs[-1] == depth + 3  # w_prec + 1, on first access only
            full_prec_seen |= depth + 3 > pe.hat_order + 2
    assert full_prec_seen


# -- one solve per recursion level -------------------------------------------------


def _grid_families():
    # every embedding of every grid datum, at the largest depth the bound allows
    for q_v, f, e in GRID:
        cm = single_cm(q_v, f, e)
        depth = max_recursion_depth(cm, 0)
        for phi in cm.embeddings():
            yield cm, phi, depth


def test_recursion_reads_older_ells_off_the_relation():
    # each l_j read off l_j = l_(j+1)^qt + xi l_(j+1) at the top is the top
    # tower's lift of l_j from its own level, term by term and to the same
    # precision; level j + 1 holds -l_j as the constant of X^qt + xi X - l_j
    older = 0
    for cm, phi, depth in _grid_families():
        for units in PRECISION_UNITS:
            fam = recursion_family(cm, phi, depth, units=units)
            levels = fam.tower.depth_levels()
            for j, level in enumerate(levels[len(levels) - depth:]):
                own = -level.step[1][0]
                assert own.tower is level.previous
                assert fam.ells[j].series == fam.tower.lift(own).series, (cm.q_v, phi, units, j)
            older += max(depth - 1, 0)
    assert older  # the grid reaches depth 2 and beyond


def test_family_uniformizer_is_the_component_uniformizer():
    for cm, phi, depth in _grid_families():
        for units in PRECISION_UNITS:
            fam = recursion_family(cm, phi, depth, units=units)
            pi = family_uniformizer(fam, cm, phi)
            ref = component_uniformizer(fam.tower, cm.components[0])
            assert pi.tower is ref.tower and pi.series == ref.series, (cm.q_v, phi)


def _pure_kummer(level):
    coeffs = level.step[1]
    a0 = coeffs[0].series
    return len(coeffs) == 1 and a0.prec is None and set(a0.terms) == {1}


def test_one_reexpansion_per_eisenstein_step(monkeypatch):
    # the construction check and every later lift share one Newton solve,
    # made at the tower's own precision
    solves = []
    reexpand = LocalFieldTower._reexpand

    def counted(self, prec):
        solves.append((self, prec))
        return reexpand(self, prec)

    monkeypatch.setattr(LocalFieldTower, "_reexpand", counted)
    data = [(cm, phi, depth, 64) for cm, phi, depth in _grid_families()]
    data.append((single_cm(9, 1, 8), Embedding(0, 0, 1), 3, 10 ** 5))
    for cm, phi, depth, bound in data:
        solves.clear()
        pe = omega_period(cm, phi, phi, depth=depth, bound=bound)
        steps = [t for t in pe.tower.depth_levels()
                 if t.step is not None and t.step[0] == "eisenstein" and not _pure_kummer(t)]
        assert len(steps) == depth, (cm.q_v, phi)
        assert Counter(t for t, _ in solves if not _pure_kummer(t)) == Counter(steps)
        assert all(p == t.prec for t, p in solves)


# -- the strength of the recursion check at one unit of precision ---------------------


@pytest.mark.parametrize("q_v, f, e", [(2, 1, 1), (3, 1, 2), (2, 2, 1), (4, 1, 3)])
def test_verify_tau_property_refuses_a_twist_and_a_last_order_error(q_v, f, e):
    # at omega_period's one unit: a twist of every l_n by a unit u reads True
    # iff u^qt = u (u in mu_(qt-1)), and an error at l_1's last known order
    # breaks the relation l_2^qt + xi l_2 = l_1
    cm = CMAlgebra(q_v, [CMComponent(f, e)])
    phi = cm.embeddings()[-1]
    fam = recursion_family(cm, phi, 2, units=PRECISION_UNITS[0])
    assert fam.verify_tau_property()
    tower, qt = fam.tower, fam.q_tilde

    def with_ells(ells):
        return RecursionFamily(tower, fam.xi, qt, ells)

    root = tower.from_residue(tower.residue.root_of_unity(qt - 1))
    for unit, inside in ((root, True), (tower.one() + tower.uniformizer(), False),
                         (tower.one() + tower.uniformizer().pow(5), False)):
        assert with_ells([unit * ell for ell in fam.ells]).verify_tau_property() is inside
    l1 = fam.ells[1].series
    last = TruncSeries.monomial(tower.residue, l1.prec - 1, prec=l1.prec)
    ells = list(fam.ells)
    ells[1] = TowerElem(tower, l1 + last)
    assert not with_ells(ells).verify_tau_property()
