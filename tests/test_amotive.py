import pytest

from ffperiods.amotive import (
    HenselFailureError,
    ResidueMismatchError,
    amotive_to_local_shtuka,
    carlitz_model,
    hensel_t_of_z,
    shtuka_determinant,
    z_series_hat_order,
)
from ffperiods.fields import FqField, PolyFq
from paper_checks import identity_model


def place(q, coeffs):
    p, k = {2: (2, 1), 3: (3, 1), 4: (2, 2)}[q]
    F = FqField(p, k)
    return F, PolyFq(F, coeffs)


def test_carlitz_degree_one_exact():
    # place t over q = 2: the local shtuka is exactly z - zeta
    F2, pl = place(2, [0, 1])
    model = carlitz_model(2, pl)
    out = amotive_to_local_shtuka(model, pl, depth=3)
    entry = out[0][0]
    zeta = model.tower.uniformizer()
    assert set(entry.terms) == {0, 1}
    assert (entry.terms[0] + zeta).is_zero_within_precision()
    assert (entry.terms[1] - model.tower.one()).is_zero_within_precision()
    # theta itself reduces to zeta for the place t
    assert (model.theta - zeta).is_zero_within_precision()


def test_carlitz_degree_one_shifted():
    # place t + 1 over q = 3: still exactly z - zeta with theta = zeta - 1
    F3, pl = place(3, [1, 1])
    model = carlitz_model(3, pl)
    out = amotive_to_local_shtuka(model, pl, depth=3)
    entry = out[0][0]
    zeta = model.tower.uniformizer()
    assert (entry.terms[0] + zeta).is_zero_within_precision()
    assert z_series_hat_order(entry, zeta) == 1


def test_hensel_root_satisfies_place_equation():
    F2, pl = place(2, [1, 1, 1])  # t^2 + t + 1 over F_2
    model = carlitz_model(2, pl)
    t_of_z = hensel_t_of_z(model, pl, depth=5)
    # p(T(z)) = z within the working window
    tower = model.tower
    acc = None
    from ffperiods.amotive import _embed_place_coeffs
    from ffperiods.coeffseries import poly_at_series
    from ffperiods.series import TruncSeries

    coeffs = _embed_place_coeffs(tower, 2, pl)
    poly = TruncSeries(tower, dict(enumerate(coeffs)))
    val = poly_at_series(poly, t_of_z, 6, tower)
    z_var = TruncSeries.monomial(tower, 1, prec=6)
    assert not (val - z_var).terms


def test_carlitz_degree_two_hat_order():
    # criterion 9: degree-2 place gives a determinant with hat-order 1
    F2, pl = place(2, [1, 1, 1])
    model = carlitz_model(2, pl)
    out = amotive_to_local_shtuka(model, pl, depth=4)
    det = shtuka_determinant(out, 5)
    zeta = model.tower.uniformizer()
    assert z_series_hat_order(det, zeta) == 1
    # the leading coefficient at z = zeta is a unit times the conjugate gap:
    # v((theta - theta^q)) = 0
    assert det.terms[0].series.terms  # visible constant coefficient


def test_identity_model_is_etale():
    model = identity_model(2, 2)
    F2, pl = place(2, [0, 1])
    out = amotive_to_local_shtuka(model, pl, depth=3)
    assert (out[0][0].terms[0] - model.tower.one()).is_zero_within_precision()
    assert (out[1][1].terms[0] - model.tower.one()).is_zero_within_precision()
    assert not out[0][1].terms and not out[1][0].terms
    det = shtuka_determinant(out, 4)
    assert (det.terms[0] - model.tower.one()).is_zero_within_precision()


def test_residue_mismatch():
    # a degree-2 place cannot live over the degree-1 residue field
    F2, pl2 = place(2, [1, 1, 1])
    model = carlitz_model(2, PolyFq(F2, [0, 1]))  # R for the place t
    with pytest.raises(ResidueMismatchError):
        amotive_to_local_shtuka(model, pl2, depth=2)


def test_reducible_place_rejected():
    F2, bad = place(2, [0, 0, 1])  # t^2 is not irreducible
    model = carlitz_model(2, PolyFq(bad.field, [0, 1]))
    with pytest.raises(ValueError):
        amotive_to_local_shtuka(model, bad, depth=2)
