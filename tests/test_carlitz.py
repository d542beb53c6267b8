import time
from fractions import Fraction

import pytest

from ffperiods import carlitz
from ffperiods.carlitz import (
    CrossCheckError,
    Place,
    carlitz_infty_log_abs,
    carlitz_product_formula,
    carlitz_v_log_abs,
    finite_places,
    report_as_dict,
)
from ffperiods.fields import FqField, PolyFq
from ffperiods.lfunctions import log_q_value


def all_series_routes(report):
    """Test-side reference: every place of the report took the series route."""
    return all(pv.via_series for pv in report.places)


def test_infty_value_independent_of_truncation():
    for q in (2, 3, 4):
        for n in (1, 2, 3):
            val, product = carlitz_infty_log_abs(q, n)
            assert val == log_q_value(Fraction(q, q - 1))
            assert product.ord() == 0


def test_infty_product_factor_is_one_unit():
    # i = 1, q = 2: 1 - zeta^(2-1) = 1 + zeta in characteristic 2
    _, product = carlitz_infty_log_abs(2, 1)
    assert product.leading_coeff() == product.tower.residue.one
    assert 1 in product.series.terms  # the zeta term of 1 + zeta


def test_finite_places_enumeration_order():
    places = finite_places(2, 2)
    assert [p.label() for p in places] == ["t", "t + 1", "t^2 + t + 1"]
    assert [p.q_v for p in places] == [2, 2, 4]


def test_v_adic_values_degree_one():
    # q=2, place t: log|.|_v = -1 log q; q=3, place t+1: -(1/2) log q
    F2, F3 = FqField(2, 1), FqField(3, 1)
    pv = carlitz_v_log_abs(2, Place(2, PolyFq(F2, [0, 1])), depth=2)
    assert pv.log_abs == log_q_value(-1)
    assert pv.hat_order == 1 and pv.via_series
    pv3 = carlitz_v_log_abs(3, Place(3, PolyFq(F3, [1, 1])), depth=2)
    assert pv3.log_abs == log_q_value(Fraction(-1, 2))


def test_v_adic_value_degree_two():
    # q=2, place t^2+t+1: q_v = 4, value -(2/3) log q
    F2 = FqField(2, 1)
    pv = carlitz_v_log_abs(2, Place(2, PolyFq(F2, [1, 1, 1])), depth=2)
    assert pv.log_abs == log_q_value(Fraction(-2, 3))
    assert pv.via_series


def test_v_adic_matches_z_factor_at_every_place():
    for q in (2, 3):
        for pl in finite_places(q, 2):
            pv = carlitz_v_log_abs(q, pl, depth=2)
            assert pv.log_abs.coeff == -pv.z_v_at_one * pl.degree
            assert pv.hat_order == 1
            assert pv.via_series


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_product_formula_vanishes(q):
    report = carlitz_product_formula(q, 2, 2)
    assert report.total == log_q_value(0)
    assert report.infty == log_q_value(Fraction(q, q - 1))
    assert all_series_routes(report)


def test_report_dict_shape():
    report = carlitz_product_formula(2, 1, 1)
    d = report_as_dict(report)
    assert d["schema"] == "1"
    assert d["total"] == "0/1"
    assert [row["place"] for row in d["places"]] == ["t", "t + 1"]
    assert d["regularization"]["z_infty_at_0"] == "2/1"


def test_infty_requires_positive_terms():
    with pytest.raises(ValueError):
        carlitz_infty_log_abs(2, 0)


def test_product_formula_q16_degree_one():
    # the CLI bound allows q up to 16; degree-1 places stay on the series route
    report = carlitz_product_formula(16, 1, 1)
    assert report.total == log_q_value(0)
    assert all_series_routes(report)
    assert len(report.places) == 16


def test_infty_product_coefficients_exact():
    # q = 2, N = 2: (1 + zeta)(1 + zeta^3) = 1 + zeta + zeta^3 + zeta^4
    _, product = carlitz_infty_log_abs(2, 2)
    one = product.tower.residue.one
    assert product.series.terms == {0: one, 1: one, 3: one, 4: one}


def test_infty_product_stops_once_factors_are_one():
    # for q = 2 the factors past i = 14 are 1 + O(T^prec) at the capped
    # precision, so a long product costs no more than a short one
    start = time.perf_counter()
    val, product = carlitz_infty_log_abs(2, 1000)
    assert time.perf_counter() - start < 2
    val14, product14 = carlitz_infty_log_abs(2, 14)
    assert val == val14 == log_q_value(2)
    # n_terms = 14 caps the precision lower (2^14 + 10), so compare there
    assert product.series.truncate(product14.series.prec) == product14.series


def test_series_period_computed_once_per_residue_degree(monkeypatch):
    calls = []
    omega_period = carlitz.omega_period

    def counting(*args, **kwargs):
        calls.append(args[0].q_v)
        return omega_period(*args, **kwargs)

    monkeypatch.setattr(carlitz, "omega_period", counting)
    carlitz._series_period.cache_clear()
    report = carlitz_product_formula(16, 2, 2)
    assert len(report.places) == 136
    assert all(pv.via_series and pv.hat_order == 1 for pv in report.places)
    assert sorted(calls) == [16, 256]
