import pytest
from hypothesis import given, settings, strategies as st

from ffperiods.coeffseries import poly_at_series, reversion
from ffperiods.series import TruncSeries
from ffperiods.towers import LocalFieldTower


@pytest.fixture
def tower():
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    return t.extend_eisenstein([-z], name="pi")


def test_arithmetic_roundtrip(tower):
    pi = tower.uniformizer()
    a = TruncSeries(tower, {0: pi, 2: tower.one()})
    b = TruncSeries(tower, {1: tower.one()})
    prod = a * b
    assert set(prod.terms) == {1, 3}
    assert (prod.coeff(1) - pi).is_zero_within_precision()
    assert not ((a + b) - a - b).terms


def test_pow_and_truncate(tower):
    x = TruncSeries.monomial(tower, 1)
    p = (TruncSeries.one(tower) + x).pow_int(3, prec=3)
    # char 3: (1+x)^3 = 1 + x^3, truncated below degree 3
    assert set(p.terms) == {0}
    q = (TruncSeries.one(tower) + x).pow_int(2, prec=4)
    assert set(q.terms) == {0, 1, 2}
    assert (q.coeff(1) - tower.integer(2)).is_zero_within_precision()


def test_inv_is_geometric(tower):
    x = TruncSeries.monomial(tower, 1)
    inv = (TruncSeries.one(tower) - x).inv(4)
    for m in range(4):
        assert (inv.coeff(m) - tower.one()).is_zero_within_precision()
    prod = ((TruncSeries.one(tower) - x) * inv).truncate(4)
    assert not (prod - TruncSeries.one(tower, 4)).terms


def test_substitute_and_reversion(tower):
    pi = tower.uniformizer()
    # g(w) = 2 pi w + w^2: reversion satisfies g(w(u)) = u
    g = TruncSeries(tower, {1: pi.scale_residue_int(2), 2: tower.one()})
    w_of_u = reversion(g, 5, tower)
    back = g.compose(w_of_u.truncate(5))
    u = TruncSeries.monomial(tower, 1, prec=5)
    assert not (back - u).terms


def test_reversion_needs_unit_linear_term(tower):
    g = TruncSeries(tower, {2: tower.one()})
    with pytest.raises(ValueError):
        reversion(g, 4, tower)


def test_poly_at_series_constant_term(tower):
    pi = tower.uniformizer()
    poly = TruncSeries(tower, {0: pi, 1: tower.one()})  # pi + y
    point = TruncSeries(tower, {0: pi, 1: tower.one()}, 3)  # y = pi + w
    out = poly_at_series(poly, point, 3, tower)
    assert (out.coeff(0) - pi.scale_residue_int(2)).is_zero_within_precision()
    assert (out.coeff(1) - tower.one()).is_zero_within_precision()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_substitute_does_linear_many_products(tower, n, monkeypatch):
    pi = tower.uniformizer()
    outer = TruncSeries(tower, {e: tower.one() if e % 2 else pi for e in range(n)})
    inner = TruncSeries(tower, {1: tower.one(), 2: pi}, n + 2)
    # the definition: the sum of c * inner^e, each power computed on its own
    expected = TruncSeries.zero(tower, n + 2)
    for e, c in outer.terms.items():
        expected = expected + inner.pow_int(e, n + 2).scale(c).truncate(n + 2)
    products = []
    mul = TruncSeries.__mul__

    def counting_mul(a, b):
        if isinstance(a.field, LocalFieldTower):  # not the coefficients' own products
            products.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counting_mul)
    out = outer.compose(inner.truncate(n + 2))
    assert len(products) <= n
    assert out.prec == expected.prec
    assert not (out - expected).terms


# -- one-pass reversion against the fixed point --------------------------------


def reversion_by_fixed_point(g, prec, tower):
    """w <- w - (g(w) - u) / g_1 until g(w) = u + O(u^prec)."""
    g1_inv = g.terms[1].inv()
    u = TruncSeries.monomial(tower, 1, prec=prec)
    w = u.scale(g1_inv)
    for _ in range(prec + 2):
        err = g.compose(w.truncate(prec)) - u
        if not err.terms:
            return w
        w = w - err.scale(g1_inv)
    raise AssertionError("the fixed point did not converge")


def _residue_elem(field, code):
    digits = []
    for _ in range(field.k):
        code, d = divmod(code, field.p)
        digits.append(d)
    return field.elem(digits)


@st.composite
def reversion_data(draw):
    q_v = draw(st.sampled_from([2, 3, 4]))
    element = st.dictionaries(st.integers(min_value=0, max_value=3),
                              st.integers(min_value=1, max_value=q_v - 1), max_size=3)
    g1 = draw(element.filter(bool))
    # an empty map is a zero middle coefficient
    higher = [draw(element) for _ in range(draw(st.integers(min_value=0, max_value=6)))]
    return q_v, g1, higher, draw(st.integers(min_value=2, max_value=7))


_kummer_towers = {}


def _kummer_tower(q_v):
    if q_v not in _kummer_towers:
        t = LocalFieldTower.base(q_v)
        _kummer_towers[q_v] = t.extend_eisenstein({0: -t.uniformizer()},
                                                  degree=2 if q_v == 3 else 3)
    return _kummer_towers[q_v]


@given(reversion_data())
@settings(max_examples=60, deadline=None)
def test_reversion_matches_fixed_point(data):
    q_v, g1, higher, prec = data
    tower = _kummer_tower(q_v)

    def elem(terms):
        return tower.element({e: _residue_elem(tower.residue, c) for e, c in terms.items()})

    g = TruncSeries(tower, {1: elem(g1), **{r: elem(c) for r, c in enumerate(higher, 2)}})
    w = reversion(g, prec, tower)
    assert w.prec == prec
    assert not (g.compose(w.truncate(prec)) - TruncSeries.monomial(tower, 1, prec=prec)).terms
    ref = reversion_by_fixed_point(g, prec, tower)
    assert set(w.terms) == set(ref.terms)
    assert not (w - ref).terms
