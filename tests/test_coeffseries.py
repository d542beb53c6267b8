import pytest

from ffperiods.coeffseries import CoeffSeries, poly_at_series, reversion
from ffperiods.towers import LocalFieldTower


@pytest.fixture
def tower():
    t = LocalFieldTower.base(3)
    z = t.uniformizer()
    return t.extend_eisenstein([-z], name="pi")


def test_arithmetic_roundtrip(tower):
    pi = tower.uniformizer()
    a = CoeffSeries(tower, {0: pi, 2: tower.one()})
    b = CoeffSeries(tower, {1: tower.one()})
    prod = a * b
    assert set(prod.terms) == {1, 3}
    assert (prod.coeff(1) - pi).is_zero_within_precision()
    assert ((a + b) - a - b).is_zero_within_precision()


def test_pow_and_truncate(tower):
    x = CoeffSeries.variable(tower)
    p = (CoeffSeries.one(tower) + x).pow(3, prec=3)
    # char 3: (1+x)^3 = 1 + x^3, truncated below degree 3
    assert set(p.terms) == {0}
    q = (CoeffSeries.one(tower) + x).pow(2, prec=4)
    assert set(q.terms) == {0, 1, 2}
    assert (q.coeff(1) - tower.integer(2)).is_zero_within_precision()


def test_inv_is_geometric(tower):
    x = CoeffSeries.variable(tower)
    inv = (CoeffSeries.one(tower) - x).inv(4)
    for m in range(4):
        assert (inv.coeff(m) - tower.one()).is_zero_within_precision()
    prod = ((CoeffSeries.one(tower) - x) * inv).truncate(4)
    assert (prod - CoeffSeries.one(tower, 4)).is_zero_within_precision()


def test_substitute_and_reversion(tower):
    pi = tower.uniformizer()
    # g(w) = 2 pi w + w^2: reversion satisfies g(w(u)) = u
    g = CoeffSeries(tower, {1: pi.scale_residue_int(2), 2: tower.one()})
    w_of_u = reversion(g, 5, tower)
    back = g.substitute(w_of_u, 5)
    u = CoeffSeries.variable(tower, 5)
    assert (back - u).is_zero_within_precision()


def test_reversion_needs_unit_linear_term(tower):
    g = CoeffSeries(tower, {2: tower.one()})
    with pytest.raises(ValueError):
        reversion(g, 4, tower)


def test_poly_at_series_constant_term(tower):
    pi = tower.uniformizer()
    poly = CoeffSeries(tower, {0: pi, 1: tower.one()})  # pi + y
    point = CoeffSeries(tower, {0: pi, 1: tower.one()}, 3)  # y = pi + w
    out = poly_at_series(poly, point, 3, tower)
    assert (out.coeff(0) - pi.scale_residue_int(2)).is_zero_within_precision()
    assert (out.coeff(1) - tower.one()).is_zero_within_precision()


def test_evaluate(tower):
    pi = tower.uniformizer()
    poly = CoeffSeries(tower, {0: pi, 2: tower.one()})
    val = poly.evaluate(pi)
    assert (val - (pi + pi * pi)).is_zero_within_precision()


@pytest.mark.parametrize("n", [4, 8, 16])
def test_substitute_does_linear_many_products(tower, n, monkeypatch):
    pi = tower.uniformizer()
    outer = CoeffSeries(tower, {e: tower.one() if e % 2 else pi for e in range(n)})
    inner = CoeffSeries(tower, {1: tower.one(), 2: pi}, n + 2)
    # the definition: the sum of c * inner^e, each power computed on its own
    expected = CoeffSeries.zero(tower, n + 2)
    for e, c in outer.terms.items():
        expected = expected + inner.pow(e, n + 2).scale(c).truncate(n + 2)
    products = []
    mul = CoeffSeries.__mul__

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(CoeffSeries, "__mul__", counting_mul)
    out = outer.substitute(inner, n + 2)
    assert len(products) <= n
    assert out.prec == expected.prec
    assert (out - expected).is_zero_within_precision()
