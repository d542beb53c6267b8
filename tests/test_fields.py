import itertools
import math

import pytest

from ffperiods.fields import (
    _LOG_TABLE_LIMIT,
    FqField,
    FieldMismatchError,
    PolyFq,
    count_irreducibles,
    factor_prime_power,
    monic_irreducibles,
)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(16) == (2, 4)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_f4_modulus_is_lex_smallest():
    F4 = FqField(2, 2)
    # the only irreducible quadratic over F_2 is x^2 + x + 1
    assert F4.modulus == (1, 1, 1)


def test_f4_frobenius_by_hand():
    # x^2 = x + 1 mod (x^2 + x + 1), worked out by hand
    F4 = FqField(2, 2)
    x = F4.gen
    assert x.frobenius(1) == F4.elem([1, 1])


def test_mul_inv_identity():
    for (p, k) in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        F = FqField(p, k)
        for a in F.elements():
            if a.is_zero():
                continue
            assert a * a.inv() == F.one


def test_pow_in_f3():
    F3 = FqField(3, 1)
    assert F3.elem(2) ** 2 == F3.one  # 4 mod 3


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FqField(3, 1).zero.inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        FqField(2, 1).one + FqField(3, 1).one


def test_frobenius_is_multiplicative_and_fixes_prime_field():
    F9 = FqField(3, 2)
    for a in F9.elements():
        for b in F9.elements():
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()
    F3 = FqField(3, 1)
    for a in F3.elements():
        assert a.frobenius() == a


def test_embedding_f2_into_f4():
    F2, F4 = FqField(2, 1), FqField(2, 2)
    emb = F2.embedding(F4)
    assert emb(F2.one) == F4.one
    assert emb(F2.zero) == F4.zero


def test_embedding_f4_into_f16_respects_arithmetic():
    F4, F16 = FqField(2, 2), FqField(2, 4)
    emb = F4.embedding(F16)
    for a in F4.elements():
        for b in F4.elements():
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)


def test_root_of_unity_orders():
    F9 = FqField(3, 2)
    w = F9.root_of_unity(4)
    assert w ** 4 == F9.one
    assert w ** 2 != F9.one


def test_irreducibles_q2():
    F2 = FqField(2, 1)
    deg1 = monic_irreducibles(F2, 1)
    assert [p.coeffs for p in deg1] == [
        (F2.zero, F2.one),
        (F2.one, F2.one),
    ]  # t, t+1
    deg2 = monic_irreducibles(F2, 2)
    assert len(deg2) == 1
    assert deg2[0].coeffs == (F2.one, F2.one, F2.one)  # t^2+t+1, by exhaustion


def test_irreducibles_q3_degree1():
    F3 = FqField(3, 1)
    assert len(monic_irreducibles(F3, 1)) == 3  # t, t+1, t+2


@pytest.mark.parametrize("q", [2, 3, 4])
def test_necklace_counts(q):
    p, k = factor_prime_power(q)
    F = FqField(p, k)
    for d in range(1, 7):
        ours = len(monic_irreducibles(F, d))
        assert ours == count_irreducibles(q, d)


def test_poly_divmod_and_gcd():
    F3 = FqField(3, 1)
    f = PolyFq(F3, [1, 0, 1])  # x^2 + 1
    g = PolyFq(F3, [1, 1])  # x + 1
    q, r = f.divmod(g)
    assert q * g + r == f
    assert f.gcd(f) == PolyFq(F3, [1, 0, 1])


def test_poly_derivative_char3():
    F3 = FqField(3, 1)
    f = PolyFq(F3, [0, 0, 0, 1])  # x^3
    assert f.derivative().is_zero()


def test_roots_of_unity_in_table_free_field():
    F = FqField(2, 18)
    for m in (3, 7):
        w = F.root_of_unity(m)  # m prime: order m means w != 1 and w^m = 1
        assert w != F.one and w ** m == F.one
    assert F._log is None


def test_table_free_path_agrees_with_forced_tables():
    F = FqField(11, 3)  # q = 1331, just above the limit
    assert F.q > _LOG_TABLE_LIMIT
    g = F.multiplicative_generator()
    sample = list(itertools.islice(F.elements(), 1, 50)) + [g, F.gen]

    def results():
        return [(a.inv(), a ** 5, a ** -3, a ** (F.q + 1), a * g) for a in sample]

    table_free = results()
    assert F._log is None
    try:
        F._build_tables()
        # the tables are powers of g, g generates F_q^*, and no nonzero
        # element before g in code order does
        assert F._exp[1] == g.c and len(F._log) == F.q - 1
        earlier = itertools.islice(F.elements(), 1, g.code())
        assert all(math.gcd(F._log[a.c], F.q - 1) > 1 for a in earlier)
        assert results() == table_free
    finally:
        F._exp = F._log = None
