import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ffperiods.fields import (
    _LOG_TABLE_LIMIT,
    FqField,
    FieldMismatchError,
    PolyFq,
    _Ring,
    _lex_irreducible,
    factor_prime_power,
    monic_irreducibles,
)
from ffperiods.ratfunc import QQ


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


@pytest.mark.parametrize("p,k", [(2, 1), (3, 2), (2, 8), (2, 9), (13, 3)])
def test_root_of_unity_is_kept_and_canonical(p, k):
    # tables at 3^2 and 2^8, none above; mu_1 needs no generator
    F = FqField(p, k)
    g = F.multiplicative_generator()
    for m in (d for d in range(1, F.q) if (F.q - 1) % d == 0):
        first = F.root_of_unity(m)
        assert F.root_of_unity(m) is first
        assert first == g ** ((F.q - 1) // m)


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


def _moebius(n):
    """Moebius function by trial division (test-side reference)."""
    m, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    return -m if n > 1 else m


def count_irreducibles(q, d):
    """Necklace count (1/d) * sum_{e|d} mu(e) q^(d/e)."""
    total = sum(_moebius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def test_moebius_reference():
    assert [_moebius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_necklace_counts(q):
    p, k = factor_prime_power(q)
    F = FqField(p, k)
    for d in range(1, 7):
        ours = len(monic_irreducibles(F, d))
        assert ours == count_irreducibles(q, d)


def _random_elem(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return field.elem([rng.randrange(field.p) for _ in range(field.k)])


def _random_poly(field, rng, degree):
    return PolyFq(field, [_random_elem(field, rng) for _ in range(degree + 1)])


# the one dense polynomial class over F_3, F_4, a table-free F_{2^11} and Q
@pytest.mark.parametrize("field", [FqField(3, 1), FqField(2, 2), FqField(2, 11), QQ],
                         ids=["F3", "F4", "F2^11", "Q"])
def test_poly_divmod_and_gcd(field):
    rng = random.Random(7)
    zero = PolyFq(field, [0])
    for _ in range(20):
        a = _random_poly(field, rng, rng.randint(0, 6))
        b = _random_poly(field, rng, rng.randint(0, 4))
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
        common = _random_poly(field, rng, 2)
        if common.is_zero():
            continue
        g = (a * common).gcd(b * common)
        assert g.is_monic()
        assert (a * common) % g == zero and (b * common) % g == zero and g % common == zero
        c, x = _random_elem(field, rng), _random_elem(field, rng)
        assert a.scale(c) == PolyFq(field, [y * c for y in a.coeffs])
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
        times = [sum([y] * i, field.zero) for i, y in enumerate(a.coeffs)]  # i y
        assert a.derivative() == PolyFq(field, times[1:] or [0])
        assert a.evaluate(x) == sum((y * x ** i for i, y in enumerate(a.coeffs)), field.zero)
    const = PolyFq(field, [_random_elem(field, rng) or field.one])
    assert zero.divmod(const) == (zero, zero)


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
    # q = 1331 is just above the limit; 2^11 and 3^7 take the p = 2 and
    # the odd-p products of the kernel
    for p, k in [(11, 3), (2, 11), (3, 7)]:
        F = FqField(p, k)
        assert F.q > _LOG_TABLE_LIMIT
        g = F.multiplicative_generator()
        sample = list(itertools.islice(F.elements(), 1, 50)) + [g, F.gen]

        def results():
            return [(a.inv(), a ** 5, a ** -3, a ** (F.q + 1), a * g, a.frobenius(2))
                    for a in sample]

        table_free = results()
        assert F._log is None
        try:
            F._build_tables()
            # the tables are powers of g, g generates F_q^*, and no nonzero
            # element before g in code order does
            assert F._exp[1] == g.n and len(F._log) == F.q - 1
            earlier = itertools.islice(F.elements(), 1, g.code())
            assert all(math.gcd(F._log[a.n], F.q - 1) > 1 for a in earlier)
            assert results() == table_free
        finally:
            F._log = F._exp = F._elems = None


def test_factor_prime_power_twelve_digits():
    assert factor_prime_power(999999999989) == (999999999989, 1)  # prime
    assert factor_prime_power(999983 ** 2) == (999983, 2)
    with pytest.raises(ValueError):
        factor_prime_power(999983 * 1000003)  # 999985999949, two primes


# Every embedding and root of unity depends on these: (p, k, modulus, code of
# the canonical multiplicative generator).
CANONICAL_FIELDS = [
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1), 3),
    (2, 9, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 10, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 11, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 12, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (2, 13, (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 14, (1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 7),
    (2, 15, (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 16, (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 3),
    (2, 17, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
    (2, 18, (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), 10),
    (3, 7, (2, 0, 1, 0, 0, 0, 0, 1), 5),
    (3, 8, (2, 0, 1, 0, 0, 0, 0, 0, 1), 38),
    (3, 9, (1, 0, 1, 2, 0, 0, 0, 0, 0, 1), 3),
    (5, 5, (1, 4, 0, 0, 0, 1), 10),
    (7, 4, (1, 1, 0, 0, 1), 12),
    (11, 3, (4, 1, 0, 1), 11),
    (13, 3, (2, 0, 0, 1), 15),
]


@pytest.mark.parametrize("p,k,modulus,gen_code", CANONICAL_FIELDS)
def test_canonical_modulus_and_generator(p, k, modulus, gen_code):
    F = FqField(p, k)
    assert F.modulus == modulus
    assert F.multiplicative_generator().code() == gen_code


@pytest.mark.parametrize("p,k", [(p, k) for p, top in ((2, 8), (3, 5), (5, 4), (7, 3), (11, 6),
                                                    (13, 5))
                                 for k in range(1, top + 1)]
                         + [(2, 16), (2, 64), (3, 9), (3, 40), (5, 20), (7, 12)])
def test_lex_irreducible_matches_sympy(p, k):
    from sympy import Poly, symbols

    x = symbols("x")
    for code in itertools.count():
        cand = [code // p ** i % p for i in range(k)] + [1]
        if Poly(cand[::-1], x, modulus=p).is_irreducible:
            break
    assert _lex_irreducible(p, k) == cand


def _ref_mul(a, b, m, p):
    """Schoolbook product of coefficient tuples mod the monic m over F_p."""
    k = len(m) - 1
    out = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for j in range(2 * k - 2, k - 1, -1):
        t = out[j] % p
        for i in range(k + 1):
            out[j - k + i] -= t * m[i]
    return tuple(x % p for x in out[:k])


def _ref_pow(a, e, m, p):
    r = (1,) + (0,) * (len(m) - 2)
    while e:
        if e & 1:
            r = _ref_mul(r, a, m, p)
        a = _ref_mul(a, a, m, p)
        e >>= 1
    return r


@pytest.mark.parametrize("p,top", [(2, 12), (3, 7), (5, 5), (7, 4), (11, 3), (13, 3)])
def test_generator_is_the_code_order_walk(p, top):
    # a walk from code 1 that includes F_p, powering by schoolbook products
    # and factoring q - 1 with sympy
    from sympy import primefactors

    for k in range(1, top + 1):
        F, q = FqField(p, k), p ** k
        one = (1,) + (0,) * (k - 1)
        exps = [(q - 1) // l for l in primefactors(q - 1)]
        walk = next(code for code in range(1, q)
                    if all(_ref_pow(tuple(code // p ** i % p for i in range(k)), e,
                                    F.modulus, p) != one for e in exps))
        assert F.multiplicative_generator().code() == walk, (p, k)


# table-free fields: p = 2 and odd p, and (101, 2), whose lanes are wider
# than 8 bytes; table fields, whose lanes are at least 8 bytes, up to
# (1021, 1), whose lanes are 12 bytes
KERNEL_FIELDS = [(2, 11), (2, 18), (3, 7), (5, 5), (13, 3), (101, 2),
                 (2, 4), (3, 2), (3, 5), (2, 10), (31, 2), (1021, 1)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_kernel_against_schoolbook(data):
    p, k = data.draw(st.sampled_from(KERNEL_FIELDS))
    F, coeffs = FqField(p, k), st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
    m = F.modulus
    a, b = F.elem(data.draw(coeffs)), F.elem(data.draw(coeffs))
    s = data.draw(st.integers(-3 * p, 3 * p))
    assert (a + b).c == tuple((x + y) % p for x, y in zip(a.c, b.c))
    assert (a - b).c == tuple((x - y) % p for x, y in zip(a.c, b.c))
    assert (-a).c == tuple(-x % p for x in a.c)
    assert a.scale_int(s).c == tuple(x * s % p for x in a.c)
    assert (a - b) + b == a and -(-a) == a
    ab = a * b
    assert ab.c == _ref_mul(a.c, b.c, m, p)
    assert (ab * ab).c == _ref_mul(ab.c, ab.c, m, p)  # kernel results as inputs
    assert (a ** p).c == _ref_pow(a.c, p, m, p)
    e = data.draw(st.integers(0, 3 * F.q))
    assert (a ** e).c == _ref_pow(a.c, e, m, p)
    n = data.draw(st.integers(0, 3 * k))
    assert a.frobenius(n).c == _ref_pow(a.c, p ** n, m, p)
    if a:
        assert a.inv().c == _ref_pow(a.c, F.q - 2, m, p)
        assert a * a.inv() == F.one


def test_kernel_wide_lanes():
    """Degree >= 256 widens the lanes past one byte for p = 2 (a coefficient
    count reaches k); m need not be irreducible for the ring identities."""
    rng = random.Random(7)
    for p, k in ((2, 256), (2, 300), (3, 256)):
        m = [rng.randrange(p) for _ in range(k)] + [1]
        ring = _Ring(p, m)
        for _ in range(3):
            a, b = ([rng.randrange(p) for _ in range(k)] for _ in range(2))
            pa, pb = ring.pack(a), ring.pack(b)
            assert ring.unpack(ring.mul(pa, pb)) == _ref_mul(a, b, m, p)
            assert ring.unpack(ring.frob(pa)) == _ref_pow(a, p, m, p)


def _ref_mu(m, p):
    """floor(x^(2k-2) / m) over F_p by scalar long division, k coefficients."""
    k = len(m) - 1
    rem, mu = [0] * (2 * k - 2) + [1], [0] * k
    for j in range(2 * k - 2, k - 1, -1):
        mu[j - k] = t = rem[j]
        for i in range(k + 1):
            rem[j - k + i] = (rem[j - k + i] - t * m[i]) % p
    return mu


@pytest.mark.parametrize("p", [2, 3, 13])
@pytest.mark.parametrize("k", [1, 2, 9, 100, 256])
def test_rings_sharing_a_lane_layout(p, k):
    """Rings of one degree share their lane layout (`_lanes`); each keeps its
    own Barrett constant, from packed long division, and the lexicographic
    search's ring without Frobenius rows multiplies the same."""
    rng = random.Random(1000 * p + k)
    moduli = [[rng.randrange(p) for _ in range(k)] + [1] for _ in range(2)]
    rings = [_Ring(p, m) for m in moduli]
    assert rings[0]._struct is rings[1]._struct
    for m, ring in zip(moduli, rings):
        bare = _Ring(p, m, rows=False)
        assert ring._mu == bare._mu == ring.pack(_ref_mu(m, p))
        a, b = ([rng.randrange(p) for _ in range(k)] for _ in range(2))
        pa, pb = ring.pack(a), ring.pack(b)
        ab = _ref_mul(a, b, m, p)
        assert ring.unpack(ring.mul(pa, pb)) == ring.unpack(bare.mul(pa, pb)) == ab
        assert ring.unpack(ring.frob(pa)) == _ref_pow(a, p, m, p)
        e = rng.randrange(2, 40)
        assert ring.unpack(ring.pow(pa, e)) == _ref_pow(a, e, m, p)


def _walk_root(poly):
    """The first root in code order, by evaluating at every element."""
    return next((x for x in poly.field.elements() if not poly.evaluate(x)), None)


@pytest.mark.parametrize("p,top", [(2, 12), (3, 8)])
def test_split_root_is_the_walk_root_for_every_field_pair(p, top):
    for b in range(1, top + 1):
        dst = FqField(p, b)
        for a in range(1, b + 1):
            if b % a == 0:
                poly = PolyFq(dst, FqField(p, a).modulus)
                assert poly.first_root() == _walk_root(poly) is not None


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (2, 6), (3, 1), (3, 3), (5, 2), (7, 1), (13, 1)])
def test_split_root_is_the_walk_root(p, k):
    F, rng = FqField(p, k), random.Random(p * k)
    elems = list(F.elements())
    for _ in range(30):
        poly = _random_poly(F, rng, rng.randint(1, 6))
        r = rng.choice(elems)
        double = poly * PolyFq(F, [-r, F.one]) * PolyFq(F, [-r, F.one])  # r twice
        for f in (poly, double):
            assert f.first_root() == _walk_root(f)
    assert double.first_root() is not None
    assert PolyFq(F, [F.gen]).first_root() is None  # a nonzero constant
    assert PolyFq(F, [0]).first_root() == F.zero  # every element is a root
    assert PolyFq(F, [-F.gen, F.one]).first_root() == F.gen
    if k > 1:  # the modulus of F, over its prime field, has no root there
        assert PolyFq(FqField(p, 1), F.modulus).first_root() is None


def test_split_root_in_large_fields():
    for a, b in ((8, 24), (2, 80)):
        poly = PolyFq(FqField(2, b), FqField(2, a).modulus)
        root = poly.first_root()
        assert not poly.evaluate(root)
        # the roots are root^(2^i); the smallest code wins
        conj = [root ** (2 ** i) for i in range(a)]
        assert len(set(conj)) == a and root == min(conj, key=lambda e: e.code())


def test_frobenius_counts_mod_k():
    for F in (FqField(3, 2), FqField(2, 11)):
        a = F.gen + F.one
        assert a.frobenius(F.k * 10 ** 6) == a
        assert a.frobenius(10 ** 6 + 1) == a.frobenius((10 ** 6 + 1) % F.k)


def test_elem_reduces_long_coefficient_lists():
    for F in (FqField(3, 2), FqField(2, 11), FqField(13, 3)):
        x = F.gen
        long = [F.p - 1, 2, 0, 1] + [0] * (2 * F.k) + [1]
        assert F.elem(long) == sum((x ** i * F.elem(c) for i, c in enumerate(long)), F.zero)
