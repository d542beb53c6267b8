import pytest
from hypothesis import given, settings, strategies as st

from ffperiods.fields import FqField
from ffperiods.series import InsufficientPrecisionError, TruncSeries, _powers_of

F2 = FqField(2, 1)
F3 = FqField(3, 1)
F4 = FqField(2, 2)


def S(field, terms, prec=None):
    return TruncSeries(field, terms, prec)


def agrees_with(a, b):
    """Test-side reference: equality up to the common precision."""
    return not (a - b).terms


def test_geometric_inverse():
    # inv(1 - z) to precision 3 is 1 + z + z^2 + O(z^3)
    one_minus_z = S(F3, {0: 1, 1: -1})
    inv = one_minus_z.inv(prec=3)
    assert inv.prec == 3
    assert inv.terms == {0: F3.one, 1: F3.one, 2: F3.one}


def test_frobenius_coeffs_f4():
    x = F4.gen
    s = S(F4, {1: x})  # x*z
    t = s.frobenius_coeffs(1)
    assert t.terms == {1: F4.elem([1, 1])}  # (x+1)*z


def test_mul_precision_rule():
    # mul(z + O(z^5), z^2 + O(z^4)) -> z^3 + O(z^5): min(5+2, 4+1)
    a = S(F2, {1: 1}, prec=5)
    b = S(F2, {2: 1}, prec=4)
    c = a * b
    assert c.prec == 5
    assert c.terms == {3: F2.one}


def test_inv_of_inexact_leading_term_errors():
    a = S(F2, {}, prec=3)
    with pytest.raises(InsufficientPrecisionError):
        a.inv()


def test_inv_roundtrip():
    a = S(F3, {0: 1, 1: 2, 3: 1}, prec=7)
    b = a.inv()
    assert (a * b - TruncSeries.one(F3)).truncate(5).terms == {}


def test_inv_inv_recovers_input_within_precision():
    a = S(F3, {-1: 2, 0: 1, 2: 1}, prec=6)
    b = a.inv().inv()
    assert (a - b).truncate(b.prec).terms == {}


def test_monomial_inverse_exact():
    a = S(F3, {2: 2})
    b = a.inv()
    assert b.prec is None and b.terms == {-2: F3.elem(2)}


def test_compose_basic():
    # (1 + y + y^2) o (z^2) = 1 + z^2 + z^4
    f = S(F3, {0: 1, 1: 1, 2: 1})
    g = S(F3, {2: 1})
    h = f.compose(g)
    assert h.terms == {0: F3.one, 2: F3.one, 4: F3.one}


def test_compose_requires_positive_order():
    f = S(F3, {1: 1})
    with pytest.raises(ValueError):
        f.compose(S(F3, {0: 1}))


def test_derivative_char_p():
    f = S(F3, {3: 1, 4: 1})  # z^3 + z^4
    assert f.derivative().terms == {3: F3.one}  # 3z^2 vanishes


def test_char_p_power_fast_path():
    f = S(F2, {0: 1, 1: 1}, prec=8)
    sq = f.pow_int(2)
    assert sq.terms == {0: F2.one, 2: F2.one}


coeff = st.integers(min_value=0, max_value=2)
small_series = st.builds(
    lambda d, p: TruncSeries(F3, d, p),
    st.dictionaries(st.integers(min_value=-3, max_value=5), coeff, max_size=5),
    st.integers(min_value=6, max_value=9),
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_mul_associative_up_to_precision(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert agrees_with(lhs, rhs)


@given(small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_mul_commutative(a, b):
    assert agrees_with(a * b, b * a)


# -- the product over log/exp tables (packed) and without them ---------------

F7 = FqField(7, 1)
F9 = FqField(3, 2)
F16 = FqField(2, 4)
F2_11 = FqField(2, 11)  # above the table limit: the FqElem loop
PRODUCT_FIELDS = [F2, F7, F9, F16, F2_11]


def elem_of_code(field, code):
    digits = []
    for _ in range(field.k):
        code, d = divmod(code, field.p)
        digits.append(d)
    return field.elem(digits)


def schoolbook(a, b):
    """a * b term by term with FqElem arithmetic, and its precision."""
    prec = None
    for x, y in ((a, b), (b, a)):
        lb = y.ord_lower_bound()
        if x.prec is not None and lb is not None:
            prec = x.prec + lb if prec is None else min(prec, x.prec + lb)
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if prec is None or e1 + e2 < prec:
                terms[e1 + e2] = terms.get(e1 + e2, a.field.zero) + c1 * c2
    return {e: c for e, c in terms.items() if c}, prec


@st.composite
def series_pairs(draw):
    field = draw(st.sampled_from(PRODUCT_FIELDS))

    def one_series():
        terms = draw(st.dictionaries(st.integers(min_value=-4, max_value=14),
                                     st.integers(min_value=0, max_value=field.q - 1),
                                     max_size=12))
        prec = draw(st.one_of(st.none(), st.integers(min_value=-3, max_value=16)))
        return TruncSeries(field, {e: elem_of_code(field, c) for e, c in terms.items()}, prec)

    return one_series(), one_series()


@given(series_pairs())
@settings(max_examples=200, deadline=None)
def test_product_matches_schoolbook(pair):
    a, b = pair
    terms, prec = schoolbook(a, b)
    c = a * b
    assert c.prec == prec
    assert c.terms == terms
    assert all(isinstance(x.c, tuple) and len(x.c) == a.field.k for x in c.terms.values())


def test_packed_tables_only_below_the_limit():
    assert F2_11._packed_tables() is None
    log, exp = F9._packed_tables()
    assert len(exp) == 2 * (F9.q - 1)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=repr)
@pytest.mark.parametrize("prec", [None, 40])
def test_product_where_terms_cancel(field, prec):
    # (1 + T + ... + T^(n-1)) (1 - T) = 1 - T^n: at every exponent 1 .. n - 1
    # the two products 1 and -1 = p - 1 cancel, so the lane sum is exactly p
    n = field.p + 3
    geometric = TruncSeries(field, {i: field.one for i in range(n)}, prec)
    c = geometric * TruncSeries(field, {0: 1, 1: -1})
    assert c.terms == {0: field.one, n: -field.one}
    # p-th powers: the cross terms of (x + y)^p cancel, their lane sums are
    # multiples of p
    x = TruncSeries(field, {-1: elem_of_code(field, field.q - 1), 2: field.one}, prec)
    power = TruncSeries.one(field)
    for _ in range(field.p):
        power = power * x
    assert power.terms == {-field.p: elem_of_code(field, field.q - 1) ** field.p,
                           2 * field.p: field.one}


def power_by_repeated_products(x, e):
    acc = TruncSeries.one(x.field)
    for _ in range(e):
        acc = acc * x
    return acc


def compose_by_powers(f, inner, prec):
    """f(inner) as the sum of c * inner.pow_int(e), each power built on its
    own (pow_int itself is checked against plain products below), to the
    lowest of prec and the powers' own precisions."""
    acc = TruncSeries.zero(f.field, prec)
    for e, c in f.terms.items():
        term = inner.pow_int(e).scale(c)
        acc = acc + (term if prec is None else term.truncate(prec))
    return acc


@given(st.sampled_from([F2, F7, F9, F2_11]),
       st.dictionaries(st.integers(min_value=-2, max_value=5),
                       st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
       st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
       st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_pow_int_matches_repeated_products(field, terms, prec, e):
    x = TruncSeries(field, {k: elem_of_code(field, c % field.q or 1) for k, c in terms.items()},
                    prec)
    expected = power_by_repeated_products(x, e)
    assert x.pow_int(e) == expected


@given(st.sampled_from([F2, F9, F16]),
       st.dictionaries(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=1, max_value=8), max_size=8),
       st.dictionaries(st.integers(min_value=1, max_value=6),
                       st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
       st.one_of(st.none(), st.integers(min_value=20, max_value=60)),
       st.one_of(st.none(), st.integers(min_value=7, max_value=30)))
@settings(max_examples=60, deadline=None)
def test_compose_matches_sum_of_powers(field, outer, inner_terms, outer_prec, inner_prec):
    f = TruncSeries(field, {e: elem_of_code(field, c % field.q or 1) for e, c in outer.items()},
                    outer_prec)
    inner = TruncSeries(field, {e: elem_of_code(field, c % field.q or 1)
                                for e, c in inner_terms.items()}, inner_prec)
    h = f.compose(inner)
    # f's unknown tail is O(inner^f.prec); each power (inner + O(T^N))^e is
    # known to O(T^(N + (e - 1) ord inner)), so the lowest positive exponent
    # of f bounds what inner's error leaves
    tail = None if f.prec is None else f.prec * inner.ord_lower_bound()
    assert h == compose_by_powers(f, inner, tail)


def test_compose_sparse_exponents_with_several_digits():
    # the exponents share the powers inner^(d 3^j) of their base-3 digits
    inner = TruncSeries(F9, {1: F9.one, 2: F9.gen})
    f = TruncSeries(F9, {3 ** 4 + 2 * 3 ** 2: F9.one, 2 * 3 ** 4 + 1: F9.gen, 5: F9.one}, 400)
    h = f.compose(inner)
    assert h.prec == 400
    assert h.terms == compose_by_powers(f, inner, 400).terms


# -- the digit-wise power rule against the row-by-row chain -------------------

F5 = FqField(5, 1)


def chain_powers(base, prec):
    """Reference for series._powers_of: base^(d p^j) from the row below by
    one char-p step, (f + O(T^N))^p = f^p + O(T^(N + (p - 1) min(ord, N))),
    and by repeated products, every row and product cut at prec."""
    p = base.field.p

    def cut(s):
        return s if prec is None else s.truncate(prec)

    def char_p(s):
        n = s.prec
        if n is not None:
            n += (p - 1) * min(s.ord_lower_bound(), n)
        return TruncSeries(s.field, {e * p: c ** p for e, c in s.terms.items()}, n)

    rows = [[None, cut(base)]]  # rows[j][d] = base^(d p^j)

    def power(e):
        result, j = None, 0
        while e:
            e, d = divmod(e, p)
            if d:
                while len(rows) <= j:
                    rows.append([None, cut(char_p(rows[-1][1]))])
                row = rows[j]
                while len(row) <= d:
                    row.append(cut(row[-1] * row[1]))
                result = row[d] if result is None else cut(result * row[d])
            j += 1
        return TruncSeries.one(base.field) if result is None else result

    return power


@st.composite
def power_cases(draw):
    """A sparse base (exact, inexact or with no term) over a field or the
    tower, an exponent up to p^41 (small and dense in digits, or a few digits
    d p^j with j <= 40), and a cut or none."""
    field = draw(st.sampled_from([F2, F3, F5, F2_11, F9, TOWER_F3]))
    p = field.p
    if field is TOWER_F3:  # tower elements, exact or inexact
        def coeff():
            return field.element(draw(st.dictionaries(st.integers(-1, 4), st.integers(1, 2),
                                                      min_size=1, max_size=3)),
                                 draw(st.one_of(st.none(), st.integers(5, 9))))
    else:
        def coeff():
            return elem_of_code(field, draw(st.integers(1, field.q - 1)))
    low = draw(st.sampled_from([0, 1, 1, 2, 3, -2]))
    exps = [] if draw(st.integers(0, 5)) == 0 else draw(
        st.lists(st.integers(low, low + 12), min_size=1, max_size=4, unique=True))
    prec = draw(st.one_of(st.none(), st.integers(low + 1, low + 30)))
    if not exps and prec is not None:
        prec = draw(st.integers(-2, 8))
    base = TruncSeries(field, {e: coeff() for e in exps}, prec)
    if draw(st.booleans()):
        e = draw(st.integers(0, 3 * p * p))
    else:
        e = sum(draw(st.integers(1, p - 1)) * p ** draw(st.integers(0, 40))
                for _ in range(draw(st.integers(1, 3))))
    cut = draw(st.one_of(st.none(), st.integers(0, 60)))
    if prec is None and cut is None and len(exps) > 1:
        e %= p ** 8  # an exact power has (number of terms)^(digit sum) terms
    return base, e, cut


def same_series(a, b):
    """Equal terms and prec, tower coefficients compared by their series."""
    def data(s):
        return s.prec, {e: getattr(c, "series", c) for e, c in s.terms.items()}
    return data(a) == data(b)


@given(power_cases())
@settings(max_examples=300, deadline=None)
def test_powers_match_the_row_by_row_chain(case):
    base, e, cut = case
    got, ref = _powers_of(base, cut)(e), chain_powers(base, cut)(e)
    if not same_series(got, ref):
        # below ord 0 the chain's cuts drop terms that later products need:
        # the closed form may claim more, never less, and agrees below ref.prec
        assert (base.ord_lower_bound() or 0) < 0
        assert ref.prec is not None and (got.prec is None or got.prec >= ref.prec)
        assert same_series(got.truncate(ref.prec), ref)


@pytest.mark.parametrize("field", [F2, F3, F5, F2_11], ids=repr)
@pytest.mark.parametrize("prec, window", [(None, None), (30, None), (None, 50), (30, 50)])
def test_deep_powers_make_a_bounded_number_of_products(monkeypatch, field, prec, window):
    # 3 terms, cut (if at all) 50 above the power's ord: p^40 spreads one row
    # with no product, and an exponent with every digit p - 1 multiplies only
    # the rows whose g-part starts below the window, however many digits
    mul, calls = TruncSeries.__mul__, []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counted)
    base = TruncSeries(field, {1: 1, 2: -1, 4: 1}, prec)
    p = field.p

    def power(e):
        return _powers_of(base, None if window is None else e + window)(e)

    big = power(p ** 40)
    assert big.ord() == p ** 40 and not calls
    if prec is None and window is None:
        assert len(big.terms) == 3
        return  # an exact all-digit power has 3^(digit sum) terms
    assert len(big.terms) == 1  # the window ends below the g-part's p^40 T^40
    counts = []
    for digits in (41, 81):
        calls.clear()
        assert power(p ** digits - 1).ord() == p ** digits - 1
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 6 * (p - 1)


def reduce_lanes(field, v):
    """A packed sum read lane by lane, each lane mod p."""
    w = field._ring._w
    assert w >= 64
    return [(v >> (w * i) & (1 << w) - 1) % field.p for i in range(field.k)]


@given(st.sampled_from([F2, F7, F9, F16]), st.data())
@settings(max_examples=100, deadline=None)
def test_unpack_sums_matches_lane_reduction(field, data):
    log, exp = field._packed_tables()
    entry = st.integers(min_value=0, max_value=len(exp) - 1)
    sums = {
        # one entry: already reduced, looked up directly
        "single": exp[data.draw(entry)],
        # any number of entries: lanes may or may not stay below p
        "several": sum(exp[i] for i in data.draw(st.lists(entry, min_size=2, max_size=9))),
        # an element and its negative: every lane is 0 or p, the sum is 0
        "zero": exp[0] + exp[log[(-field.one).n]],
    }
    if field.q > field.p:
        # 1 + gen: two entries whose lanes stay below p, a hit on another entry
        sums["hit"] = exp[0] + exp[log[field.gen.n]]
    out = field._unpack_sums(sums)
    for key, v in sums.items():
        c = reduce_lanes(field, v)
        if any(c):
            assert out[key] == field.elem(c)
        else:
            assert key not in out
    # an entry reads off the field's interned element
    assert out["single"] is field._elems[field._log[sums["single"]]]


# -- the Newton inverse against the geometric series ---------------------------


def geometric_inverse(a, prec):
    """a^-1 to O(T^prec) by its definition: with a = c0 T^m (1 - u), the sum
    of u^j times 1 / (c0 T^m).  The error a.inv must raise, or the inverse."""
    if not a.terms:
        return ZeroDivisionError if a.prec is None else InsufficientPrecisionError
    m = a.ord()
    c0_inv = a.terms[m].inv()
    if a.prec is None and len(a.terms) == 1:
        return type(a)(a.field, {-m: c0_inv})
    if prec is None:
        if a.prec is None:
            return ValueError
        prec = a.prec - 2 * m
    elif a.prec is not None and prec > a.prec - 2 * m:
        return InsufficientPrecisionError
    one = type(a).one(a.field, prec + m)
    u = one - a.shift(-m).scale(c0_inv).truncate(prec + m)
    acc = term = one
    while term.terms:
        term = (term * u).truncate(prec + m)
        acc = acc + term
    return acc.shift(-m).scale(c0_inv)


def _kummer_tower_f3():
    from ffperiods.towers import LocalFieldTower

    base = LocalFieldTower.base(3)
    return base.extend_eisenstein({0: -base.uniformizer()}, degree=2)


TOWER_F3 = _kummer_tower_f3()


@st.composite
def inverse_cases(draw):
    ring = draw(st.sampled_from([F2, F9, F2_11, TOWER_F3]))
    low = draw(st.sampled_from([0, 0, -3, 1, 4]))  # the ord, when its term is drawn
    exps = st.integers(min_value=low, max_value=low + 9)
    if ring is TOWER_F3:
        # a tower element with a few exact residue terms (an inexact one would
        # let the two methods keep different T-adic precisions)
        def coeff():
            return ring.element(draw(st.dictionaries(st.integers(min_value=-1, max_value=4),
                                                     st.integers(min_value=1, max_value=2),
                                                     max_size=3)))
    else:
        def coeff():
            return elem_of_code(ring, draw(st.integers(min_value=0, max_value=ring.q - 1)))
    lead = [low] if draw(st.integers(min_value=0, max_value=5)) else []
    terms = {e: coeff() for e in lead + draw(st.lists(exps, max_size=5, unique=True))}
    # exact monomials, exact polynomials and inexact series
    prec = draw(st.one_of(st.none(), st.integers(min_value=-2, max_value=14)))
    target = draw(st.one_of(st.none(), st.integers(min_value=-4, max_value=16)))
    return TruncSeries(ring, terms, prec), target


@given(inverse_cases())
@settings(max_examples=300, deadline=None)
def test_newton_inverse_matches_geometric_series(case):
    a, target = case
    expected = geometric_inverse(a, target)
    if isinstance(expected, type):
        with pytest.raises(expected):
            a.inv(target)
        return
    got = a.inv(target)
    assert got.prec == expected.prec
    assert set(got.terms) == set(expected.terms)
    if a.field is TOWER_F3:
        # tower coefficients agree within precision (the inverse of a
        # non-monomial leading coefficient is inexact, and the two methods may
        # carry its error to T-adic precisions one apart); at ord 0 the
        # tower's old convention (O(T^(target - ord))) is this one
        assert all((got.terms[e] - c).is_zero() for e, c in expected.terms.items())
        if a.ord() == 0 and target is not None and got.prec is not None:
            assert got.prec == target
    else:
        assert got == expected
