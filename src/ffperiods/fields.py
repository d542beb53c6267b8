"""Exact arithmetic in finite fields F_{p^k} and univariate polynomials over them.

Elements of F_{p^k} are stored as coefficient tuples of length k (reduced mod
the field's defining polynomial).  The defining polynomial is always the
lexicographically smallest monic irreducible of degree k over F_p, so the
same (p, k) yields the same field in every run.

Fields with q <= 2^10 build discrete log/exp tables on first use, and
multiply, invert and power through them; the series product also reads a
packed copy of the exp table (see `FqField._packed_tables`).  Larger fields
build no tables: they multiply by polynomial product and reduction and power
by square and multiply.  Either way the canonical multiplicative generator,
and with it every root of unity, is the first element in code order of
order q - 1.
"""

from functools import lru_cache


class FieldMismatchError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q):
    """Return (p, k) with q = p^k, or raise ValueError."""
    if q < 2:
        raise ValueError("%r is not a prime power" % (q,))
    for p in range(2, q + 1):
        if not _is_prime(p):
            continue
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError("%r is not a prime power" % (q,))
            return p, k
    raise ValueError("%r is not a prime power" % (q,))


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_mod(a, m, p):
    # reduce a modulo the monic polynomial m, coefficients mod p
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1]
        shift = len(a) - 1 - dm
        for i in range(dm + 1):
            a[shift + i] = (a[shift + i] - c * m[i]) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def _lex_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are ordered by the tuple
    (c_{k-1},...,c_0); irreducibility is tested by checking that the candidate
    has no root in any proper subfield style factor, via gcd-free power test.
    """
    if k == 1:
        return [0, 1]  # x itself
    for code in range(p ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        # coeffs[0] is c_0; candidate is monic of degree k
        cand = coeffs + [1]
        if _is_irreducible_modp(cand, p):
            return cand
    raise AssertionError("no irreducible of degree %d over F_%d" % (k, p))


def _powmod_x(e, m, p):
    # x^e mod m over F_p, by square and multiply
    r = [1]
    b = [0, 1]
    b = _poly_mod(b, m, p)
    while e:
        if e & 1:
            r = _poly_mod(_poly_mul_mod_p(r, b, p), m, p)
        b = _poly_mod(_poly_mul_mod_p(b, b, p), m, p)
        e >>= 1
    return r


def _poly_gcd_modp(a, b, p):
    a, b = list(a), list(b)
    while any(b):
        a, b = b, _poly_rem(a, b, p)
    return a


def _poly_rem(a, b, p):
    a = list(a)
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - c * b[i]) % p
        while len(a) > 1 and a[-1] == 0:
            a.pop()
    return a


def _is_irreducible_modp(f, p):
    """Rabin test for a monic polynomial over F_p."""
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    # x^(p^k) == x mod f
    xq = list(_powmod_x(p ** k, f, p))
    xq += [0] * (2 - len(xq))
    xq[1] = (xq[1] - 1) % p
    if any(xq):
        return False
    # for each prime divisor l of k: gcd(x^(p^(k/l)) - x, f) must be constant
    for l in _prime_divisors(k):
        g = list(_powmod_x(p ** (k // l), f, p))
        g += [0] * (2 - len(g))
        g[1] = (g[1] - 1) % p
        d = _poly_gcd_modp(f, g, p)
        while len(d) > 1 and d[-1] == 0:
            d.pop()
        if len(d) > 1:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Largest q whose log/exp tables are built.  The build costs O(q) time and
# memory; per omega job it beat table-free arithmetic at q = 2^9 and 2^10
# and lost from q = 2^11 on (a 2^11 job: 0.040 s with tables, 0.014 s
# without), so the limit sits at the crossover.
_LOG_TABLE_LIMIT = 1 << 10

# Bits per coefficient ("lane") of a packed exp-table entry.  A series
# product adds at most min(#a, #b) entries into one output term, and each
# lane of an entry is below p <= 2^10, so a lane stays below 2^64 unless a
# series has more than 2^54 terms.
_LANE_BITS = 64


class FqField:
    """The finite field F_q with q = p^k, with a canonical defining polynomial."""

    _cache = {}

    def __new__(cls, p, k):
        key = (p, k)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        cls._cache[key] = self
        return self

    def __init__(self, p, k):
        if getattr(self, "_ready", False):
            return
        if not _is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        if k < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = tuple(_lex_irreducible(p, k))
        self.zero = FqElem(self, (0,) * k)
        self.one = FqElem(self, tuple(1 if i == 0 else 0 for i in range(k)))
        self.gen = FqElem(self, tuple(1 if i == 1 else 0 for i in range(k))) if k > 1 else self.one
        self._exp = None
        self._log = None
        self._exp_packed = self._elem_of_packed = None
        self._mul_gen = None
        self._ready = True

    def __repr__(self):
        return "FqField(%d, %d)" % (self.p, self.k)

    def elem(self, coeffs):
        """Build an element from an int (prime field image) or coefficient list."""
        if isinstance(coeffs, FqElem):
            if coeffs.field is not self:
                raise FieldMismatchError("element of %r used in %r" % (coeffs.field, self))
            return coeffs
        if isinstance(coeffs, int):
            c = [coeffs % self.p] + [0] * (self.k - 1)
            return FqElem(self, tuple(c))
        c = [x % self.p for x in coeffs]
        if len(c) > self.k:
            c = _poly_mod(c, list(self.modulus), self.p)
        c = c + [0] * (self.k - len(c))
        return FqElem(self, tuple(c[: self.k]))

    def elements(self):
        """All field elements in lexicographic (integer-code) order."""
        for code in range(self.q):
            c = []
            v = code
            for _ in range(self.k):
                c.append(v % self.p)
                v //= self.p
            yield FqElem(self, tuple(c))

    def _build_tables(self):
        g = self.multiplicative_generator()
        order = self.q - 1
        exp = [None] * (2 * order)
        log = {}
        acc = self.one
        for i in range(order):
            exp[i] = acc.c
            exp[i + order] = acc.c
            log[acc.c] = i
            acc = acc._mul_raw(g)
        self._exp = exp
        self._log = log

    def _packed_tables(self):
        """(log, packed exp) for the series product, or None above the table
        limit.  A packed entry holds the coefficient tuple of the exp entry in
        one int, coefficient i in bits [64 i, 64 i + 64); both halves of the
        doubled table share it, and it keys its element for `_unpack_sums`."""
        if self.q > _LOG_TABLE_LIMIT:
            return None
        if self._exp_packed is None:
            if self._log is None:
                self._build_tables()
            packed = [sum(c << (_LANE_BITS * i) for i, c in enumerate(coeffs))
                      for coeffs in self._exp[:self.q - 1]]
            self._exp_packed, self._elem_of_packed = packed + packed, {
                v: FqElem(self, coeffs) for v, coeffs in zip(packed, self._exp)}
        return self._log, self._exp_packed

    def _unpack_sums(self, sums):
        """{key: sum of packed entries} -> {key: FqElem}, zero sums dropped.
        A sum with every lane below p is an entry and maps straight to its
        element; only the others are reduced mod p lane by lane."""
        elem_of = self._elem_of_packed.get
        p, mask = self.p, (1 << _LANE_BITS) - 1
        shifts = range(0, _LANE_BITS * self.k, _LANE_BITS)
        out = {}
        for key, v in sums.items():
            x = elem_of(v)
            if x is None:
                x = elem_of(sum((v >> s & mask) % p << s for s in shifts))
            if x is not None:
                out[key] = x
        return out

    def multiplicative_generator(self):
        """The canonical generator of F_q^*: the first element in code order
        with g^((q-1)/l) != 1 for every prime l | q - 1.  Found by raw
        powering, so it is the same element with or without log tables."""
        if self._mul_gen is None:
            order = self.q - 1
            prim_divs = _prime_divisors(order)
            self._mul_gen = next(
                cand for cand in self.elements()
                if cand and all(cand._pow_raw(order // l).c != self.one.c for l in prim_divs)
            )
        return self._mul_gen

    def root_of_unity(self, m):
        """A canonical generator of mu_m, requires m | q - 1."""
        if (self.q - 1) % m != 0:
            raise ValueError("mu_%d not contained in %r" % (m, self))
        return self.multiplicative_generator() ** ((self.q - 1) // m)

    def embedding(self, target):
        """The canonical embedding of this field into `target` (degree must divide).

        Sends the generator to the lexicographically smallest root of our
        modulus in the target field; cached, so embeddings compose coherently
        per (source, target) pair.
        """
        return _embedding(self, target)


@lru_cache(maxsize=None)
def _embedding(src, dst):
    if src is dst:
        return lambda x: x
    if src.p != dst.p or dst.k % src.k != 0:
        raise FieldMismatchError("no embedding of %r into %r" % (src, dst))
    if src.k == 1:
        def embed_prime(x, dst=dst):
            return dst.elem(x.c[0])
        return embed_prime
    # smallest root of src.modulus in dst, in element-code order
    root = None
    for cand in dst.elements():
        acc = dst.zero
        for coeff in reversed(src.modulus):
            acc = acc * cand + dst.elem(coeff)
        if acc.is_zero():
            root = cand
            break
    assert root is not None, "modulus must split in the larger field"
    powers = [dst.one]
    for _ in range(src.k - 1):
        powers.append(powers[-1] * root)

    def embed(x, dst=dst, powers=powers):
        acc = dst.zero
        for i, c in enumerate(x.c):
            if c:
                acc = acc + powers[i].scale_int(c)
        return acc

    return embed


class FqElem:
    """An element of an FqField; immutable, hashable."""

    __slots__ = ("field", "c")

    def __init__(self, field, c):
        self.field = field
        self.c = c

    def is_zero(self):
        return not any(self.c)

    def __bool__(self):
        return any(self.c)

    def __eq__(self, other):
        return isinstance(other, FqElem) and self.field is other.field and self.c == other.c

    def __hash__(self):
        return hash((id(self.field), self.c))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.c[0])
        return "Fq(%s)" % ",".join(str(x) for x in self.c)

    def code(self):
        """Integer code used for the deterministic element ordering."""
        v = 0
        for x in reversed(self.c):
            v = v * self.field.p + x
        return v

    def _check(self, other):
        if not isinstance(other, FqElem) or other.field is not self.field:
            raise FieldMismatchError("operands from different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.c, other.c)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a - b) % p for a, b in zip(self.c, other.c)))

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.c))

    def scale_int(self, n):
        p = self.field.p
        n %= p
        return FqElem(self.field, tuple((a * n) % p for a in self.c))

    def _mul_raw(self, other):
        f = self.field
        prod = _poly_mul_mod_p(list(self.c), list(other.c), f.p)
        red = _poly_mod(prod, list(f.modulus), f.p)
        red = red + [0] * (f.k - len(red))
        return FqElem(f, tuple(red[: f.k]))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if f._log is None:
            if f.q <= _LOG_TABLE_LIMIT:
                f._build_tables()
            else:
                return self._mul_raw(other)
        if not any(self.c) or not any(other.c):
            return f.zero
        return FqElem(f, f._exp[f._log[self.c] + f._log[other.c]])

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero in %r" % (self.field,))
        f = self.field
        if f._log is None and f.q <= _LOG_TABLE_LIMIT:
            f._build_tables()
        if f._log is not None:
            return FqElem(f, f._exp[(f.q - 1) - f._log[self.c] % (f.q - 1)])
        return self ** (f.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, n):
        f = self.field
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return f.one
        if self.is_zero():
            return f.zero
        if f._log is None and f.q <= _LOG_TABLE_LIMIT:
            f._build_tables()
        if f._log is not None:
            return FqElem(f, f._exp[(f._log[self.c] * n) % (f.q - 1)])
        return self._pow_raw(n)

    def _pow_raw(self, n):
        r = self.field.one
        b = self
        while n:
            if n & 1:
                r = r._mul_raw(b)
            b = b._mul_raw(b)
            n >>= 1
        return r

    def frobenius(self, n=1):
        """Apply the absolute Frobenius n times: x -> x^(p^n)."""
        return self ** (self.field.p ** n)


# ---------------------------------------------------------------------------
# polynomials over an FqField


class PolyFq:
    """Univariate polynomial over an FqField, dense coefficient list, no
    trailing zeros (the zero polynomial keeps a single zero coefficient)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [field.elem(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        if not cs:
            cs = [field.zero]
        self.field = field
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        if len(self.coeffs) == 1 and self.coeffs[0].is_zero():
            return -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return self.degree < 0

    def is_monic(self):
        return self.degree >= 0 and self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (
            isinstance(other, PolyFq)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(repr(c))
            else:
                cs = "" if c == self.field.one else repr(c) + "*"
                terms.append("%st^%d" % (cs, i) if i > 1 else "%st" % cs)
        return " + ".join(reversed(terms)) if terms else "0"

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        f = self.field
        cs = [
            (self.coeffs[i] if i < len(self.coeffs) else f.zero)
            + (other.coeffs[i] if i < len(other.coeffs) else f.zero)
            for i in range(n)
        ]
        return PolyFq(f, cs)

    def __neg__(self):
        return PolyFq(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return PolyFq(f, [f.zero])
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PolyFq(f, out)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        q = [f.zero] * max(1, len(rem) - other.degree)
        inv_lead = other.coeffs[-1].inv()
        while len(rem) - 1 >= other.degree and any(not c.is_zero() for c in rem):
            if rem[-1].is_zero():
                rem.pop()
                continue
            c = rem[-1] * inv_lead
            shift = len(rem) - 1 - other.degree
            q[shift] = c
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - c * oc
            while len(rem) > 1 and rem[-1].is_zero():
                rem.pop()
        return PolyFq(f, q), PolyFq(f, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def powmod(self, n, modulus):
        f = self.field
        r = PolyFq(f, [f.one])
        b = self % modulus
        while n:
            if n & 1:
                r = (r * b) % modulus
            b = (b * b) % modulus
            n >>= 1
        return r

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        lead = a.coeffs[-1]
        return PolyFq(a.field, [c / lead for c in a.coeffs])

    def derivative(self):
        f = self.field
        if self.degree < 1:
            return PolyFq(f, [f.zero])
        return PolyFq(f, [self.coeffs[i].scale_int(i) for i in range(1, len(self.coeffs))])

    def evaluate(self, x):
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_irreducible(self):
        """Rabin irreducibility test over F_q."""
        d = self.degree
        if d < 1 or not self.is_monic():
            return False
        f = self.field
        x = PolyFq(f, [f.zero, f.one])
        xq = x.powmod(f.q ** d, self)
        if xq != x % self:
            return False
        for l in _prime_divisors(d):
            g = x.powmod(f.q ** (d // l), self) - x
            if self.gcd(g).degree != 0:
                return False
        return True


def monic_irreducibles(field, degree):
    """All monic irreducible polynomials of the given degree over `field`,
    in lexicographic order of the coefficient tuple (c_{d-1}, ..., c_0)."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    elems = list(field.elements())
    out = []

    def rec(prefix):
        # prefix holds c_{d-1}, c_{d-2}, ... chosen so far
        if len(prefix) == degree:
            cand = PolyFq(field, list(reversed(prefix)) + [field.one])
            if cand.is_irreducible():
                out.append(cand)
            return
        for e in elems:
            rec(prefix + [e])

    rec([])
    return out


def count_irreducibles(q, d):
    """Necklace count (1/d) * sum_{e|d} mu(e) q^(d/e)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _moebius(e) * q ** (d // e)
    assert total % d == 0
    return total // d


def _moebius(n):
    if n == 1:
        return 1
    m = 1
    for p in _prime_divisors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e > 1:
            return 0
        m = -m
    return m
