"""Exact arithmetic in finite fields F_{p^k}, and dense univariate polynomials
over F_q or over Q (`PolyFq`; `ratfunc.QPoly` is the Q case).

Every element of F_{p^k} is one int: its coefficients mod the field's
defining polynomial, packed lane by lane in the field's `_Ring`, a packed-int
kernel for F_p[x]/(m) (Kronecker products, extended Euclid, a linear p-th
power map).  The defining polynomial is always the lexicographically smallest
monic irreducible of degree k over F_p, so the same (p, k) yields the same
field in every run (found by Rabin's test, in rings sharing one lane layout).
Addition is lane-wise: XOR when p = 2, an int sum reduced mod p otherwise.

Fields with q <= 2^8 build, when they are made, a log map from element ints
to discrete logs, one doubled exp table of ints and their elements by log;
they multiply, invert and power through these, and the series product sums
the exp entries directly (their lanes are at least 64 bits wide).  Larger
fields build no tables: they multiply, power and invert in the kernel, which
also runs the Rabin test, the table builds and the generator search.  Either
way the canonical multiplicative generator, and with it every root of unity,
is the first element in code order of order q - 1.

`PolyFq` is the one dense polynomial class: it asks its coefficient field
only for `elem`, `zero` and `one`, so the same code runs over an FqField and
over the rationals.  `first_root`, a split by equal degree, gives canonical
embeddings and A-motive residue roots the root of smallest code.
"""

import math
import struct
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, product, repeat, takewhile


class FieldMismatchError(ValueError):
    pass


def _is_prime(n):
    return n >= 2 and _prime_divisors(n) == [n]


def factor_prime_power(q):
    """Return (p, k) with q = p^k, or raise ValueError."""
    if q < 2:
        raise ValueError("%r is not a prime power" % (q,))
    # the smallest factor > 1 is prime; trial division stops at isqrt(q)
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError("%r is not a prime power" % (q,))
    return p, k


@lru_cache(maxsize=None)
def _lanes(p, k, min_bytes):
    """The lane layout of `_Ring` that every monic modulus of degree k shares."""
    # largest lane value: for p = 2 a count <= k (parities taken after each
    # step: one byte below k = 256, where the odd-p bound takes four and ran
    # 2^18 arithmetic 2-3x slower), else `mul`'s reduced sum or p^2 (Euclid)
    a = k * (p - 1) ** 2
    v = (k if p == 2 else max(a + k * k * a * (p - 1) ** 2, p * p)).bit_length()
    shift = v + p.bit_length()
    b = max(-(-(v if p == 2 else v + shift) // 8), min_bytes)
    b = next((c for c in (1, 2, 4, 8) if c >= b), b)
    w = 8 * b

    def repunit(lanes, lane):
        return lane * ((1 << (w * lanes)) - 1) // ((1 << w) - 1)
    lay = dict(p=p, k=k, _w=w, _shift=shift, _wk=w * k, _wk2=w * max(k - 2, 0),
               _magic=-(-(1 << shift) // p),  # n // p = n * magic >> shift, n < 2^v
               _low=repunit(k, (1 << w) - 1), _ones=repunit(2 * k, 1), _low_ones=repunit(k, 1),
               # a lane above 8 bytes keeps its coefficient (< p < 2^64) in the low 8
               _struct=struct.Struct("<" + ("%d%s" % (k, "BHIQ"[b.bit_length() - 1]) if b <= 8
                                            else ("Q%dx" % (b - 8)) * k)))
    if p != 2:
        lay["_qmask"] = repunit(2 * k, (1 << (w - shift)) - 1)
        lay["_p_low_ones"] = p * lay["_low_ones"]  # a + this - b borrows nowhere
    return lay


class _Ring:
    """F_p[x]/(m) for a monic m of degree k, on packed ints.

    sum c_i x^i (0 <= c_i < p) is the int sum c_i 2^(w i) (Kronecker
    substitution; von zur Gathen and Gerhard, *Modern Computer Algebra*,
    8.4), with lanes of w bits wide enough that nothing below carries from
    one lane into the next.  A product is one int product, reduced mod m by
    the exact polynomial Barrett quotient floor(floor(c / x^k) mu / x^(k-2)),
    mu = floor(x^(2k-2) / m), then mod p lane by lane: the parity bits for
    p = 2 (a carry-less product), a multiply-shift quotient otherwise.  The
    p-th power map is F_p-linear and is kept as its rows x^(p i) mod m (no
    `frob` if `rows` is false).  `min_bytes` widens the lanes (a table field
    takes 8, see `FqField`).
    """

    def __init__(self, p, m, min_bytes=1, rows=True):
        k = len(m) - 1
        for name, value in _lanes(p, k, min_bytes).items():  # not __dict__, which would
            setattr(self, name, value)  # cost the hot paths their fast attribute reads
        w = self._w
        self._m = self.pack(m[:k]) + (1 << self._wk)
        self._mneg = self.pack([-c % p for c in m[:k]])  # x^k mod m
        rem, self._mu, top = 1 << w * (2 * k - 2), 0, (1 << w) - 1
        for j in range(k - 2, -1, -1):  # x^(2k-2) divided by m, lane by lane
            t = rem >> w * (k + j) & top
            if t:
                self._mu |= t << w * j
                rem = self._lanes_mod(rem + ((p - t) * self._m << w * j))
        self.x = 1 << w if k > 1 else 0
        if not rows:
            return
        self._frob, xp, e, base = [1], 1, p, self.x  # x^p by squaring
        while e:
            xp, base, e = self.mul(xp, base) if e & 1 else xp, self.mul(base, base), e >> 1
        for _ in range(k - 1):
            self._frob.append(self.mul(self._frob[-1], xp))

    def pack(self, coeffs):  # k coefficients 0 <= c < p, constant term first
        return int.from_bytes(self._struct.pack(*coeffs), "little")

    def unpack(self, n):  # the coefficient tuple of a reduced element
        return self._struct.unpack(n.to_bytes(self._struct.size, "little"))

    def _lanes_mod(self, n):  # n mod p lane by lane: up to 2k lanes below 2^v
        if self.p == 2:
            return n & self._ones
        return n - (n * self._magic >> self._shift & self._qmask) * self.p

    def mul(self, a, b):
        c = a * b
        if self.p == 2:
            c &= self._ones
            q = (c >> self._wk) * self._mu >> self._wk2 & self._ones
            return (c + q * self._mneg) & self._low_ones
        return self._lanes_mod(
            (c & self._low) + (((c >> self._wk) * self._mu >> self._wk2) * self._mneg & self._low))

    def frob(self, a):
        """a^p: the linear map x^i -> x^(p i) applied to a's lanes."""
        if self.p == 2:
            return sum(compress(self._frob, self.unpack(a))) & self._ones
        return self._lanes_mod(sum(map(int.__mul__, self.unpack(a), self._frob)))

    def pow(self, a, e):
        """a^e, left to right in base p: r <- r^p a^d per digit d, each a^d
        (d < p) built once it is needed."""
        digits = []
        while e:
            e, d = divmod(e, self.p)
            digits.append(d)
        small, r = [1, a], None
        for d in reversed(digits):
            if r is not None:
                r = self.frob(r)
            if d:
                while len(small) <= d:
                    small.append(self.mul(small[-1], a))
                r = small[d] if r is None else self.mul(r, small[d])
        return 1 if r is None else r

    def xgcd(self, a):
        """(g, s): g a gcd of m and a, s a = g mod m (extended Euclid)."""
        p, w = self.p, self._w
        r0, r1, s0, s1 = self._m, a, 0, 1
        while r1:
            d1 = (r1.bit_length() - 1) // w
            inv_lead = pow(r1 >> w * d1, -1, p)
            while r0:  # r0 <- r0 mod r1, and s0 alongside
                d0 = (r0.bit_length() - 1) // w
                if d0 < d1:
                    break
                c, shift = p - (r0 >> w * d0) * inv_lead % p, w * (d0 - d1)
                r0 = self._lanes_mod(r0 + (c * r1 << shift))
                s0 = self._lanes_mod(s0 + (c * s1 << shift))
            r0, r1, s0, s1 = r1, r0, s1, s0
        return r0, s0


def _lex_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates x^k + c_{k-1}x^{k-1} + ... + c_0 are ordered by the tuple
    (c_{k-1},...,c_0), that is by the code sum c_i p^i.  Each goes through
    Rabin's test (von zur Gathen and Gerhard, 14.9) in its own `_Ring`:
    x^(p^k) = x, and gcd(x^(p^(k/l)) - x, cand) = 1 for every prime l | k.
    Candidates with a root 0, 1 or -1 (read off the coefficient sums) are
    skipped before a ring is built; for p = 2 the powers x^(2^j) come by
    squaring, cheaper than building the Frobenius rows.
    """
    if k == 1:
        return [0, 1]  # x itself
    for digits in product(range(p), repeat=k):  # (c_{k-1}, ..., c_0), c_0 fastest
        cand = list(digits[::-1]) + [1]
        if not cand[0] or not sum(cand) % p or not (sum(cand[::2]) - sum(cand[1::2])) % p:
            continue
        ring = _Ring(p, cand, rows=p != 2)
        powers = [ring.x]  # x^(p^j) mod cand
        for _ in range(k):
            a = powers[-1]
            powers.append(ring.frob(a) if p != 2 else ring.mul(a, a))
        if powers[-1] == ring.x and not any(
                ring.xgcd(ring._lanes_mod(powers[k // l] + (p - 1) * ring.x))[0] >> ring._w
                for l in _prime_divisors(k)):
            return cand
    raise AssertionError("no irreducible of degree %d over F_%d" % (k, p))


class ResourceLimitError(Exception):
    """Work past a fixed budget; the CLI reports it as 'resource limit:'."""


# Trial division stops at this divisor: it factors n whenever n's second
# largest prime factor is below it (2^64 - 1 and 3^40 - 1, say), and gives
# up in about 0.2 s otherwise (2^256 - 1).
_TRIAL_DIVISOR_BOUND = 1 << 20


def _prime_divisors(n):
    out, d, bits = [], 2, n.bit_length()
    while d * d <= n:
        if d == _TRIAL_DIVISOR_BOUND:
            raise ResourceLimitError("cannot factor a %d-bit number: a %d-bit part "
                                     "is left after trial division up to 2^20"
                                     % (bits, n.bit_length()))
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# Largest q whose log/exp tables are built.  The build costs O(q) time and
# memory; an omega --depth 1 job, alone in a fresh interpreter (median of
# 14), ran faster without tables at q = 2^10 (5.4 against 7.0 ms with them)
# and 2^9 (5.9 against 6.5 ms) and tied at 2^8 (5.9 ms either way), so the
# limit is 2^8.
_LOG_TABLE_LIMIT = 1 << 8


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
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = tuple(_lex_irreducible(p, k))
        # A table field packs with lanes of at least 64 bits, so an element's
        # int is its own entry of the series product's exp table: a series
        # sum adds at most min(#a, #b) entries, each lane below p <= 2^8, so
        # a lane stays below 2^64 unless a series has more than 2^54 terms.
        tables = self.q <= _LOG_TABLE_LIMIT
        self._ring = _Ring(p, self.modulus, 8 if tables else 1)
        self.zero, self.one = FqElem(self, 0), FqElem(self, 1)
        self.gen = FqElem(self, self._ring.x) if k > 1 else self.one
        self._log = self._exp = self._elems = self._mul_gen = None
        self._roots = {1: self.one}  # m -> the canonical generator of mu_m
        if tables:
            self._build_tables()
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
            return FqElem(self, coeffs % self.p)  # lane 0 is the low end of the int
        ring, c = self._ring, [x % self.p for x in coeffs]
        if len(c) > self.k:  # Horner mod the modulus
            n = 0
            for x in reversed(c):
                n = ring._lanes_mod(ring.mul(n, ring.x) + x)
            return FqElem(self, n)
        return FqElem(self, ring.pack(c + [0] * (self.k - len(c))))

    def elements(self):
        """All field elements in lexicographic (integer-code) order."""
        pack = self._ring.pack
        for c in product(range(self.p), repeat=self.k):  # c_0 varies fastest
            yield FqElem(self, pack(c[::-1]))

    def _build_tables(self):
        """The discrete log of every nonzero element's int, the doubled exp
        table of ints, and the elements by log (doubled too), interned."""
        ring, order = self._ring, self.q - 1
        g, exp = self.multiplicative_generator().n, [1]
        for _ in range(order - 1):
            exp.append(ring.mul(exp[-1], g))
        elems = [FqElem(self, n) for n in exp]
        self._log = {n: i for i, n in enumerate(exp)}
        self._exp, self._elems = exp + exp, elems + elems

    def _packed_tables(self):
        """(log, exp) for the series product, or None for a table-free field.
        An exp entry is an element's int: coefficient i in lane i of at least
        64 bits, so entries sum lane by lane."""
        return None if self._log is None else (self._log, self._exp)

    def _unpack_sums(self, sums):
        """{key: sum of exp entries} -> {key: FqElem}, zero sums dropped.
        A sum with every lane below p is an entry and maps straight to its
        element; only the others are reduced mod p lane by lane (for p = 2
        by the lane parities, which hold for any lane value)."""
        ring, log, elems, p = self._ring, self._log, self._elems, self.p
        out = {}
        for key, v in sums.items():
            i = log.get(v)
            if i is None:
                i = log.get(ring._lanes_mod(v) if p == 2
                            else ring.pack([x % p for x in ring.unpack(v)]))
            if i is not None:
                out[key] = elems[i]
        return out

    def multiplicative_generator(self):
        """The canonical generator of F_q^*: the first element in code order
        with g^((q-1)/l) != 1 for every prime l | q - 1.  Found by powering in
        the ring kernel, so it is the same element with or without log tables.
        No element of F_p generates when k > 1, so the walk starts at code p
        then; q - 1 past the trial division bound raises ResourceLimitError."""
        if self._mul_gen is None:
            ring, order = self._ring, self.q - 1
            exps = [order // l for l in _prime_divisors(order)]
            self._mul_gen = next(
                cand for cand in islice(self.elements(), 1 if self.k == 1 else self.p, None)
                if all(ring.pow(cand.n, e) != 1 for e in exps)
            )
        return self._mul_gen

    def root_of_unity(self, m):
        """The canonical generator g^((q-1)/m) of mu_m, kept per m; requires
        m | q - 1.  mu_1's is one, which needs no multiplicative generator."""
        if (self.q - 1) % m != 0:
            raise ValueError("mu_%d not contained in %r" % (m, self))
        if m not in self._roots:
            self._roots[m] = self.multiplicative_generator() ** ((self.q - 1) // m)
        return self._roots[m]

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
            return dst.elem(x.n)
        return embed_prime
    root = PolyFq(dst, src.modulus).first_root()  # the smallest, in code order
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
    """An element of an FqField; immutable, hashable.  `n` is its packed int
    in the field's `_Ring` (coefficient i in lane i), the only value stored;
    `c` unpacks it to the coefficient tuple."""

    __slots__ = ("field", "n")

    def __init__(self, field, n):
        self.field, self.n = field, n

    @property
    def c(self):
        return self.field._ring.unpack(self.n)

    def is_zero(self):
        return not self.n

    def __bool__(self):
        return self.n != 0

    def __eq__(self, other):
        return isinstance(other, FqElem) and self.field is other.field and self.n == other.n

    def __hash__(self):
        return hash((id(self.field), self.n))

    def __repr__(self):
        if self.field.k == 1:
            return str(self.n)
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

    # add and subtract lane by lane: XOR when p = 2, else an int sum (plus p
    # in every lane before a difference, so nothing borrows) reduced mod p

    def __add__(self, other):
        self._check(other)
        f = self.field
        return FqElem(f, self.n ^ other.n if f.p == 2 else f._ring._lanes_mod(self.n + other.n))

    def __sub__(self, other):
        self._check(other)
        f, r = self.field, self.field._ring
        return FqElem(f, self.n ^ other.n if f.p == 2
                      else r._lanes_mod(self.n + r._p_low_ones - other.n))

    def __neg__(self):
        f, r = self.field, self.field._ring
        return self if f.p == 2 else FqElem(f, r._lanes_mod(r._p_low_ones - self.n))

    def scale_int(self, n):
        f = self.field
        return FqElem(f, f._ring._lanes_mod(self.n * (n % f.p)))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if f._log is None:
            return FqElem(f, f._ring.mul(self.n, other.n))
        if not self.n or not other.n:
            return f.zero
        return f._elems[f._log[self.n] + f._log[other.n]]

    def inv(self):
        f = self.field
        if not self.n:
            raise ZeroDivisionError("inversion of zero in %r" % (f,))
        if f._log is not None:
            return f._elems[f.q - 1 - f._log[self.n]]
        g, s = f._ring.xgcd(self.n)  # g: a nonzero constant
        return FqElem(f, f._ring._lanes_mod(s * pow(g, -1, f.p)))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inv()

    def __pow__(self, n):
        f = self.field
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return f.one
        if not self.n:
            return f.zero
        if f._log is not None:
            return f._elems[f._log[self.n] * n % (f.q - 1)]
        return FqElem(f, f._ring.pow(self.n, n % (f.q - 1)))

    def frobenius(self, n=1):
        """Apply the absolute Frobenius n times: x -> x^(p^n).  Since
        x^(p^k) = x, n counts mod k; without tables the power is n
        applications of the ring's linear p-th power map."""
        return self ** (self.field.p ** (n % self.field.k))


# ---------------------------------------------------------------------------
# polynomials over an FqField


class PolyFq:
    """Univariate polynomial over a field, dense coefficient tuple (constant
    term first), no trailing zeros (the zero polynomial keeps a single zero).
    The field is an FqField or `ratfunc.QQ`: the class asks it only for
    `elem`, `zero` and `one`, and tests coefficients by truthiness."""

    __slots__ = ("field", "coeffs")
    var = "t"  # the variable's name in repr

    def __init__(self, field, coeffs):
        self._trim(field, [field.elem(c) for c in coeffs])

    def _trim(self, field, cs):
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        self.field, self.coeffs = field, tuple(cs) or (field.zero,)
        return self

    @classmethod
    def _of(cls, field, cs):
        """A polynomial of this class from a list of elements of `field`,
        trimmed but not coerced again."""
        return object.__new__(cls)._trim(field, cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs[-1] else -1

    def is_zero(self):
        return not self.coeffs[-1]

    def is_monic(self):
        return self.coeffs[-1] == self.field.one

    def __eq__(self, other):
        return (
            isinstance(other, PolyFq)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                cs = "" if c == self.field.one else str(c) + "*"
                terms.append("%s%s^%d" % (cs, self.var, i) if i > 1 else cs + self.var)
        return " + ".join(reversed(terms)) if terms else "0"

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return self._of(self.field, [x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return self._of(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return self._of(f, [])
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return self._of(f, out)

    def scale(self, c):
        c = self.field.elem(c)
        return self._of(self.field, [a * c for a in self.coeffs])

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f, d, b = self.field, other.degree, other.coeffs
        inv_lead = f.one / b[-1]
        rem = list(self.coeffs)
        q = [f.zero] * max(1, len(rem) - d)
        while len(rem) > d and rem[-1]:  # rem trimmed, nonzero, degree >= d
            c = rem.pop() * inv_lead  # the top term cancels exactly
            shift = len(rem) - d
            q[shift] = c
            rem[shift:] = [r - c * y for r, y in zip(rem[shift:], b)]
            while rem and not rem[-1]:
                rem.pop()
        return self._of(f, q), self._of(f, rem)

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
        """The monic gcd (zero if both are zero)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a if a.is_zero() else a.scale(a.field.one / a.coeffs[-1])

    def derivative(self):
        f = self.field
        return self._of(f, [c * f.elem(i) for i, c in enumerate(self.coeffs) if i])

    def evaluate(self, x):
        x, acc = self.field.elem(x), self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def first_root(self):
        """The root with the smallest `code()` (the first in `field.elements()`
        order), or None; every element for the zero polynomial.

        Over F_Q, Q = p^K, the distinct linear factors multiply to
        g = gcd(f, X^Q - X), with X^Q from the powers X^(p^i) mod f.  g is
        split by equal degree (Cantor and Zassenhaus; von zur Gathen and
        Gerhard, 14.3), each trial c applied to every factor left: for p = 2
        by the gcd with the trace sum_i (cX)^(2^i), for odd p with
        (X + c)^((Q-1)/2) - 1.  The c run over the basis y^i for p = 2 and
        the powers (y + 1)^i, i >= 1, before they cycle for odd p, then over
        the field in code order; for p = 2 the basis alone separates every
        two roots, since the trace form is nondegenerate.
        """
        f = self.field
        if self.is_zero():
            return f.zero
        p, x = f.p, PolyFq._of(f, [f.zero, f.one])
        xs = [x % self]  # X^(p^i) mod f, i <= K
        for _ in range(f.k):
            xs.append(xs[-1] * xs[-1] % self if p == 2 else xs[-1].powmod(p, self))
        g = self.gcd(xs[-1] - x)
        xs = [a % g for a in xs[:-1]]
        if p == 2:  # y^0 = 1 last: c in F_2 gives roots conjugate over F_2 the same gcd
            first = [f.gen ** i for i in range(1, f.k)] + [f.one]
        else:
            first = takewhile(f.one.__ne__, accumulate(repeat(f.gen + f.one), FqElem.__mul__))
        trials = chain(first, f.elements())
        parts = [g]
        while any(u.degree > 1 for u in parts):
            c, h = next(trials), PolyFq._of(f, [])
            if p == 2:  # the trace of cX
                for a in xs:
                    h, c = h + a.scale(c), c * c
            else:
                h = (x + PolyFq._of(f, [c])).powmod((f.q - 1) // 2, g) - PolyFq._of(f, [f.one])
            split = []
            for u in parts:
                d = u.gcd(h)
                split += [d, u.divmod(d)[0]] if 0 < d.degree < u.degree else [u]
            parts = split
        return min((-u.coeffs[0] for u in parts if u.degree == 1), key=FqElem.code, default=None)

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
            cand = PolyFq._of(field, prefix[::-1] + [field.one])
            if cand.is_irreducible():
                out.append(cand)
            return
        for e in elems:
            rec(prefix + [e])

    rec([])
    return out

