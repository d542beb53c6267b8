"""Sparse, precision-tracked (truncated) Laurent series over a coefficient ring.

A TruncSeries is a finite map {exponent -> nonzero coefficient} together with
a precision bound ``prec``: every coefficient of T^m with m < prec is known
exactly, nothing is claimed beyond.  ``prec = None`` marks an exact series
(a Laurent polynomial, all coefficients known).  Every operation computes the
tightest provable precision of its output; when a needed leading term is not
determined inside the known range the operation raises rather than guessing.

The coefficient ring is an FqField, or a LocalFieldTower for the series with
tower-element coefficients (coeffseries.py adds the Horner evaluation and the
reversion that only those use).  The ring supplies what the core asks of a
field: coercion (``elem``), the characteristic ``p``, and ``_packed_tables()``;
its elements supply ``+ - * ** inv`` and ``is_zero()``, which for a tower
element means "no visible term".  A coefficient that is zero in that sense is
not stored.

Products over fields with log/exp tables (q <= 2^10) run on plain ints: each
coefficient is replaced by its discrete log once, the second operand is
sorted by exponent so the pair loop stops at the output precision, and each
pair adds one entry of the field's exp table (an element's packed int, whose
lanes are at least 64 bits wide there) to the sum of its exponent.  A sum
whose lanes all stay below p is itself an entry and reads off its element;
the others are reduced mod p once, when the output term is built.  Composition
adds every scaled power into one such dict.  Other rings use their elements.
Inversion is Newton iteration, doubling the known precision at every step.
"""


class InsufficientPrecisionError(ArithmeticError):
    pass


class TruncSeries:
    __slots__ = ("field", "terms", "prec")

    def __init__(self, field, terms, prec=None):
        t = {}
        for e, c in terms.items():
            c = field.elem(c)
            if c.is_zero():
                continue
            if prec is not None and e >= prec:
                continue
            t[e] = c
        self.field = field
        self.terms = t
        self.prec = prec

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, field, terms, prec):
        """Wrap terms that are already nonzero elements of `field` below prec."""
        self = object.__new__(cls)
        self.field = field
        self.terms = terms
        self.prec = prec
        return self

    @classmethod
    def zero(cls, field, prec=None):
        return cls._of(field, {}, prec)

    @classmethod
    def one(cls, field, prec=None):
        return cls(field, {0: 1}, prec)

    @classmethod
    def monomial(cls, field, exponent, coeff=None, prec=None):
        return cls(field, {exponent: 1 if coeff is None else coeff}, prec)

    # -- structure ----------------------------------------------------------

    def ord(self):
        """Exponent of the lowest known term.

        Raises if the series has no visible term: an inexact series with empty
        support might still be nonzero past its precision.
        """
        if self.terms:
            return min(self.terms)
        if self.prec is None:
            raise ValueError("ord of the zero series")
        raise InsufficientPrecisionError(
            "series is 0 to precision O(T^%d); ord undetermined" % self.prec
        )

    def ord_lower_bound(self):
        if self.terms:
            return min(self.terms)
        return self.prec  # None means +infinity (exact zero)

    def leading_coeff(self):
        return self.terms[self.ord()]

    def coeff(self, e):
        if self.prec is not None and e >= self.prec:
            raise InsufficientPrecisionError("coefficient of T^%d beyond O(T^%d)" % (e, self.prec))
        c = self.terms.get(e)
        return self.field.elem(0) if c is None else c

    def __eq__(self, other):
        """Equality of the stored data (same terms and same precision)."""
        return (
            isinstance(other, TruncSeries)
            and self.field is other.field
            and self.terms == other.terms
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((id(self.field), tuple(sorted(self.terms.items())), self.prec))

    def __repr__(self):
        one = self.field.elem(1)
        body = " + ".join(
            ("%r" % c if e == 0 else ("%r*T^%d" % (c, e) if c != one else "T^%d" % e))
            for e, c in sorted(self.terms.items())
        )
        if not body:
            body = "0"
        if self.prec is not None:
            body += " + O(T^%d)" % self.prec
        return body

    # -- arithmetic ----------------------------------------------------------

    def _common_prec(self, other):
        if other.field is not self.field:
            raise ValueError("series over different coefficient rings")
        if self.prec is None:
            return other.prec
        if other.prec is None:
            return self.prec
        return min(self.prec, other.prec)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        prec = self._common_prec(other)
        t = dict(self.terms) if self.prec == prec else _below(self.terms, prec)
        for e, c in (other.terms if other.prec == prec else _below(other.terms, prec)).items():
            s = t.get(e)
            if s is None:
                t[e] = c
            else:
                s = s + c
                if s.is_zero():
                    del t[e]
                else:
                    t[e] = s
        return self._of(self.field, t, prec)

    def __neg__(self):
        return self._of(self.field, {e: -c for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._common_prec(other)  # the rings must match
        # output precision: min over the unknown-tail contributions
        prec = None
        if self.prec is not None:
            lb = other.ord_lower_bound()
            prec = None if lb is None else self.prec + lb
        if other.prec is not None:
            lb = self.ord_lower_bound()
            p2 = None if lb is None else other.prec + lb
            prec = p2 if prec is None else min(prec, p2)
        tables = self.field._packed_tables()
        if tables is not None:
            return self._of(self.field, _mul_packed(self, other, prec, *tables), prec)
        scaled = ((c, e, other) for e, c in self.terms.items())
        return self._of(self.field, _sum_scaled(self.field, scaled, prec), prec)

    def scale(self, c):
        c = self.field.elem(c)
        if c.is_zero():
            return self.zero(self.field, self.prec)
        return self._of(self.field, {e: x * c for e, x in self.terms.items()}, self.prec)

    def shift(self, k):
        """Multiply by T^k."""
        return self._of(self.field, {e + k: c for e, c in self.terms.items()},
                        None if self.prec is None else self.prec + k)

    def truncate(self, prec):
        if self.prec is not None and prec > self.prec:
            prec = self.prec
        return self._of(self.field, _below(self.terms, prec), prec)

    def inv(self, prec=None):
        """Multiplicative inverse to O(T^prec).

        For an exact monomial the result is exact.  Otherwise prec defaults
        to the input's own window, self.prec - 2 ord, and may not exceed it.
        The inverse g of the unit part f = self / T^ord is 1/f_0 up to the
        first nonzero exponent of f - f_0, and from there Newton iteration,
        g <- g + g (1 - f g), doubles the precision to which g is known; g is
        carried as exact, which the step justifies.
        """
        if not self.terms:
            if self.prec is None:
                raise ZeroDivisionError("inverse of the zero series")
            raise InsufficientPrecisionError("inverse of a series with no visible term")
        m = self.ord()
        c0_inv = self.terms[m].inv()
        if len(self.terms) == 1 and self.prec is None:
            return self._of(self.field, {-m: c0_inv}, None)
        if prec is None:
            if self.prec is None:
                raise ValueError("inv of an exact non-monomial needs a target precision")
            prec = self.prec - 2 * m
        elif self.prec is not None and prec > self.prec - 2 * m:
            raise InsufficientPrecisionError(
                "cannot invert to O(T^%d): input only known to O(T^%d)" % (prec, self.prec)
            )
        f, g = self.shift(-m), self._of(self.field, {0: c0_inv}, None)
        known = min((e for e in f.terms if e), default=prec + m)
        while known < prec + m:
            known = min(2 * known, prec + m)
            err = self.one(self.field) - f.truncate(known) * g  # O(T^known)
            g = self._of(self.field, (g + g * err).terms, None)
        return g.truncate(prec + m).shift(-m)

    def compose(self, inner, power=None):
        """Substitute `inner` (ord >= 1) for the variable, reading its powers
        from `power` (a `_powers_of` table of inner) when given.

        Only nonnegative exponents are allowed here; Laurent substitution is
        assembled by the callers that need it (split off the principal part
        and multiply by inverse powers).
        """
        if inner.terms and inner.ord() < 1:
            raise ValueError("compose requires ord(inner) >= 1")
        if self.terms and min(self.terms) < 0:
            raise ValueError("compose is only defined for nonnegative exponents")
        prec = None
        if self.prec is not None:
            lb = inner.ord_lower_bound()
            prec = None if lb is None else self.prec * max(lb, 1)
        if inner.prec is not None:
            prec = inner.prec if prec is None else min(prec, inner.prec)
        # term-by-term (sparse supports, huge exponents), sharing the powers
        # inner^(d p^j) the exponents' digits need, summed in one dict
        # a shared table may reach past prec: only then are the sums cut
        cut, power = (None, _powers_of(inner, prec)) if power is None else (prec, power)
        lb = inner.ord_lower_bound()
        kept = [e for e in sorted(self.terms) if prec is None or lb is None or e * lb < prec]
        scaled = ((self.terms[e], 0, power(e)) for e in kept)
        return self._of(self.field, _sum_scaled(self.field, scaled, cut), prec)

    def frobenius_coeffs(self, n=1):
        """Raise every coefficient to its p^n power, exponents unchanged."""
        return self._of(self.field, {e: c.frobenius(n) for e, c in self.terms.items()},
                        self.prec)

    def pow_int(self, n, prec=None):
        """self^n, truncated to prec unless prec is None."""
        if n < 0:
            return self.inv(prec).pow_int(-n, prec)
        return _powers_of(self, prec)(n)

    def _pow_char_p(self):
        # (f + O(T^N))^p = f^p + O(T^(N + (p-1)*min(ord, N)))
        p, prec = self.field.p, self.prec
        if prec is not None:
            prec += (p - 1) * min(self.ord_lower_bound(), prec)
        terms = {e * p: c ** p for e, c in self.terms.items()}
        return self._of(self.field, terms if prec is None else _below(terms, prec), prec)

    def derivative(self):
        p = self.field.p
        return self._of(self.field,
                        {e - 1: c.scale_int(e) for e, c in self.terms.items() if e % p != 0},
                        None if self.prec is None else self.prec - 1)

    def map_coeffs(self, fn, new_field=None):
        """Apply fn to every coefficient (a field embedding, a lift to a
        higher tower, a Frobenius power), dropping the results that vanish."""
        t = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                t[e] = v
        return self._of(self.field if new_field is None else new_field, t, self.prec)


def _below(terms, prec):
    return dict(terms) if prec is None else {e: c for e, c in terms.items() if e < prec}


def _powers_of(base, prec):
    """The map e -> base^e (e >= 0), truncated to prec unless prec is None.

    base^e is the product over the base-p digits d_j of e of base^(d_j p^j),
    where base^(p^j) comes from char-p powering (coefficient p-th powers and
    exponent scaling).  Each base^(d p^j) is built once and shared by every
    later call whose exponent has that digit.
    """
    def cut(s):
        return s if prec is None else s.truncate(prec)

    p = base.field.p
    rows = [[None, cut(base)]]  # rows[j][d] = base^(d p^j)

    def power(e):
        result, j = None, 0
        while e:
            e, d = divmod(e, p)
            if d:
                while len(rows) <= j:
                    rows.append([None, cut(rows[-1][1]._pow_char_p())])
                row = rows[j]
                while len(row) <= d:
                    row.append(cut(row[-1] * row[1]))
                result = row[d] if result is None else cut(result * row[d])
            j += 1
        return base.one(base.field) if result is None else result

    return power


def _sum_scaled(field, scaled, prec=None):
    """Terms below prec of the sum of c T^k s over the triples (c, k, s), in
    one dict of packed sums where the field has tables (unpacked once), of
    ring elements otherwise (a sum vanishes only once it is complete)."""
    tables = field._packed_tables()
    sums = {}
    get = sums.get
    if tables is None:
        for c, k, s in scaled:
            for e, d in s.terms.items():
                e += k
                if prec is None or e < prec:
                    x, y = get(e), c * d
                    sums[e] = y if x is None else x + y
        return {e: x for e, x in sums.items() if not x.is_zero()}
    log, exp = tables
    for c, k, s in scaled:
        lc = log[c.n]
        for e, d in s.terms.items():
            e += k
            if prec is None or e < prec:
                sums[e] = get(e, 0) + exp[lc + log[d.n]]
    return field._unpack_sums(sums)


def _mul_packed(a, b, prec, log, exp):
    """Terms of a * b below prec, from the field's log map and exp table.

    Each coefficient becomes its discrete log once; every pair of terms then
    costs one table read and one int addition into the packed sum of its
    exponent, and the field unpacks each sum (one mod p per lane) at the end.
    """
    lb = sorted((e, log[c.n]) for e, c in b.terms.items())
    end = lb[-1][0] + 1 if lb else 0
    sums = {}
    get = sums.get
    for e1, c1 in a.terms.items():
        l1 = log[c1.n]
        stop = end if prec is None else prec - e1
        for e2, l2 in lb:
            if e2 >= stop:
                break
            e = e1 + e2
            sums[e] = get(e, 0) + exp[l1 + l2]
    return a.field._unpack_sums(sums)
