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

Products take one path, `_sum_scaled`: each term c T^k of one factor adds
c T^k times the other into one dict of sums.  Over fields with log/exp tables
(q <= 2^8) a sum is a plain int, one exp-table entry (an element's packed
int, lanes of at least 64 bits) per pair, reduced mod p once unless it is an
entry itself; other rings sum their elements.  Composition adds every scaled
power into one such dict.  Powers go digit by digit (`_powers_of`), so their
cost follows the known window, not the size of the exponent.  Inversion is
Newton iteration, doubling the known precision at every step.
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
        return _min(self.prec, other.prec)

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
        for x, y in ((self, other), (other, self)):
            lb = y.ord_lower_bound()
            if x.prec is not None and lb is not None:
                prec = _min(prec, x.prec + lb)
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
        # the unknown tail of self is O(inner^self.prec); inner's own error
        # enters (inner + O(T^N))^e at O(T^(N + (e - 1) lb)), first at the
        # lowest positive exponent of self (the constant term is exact)
        lb = inner.ord_lower_bound()  # None: inner is the exact zero
        prec = None if self.prec is None or lb is None else self.prec * max(lb, 1)
        low = min((e for e in self.terms if e), default=None)
        if inner.prec is not None and low is not None:
            prec = _min(prec, inner.prec + lb * (low - 1))
        if power is None:
            power = _powers_of(inner, prec)
        scaled = [(self.terms[e], 0, power(e)) for e in sorted(self.terms)
                  if prec is None or lb is None or e * lb < prec]
        for _, _, s in scaled:  # a shared table may be cut below prec
            prec = _min(prec, s.prec)
        return self._of(self.field, _sum_scaled(self.field, scaled, prec), prec)

    def frobenius_coeffs(self, n=1):
        """Raise every coefficient to its p^n power, exponents unchanged."""
        return self._of(self.field, {e: c.frobenius(n) for e, c in self.terms.items()},
                        self.prec)

    def pow_int(self, n, prec=None):
        """self^n, truncated to prec unless prec is None."""
        if n < 0:
            return self.inv(prec).pow_int(-n, prec)
        return _powers_of(self, prec)(n)

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


def _min(a, b):
    """min, with None as +infinity (an exact series' precision)."""
    return b if a is None else a if b is None else min(a, b)


def _powers_of(base, prec):
    """The map e -> base^e (e >= 0), truncated to prec unless prec is None.

    With base = T^a (c + g), ord g > 0, base^e = T^(ae) prod_j (c^(p^j) +
    g^(p^j))^(d_j) over the base-p digits d_j of e; g^(p^j) raises each
    coefficient to the p^j and scales each exponent by p^j.  The product is
    known to O(T^w), w = base.prec - a or prec - ae where lower, so a row whose
    g-part starts at or past w is the constant c^(p^j).  Rows are built straight
    from base and kept for every later call whose window they cover.
    """
    field, p = base.field, base.field.p
    one = base.one(field)
    if not base.terms:  # O(T^n), so base^e = O(T^(ne)); n None: the exact zero
        n = base.prec
        return lambda e: base.zero(field, _min(prec, n and n * e)) if e else one
    a = base.ord()
    c = base.terms[a]
    g = sorted((e - a, x) for e, x in base.terms.items() if e != a)
    rel = None if base.prec is None else base.prec - a
    rows = {}  # j -> [u, u^2, ...], u = c^(p^j) + g^(p^j) to O(T^window)

    def row(j, pj, d, w):
        r = rows.get(j)
        if r is None or _min(r[0].prec, w) != w:  # built for a narrower window
            terms = {0: c ** pj}
            for k, x in g:
                if w is not None and k * pj >= w:
                    break
                terms[k * pj] = x ** pj
            r = rows[j] = [base._of(field, terms, w)]
        while len(r) < d:
            r.append(r[-1] * r[0])
        return r[d - 1]

    def power(e):
        if not e:
            return one
        shift = a * e
        w = _min(rel, None if prec is None else prec - shift)
        if w is not None and w <= 0:
            return base.zero(field, shift + w)
        acc, j, pj = None, 0, 1
        while e and g and (w is None or g[0][0] * pj < w):
            e, d = divmod(e, p)
            if d:
                r = row(j, pj, d, w)
                acc = (r if r.prec == w else r.truncate(w)) if acc is None else acc * r
            j, pj = j + 1, pj * p
        if e:  # the constant rows, c^(p^j) for each digit from here on
            lead = c ** (e * pj)
            terms = {0: lead} if acc is None else {k: x * lead for k, x in acc.terms.items()}
        else:
            terms = acc.terms
        return base._of(field, {k + shift: x for k, x in terms.items()},
                        None if w is None else shift + w)

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
