"""Exact Laurent polynomials and rational functions in a single variable v.

Everything downstream (Hall numbers, basis transitions, inner products) is a
statement about elements of Q[v,v^-1] or Q(v), so every coefficient is an
exact rational and no floating point is ever used.

A Laurent polynomial is stored as a dict {exponent: coefficient} with no zero
coefficients.  A coefficient is a Python ``int`` when it is integral and a
``fractions.Fraction`` with denominator > 1 otherwise; every constructor and
operation returns that form, so most work stays in machine-fast integer
arithmetic.  ``int`` and ``Fraction`` compare, hash and print alike, so the
form is invisible to callers.  Rational functions keep a reduced
numerator/denominator pair with the denominator normalized to be an ordinary
polynomial (valuation 0) whose top coefficient is 1, so equality is plain
structural equality.  The gcd that reduces them is a primitive
pseudo-remainder sequence over Z (Brown, "On Euclid's algorithm and the
computation of polynomial greatest common divisors", JACM 1971).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _canonical(c):
    """c (an int or a Fraction) as an int when integral, else unchanged."""
    if c.__class__ is not int and c.denominator == 1:
        return int(c.numerator)
    return c


def _div(a, b):
    """a / b for rational a and b != 0, exactly and in canonical form."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _canonical(Fraction(a) / b)


class LaurentPoly:
    """A Laurent polynomial sum c_e * v^e with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError("coefficient %r is not an int or a Fraction" % (c,))
                if c:
                    d[int(e)] = _canonical(c)
        self.coeffs = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def v_power(e, c=1):
        return LaurentPoly({int(e): c})

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e)
            if s is None:
                d[e] = c
            else:
                s += c
                if s:
                    d[e] = _canonical(s)
                else:
                    del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = d.get(e)
                if s is None:
                    d[e] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        d[e] = s
                    else:
                        del d[e]
        for e, c in d.items():
            if c.__class__ is not int:
                d[e] = _canonical(c)
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = d
        return out

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of a Laurent polynomial are not defined")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.const(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- inspection ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Top exponent, or None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def valuation(self):
        """Bottom exponent, or None for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else None

    def __getitem__(self, e):
        return self.coeffs.get(e, 0)

    def is_bar_symmetric(self):
        return self == self.bar()

    def has_integer_coeffs(self):
        return all(c.denominator == 1 for c in self.coeffs.values())

    # -- operations ----------------------------------------------------

    def bar(self):
        """The involution v -> v^-1 (negate every exponent)."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {-e: c for e, c in self.coeffs.items()}
        return out

    def subs_v_squared(self, q):
        """Reduce modulo v^2 - q: rewrite v^e = q^(e//2) * v^(e mod 2).

        Returns a pair (c0, c1) of Fractions with self = c0 + c1*v under the
        identification v^2 = q.  This is how per-field identities (where
        v = sqrt(q)) are checked exactly.
        """
        q = Fraction(q)
        c0 = Fraction(0)
        c1 = Fraction(0)
        for e, c in self.coeffs.items():
            r = e % 2  # python: always 0 or 1, also for negative e
            k = (e - r) // 2
            val = c * q ** k
            if r == 0:
                c0 += val
            else:
                c1 += val
        return c0, c1

    def subs(self, value):
        """Evaluate at v = value (exact Fraction arithmetic)."""
        value = Fraction(value)
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * value ** e
        return total

    def shift(self, k):
        """Multiply by v^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return out

    def divexact(self, other):
        """Exact division; raises ValueError if the division leaves a remainder."""
        other = _coerce(other)
        q, r = _divmod_laurent(self, other)
        if not r.is_zero():
            raise ValueError("division of %s by %s is not exact" % (self, other))
        return q

    def __str__(self):
        """Canonical text form: terms c*v^e joined by ' + ', exponents decreasing."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            parts.append("%s*v^%d" % (self.coeffs[e], e))
        return " + ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % str(self)


#: shared constants; no LaurentPoly is ever changed in place
_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError("cannot coerce %r to LaurentPoly" % (x,))


def _divmod_laurent(a, b):
    """Division with remainder after clearing v-valuations.

    Shifts both operands to ordinary polynomials, does schoolbook division,
    and shifts back, so v^-3 / v^-1 etc. work as expected.  A quotient term
    is an int whenever the division is exact over Z.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    sa = -a.valuation()
    sb = -b.valuation()
    A = dict(a.shift(sa).coeffs)
    B = b.shift(sb).coeffs
    db = max(B)
    lead = B[db]
    Q = {}
    while A:
        da = max(A)
        if da < db:
            break
        f = _div(A[da], lead)
        Q[da - db] = f
        for e, c in B.items():
            e += da - db
            s = A.get(e)
            if s is None:
                A[e] = -f * c
            else:
                s -= f * c
                if s:
                    A[e] = s
                else:
                    del A[e]
    quot = LaurentPoly(Q).shift(sb - sa)
    rem = LaurentPoly(A).shift(-sa)
    return quot, rem


def _primitive_row(p):
    """p / v^val(p) scaled to a primitive integer polynomial with a positive
    top coefficient: its coefficients as ints, top degree first."""
    c = p.coeffs
    lo = min(c)
    row = [0] * (max(c) - lo + 1)
    den = lcm(*(x.denominator for x in c.values() if x.__class__ is not int))
    for e, x in c.items():
        row[e - lo] = x * den if x.__class__ is int else x.numerator * (den // x.denominator)
    row.reverse()
    return _primitive(row)


def _primitive(row):
    """An integer row (top degree first, top entry nonzero) divided by its
    content, with the sign that makes the top entry positive."""
    g = gcd(*row)
    if row[0] < 0:
        g = -g
    return [x // g for x in row] if g != 1 else row


def _prem_primitive(a, b):
    """Primitive part of a pseudo-remainder of a by b, both integer rows, top
    degree first, b's top coefficient positive and b(0) != 0.

    Each step scales a by the least integer that makes b's top coefficient
    divide a's, so the result is a nonzero integer multiple of the remainder
    over Q.  Trailing zeros (factors v, which never divide gcd(a, b) since
    b(0) != 0) are stripped; [] means a zero remainder.
    """
    a = list(a)
    lb = b[0]
    nb = len(b)
    for i in range(len(a) - nb + 1):
        c = a[i]
        if not c:
            continue
        g = gcd(c, lb)
        s, t = lb // g, c // g
        if s != 1:
            for j in range(i + 1, len(a)):
                a[j] *= s
        for j in range(1, nb):
            a[i + j] -= t * b[j]
    r = a[len(a) - nb + 1:]
    while r and not r[-1]:
        r.pop()
    k = 0
    while k < len(r) and not r[k]:
        k += 1
    return _primitive(r[k:]) if k < len(r) else []


def poly_gcd(a, b):
    """Monic gcd of two Laurent polynomials (v-power factors are discarded).

    Both operands are cleared of denominators and v-powers, and a primitive
    pseudo-remainder sequence runs over Z with contents removed by math.gcd.
    By Gauss's lemma its last nonzero term is the gcd over Q up to a unit;
    it is made monic at the end.
    """
    if a.is_zero():
        a, b = b, a
    if a.is_zero():
        return _ONE
    a = _primitive_row(a)
    if not b.is_zero():
        b = _primitive_row(b)
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            a, b = b, _prem_primitive(a, b)
            if not b:
                break
        else:
            return _ONE
    top = len(a) - 1
    lead = a[0]
    out = LaurentPoly.__new__(LaurentPoly)
    out.coeffs = {top - i: _div(x, lead) for i, x in enumerate(a) if x}
    return out


class RationalV:
    """An element of Q(v) as a reduced fraction num/den of Laurent polynomials.

    Normalization: den is an ordinary polynomial (valuation 0), monic at its
    top exponent, and gcd(num, den) = 1, so equal values compare equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = _ONE if den is None else _coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = _ZERO
            self.den = _ONE
            return
        if den == _ONE:
            self.num = num
            self.den = _ONE
            return
        g = poly_gcd(num, den)
        if g.degree() > 0:
            num = num.divexact(g)
            den = den.divexact(g)
        # fold the v-power of den into num and make den monic on top
        shift = den.valuation()
        den = den.shift(-shift)
        num = num.shift(-shift)
        lead = den.coeffs[den.degree()]
        if lead != 1:
            inv = LaurentPoly.const(Fraction(1) / lead)
            den = den * inv
            num = num * inv
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == _ONE

    def as_poly(self):
        """Return the underlying LaurentPoly; raises if there is a true denominator."""
        if not self.is_polynomial():
            raise ValueError("%s is not a Laurent polynomial" % self)
        return self.num

    def __add__(self, other):
        other = _coerce_rational(other)
        if self.den == _ONE and other.den == _ONE:
            return _polynomial(self.num + other.num)
        return RationalV(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalV.__new__(RationalV)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        return self + (-_coerce_rational(other))

    def __rsub__(self, other):
        return _coerce_rational(other) - self

    def __mul__(self, other):
        other = _coerce_rational(other)
        if self.den == _ONE and other.den == _ONE:
            return _polynomial(self.num * other.num)
        return RationalV(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rational(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero in Q(v)")
        return RationalV(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rational(other) / self

    def __eq__(self, other):
        try:
            other = _coerce_rational(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def bar(self):
        return RationalV(self.num.bar(), self.den.bar())

    def top_exponent(self):
        """Exponent of the leading term of the expansion at v = infinity.

        Exact: the leading coefficients of num and den never cancel, so this
        is deg(num) - deg(den).  None for the zero function.
        """
        if self.is_zero():
            return None
        return self.num.degree() - self.den.degree()

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RationalV(%s)" % str(self)


def _polynomial(num):
    """num / 1, already normalized: a zero num keeps the denominator 1."""
    out = RationalV.__new__(RationalV)
    out.num = num
    out.den = _ONE
    return out


def _coerce_rational(x):
    if isinstance(x, RationalV):
        return x
    if isinstance(x, (LaurentPoly, int, Fraction)):
        return RationalV(_coerce(x))
    raise TypeError("cannot coerce %r to RationalV" % (x,))


class SeriesTail:
    """Truncated expansion of an element of Q(v) in descending powers of v.

    terms: list of (exponent, Fraction) pairs, descending and exact down to
    exponent -truncation_order.
    """

    __slots__ = ("terms", "truncation_order")

    def __init__(self, terms, truncation_order):
        self.terms = [(int(e), Fraction(c)) for e, c in terms if c != 0]
        self.terms.sort(key=lambda t: -t[0])
        self.truncation_order = int(truncation_order)

    def top_exponent(self):
        return self.terms[0][0] if self.terms else None

    def coefficient(self, e):
        for exp, c in self.terms:
            if exp == e:
                return c
        return Fraction(0)

    def __eq__(self, other):
        if not isinstance(other, SeriesTail):
            return NotImplemented
        return self.terms == other.terms and self.truncation_order == other.truncation_order

    def __str__(self):
        if not self.terms:
            return "O(v^-%d)" % self.truncation_order
        body = " + ".join("%s*v^%d" % (c, e) for e, c in self.terms)
        return "%s + O(v^-%d)" % (body, self.truncation_order)

    __repr__ = __str__


def bar(f):
    """Bar involution on LaurentPoly or RationalV: v -> v^-1."""
    return f.bar()


def quantum_int(p, d=1):
    """Balanced quantum integer [p] in the variable x = v^d.

    [p] = (x^p - x^-p)/(x - x^-1) = x^(p-1) + x^(p-3) + ... + x^(1-p).
    """
    if p < 0:
        raise ValueError("quantum_int requires p >= 0, got %d" % p)
    if d <= 0:
        raise ValueError("quantum_int requires d >= 1, got %d" % d)
    return LaurentPoly({d * (p - 1 - 2 * j): 1 for j in range(p)})


def quantum_factorial(p, d=1):
    """[p]! = [p][p-1]...[1] in the variable v^d; [0]! = 1."""
    if p < 0:
        raise ValueError("quantum_factorial requires p >= 0, got %d" % p)
    out = LaurentPoly.one()
    for j in range(2, p + 1):
        out = out * quantum_int(j, d)
    return out


def gauss_binom(n, k, d=1):
    """Gaussian binomial [n choose k] in the variable v^d (exact division)."""
    if not 0 <= k <= n:
        raise ValueError("gauss_binom requires 0 <= k <= n, got (%d, %d)" % (n, k))
    num = quantum_factorial(n, d)
    den = quantum_factorial(k, d) * quantum_factorial(n - k, d)
    return num.divexact(den)


def expand_at_infinity(r, order):
    """Exact expansion of r in Q(v) in descending powers of v, down to v^-order.

    Writes num = v^N n(u), den = v^D d(u) with u = v^-1 and d(0) != 0, and
    expands the power series n(u)/d(u).  The top exponent of the result is
    exactly N - D, which is how poles at infinity are detected.
    """
    r = _coerce_rational(r)
    if r.is_zero():
        return SeriesTail([], order)
    N = r.num.degree()
    D = r.den.degree()
    # coefficients of n(u) and d(u): index j holds the coefficient of u^j
    n_len = N - r.num.valuation() + 1
    n_u = [r.num[N - j] for j in range(n_len)]
    d_len = D - r.den.valuation() + 1
    d_u = [r.den[D - j] for j in range(d_len)]
    # series division n(u)/d(u) up to u^(order + N - D)
    k_max = order + N - D
    if k_max < 0:
        return SeriesTail([], order)
    inv0 = Fraction(1) / d_u[0]
    t = []
    for k in range(k_max + 1):
        s = n_u[k] if k < len(n_u) else Fraction(0)
        for j in range(1, min(k, len(d_u) - 1) + 1):
            s -= d_u[j] * t[k - j]
        t.append(s * inv0)
    terms = [(N - D - k, t[k]) for k in range(k_max + 1) if t[k] != 0]
    return SeriesTail(terms, order)


def in_lattice(r, strict=False):
    """Membership in Q[[v^-1]] cap Q(v) (strict: in v^-1 Q[[v^-1]] cap Q(v)).

    Decided exactly by pole analysis at v = infinity: the criterion is that
    the top exponent deg(num) - deg(den) is <= 0 (strict: <= -1), so the
    answer never depends on a truncation.
    """
    r = _coerce_rational(r)
    top = r.top_exponent()
    if top is None:
        return True
    return top < 0 if strict else top <= 0


def row_reduce(rows, ncols):
    """Gauss-Jordan elimination over Q or Q(v) (Fraction or RationalV entries).

    Pivots are sought in the first ncols columns only; any further columns
    (an augmented right-hand side or identity block) are carried along.  The
    pivot of a column is its first nonzero entry at or below the current
    row.  Returns (R, pivots): R is the reduced copy of rows, whose row k
    has a 1 in column pivots[k] and zeros elsewhere in that column; the rows
    after len(pivots) are zero in the first ncols columns.
    """
    A = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        row = len(pivots)
        pr = next((r for r in range(row, len(A)) if A[r][c]), None)
        if pr is None:
            continue
        A[row], A[pr] = A[pr], A[row]
        inv = A[row][c]
        A[row] = [x / inv for x in A[row]]
        for r in range(len(A)):
            if r != row and A[r][c]:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[row])]
        pivots.append(c)
    return A, pivots
