"""Finite fields and the GF(q) matrix kernel.

Field elements are integers 0..q-1 whose base-p digits are polynomial
coefficients; matrices are tuples of tuples of element codes.  The one
GF(q) elimination is _eliminate; rref, m_rank, kernel_basis and the
inverse are built on it.  Over GF(2) it packs each row into one int, a
byte per entry, and adds rows by xor; over every other field it sweeps
dense lists against sparse pivot rows.  Both paths keep the same pivot
rows, so every result is the same.  The polynomial helpers over a GF list
the monic irreducibles that fix the defining polynomials of extension
fields.
"""

from __future__ import annotations

import itertools


#: documented fixed defining polynomials, low-degree coefficients first
IRREDUCIBLE = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 0, 1),        # x^2 + 2
    (7, 2): (1, 0, 1),        # x^2 + 1
}


# ---------------------------------------------------------------------------
# finite fields, elements encoded as integers 0..q-1 (base-p digit vectors)
# ---------------------------------------------------------------------------

class GF:
    """The finite field F_{p^deg} with a fixed defining polynomial.

    The polynomial is the one on record in IRREDUCIBLE, or else the first
    monic irreducible of degree deg that monic_irreducibles lists.

    Elements are integers whose base-p digits are the polynomial coefficients,
    so 0 and 1 are the additive and multiplicative units and, for deg > 1,
    the integer p encodes the generator x.
    """

    def __init__(self, p, deg=1):
        self.p = p
        self.deg = deg
        self.q = p ** deg
        if deg == 1:
            self._red = None
        else:
            self._red = IRREDUCIBLE.get((p, deg)) or monic_irreducibles(field(p), deg)[deg][0]
        self._mul = [[self._mul_slow(a, b) for b in range(self.q)] for a in range(self.q)]
        self._add = [[self._add_slow(a, b) for b in range(self.q)] for a in range(self.q)]
        self._neg = [self._neg_slow(a) for a in range(self.q)]
        self._inv = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if self._mul[a][b] == 1:
                    self._inv[a] = b
                    break

    def coords(self, a):
        out = []
        for _ in range(self.deg):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_coords(self, cs):
        a = 0
        for c in reversed(cs):
            a = a * self.p + (c % self.p)
        return a

    def _add_slow(self, a, b):
        ca, cb = self.coords(a), self.coords(b)
        return self.from_coords(tuple((x + y) % self.p for x, y in zip(ca, cb)))

    def _neg_slow(self, a):
        return self.from_coords(tuple((-x) % self.p for x in self.coords(a)))

    def _mul_slow(self, a, b):
        if self.deg == 1:
            return (a * b) % self.p
        ca, cb = self.coords(a), self.coords(b)
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the defining polynomial (monic)
        red = self._red
        for k in range(len(prod) - 1, self.deg - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(self.deg):
                    prod[k - self.deg + j] = (prod[k - self.deg + j] - c * red[j]) % self.p
        return self.from_coords(tuple(prod[: self.deg]))

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.q)
        return self._inv[a]

    def mult_matrix(self, a):
        """deg x deg matrix over F_p of multiplication by a, basis 1, x, ..."""
        cols = []
        col_elt = a
        gen = self.p if self.deg > 1 else 1
        for _ in range(self.deg):
            cols.append(self.coords(col_elt))
            col_elt = self.mul(col_elt, gen)
        return tuple(tuple(cols[j][i] for j in range(self.deg)) for i in range(self.deg))

    def __repr__(self):
        return "GF(%d)" % self.q if self.deg == 1 else "GF(%d^%d)" % (self.p, self.deg)


_FIELDS = {}


def field(p, deg=1):
    """GF(p^deg) for a prime p; ValueError for a composite p."""
    key = (p, deg)
    if key not in _FIELDS:
        if prime_power(p) != (p, 1):
            raise ValueError("GF(%d^%d): %d is not a prime" % (p, deg, p))
        _FIELDS[key] = GF(p, deg)
    return _FIELDS[key]


#: GF tabulates all q*q sums and products up front, so larger q is refused
MAX_FIELD_ORDER = 256


def prime_power(q):
    """(p, deg) with p prime and p^deg = q, or None when q is no prime power.

    q is split by its smallest prime factor p.
    """
    if q < 2:
        return None
    p = next(p for p in range(2, q + 1) if q % p == 0)
    deg = 0
    while q % p ** (deg + 1) == 0:
        deg += 1
    return (p, deg) if p ** deg == q else None


def field_of_order(q):
    """GF(q) for a prime power q; ValueError for any other q."""
    if not 2 <= q <= MAX_FIELD_ORDER:
        raise ValueError("q = %d is outside 2..%d" % (q, MAX_FIELD_ORDER))
    if prime_power(q) is None:
        raise ValueError("q = %d is not a prime power" % q)
    return field(*prime_power(q))


def gl_order(q, n):
    """|GL_n(F_q)|."""
    out = 1
    for j in range(n):
        out *= q ** n - q ** j
    return out


# ---------------------------------------------------------------------------
# matrices over a GF, stored as tuples of tuples of element codes
# ---------------------------------------------------------------------------

def m_id(F, n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

def m_mul(F, A, B):
    return _mul_t(F, A, m_transpose(B))


def _mul_t(F, A, Bt):
    """A times the transpose of Bt: entry (r, c) is row r of A dot row c of Bt."""
    mul = F._mul
    add = F._add
    out = []
    for ra in A:
        row = []
        for cb in Bt:
            s = 0
            for a, b in zip(ra, cb):
                if a and b:
                    s = add[s][mul[a][b]]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)

def m_transpose(A):
    return tuple(zip(*A))


def _eliminate(F, A, reduced, seed=None):
    """The GF(q) elimination: {pivot column: pivot row}, one per unit of rank.

    A pivot row has its leftmost entry 1 at the pivot column.  Each row of
    A is swept left to right: an entry at a pivot column is cleared by that
    pivot row, and the first entry at a column without a pivot makes the
    row, scaled, the pivot row of that column.  The pivot rows form an
    echelon form, so their count is the rank.  With reduced, each pivot row
    is then swept clear of the later pivot columns too, right to left,
    which gives the reduced echelon form.

    Over GF(2) a pivot row is one int holding one byte per entry, entry k
    at byte k (_eliminate_gf2); over any other field it is its list of
    (column, value) entries (_eliminate_lists).  Both keep the same rows.
    Only _eliminate and rref read a pivot row; m_rank counts them, and
    HomSystem passes them back as a seed.

    seed, the forward pivots of rows eliminated before over the same F, is
    copied and the rows of A are swept against it, as if those rows came
    first in A.  The rows of A are read, never written.
    """
    if F.q == 2:
        return _eliminate_gf2(A, reduced, seed)
    return _eliminate_lists(F, A, reduced, seed)


def _eliminate_gf2(A, reduced, seed=None):
    """_eliminate over GF(2): a row is int.from_bytes of its entries, and
    adding a pivot row is one xor."""
    pivots = dict(seed) if seed else {}
    ncols = len(A[0]) if A else 0
    for dense in A:
        if len(pivots) == ncols:
            break
        row = int.from_bytes(bytes(dense), "little")
        while row:
            # the byte of the lowest set bit is the leftmost entry
            c = (row & -row).bit_length() - 1 >> 3
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            row ^= piv
    if reduced:
        # the bits of the pivot columns right of c, whose rows are reduced
        # already: adding one of them clears its own pivot bit in row alone
        later = 0
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            hits = row & later
            while hits:
                low = hits & -hits
                row ^= pivots[low.bit_length() - 1 >> 3]
                hits ^= low
            pivots[c] = row
            later |= 1 << 8 * c
    return pivots


def _eliminate_lists(F, A, reduced, seed=None):
    """_eliminate over any GF(q): a pivot row is its list of (column, value)
    entries, and a row is swept as a dense list."""
    mul, add, neg, inv = F._mul, F._add, F._neg, F._inv
    pivots = dict(seed) if seed else {}
    ncols = len(A[0]) if A else 0

    def sweep(row, start, full):
        # clear the pivot columns of row from start on; return the first
        # column holding an entry and no pivot, or sweep them all when full
        for c in range(start, ncols):
            x = row[c]
            if x:
                piv = pivots.get(c)
                if piv is None:
                    if not full:
                        return c
                    continue
                factor = mul[neg[x]]
                for k, v in piv:
                    row[k] = add[row[k]][factor[v]]
        return None

    for dense in A:
        if len(pivots) == ncols:
            break
        row = list(dense)
        c = sweep(row, 0, False)
        if c is not None:
            unit = mul[inv[row[c]]]
            pivots[c] = [(k, unit[row[k]]) for k in range(c, ncols) if row[k]]
    if reduced:
        for c in sorted(pivots, reverse=True):
            if any(k in pivots for k, _ in pivots[c][1:]):
                row = [0] * ncols
                for k, v in pivots[c]:
                    row[k] = v
                sweep(row, c + 1, True)
                pivots[c] = [(k, row[k]) for k in range(c, ncols) if row[k]]
    return pivots


def rref(F, A):
    """Reduced row echelon form of A without its zero rows: (R, pivot_columns).

    Only the returned rows are made dense.
    """
    pivots = _eliminate(F, A, True)
    cols = tuple(sorted(pivots))
    ncols = len(A[0]) if A else 0
    if F.q == 2:
        return tuple(tuple(pivots[c].to_bytes(ncols, "little")) for c in cols), cols
    rows = []
    for c in cols:
        row = [0] * ncols
        for k, v in pivots[c]:
            row[k] = v
        rows.append(tuple(row))
    return tuple(rows), cols


def m_rank(F, A):
    """Rank of A: the number of pivots of forward elimination, no back-substitution."""
    return len(_eliminate(F, A, False))


def kernel_basis(F, A, ncols):
    """Basis of the right kernel {x : A x = 0} of A with ncols columns, as rows.

    A matrix without rows does not carry its column count; its kernel is
    all of F^ncols.
    """
    R, pivots = rref(F, A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = F.neg(R[r][fc])
        basis.append(tuple(vec))
    return tuple(basis)


def subspaces(F, n, k):
    """All k-dimensional subspaces of F^n as reduced-echelon basis rows."""
    if k == 0:
        yield ()
        return
    if k > n:
        return
    for pivots in itertools.combinations(range(n), k):
        free_slots = []
        for i in range(k):
            for c in range(pivots[i] + 1, n):
                if c not in pivots:
                    free_slots.append((i, c))
        for vals in itertools.product(range(F.q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free_slots, vals):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)


def all_subspaces(F, n):
    for k in range(n + 1):
        yield from subspaces(F, n, k)


def _m_inv(F, A):
    n = len(A)
    aug = tuple(tuple(A[i]) + tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    R, piv = rref(F, aug)
    if list(piv) != list(range(n)):
        raise ValueError("matrix is not invertible")
    return tuple(tuple(R[i][n:]) for i in range(n))


# -- polynomial helpers over GF (for Kronecker regular families) -------------

def poly_mul_gf(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return tuple(out)


def poly_pow_gf(F, a, n):
    out = (1,)
    for _ in range(n):
        out = poly_mul_gf(F, out, a)
    return out


def poly_rem_gf(F, a, b):
    a = list(a)
    db = len(b) - 1
    inv = F.inv(b[-1])
    while len(a) - 1 >= db and any(a):
        da = len(a) - 1
        if not a[da]:
            a.pop()
            continue
        f = F.mul(a[da], inv)
        for j in range(db + 1):
            a[da - db + j] = F.sub(a[da - db + j], F.mul(f, b[j]))
        while a and not a[-1]:
            a.pop()
    return tuple(a)


def monic_irreducibles(F, max_deg):
    """All monic irreducible polynomials of degree 1..max_deg, low coeffs first."""
    by_deg = {d: [] for d in range(1, max_deg + 1)}
    for d in range(1, max_deg + 1):
        for tail in itertools.product(range(F.q), repeat=d):
            p = tuple(tail) + (1,)
            irred = True
            for dd in range(1, d // 2 + 1):
                for g in by_deg[dd]:
                    if not poly_rem_gf(F, p, g):
                        irred = False
                        break
                if not irred:
                    break
            if irred:
                by_deg[d].append(p)
    return by_deg


def companion(F, p):
    """Companion matrix of a monic polynomial."""
    n = len(p) - 1
    out = [[0] * n for _ in range(n)]
    for i in range(1, n):
        out[i][i - 1] = 1
    for i in range(n):
        out[i][n - 1] = F.neg(p[i])
    return tuple(tuple(r) for r in out)
