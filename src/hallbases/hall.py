"""Twisted Ringel-Hall algebras: one element class over two coefficient rings.

A HallElement is a graded combination of basis keys of its algebra, and
its product reads the algebra's structure constants (mult_table) and twists
by v^<d1, d2>.  Both layers share the element, the product and the
divided powers u_i^(a), monomials and quantum Serre sums built on it.

The per-field layer (HallContext) has class ids over one finite field as
keys and LaurentPoly coefficients: v stays a formal symbol while Hall
numbers are the field's integers, so identities that depend on
v_k = sqrt(q) (quantum Serre, divided-power arithmetic) are checked
exactly by reduction modulo v^2 - q.

The generic layer (GenericHallAlgebra) has RationalV coefficients and
field-independent keys: isomorphism classes are grouped into labels
(decomposition types; homogeneous regular points are recorded only by
degree and partition), and every structure constant and label count is a
polynomial in q.  Each is fitted by Lagrange interpolation on the shape's
field ladder (field_ladder): through the first three fields, verified at
the fourth, and widened one field at a time while a verification fails
and the width stays within Riedtmann's degree bound plus one.  A verified
fit of degree over the bound is an OracleError.  The catalog over a field
is built the first time a fit reads that field.  With q = v^2
substituted, all basis-level statements (bar invariance, almost
orthogonality, lattice membership) become exact statements in Q(v).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .cartan import cartan_of, euler_form, gradings_below
from .laurent import LaurentPoly, RationalV, in_lattice
from .modrep import (
    MAX_FIELD_ORDER,
    FitError,
    IsoClassCatalog,
    OracleError,
    check_admission,
    check_search,
    field_of_order,
    prime_power,
    scan_candidates,
    total_dim,
)


# ---------------------------------------------------------------------------
# polynomials in q and Lagrange fitting
# ---------------------------------------------------------------------------

def lagrange_fit(points):
    """The interpolating polynomial in q through {q: value}, as a LaurentPoly.

    The variable of the returned polynomial is q (exponent = q-degree).
    Newton's divided differences run on scalar Fractions, and the Newton
    form is expanded once at the end.
    """
    pts = sorted(points.items())
    xs = [q for q, _ in pts]
    dd = [Fraction(value) for _, value in pts]
    n = len(dd)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    # Horner on the Newton form; coeffs[k] is the coefficient of q^k
    coeffs = dd[-1:]
    for i in range(n - 2, -1, -1):
        shifted = [0] + coeffs
        for k, c in enumerate(coeffs):
            shifted[k] -= xs[i] * c
        shifted[0] += dd[i]
        coeffs = shifted
    return LaurentPoly(dict(enumerate(coeffs)))


def qpoly_eval(p, q):
    return p.subs(Fraction(q))


def qpoly_to_v(p):
    """Substitute q = v^2: double every exponent."""
    return LaurentPoly({2 * e: c for e, c in p.coeffs.items()})


def field_ladder(shape):
    """The field orders a fit of shape may read, ascending, up to MAX_FIELD_ORDER.

    Prime powers, or primes only when some vertex is valued (d_i > 1), since
    a valued vertex needs a prime base field.
    """
    valued = any(shape.d[i] > 1 for i in shape.vertices)
    return tuple(q for q in range(2, MAX_FIELD_ORDER + 1)
                 if prime_power(q) and (prime_power(q)[1] == 1 or not valued))


#: the first fit of a constant reads ladder[:FIRST_WIDTH] and verifies at ladder[FIRST_WIDTH]
FIRST_WIDTH = 3


def fit_and_verify(values, fit_fields, verify_field):
    """Interpolate values[q] over fit_fields and check at verify_field, held out of them."""
    if verify_field in fit_fields:
        raise ValueError("verify field q=%d is one of the fit fields %s"
                         % (verify_field, sorted(fit_fields)))
    pts = {q: values[q] for q in fit_fields}
    poly = lagrange_fit(pts)
    got = qpoly_eval(poly, verify_field)
    want = Fraction(values[verify_field])
    if got != want:
        raise FitError(
            "fit through %s gives %s at q=%d, oracle says %s"
            % (sorted(pts), got, verify_field, want))
    return poly


def fit_on_ladder(ladder, read, bound):
    """Fit every constant of read(q) = {key: value over GF(q)} as a polynomial in q.

    A key absent from read(q) is 0 over GF(q).  Each key is fitted through
    ladder[:w] and verified at ladder[w], from w = FIRST_WIDTH.  A failed
    key widens the fit by one field while w <= bound(key) + 1, and read is
    called once for each field the fits reach.  Raises FitError when a key
    fails at its widest fit and OracleError when a verified fit has degree
    over bound(key).  Returns {key: polynomial in q}, keys in first-read order.
    """
    w = FIRST_WIDTH
    values = {q: read(q) for q in ladder[:w + 1]}
    fits = dict.fromkeys(k for vals in values.values() for k in vals)
    todo = list(fits)
    while todo:
        retry = []
        for key in todo:
            pts = {q: values[q].get(key, 0) for q in ladder[:w + 1]}
            try:
                poly = fit_and_verify(pts, ladder[:w], ladder[w])
            except FitError:
                if w > bound(key) or w + 1 == len(ladder):
                    raise
                retry.append(key)
                continue
            if not poly.is_zero() and poly.degree() > bound(key):
                raise OracleError("fit of %r has degree %d, over its bound %d"
                                  % (key, poly.degree(), bound(key)))
            fits[key] = poly
        if retry:
            w += 1
            values[ladder[w]] = read(ladder[w])
            new = [k for k in values[ladder[w]] if k not in fits]
            fits.update(dict.fromkeys(new))
            retry += new
        todo = retry
    return fits


class HallPolynomial:
    """A verified Hall polynomial phi(q) for a generic triple."""

    __slots__ = ("poly",)

    def __init__(self, poly):
        self.poly = poly

    def __call__(self, q):
        return qpoly_eval(self.poly, q)

    def coefficients(self):
        """Coefficient list by ascending q-degree."""
        if self.poly.is_zero():
            return [Fraction(0)]
        top = self.poly.degree()
        return [self.poly[e] for e in range(top + 1)]

    def __repr__(self):
        return "HallPolynomial(%s)" % (self.poly,)


# ---------------------------------------------------------------------------
# elements and the operations both layers share
# ---------------------------------------------------------------------------

class HallElement:
    """A graded element of a Hall algebra, in the basis keys of alg.

    The keys are class ids over one field (HallContext) or labels
    (GenericHallAlgebra); alg.scalar coerces the coefficients into its ring.
    """

    __slots__ = ("alg", "grading", "coeffs")

    def __init__(self, alg, grading, coeffs):
        self.alg = alg
        scalar = alg.scalar
        self.coeffs = {}
        for key, c in coeffs.items():
            c = scalar(c)
            if not c.is_zero():
                self.coeffs[key] = c
        self.grading = grading if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.grading != other.grading:
            raise ValueError("cannot add elements of different gradings")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out[key] + c if key in out else c
        return HallElement(self.alg, self.grading, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = self.alg.scalar(c)
        return HallElement(self.alg, self.grading, {k: x * c for k, x in self.coeffs.items()})

    def __mul__(self, other):
        """Twisted product: the constants of alg.mult_table times v^<d1, d2>.

        A factor of grading 0 is a multiple c[0] of the unit: [0][M] = [M][0]
        = [M] and v^<0, d> = 1, so the product is the other factor times c
        and reads no table.
        """
        alg = self.alg
        if other.alg is not alg:
            raise ValueError("cannot multiply elements of different Hall algebras")
        if self.is_zero() or other.is_zero():
            return alg.zero_elt()
        for unit, x in ((self, other), (other, self)):
            if not any(unit.grading):
                (c,) = unit.coeffs.values()
                return x.scale(c)
        table = alg.mult_table(self.grading, other.grading)
        target = tuple(a + b for a, b in zip(self.grading, other.grading))
        tw = alg.scalar(LaurentPoly.v_power(euler_form(alg.shape, self.grading, other.grading)))
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                targets = table.get((k1, k2))
                if not targets:
                    continue
                f = c1 * c2 * tw
                for k, c in targets.items():
                    term = f * c
                    out[k] = out[k] + term if k in out else term
        return HallElement(alg, target, out)

    def coefficient(self, key):
        return self.coeffs.get(key, self.alg.scalar(0))

    def __repr__(self):
        if self.is_zero():
            return "HallElement(0)"
        body = "; ".join("%r: %s" % (k, c) for k, c in sorted(self.coeffs.items(),
                                                              key=lambda kv: repr(kv[0])))
        return "HallElement(%s | %s)" % (self.grading, body)


class _HallAlgebra:
    """The operations the per-field and the generic Hall algebra share.

    A subclass provides shape, scalar (coercion into its coefficient ring),
    mult_table(dims1, dims2) = {(k1, k2): {k: constant}} and the hooks
    keys_of_dim(dims), the keys of a slice, and angle_elt(dims, key).
    """

    def zero_elt(self):
        return HallElement(self, None, {})

    def label_elt(self, dims, key, coeff=None):
        return HallElement(self, tuple(dims), {key: 1 if coeff is None else coeff})

    def only_key(self, dims):
        """The key of a slice that holds one class, as 0 and a * e_i do."""
        keys = self.keys_of_dim(dims)
        if len(keys) != 1:
            raise OracleError("slice %s holds %d classes, not one" % (tuple(dims), len(keys)))
        return keys[0]

    def unit(self):
        dims0 = tuple(0 for _ in self.shape.vertices)
        return self.label_elt(dims0, self.only_key(dims0))

    def u(self, vertex):
        """u_i = u_i^(1) = [S_i], since dim_k End S_i = dim_k S_i."""
        return self.divided_u(vertex, 1)

    def divided_u(self, vertex, a):
        """u_i^(a) = <S_i^(+a)> = v_i^(a(a-1)) [S_i^(+a)] (over one field: under v^2 = q)."""
        if a == 0:
            return self.unit()
        dims = tuple(a if i == vertex else 0 for i in self.shape.vertices)
        return self.angle_elt(dims, self.only_key(dims))

    def monomial_elt(self, word):
        """Evaluate a word of divided powers ((vertex, power), ...)."""
        out = self.unit()
        for vertex, a in word:
            out = out * self.divided_u(vertex, a)
        return out

    def serre_sum(self, i, j):
        """sum_p (-1)^p u_i^(p) u_j u_i^(p') over p + p' = 1 - C_ij."""
        datum = cartan_of(self.shape)
        n = 1 - datum.C[datum.pos[i]][datum.pos[j]]
        total = self.zero_elt()
        uj = self.u(j)
        for p in range(n + 1):
            term = self.divided_u(i, p) * uj * self.divided_u(i, n - p)
            if p % 2:
                term = term.scale(-1)
            total = total + term
        return total


# ---------------------------------------------------------------------------
# per-field layer
# ---------------------------------------------------------------------------

class HallContext(_HallAlgebra):
    """The twisted Hall algebra of one catalog over one finite field.

    Its keys are class ids and its coefficients LaurentPolys in a formal v.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self.shape = catalog.shape
        self.F = catalog.F

    @staticmethod
    def scalar(c):
        return c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)

    def keys_of_dim(self, dims):
        return self.catalog.by_dim[tuple(dims)]

    def angle_elt(self, dims, cid):
        """<M> = v^(-dim_k M + dim_k End M) [M]."""
        info = self.catalog.classes[cid]
        return self.label_elt(dims, cid,
                              LaurentPoly.v_power(-total_dim(self.shape, dims) + info.end))

    def mult_table(self, dims1, dims2):
        """{(cid_M, cid_N): {cid_L: g^L_{MN}}} from the scan of the split dims1 + dims2."""
        target = tuple(a + b for a, b in zip(dims1, dims2))
        table = {}
        for l_cid, counts in self.catalog.scan_dim(target, dims2).items():
            for pair, g in counts.items():
                table.setdefault(pair, {})[l_cid] = g
        return table

    def vanishes_at_field(self, x):
        """True iff x is 0 under v = sqrt(q): each coefficient is 0 modulo v^2 - q."""
        q = self.F.q
        return all(c.subs_v_squared(q) == (0, 0) for c in x.coeffs.values())


# ---------------------------------------------------------------------------
# generic layer
# ---------------------------------------------------------------------------

class GenericHallAlgebra(_HallAlgebra):
    """Field-independent Hall algebra of shape up to cap, in label coordinates.

    labeler assigns labels common to all fields.  The catalog over GF(q) is
    built the first time a fit reads q (catalog), by the synthesizer the
    shape decides (modrep.synthesizer_of).  The constructor checks
    the budgets of the fields of a first fit and one widening, so an
    over-budget cap is refused before any catalog is built; a field read
    later checks its own budgets first: BUDGET on the cap, STATE_BUDGET on
    the orbit walk of the cap when the shape is orbit-enumerated
    (modrep.check_admission) and SEARCH_BUDGET on the full scan of the cap,
    which bounds the scan of every split.  Its keys are labels and its
    coefficients RationalVs.
    """

    def __init__(self, shape, cap, labeler, cache_dir=None):
        self.shape = shape
        self.cap = tuple(cap)
        self.labeler = labeler
        self.cache_dir = cache_dir
        self.ladder = field_ladder(shape)
        self.catalogs = {}           # q -> IsoClassCatalog, built on first read
        self._check_budgets(self.ladder[:FIRST_WIDTH + 2])
        self._label_sets = {}        # dims -> sorted labels over the first field read
        self._labels_by_dim = {}     # dims -> sorted labels, once their counts are fitted
        self._label_maps = {}        # (q, dims) -> {cid: label}
        self._label_facts = {}       # label -> dict(end, dim_k, aut) over the first field read
        self._label_data = {}        # label -> dict(end, dim_k, aut, dims, count)
        self._mult_tables = {}       # (dims1, dims2) -> {(l1, l2): {l: LaurentPoly in v}}
        self._coproduct_splits = {}  # (dims1, dims2) -> {l: {(l1, l2): RationalV}}

    def _check_budgets(self, qs):
        for q in qs:
            F = field_of_order(q)
            check_admission(self.shape, F, [self.cap])
            check_search(scan_candidates(self.shape, F, self.cap),
                         "a submodule scan of %s over GF(%d)" % (self.cap, q))

    def catalog(self, q):
        """The catalog over GF(q), built the first time it is read."""
        if q not in self.catalogs:
            self._check_budgets([q])
            self.catalogs[q] = IsoClassCatalog(self.shape, field_of_order(q), [self.cap],
                                               cache_dir=self.cache_dir)
        return self.catalogs[q]

    # -- labels ------------------------------------------------------------

    def labels_of_dim(self, dims):
        """The sorted labels of the slice dims; fits their counts on first use."""
        dims = tuple(dims)
        if dims not in self._labels_by_dim:
            # the mass formula gives deg count(l) <= end l - <dims, dims>
            form = euler_form(self.shape, dims, dims)
            counts = fit_on_ladder(
                self.ladder, lambda q: Counter(self._label_map(q, dims).values()),
                lambda label: self._label_facts[label]["end"] - form)
            for label, count in counts.items():
                self._label_data[label] = dict(self._label_facts[label], dims=dims, count=count)
            self._labels_by_dim[dims] = self._label_sets[dims]
        return self._labels_by_dim[dims]

    def _label_map(self, q, dims):
        """{cid: label} on the slice dims over GF(q), checked the first time it is read.

        Its label set, and each label's End, dim_k and Aut polynomial, must
        be those over the first field read; the Aut polynomial must give
        |Aut| of every realization over GF(q).
        """
        if (q, dims) in self._label_maps:
            return self._label_maps[(q, dims)]
        cat = self.catalog(q)
        mapping = {cid: self.labeler.label_of(cat, cid) for cid in cat.by_dim[dims]}
        labels = sorted(set(mapping.values()))
        base = self._label_sets.setdefault(dims, labels)
        if labels != base:
            raise OracleError("label sets differ between fields at %s: %s vs %s"
                              % (dims, base, labels))
        for label in labels:
            infos = [cat.classes[cid] for cid, l in mapping.items() if l == label]
            facts = {"end": infos[0].end, "dim_k": total_dim(self.shape, infos[0].dims),
                     "aut": self._aut_poly_from(cat, infos[0])}
            if (self._label_facts.setdefault(label, facts) != facts
                    or any(i.end != facts["end"] for i in infos)):
                raise OracleError("label %r has field-dependent End, dim_k or Aut structure"
                                  % (label,))
            if any(qpoly_eval(facts["aut"], q) != i.aut for i in infos):
                raise OracleError("Aut polynomial of %r fails at q=%d" % (label, q))
        self._label_maps[(q, dims)] = mapping
        return mapping

    def _aut_poly_from(self, cat, info):
        """|Aut| as a polynomial in q, from the decomposition structure."""
        poly = LaurentPoly.one()
        sq_sum = 0
        for icid, m in info.decomposition:
            r = cat.classes[icid].res
            for j in range(m):
                poly = poly * (LaurentPoly({r * m: 1}) - LaurentPoly({r * j: 1}))
            sq_sum += m * m * r
        return poly * LaurentPoly({info.end - sq_sum: 1})

    def label_data(self, label):
        return self._label_data[label]

    # -- structure constants -------------------------------------------------

    def mult_table(self, dims1, dims2):
        """Generic structure constants for the product of two graded slices.

        The entry of (l1, l2) at l sums g^L_{MN} over the realizations M of
        l1 and N of l2, for one realization L of l.  Riedtmann's formula
        g^L_{MN} = |Ext^1(M,N)_L| |Aut L| / (|Aut M| |Aut N| |Hom(M,N)|)
        bounds its degree by end l - <dims1, dims2> - end l1 - end l2 plus
        the degrees of the counts of l1 and l2.
        """
        key = (tuple(dims1), tuple(dims2))
        if key in self._mult_tables:
            return self._mult_tables[key]
        dims1, dims2 = key
        target = tuple(a + b for a, b in zip(dims1, dims2))
        for dims in (dims1, dims2, target):
            self.labels_of_dim(dims)
        form = euler_form(self.shape, dims1, dims2)
        data = self._label_data

        def bound(labels):
            l1, l2, tl = labels
            return (data[tl]["end"] - form - data[l1]["end"] - data[l2]["end"]
                    + data[l1]["count"].degree() + data[l2]["count"].degree())

        table = {}
        fits = fit_on_ladder(self.ladder, lambda q: self._label_counts(q, dims1, dims2, target),
                             bound)
        for (l1, l2, tl), poly in fits.items():
            table.setdefault((l1, l2), {})[tl] = qpoly_to_v(poly)
        self._mult_tables[key] = table
        return table

    def _label_counts(self, q, dims1, dims2, target):
        """The entries of mult_table(dims1, dims2) over GF(q), as {(l1, l2, l): count}.

        Every realization L of l must give the same counts.
        """
        scan = self.catalog(q).scan_dim(target, dims2)
        lmap_t = self._label_map(q, target)
        lmap_1 = self._label_map(q, dims1)
        lmap_2 = self._label_map(q, dims2)
        per_label = {}
        for l_cid, counts in scan.items():
            bucket = {}
            for (m_cid, n_cid), g in counts.items():
                k = (lmap_1[m_cid], lmap_2[n_cid])
                bucket[k] = bucket.get(k, 0) + g
            if per_label.setdefault(lmap_t[l_cid], bucket) != bucket:
                raise OracleError("structure constants differ between realizations of %r"
                                  % (lmap_t[l_cid],))
        return {(l1, l2, tl): g for tl, bucket in per_label.items()
                for (l1, l2), g in bucket.items()}

    def coproduct_split(self, dims1, dims2):
        """The (dims1, dims2) part of the Green coproduct, as
        {l: {(l1, l2): RationalV}} over the labels l of dims1 + dims2.

        A split with a zero part follows the unit rule and reads no table:
        L has one submodule of dimension 0 and one of dimension dim L, so
        r([l]) holds [l] (x) [0] and [0] (x) [l], each with coefficient 1.
        """
        key = (tuple(dims1), tuple(dims2))
        if key in self._coproduct_splits:
            return self._coproduct_splits[key]
        dims1, dims2 = key
        if not (any(dims1) and any(dims2)):
            zero = self.only_key(tuple(0 for _ in self.shape.vertices))
            target = tuple(a + b for a, b in zip(dims1, dims2))
            out = {l: {(l, zero) if any(dims1) else (zero, l): RationalV(1)}
                   for l in self.labels_of_dim(target)}
            self._coproduct_splits[key] = out
            return out
        table = self.mult_table(*key)
        tw = euler_form(self.shape, *key)
        data = self._label_data
        out = {}
        for (l1, l2), targets in table.items():
            for label, c in targets.items():
                if c.is_zero():
                    continue
                # the table entry c sums g^L_{MN} over realization pairs
                # for one fixed L; the coefficient of [l1] (x) [l2] in
                # r([l]) instead needs, for one fixed pair, the sum of
                # g^L over realizations of L.  Double counting the total
                # sum over all realizations converts one into the other:
                # per-pair L-sum = c * count_l / (count_1 count_2).
                num = (c * qpoly_to_v(data[l1]["aut"]) * qpoly_to_v(data[l2]["aut"])
                       * qpoly_to_v(data[label]["count"]) * LaurentPoly.v_power(tw))
                den = (qpoly_to_v(data[label]["aut"]) * qpoly_to_v(data[l1]["count"])
                       * qpoly_to_v(data[l2]["count"]))
                out.setdefault(label, {})[(l1, l2)] = RationalV(num, den)
        self._coproduct_splits[key] = out
        return out

    # -- elements --------------------------------------------------------

    @staticmethod
    def scalar(c):
        return c if isinstance(c, RationalV) else RationalV(c)

    def keys_of_dim(self, dims):
        return self.labels_of_dim(dims)

    def label_elt(self, dims, label, coeff=None):
        self.labels_of_dim(dims)
        return super().label_elt(dims, label, coeff)

    def angle_elt(self, dims, label):
        self.labels_of_dim(dims)
        data = self.label_data(label)
        return self.label_elt(dims, label, LaurentPoly.v_power(-data["dim_k"] + data["end"]))

    def inner(self, x, y):
        """Symbolic bilinear form; zero between different gradings."""
        if x.is_zero() or y.is_zero() or x.grading != y.grading:
            return RationalV(0)
        total = RationalV(0)
        for label, cx in x.coeffs.items():
            cy = y.coeffs.get(label)
            if cy is None:
                continue
            data = self.label_data(label)
            w = RationalV(qpoly_to_v(data["count"]) *
                          LaurentPoly.v_power(2 * data["dim_k"]),
                          qpoly_to_v(data["aut"]))
            total = total + cx * cy * w
        return total

    def derive_left(self, vertex, x):
        """The u_i (x) (-) component of the Green coproduct.

        The slice e_i has the one label [S_i], so the split (e_i, rest)
        holds exactly this component.
        """
        if x.is_zero():
            return self.zero_elt()
        e_i = tuple(1 if i == vertex else 0 for i in self.shape.vertices)
        rest = tuple(a - b for a, b in zip(x.grading, e_i))
        if any(c < 0 for c in rest):
            return self.zero_elt()
        table = self.coproduct_split(e_i, rest)
        out = {}
        for label, cx in x.coeffs.items():
            for (_, l2), val in table.get(label, {}).items():
                out[l2] = out.get(l2, RationalV(0)) + cx * val
        return HallElement(self, rest, out)

    def coproduct(self, x):
        """Full Green coproduct as {(label1, label2): RationalV}, summed over the splits."""
        out = {}
        splits = [self.coproduct_split(d1, tuple(a - b for a, b in zip(x.grading, d1)))
                  for d1 in gradings_below(x.grading)]
        for label, cx in x.coeffs.items():
            for table in splits:
                for pair, val in table.get(label, {}).items():
                    out[pair] = out.get(pair, RationalV(0)) + cx * val
        return {k: v for k, v in out.items() if not v.is_zero()}

    # -- Hall polynomial fitting -----------------------------------------

    def fit_hall_polynomial(self, l_label, m_label, n_label, dims_m, dims_n, primes, verify):
        """Fit the mult_table(dims_m, dims_n) entry of (m_label, n_label) at
        l_label through its values over primes and verify it at verify.

        It sums g^L_{MN} over the realizations M and N for one realization
        L, so for labels with one realization per field it is g^L_{MN}.
        Every field's budget is checked before the first new catalog is built.
        """
        dims_m, dims_n = tuple(dims_m), tuple(dims_n)
        dims_l = tuple(a + b for a, b in zip(dims_m, dims_n))
        fields = sorted(set(primes) | {verify})
        self._check_budgets(fields)
        for dims in (dims_m, dims_n, dims_l):
            self.labels_of_dim(dims)
        values = {q: self._label_counts(q, dims_m, dims_n, dims_l).get(
            (m_label, n_label, l_label), 0) for q in fields}
        return HallPolynomial(fit_and_verify(values, primes, verify))


# ---------------------------------------------------------------------------
# shared unitriangular bar machinery
# ---------------------------------------------------------------------------

def linear_extension(items, key, less):
    """A deterministic linear extension of the strict partial order less.

    Items are swept in key order, repeatedly; an item is placed once every
    item strictly below it has been placed.
    """
    items = sorted(items, key=key)
    out = []
    placed = set()
    while len(out) < len(items):
        progressed = False
        for a in items:
            if a in placed:
                continue
            if all(b in placed or not less(b, a) for b in items):
                out.append(a)
                placed.add(a)
                progressed = True
        if not progressed:
            raise OracleError("order has a cycle; not a partial order")
    return out


def expand_in(coords, basis):
    """sum of c * basis[k] over coords, with zero coordinates dropped."""
    out = {}
    for k, c in coords.items():
        for j, v in basis[k].items():
            out[j] = out.get(j, RationalV(0)) + c * v
    return {j: v for j, v in out.items() if not v.is_zero()}


def eliminate(coords, steps, basis):
    """Reduce coords by the vectors basis[k], k taken in the order of steps.

    At each step the current coefficient c of k (if nonzero) is removed by
    subtracting c * basis[k].  Returns (residual, used) with
    coords = residual + sum of used[k] * basis[k].
    """
    residual = dict(coords)
    used = {}
    for k in steps:
        c = residual.get(k)
        if not c:
            continue
        for j, v in basis[k].items():
            residual[j] = residual.get(j, RationalV(0)) - c * v
            if residual[j].is_zero():
                del residual[j]
        used[k] = c
    return residual, used


def triangular_bases(order, monomials, less):
    """The triangular basis E and the bar-invariant basis C of one slice.

    order lists the slice's aperiodic indices along a linear extension of
    the strict order less; monomials[a] holds the coordinates of the
    bar-invariant monomial of a in an ambient basis, which must be 1 at a
    and otherwise supported strictly below a.  E(a) is the monomial with
    the aperiodic lower terms eliminated.  Returns (E, mono_E, bar_E, C):
    E in ambient coordinates; the monomials, bar(E) and C in E-coordinates.
    """
    aperiodic = set(order)
    E = {}
    mono_E = {}
    for n, a in enumerate(order):
        coords = monomials[a]
        if coords.get(a) != RationalV(1):
            raise OracleError("monomial of %s is not unitriangular" % (a,))
        for b in coords:
            if b != a and not less(b, a):
                raise OracleError("monomial of %s supports %s, which is not below it"
                                  % (a, b))
        residual, used = eliminate(coords, reversed(order[:n]), E)
        for b in residual:
            if b != a and b in aperiodic:
                raise OracleError("elimination left aperiodic residue %s below %s"
                                  % (b, a))
        E[a] = residual
        mono_E[a] = {a: RationalV(1), **used}
    bar_E = bar_matrix_from_monomials(order, mono_E)
    C = {a: bar_invariant_solve(a, order, bar_E) for a in order}
    return E, mono_E, bar_E, C


def bar_matrix_from_monomials(order, mono_coords):
    """E-coordinates of bar(E(a)) from bar-invariant monomials.

    order: indices ascending along the partial order; mono_coords[a] is the
    E-coordinate dict of the monomial of a (unitriangular, diagonal 1).
    Since monomials are fixed by bar, bar(E(a)) = m(a) - sum over a' < a of
    bar(phi_a') bar(E(a')).
    """
    bar_E = {}
    for a in order:
        coords = mono_coords[a]
        out = dict(coords)
        for prev, c in coords.items():
            if prev == a:
                continue
            if not c.is_polynomial():
                raise OracleError("monomial coefficient at %r is not in A'" % (prev,))
            cb = c.bar()
            for k, v in bar_E[prev].items():
                out[k] = out.get(k, RationalV(0)) - cb * v
        out = {k: v for k, v in out.items() if not v.is_zero()}
        if out.get(a) != RationalV(1):
            raise OracleError("bar matrix is not unitriangular at %r" % (a,))
        bar_E[a] = out
    return bar_E


def apply_bar(coords, bar_E):
    """bar of an element given in E-coordinates, again in E-coordinates."""
    return expand_in({a: c.bar() for a, c in coords.items()}, bar_E)


def bar_invariant_solve(a, order, bar_E):
    """The unique bar-invariant E(a) + sum of g E(a'), g in v^-1 Q[v^-1].

    Standard unitriangular recursion: each defect coefficient c satisfies
    bar(c) = -c with no constant term, and the correction g with
    g - bar(g) = c is the strictly negative part of c.
    """
    pos = {k: n for n, k in enumerate(order)}
    coords = {a: RationalV(1)}
    while True:
        diff = apply_bar(coords, bar_E)
        for k, v in coords.items():
            diff[k] = diff.get(k, RationalV(0)) - v
        diff = {k: v for k, v in diff.items() if not v.is_zero()}
        if not diff:
            break
        top = max(diff, key=lambda k: pos[k])
        c = diff[top]
        if not c.is_polynomial():
            raise OracleError("bar defect at %r is not a Laurent polynomial" % (top,))
        cp = c.as_poly()
        if cp.bar() != -cp or cp[0] != 0:
            raise OracleError("bar defect at %r is not antisymmetric" % (top,))
        g = LaurentPoly({e: co for e, co in cp.coeffs.items() if e < 0})
        coords[top] = coords.get(top, RationalV(0)) + RationalV(g)
    for k, v in coords.items():
        if k == a:
            continue
        if not (v.is_polynomial() and in_lattice(v, strict=True)):
            raise OracleError("canonical coefficient at %r is not in v^-1 Q[v^-1]" % (k,))
    return coords
