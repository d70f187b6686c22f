"""Twisted Ringel-Hall algebras: per-field layer and the generic layer.

Per-field elements keep v as a formal symbol while Hall numbers are the
field's integers; identities that depend on v_k = sqrt(q) (quantum Serre,
divided-power arithmetic) are checked exactly by reduction modulo v^2 - q.

The generic layer works in field-independent coordinates: isomorphism
classes are grouped into labels (decomposition types; homogeneous regular
points are recorded only by degree and partition), and every structure
constant is a polynomial in q obtained by Lagrange interpolation through
several finite fields and verified on a held-out field before use.  With
q = v^2 substituted, all basis-level statements (bar invariance, almost
orthogonality, lattice membership) become exact statements in Q(v).
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import euler_form, gradings_below
from .laurent import LaurentPoly, RationalV
from .modrep import (
    DEFAULT_BUDGET,
    IsoClassCatalog,
    OracleError,
    check_budget,
    direct_sum,
    field_of_order,
    simple_module,
)


# ---------------------------------------------------------------------------
# polynomials in q and Lagrange fitting
# ---------------------------------------------------------------------------

def lagrange_fit(points):
    """The interpolating polynomial in q through {q: value}, as a LaurentPoly.

    The variable of the returned polynomial is q (exponent = q-degree).
    """
    pts = sorted(points.items())
    result = LaurentPoly.zero()
    for qi, vi in pts:
        num = LaurentPoly.const(vi)
        den = Fraction(1)
        for qj, _ in pts:
            if qj == qi:
                continue
            num = num * (LaurentPoly({1: 1}) - LaurentPoly.const(qj))
            den *= Fraction(qi - qj)
        result = result + num * LaurentPoly.const(Fraction(1) / den)
    return result


def qpoly_eval(p, q):
    return p.subs(Fraction(q))


def qpoly_to_v(p):
    """Substitute q = v^2: double every exponent."""
    return LaurentPoly({2 * e: c for e, c in p.coeffs.items()})


def field_orders(fit_fields, verify_field, escalation=None):
    """Sorted orders q of every field a fit may read: fit, verify, escalation."""
    qs = set(fit_fields) | {verify_field}
    if escalation:
        qs |= set(escalation[0]) | {escalation[1]}
    return tuple(sorted(qs))


class FitError(OracleError):
    """A fitted polynomial failed its held-out verification."""


def fit_and_verify(values, fit_fields, verify_field):
    """Interpolate values[q] over fit_fields and check at verify_field."""
    pts = {q: values[q] for q in fit_fields}
    poly = lagrange_fit(pts)
    got = qpoly_eval(poly, verify_field)
    want = Fraction(values[verify_field])
    if got != want:
        raise FitError(
            "fit through %s gives %s at q=%d, oracle says %s"
            % (sorted(pts), got, verify_field, want))
    return poly


class HallPolynomial:
    """A verified Hall polynomial phi(q) for a generic triple."""

    __slots__ = ("poly", "triple", "fit_fields", "verify_field")

    def __init__(self, poly, triple, fit_fields, verify_field):
        self.poly = poly
        self.triple = triple
        self.fit_fields = tuple(fit_fields)
        self.verify_field = verify_field

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
# per-field layer
# ---------------------------------------------------------------------------

class HallContext:
    """The twisted Hall algebra of one catalog over one finite field."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.shape = catalog.shape
        self.F = catalog.F

    def zero_elt(self):
        return HallElement(self, None, {})

    def unit(self):
        zero_cid = self.catalog.by_dim[tuple(0 for _ in self.shape.vertices)][0]
        return HallElement(self, self.catalog.classes[zero_cid].dims,
                           {zero_cid: LaurentPoly.one()})

    def basis_elt(self, cid, coeff=None):
        info = self.catalog.classes[cid]
        return HallElement(self, info.dims,
                           {cid: coeff if coeff is not None else LaurentPoly.one()})

    def angle(self, cid):
        """<M> = v^(-dim_k M + dim_k End M) [M]."""
        info = self.catalog.classes[cid]
        dim_k = info.module.dim_k()
        return self.basis_elt(cid, LaurentPoly.v_power(-dim_k + info.end))

    def u(self, vertex):
        s = simple_module(self.shape, self.F, vertex)
        return self.basis_elt(self.catalog.classify(s))

    def divided_u(self, vertex, a):
        """u_i^(a) = <S_i^a> (valid under v^2 = q)."""
        if a == 0:
            return self.unit()
        M = direct_sum(*[simple_module(self.shape, self.F, vertex)] * a)
        return self.angle(self.catalog.classify(M))

    def coproduct(self, x):
        """Green's coproduct r([L]) with a_M a_N / a_L factors.

        Returns {(cid_M, cid_N): LaurentPoly}; rational scalars appear as
        Fraction coefficients.
        """
        out = {}
        for cid, coeff in x.coeffs.items():
            info = self.catalog.classes[cid]
            scan = self.catalog.scan_dim(info.dims)[cid]
            aL = info.aut
            for (m_cid, n_cid), g in scan.items():
                m_info = self.catalog.classes[m_cid]
                n_info = self.catalog.classes[n_cid]
                tw = euler_form(self.shape, m_info.dims, n_info.dims)
                factor = Fraction(g * m_info.aut * n_info.aut, aL)
                term = coeff * LaurentPoly.v_power(tw, factor)
                key = (m_cid, n_cid)
                out[key] = out.get(key, LaurentPoly.zero()) + term
        return {k: p for k, p in out.items() if not p.is_zero()}

    def inner(self, x, y):
        """Per-field numeric inner product: (<M>,<N>) = d_MN v^(2 end)/a_M.

        Exact cross-check value; the generic layer computes the symbolic one.
        """
        total = RationalV(0)
        for cid, cx in x.coeffs.items():
            cy = y.coeffs.get(cid)
            if cy is None:
                continue
            info = self.catalog.classes[cid]
            dim_k = info.module.dim_k()
            # ([M],[M]) = v^(2 dim_k M) / a_M
            w = RationalV(LaurentPoly.v_power(2 * dim_k, Fraction(1, info.aut)))
            total = total + RationalV(cx * cy) * w
        return total

    def serre_sum(self, i, j):
        """sum_p (-1)^p u_i^(p) u_j u_i^(p') over p + p' = 1 - C_ij."""
        from .cartan import cartan_of
        datum = cartan_of(self.shape)
        n = 1 - datum.C[datum.pos[i]][datum.pos[j]]
        total = self.zero_elt()
        uj = self.u(j)
        for p in range(n + 1):
            term = self.divided_u(i, p) * uj * self.divided_u(i, n - p)
            if p % 2:
                term = term.scale(LaurentPoly.const(-1))
            total = total + term
        return total


class HallElement:
    """A graded element of a per-field Hall algebra in iso-class coordinates."""

    __slots__ = ("ctx", "grading", "coeffs")

    def __init__(self, ctx, grading, coeffs):
        self.ctx = ctx
        self.coeffs = {cid: c for cid, c in coeffs.items() if not c.is_zero()}
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
        for cid, c in other.coeffs.items():
            out[cid] = out.get(cid, LaurentPoly.zero()) + c
        return HallElement(self.ctx, self.grading, out)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.const(-1))

    def scale(self, poly):
        return HallElement(self.ctx, self.grading,
                           {cid: c * poly for cid, c in self.coeffs.items()})

    def __mul__(self, other):
        """Twisted product via the catalog's submodule scans."""
        if self.is_zero() or other.is_zero():
            return self.ctx.zero_elt()
        if self.ctx is not other.ctx:
            raise ValueError("context mismatch in Hall product")
        ctx = self.ctx
        cat = ctx.catalog
        target = tuple(a + b for a, b in zip(self.grading, other.grading))
        tw = LaurentPoly.v_power(euler_form(ctx.shape, self.grading, other.grading))
        scan = cat.scan_dim(target)
        out = {}
        for l_cid in cat.by_dim[target]:
            counts = scan[l_cid]
            acc = LaurentPoly.zero()
            for m_cid, cm in self.coeffs.items():
                for n_cid, cn in other.coeffs.items():
                    g = counts.get((m_cid, n_cid))
                    if g:
                        acc = acc + cm * cn * LaurentPoly.const(g)
            if not acc.is_zero():
                out[l_cid] = acc * tw
        return HallElement(ctx, target, out)

    def reduce_mod_field(self):
        """Coefficients reduced modulo v^2 - q, as (c0, c1) pairs."""
        q = self.ctx.F.q
        return {cid: c.subs_v_squared(q) for cid, c in self.coeffs.items()}

    def vanishes_at_field(self):
        """True iff the element is 0 under the identification v = sqrt(q)."""
        return all(pair == (0, 0) for pair in self.reduce_mod_field().values())

    def __repr__(self):
        if self.is_zero():
            return "HallElement(0)"
        body = ", ".join("[%d]: %s" % (cid, c) for cid, c in sorted(self.coeffs.items()))
        return "HallElement(%s | %s)" % (self.grading, body)


# ---------------------------------------------------------------------------
# generic layer
# ---------------------------------------------------------------------------

class GenericHallAlgebra:
    """Field-independent Hall algebra in label coordinates.

    catalogs: {q: IsoClassCatalog} covering the same dimension vectors over
    the fit fields and the verify field; labeler assigns the common labels.
    """

    def __init__(self, shape, catalogs, labeler, fit_fields, verify_field,
                 escalation=None):
        self.shape = shape
        self.catalogs = catalogs
        self.labeler = labeler
        self.fit_fields = tuple(fit_fields)
        self.verify_field = verify_field
        self.escalation = escalation  # optional (fit_fields, verify_field)
        self.all_fields = field_orders(fit_fields, verify_field, escalation)
        self._labels_by_dim = {}     # dims -> sorted list of labels
        self._label_maps = {}        # (q, dims) -> {cid: label}
        self._label_data = {}        # label -> dict(end, dim_k, count_poly, aut_poly)
        self._mult_tables = {}       # (dims1, dims2) -> {(l1, l2): {l: LaurentPoly in v}}
        self._coproduct_tables = {}  # dims -> {l: {(l1, l2): RationalV}}

    # -- labels ------------------------------------------------------------

    def labels_of_dim(self, dims):
        dims = tuple(dims)
        if dims in self._labels_by_dim:
            return self._labels_by_dim[dims]
        per_field = {}
        for q in self.all_fields:
            cat = self.catalogs[q]
            mapping = {}
            for cid in cat.by_dim[dims]:
                mapping[cid] = self.labeler.label_of(cat, cid)
            self._label_maps[(q, dims)] = mapping
            per_field[q] = sorted(set(mapping.values()))
        base = per_field[self.all_fields[0]]
        for q, labels in per_field.items():
            if labels != base:
                raise OracleError(
                    "label sets differ between fields at %s: %s vs %s"
                    % (dims, base, labels))
        self._labels_by_dim[dims] = base
        for label in base:
            self._ensure_label_data(label, dims)
        return base

    def realizations(self, q, dims, label):
        self.labels_of_dim(dims)
        mapping = self._label_maps[(q, tuple(dims))]
        return [cid for cid, l in mapping.items() if l == label]

    def _ensure_label_data(self, label, dims):
        if label in self._label_data:
            return
        ends = set()
        dim_ks = set()
        counts = {}
        aut_polys = set()
        for q in self.all_fields:
            cat = self.catalogs[q]
            reals = self.realizations(q, dims, label)
            if not reals:
                raise OracleError("label %r has no realization over q=%d" % (label, q))
            counts[q] = len(reals)
            for cid in reals:
                info = cat.classes[cid]
                ends.add(info.end)
                dim_ks.add(info.module.dim_k())
            aut_polys.add(self._aut_poly_from(cat, reals[0]))
        if len(ends) != 1 or len(dim_ks) != 1:
            raise OracleError("label %r has field-dependent End or dim_k" % (label,))
        if len(aut_polys) != 1:
            raise OracleError("label %r has field-dependent Aut structure" % (label,))
        count_poly = fit_and_verify(counts, self.fit_fields, self.verify_field)
        aut_poly = aut_polys.pop()
        # exact check of the closed-form automorphism polynomial everywhere
        for q in self.all_fields:
            cat = self.catalogs[q]
            for cid in self.realizations(q, dims, label):
                if qpoly_eval(aut_poly, q) != cat.classes[cid].aut:
                    raise OracleError("Aut polynomial of %r fails at q=%d" % (label, q))
        self._label_data[label] = {
            "end": ends.pop(),
            "dim_k": dim_ks.pop(),
            "dims": tuple(dims),
            "count": count_poly,
            "aut": aut_poly,
        }

    def _aut_poly_from(self, cat, cid):
        """|Aut| as a polynomial in q, from the decomposition structure."""
        info = cat.classes[cid]
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
        """Generic structure constants for the product of two graded slices."""
        key = (tuple(dims1), tuple(dims2))
        if key in self._mult_tables:
            return self._mult_tables[key]
        dims1, dims2 = key
        target = tuple(a + b for a, b in zip(dims1, dims2))
        self.labels_of_dim(dims1)
        self.labels_of_dim(dims2)
        self.labels_of_dim(target)
        values = {}  # (l1, l2, l) -> {q: count}
        for q in self.all_fields:
            cat = self.catalogs[q]
            scan = cat.scan_dim(target)
            lmap_t = self._label_maps[(q, target)]
            lmap_1 = self._label_maps[(q, dims1)]
            lmap_2 = self._label_maps[(q, dims2)]
            per_label = {}
            for l_cid, counts in scan.items():
                bucket = {}
                for (m_cid, n_cid), g in counts.items():
                    m_label = lmap_1.get(m_cid)
                    n_label = lmap_2.get(n_cid)
                    if m_label is None or n_label is None:
                        continue
                    k = (m_label, n_label)
                    bucket[k] = bucket.get(k, 0) + g
                target_label = lmap_t[l_cid]
                if target_label in per_label:
                    if per_label[target_label] != bucket:
                        raise OracleError(
                            "structure constants differ between realizations of %r"
                            % (target_label,))
                else:
                    per_label[target_label] = bucket
            for tl, bucket in per_label.items():
                for (l1, l2), g in bucket.items():
                    values.setdefault((l1, l2, tl), {})[q] = g
        table = {}
        for (l1, l2, tl), vals in values.items():
            for q in self.all_fields:
                vals.setdefault(q, 0)
            poly = self._fit_constant(vals)
            table.setdefault((l1, l2), {})[tl] = qpoly_to_v(poly)
        self._mult_tables[key] = table
        return table

    def _fit_constant(self, vals):
        try:
            return fit_and_verify(vals, self.fit_fields, self.verify_field)
        except FitError:
            if not self.escalation:
                raise
            big_fit, big_verify = self.escalation
            return fit_and_verify(vals, big_fit, big_verify)

    def coproduct_table(self, dims):
        """Green coproduct on the slice, label coordinates, RationalV entries."""
        dims = tuple(dims)
        if dims in self._coproduct_tables:
            return self._coproduct_tables[dims]
        self.labels_of_dim(dims)
        out = {}
        for label in self._labels_by_dim[dims]:
            aL = qpoly_to_v(self._label_data[label]["aut"])
            cntL = qpoly_to_v(self._label_data[label]["count"])
            terms = {}
            # every split of the grading contributes its own mult table
            for split1 in gradings_below(dims):
                split2 = tuple(a - b for a, b in zip(dims, split1))
                table = self.mult_table(split1, split2)
                tw = euler_form(self.shape, split1, split2)
                for (l1, l2), targets in table.items():
                    c = targets.get(label)
                    if c is None or c.is_zero():
                        continue
                    a1 = qpoly_to_v(self._label_data[l1]["aut"])
                    a2 = qpoly_to_v(self._label_data[l2]["aut"])
                    cnt1 = qpoly_to_v(self._label_data[l1]["count"])
                    cnt2 = qpoly_to_v(self._label_data[l2]["count"])
                    # the table entry c sums g^L_{MN} over realization pairs
                    # for one fixed L; the coefficient of [l1] (x) [l2] in
                    # r([l]) instead needs, for one fixed pair, the sum of
                    # g^L over realizations of L.  Double counting the total
                    # sum over all realizations converts one into the other:
                    # per-pair L-sum = c * count_l / (count_1 count_2).
                    num = c * a1 * a2 * cntL * LaurentPoly.v_power(tw)
                    val = RationalV(num, aL * cnt1 * cnt2)
                    terms[(l1, l2)] = val
            out[label] = terms
        self._coproduct_tables[dims] = out
        return out

    # -- elements --------------------------------------------------------

    def zero_elt(self):
        return LabelElement(self, None, {})

    def unit(self):
        dims0 = tuple(0 for _ in self.shape.vertices)
        label0 = self.labels_of_dim(dims0)[0]
        return LabelElement(self, dims0, {label0: RationalV(1)})

    def label_elt(self, dims, label, coeff=None):
        self.labels_of_dim(dims)
        return LabelElement(self, tuple(dims),
                            {label: coeff if coeff is not None else RationalV(1)})

    def angle_elt(self, dims, label):
        self.labels_of_dim(dims)
        data = self.label_data(label)
        return self.label_elt(dims, label,
                              RationalV(LaurentPoly.v_power(-data["dim_k"] + data["end"])))

    def label_of_module(self, module):
        q = module.F.q
        cat = self.catalogs[q]
        cid = cat.classify(module)
        self.labels_of_dim(module.dims)
        return self._label_maps[(q, module.dims)][cid]

    def u(self, vertex):
        dims = tuple(1 if i == vertex else 0 for i in self.shape.vertices)
        q = self.all_fields[0]
        s = simple_module(self.shape, self.catalogs[q].F, vertex)
        return self.label_elt(dims, self.label_of_module(s))

    def divided_u(self, vertex, a):
        """u_i^(a) = <S_i^(+a)> = v_i^(a(a-1)) [S_i^(+a)]."""
        if a == 0:
            return self.unit()
        F = self.catalogs[self.all_fields[0]].F
        M = direct_sum(*[simple_module(self.shape, F, vertex)] * a)
        return self.angle_elt(M.dims, self.label_of_module(M))

    def monomial_elt(self, word):
        """Evaluate a word of divided powers ((vertex, power), ...)."""
        out = self.unit()
        for vertex, a in word:
            out = out * self.divided_u(vertex, a)
        return out

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
        """The u_i (x) (-) component of the Green coproduct."""
        return self._derive(vertex, x, left=True)

    def derive_right(self, vertex, x):
        return self._derive(vertex, x, left=False)

    def _derive(self, vertex, x, left):
        if x.is_zero():
            return self.zero_elt()
        e_i = tuple(1 if i == vertex else 0 for i in self.shape.vertices)
        rest = tuple(a - b for a, b in zip(x.grading, e_i))
        if any(c < 0 for c in rest):
            return self.zero_elt()
        q0 = self.all_fields[0]
        s_label = self.label_of_module(simple_module(self.shape, self.catalogs[q0].F, vertex))
        table = self.coproduct_table(x.grading)
        out = {}
        for label, cx in x.coeffs.items():
            for (l1, l2), val in table[label].items():
                if left and l1 == s_label and self._label_data[l2]["dims"] == rest:
                    out[l2] = out.get(l2, RationalV(0)) + cx * val
                if not left and l2 == s_label and self._label_data[l1]["dims"] == rest:
                    out[l1] = out.get(l1, RationalV(0)) + cx * val
        return LabelElement(self, rest, out)

    def coproduct(self, x):
        """Full Green coproduct as {(label1, label2): RationalV}."""
        out = {}
        table = self.coproduct_table(x.grading)
        for label, cx in x.coeffs.items():
            for pair, val in table[label].items():
                out[pair] = out.get(pair, RationalV(0)) + cx * val
        return {k: v for k, v in out.items() if not v.is_zero()}

    def serre_sum(self, i, j):
        from .cartan import cartan_of
        datum = cartan_of(self.shape)
        n = 1 - datum.C[datum.pos[i]][datum.pos[j]]
        total = self.zero_elt()
        uj = self.u(j)
        for p in range(n + 1):
            term = self.divided_u(i, p) * uj * self.divided_u(i, n - p)
            if p % 2:
                term = term.scale(RationalV(-1))
            total = total + term
        return total

    # -- Hall polynomial fitting -----------------------------------------

    def fit_hall_polynomial(self, l_label, m_label, n_label, dims_m, dims_n,
                            primes=None, verify=None):
        """Fit g^L_{MN} through oracle counts and verify on a held-out field.

        Realizations are the canonical (lowest class id) ones per field.
        """
        primes = tuple(primes) if primes else self.fit_fields
        verify = verify if verify is not None else self.verify_field
        dims_l = tuple(a + b for a, b in zip(dims_m, dims_n))
        values = {}
        for q in sorted(set(primes) | {verify}):
            cat = self.catalogs[q]
            l_cid = min(self.realizations(q, dims_l, l_label))
            m_cid = min(self.realizations(q, dims_m, m_label))
            n_cid = min(self.realizations(q, dims_n, n_label))
            values[q] = cat.hall_number(l_cid, m_cid, n_cid)
        poly = fit_and_verify(values, primes, verify)
        return HallPolynomial(poly, (l_label, m_label, n_label), primes, verify)


def generic_hall_algebra(shape, cap, labeler, fit_fields, verify_field, escalation=None,
                         synthesizer=None, budget=DEFAULT_BUDGET, cache_dir=None):
    """One catalog of shape up to cap per field a fit may read, and their generic algebra.

    Every field's budget is checked before the first catalog is built, so an
    over-budget cap is refused up front, not after the smaller fields ran.
    """
    cap = tuple(cap)
    fields = [field_of_order(q) for q in field_orders(fit_fields, verify_field, escalation)]
    for F in fields:
        check_budget(shape, F, cap, budget)
    catalogs = {F.q: IsoClassCatalog(shape, F, [cap], synthesizer=synthesizer, budget=budget,
                                     cache_dir=cache_dir)
                for F in fields}
    return GenericHallAlgebra(shape, catalogs, labeler, fit_fields, verify_field,
                              escalation=escalation)


class LabelElement:
    """A graded element of the generic Hall algebra in label coordinates."""

    __slots__ = ("alg", "grading", "coeffs")

    def __init__(self, alg, grading, coeffs):
        self.alg = alg
        self.coeffs = {}
        for label, c in coeffs.items():
            if not isinstance(c, RationalV):
                c = RationalV(c)
            if not c.is_zero():
                self.coeffs[label] = c
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
        for label, c in other.coeffs.items():
            out[label] = out.get(label, RationalV(0)) + c
        return LabelElement(self.alg, self.grading, out)

    def __sub__(self, other):
        return self + other.scale(RationalV(-1))

    def scale(self, c):
        if not isinstance(c, RationalV):
            c = RationalV(c)
        return LabelElement(self.alg, self.grading,
                            {l: x * c for l, x in self.coeffs.items()})

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return self.alg.zero_elt()
        alg = self.alg
        table = alg.mult_table(self.grading, other.grading)
        target = tuple(a + b for a, b in zip(self.grading, other.grading))
        tw = RationalV(LaurentPoly.v_power(euler_form(alg.shape, self.grading, other.grading)))
        out = {}
        for l1, c1 in self.coeffs.items():
            for l2, c2 in other.coeffs.items():
                targets = table.get((l1, l2))
                if not targets:
                    continue
                f = c1 * c2 * tw
                for tl, cpoly in targets.items():
                    out[tl] = out.get(tl, RationalV(0)) + f * RationalV(cpoly)
        return LabelElement(alg, target, out)

    def coefficient(self, label):
        return self.coeffs.get(label, RationalV(0))

    def all_polynomial(self):
        return all(c.is_polynomial() for c in self.coeffs.values())

    def specialize(self, q):
        """Exact check value: coefficients reduced by v^2 = q as (c0, c1)."""
        out = {}
        for label, c in self.coeffs.items():
            if not c.is_polynomial():
                raise ValueError("specialization needs polynomial coefficients")
            out[label] = c.as_poly().subs_v_squared(q)
        return out

    def __repr__(self):
        if self.is_zero():
            return "LabelElement(0)"
        body = "; ".join("%r: %s" % (l, c) for l, c in sorted(self.coeffs.items(),
                                                              key=lambda kv: repr(kv[0])))
        return "LabelElement(%s | %s)" % (self.grading, body)


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
        if not (v.is_polynomial() and v.as_poly().in_minus_lattice(strict=True)):
            raise OracleError("canonical coefficient at %r is not in v^-1 Q[v^-1]" % (k,))
    return coords
