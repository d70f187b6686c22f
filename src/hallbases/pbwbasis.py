"""The extended composition algebra H^0 in PBW coordinates.

The index set pairs a triple (c_-, c_0, c_+) -- preprojective and
preinjective real-root multiplicities and one multisegment per
nonhomogeneous tube -- with a partition t_lambda for the homogeneous part.
N(c, t_lambda) is the ordered product
<M(c_-)> * <M(c_0)> * S_lambda * <M(c_+)>; monomials, the triangular PBW
basis E and the bar-invariant basis C are built on top of it by exact
unitriangular eliminations in Q(v).
"""

from __future__ import annotations

from .cartan import (
    admissible_of,
    builtin_quiver,
    cartan_of,
    context_caps,
    is_affine,
    min_delta,
    multisets,
    topological_order,
)
from .cyclic import Multisegment, leq_G, word_of
from .hall import (
    GenericHallAlgebra,
    apply_bar,
    expand_in,
    linear_extension,
    triangular_bases,
)
from .laurent import RationalV, in_lattice, row_reduce
from .modrep import OracleError
from .symfun import SymmetricLayer, check_partition, partitions_of


# ---------------------------------------------------------------------------
# labels for classes of an affine valued quiver
# ---------------------------------------------------------------------------

#: labels name the real roots beta_t with |t| <= LABEL_WINDOW
LABEL_WINDOW = 10


class AffineLabeler:
    """Field-independent labels: preprojective/preinjective root positions,
    per-tube multisegments, and homogeneous (degree, partition) points."""

    def __init__(self, shape, seq):
        self.shape = shape
        self.seq = seq
        #: {t: beta_t}, |t| <= LABEL_WINDOW: the one root table of labels and contexts
        self.betas = seq.betas(LABEL_WINDOW)
        self.beta_pp = {}
        self.beta_pi = {}
        for t, beta in self.betas.items():
            (self.beta_pp if t <= 0 else self.beta_pi)[beta] = t
        self._tube_cache = {}  # catalog -> its _tube_data; one labeler may meet several

    def _tube_data(self, catalog):
        """(anchored simples of each tube, nonhomogeneous ones first,
        {regular indec cid: (tube, top, length)}), read off the catalog's
        regular Hom block.

        A regular indecomposable X is the segment [i;l) of the tube of its
        regular top: the one regular simple S with Hom(X, S) != 0, i its
        position in the anchored tube and l the length whose dims are X's.
        """
        if catalog in self._tube_cache:
            return self._tube_cache[catalog]
        # field-independent rotation anchor: start each tube at the simple
        # with the lexicographically smallest dimension vector
        anchored = []
        for t in catalog.tube_structure():
            dims = [catalog.classes[c].dims for c in t["simples"]]
            if len(set(dims)) != len(dims):
                raise OracleError("tube simples share a dimension vector; "
                                  "no canonical anchor")
            start = min(range(len(dims)), key=lambda k: dims[k])
            anchored.append(t["simples"][start:] + t["simples"][:start])
        anchored.sort(key=lambda simples: (len(simples) == 1,
                                           tuple(catalog.classes[c].dims for c in simples)))
        position = {s: (ti, j + 1) for ti, simples in enumerate(anchored)
                    for j, s in enumerate(simples)}
        members = {}
        for cid in catalog.regular_indec_ids():
            tops = [s for s in position if catalog._pair(cid, s) > 0]
            if len(tops) != 1:
                raise OracleError("regular class %d has %d regular tops, not one"
                                  % (cid, len(tops)))
            # the member is the segment [i;l) from its top i whose size is its own
            (ti, i), dims = position[tops[0]], catalog.classes[cid].dims
            sdims = [catalog.classes[c].dims for c in anchored[ti]]
            l = 1
            while sum(_segment_dims(sdims, i, l)) < sum(dims):
                l += 1
            if _segment_dims(sdims, i, l) != dims:
                raise OracleError("tube member has inconsistent dimensions")
            members[cid] = (ti, i, l)
        self._tube_cache[catalog] = (anchored, members)
        return self._tube_cache[catalog]

    def tube_simple_dims(self, catalog):
        """The anchored simples' dims of each nonhomogeneous tube."""
        anchored = self._tube_data(catalog)[0]
        return [[catalog.classes[c].dims for c in simples]
                for simples in anchored if len(simples) > 1]

    def label_of(self, catalog, cid):
        """Preprojective and preinjective root positions, one multisegment per
        nonhomogeneous tube, and {(degree, partition): points} for the
        homogeneous tubes: a point of degree dim S / delta, S its simple,
        and the partition of its summands' lengths."""
        anchored, members = self._tube_data(catalog)
        info = catalog.classes[cid]
        pp = {}
        pi = {}
        nh = [dict() for simples in anchored if len(simples) > 1]
        points = {}  # homogeneous tube -> lengths of its summands
        for icid, mult in info.decomposition:
            idec = catalog.classes[icid]
            if idec.defect == "pp":
                t = self.beta_pp.get(idec.dims)
                if t is None:
                    raise OracleError("preprojective %s outside the root window"
                                      % (idec.dims,))
                pp[t] = pp.get(t, 0) + mult
            elif idec.defect == "pi":
                t = self.beta_pi.get(idec.dims)
                if t is None:
                    raise OracleError("preinjective %s outside the root window"
                                      % (idec.dims,))
                pi[t] = pi.get(t, 0) + mult
            else:
                ti, i, l = members[icid]
                if ti < len(nh):
                    nh[ti][(i, l)] = nh[ti].get((i, l), 0) + mult
                else:
                    points.setdefault(ti, []).extend([l] * mult)
        h = {}
        for ti, lengths in points.items():
            dz = _delta_multiple(catalog.classes[anchored[ti][0]].dims, catalog.delta)
            if not dz:
                raise OracleError("homogeneous regular simple with non-delta dims")
            entry = (dz, tuple(sorted(lengths, reverse=True)))
            h[entry] = h.get(entry, 0) + 1
        return ("L",
                tuple(sorted(pp.items())),
                tuple(tuple(sorted(t.items())) for t in nh),
                tuple(sorted(h.items())),
                tuple(sorted(pi.items())))

    def is_homogeneous_label(self, label):
        _, pp, nh, _h, pi = label
        return not pp and not pi and all(not t for t in nh)


# ---------------------------------------------------------------------------
# PBW indices and the order
# ---------------------------------------------------------------------------

class PbwIndex:
    """(c_-, c_0, c_+; t_lambda): finitely supported root multiplicities,
    per-tube multisegments, and a partition."""

    __slots__ = ("cminus", "c0", "cplus", "lam", "_key")

    def __init__(self, cminus=(), c0=(), cplus=(), lam=()):
        self.cminus = tuple(sorted((int(t), int(m)) for t, m in cminus if m))
        self.cplus = tuple(sorted((int(t), int(m)) for t, m in cplus if m))
        self.c0 = tuple(tuple(sorted(((i, l), m) for (i, l), m in part if m))
                        for part in c0)
        self.lam = check_partition(lam)
        if any(t > 0 for t, _ in self.cminus):
            raise ValueError("c_- is supported on t <= 0")
        if any(t <= 0 for t, _ in self.cplus):
            raise ValueError("c_+ is supported on t > 0")
        self._key = (self.cminus, self.c0, self.cplus, self.lam)

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, PbwIndex) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def is_aperiodic(self, ranks):
        for part, r in zip(self.c0, ranks):
            if not Multisegment(r, dict(part)).is_aperiodic():
                return False
        return True

    def __str__(self):
        bits = []
        if self.cminus:
            bits.append("c-=" + ",".join("b%d^%d" % (t, m) for t, m in self.cminus))
        for n, part in enumerate(self.c0):
            if part:
                bits.append("T%d=" % n + ",".join("[%d;%d)x%d" % (i, l, m)
                                                  for (i, l), m in part))
        if self.lam:
            bits.append("lam=" + repr(list(self.lam)))
        if self.cplus:
            bits.append("c+=" + ",".join("b%d^%d" % (t, m) for t, m in self.cplus))
        return "(" + " | ".join(bits) + ")" if bits else "(0)"

    __repr__ = __str__


def _lex_geq_minus(a, b):
    """c_- >=_L d_-: scanning t = 0, -1, -2, ... the first difference is larger."""
    da, db = dict(a), dict(b)
    ts = sorted(set(da) | set(db), reverse=True)
    for t in ts:
        x, y = da.get(t, 0), db.get(t, 0)
        if x != y:
            return x > y
    return True


def _lex_geq_plus(a, b):
    """c_+ >=_L d_+: scanning t = 1, 2, 3, ..."""
    da, db = dict(a), dict(b)
    ts = sorted(set(da) | set(db))
    for t in ts:
        x, y = da.get(t, 0), db.get(t, 0)
        if x != y:
            return x > y
    return True


def prec(a, b, ranks):
    """The strict partial order a < b on one graded piece of the index set."""
    if a == b:
        return False
    # clause (a): a's boundary parts lexicographically dominate b's
    geq_m = _lex_geq_minus(a.cminus, b.cminus)
    geq_p = _lex_geq_plus(a.cplus, b.cplus)
    if geq_m and geq_p and (a.cminus != b.cminus or a.cplus != b.cplus):
        return True
    if a.cminus != b.cminus or a.cplus != b.cplus:
        return False
    # clause (b): fewer delta's in the homogeneous part
    if sum(a.lam) != sum(b.lam):
        return sum(a.lam) < sum(b.lam)
    # clause (c): strictly more degenerate tube components
    if a.c0 != b.c0:
        leq_all = True
        strict = False
        for pa, pb, r in zip(a.c0, b.c0, ranks):
            ma = Multisegment(r, dict(pa))
            mb = Multisegment(r, dict(pb))
            if ma == mb:
                continue
            if leq_G(ma, mb):
                strict = True
            else:
                leq_all = False
                break
        return leq_all and strict
    # final clause: at equal (c, |lambda|), the lex-bigger partition is lower
    return a.lam > b.lam


# ---------------------------------------------------------------------------
# composition-algebra contexts
# ---------------------------------------------------------------------------

class CompositionContext:
    """Everything needed to compute bases of H^0 for one affine valued quiver.

    The shape alone decides how its catalogs are built (modrep.synthesizer_of).
    """

    def __init__(self, name, shape, cap, cache_dir=None):
        self.name = name
        self.shape = shape
        self.cap = tuple(cap)
        self.datum = cartan_of(shape)
        if not is_affine(self.datum):
            raise ValueError("composition contexts require an affine quiver")
        self.delta = min_delta(self.datum)
        self.seq = admissible_of(shape)
        self.labeler = AffineLabeler(shape, self.seq)
        self.betas = self.labeler.betas
        self.alg = GenericHallAlgebra(shape, self.cap, self.labeler, cache_dir=cache_dir)
        max_m = min((c // d for c, d in zip(self.cap, self.delta)), default=0)
        self.symmetric = SymmetricLayer(self.alg, self.delta, max_m) if max_m >= 0 else None
        self.tube_dims = self.labeler.tube_simple_dims(self.alg.catalog(self.alg.ladder[0]))
        self.tube_ranks = [len(simples) for simples in self.tube_dims]
        # vertex order for monomials: sources first, no arrows backwards
        self.vertex_order = topological_order(shape.vertices,
                                              [(h.src, h.tgt) for h in shape.arrows])
        self._indices_cache = {}
        self._basis_cache = {}
        self._solver_cache = {}

    # -- index enumeration -------------------------------------------------

    def indices_of_grading(self, nu):
        nu = tuple(nu)
        if nu in self._indices_cache:
            return self._indices_cache[nu]
        out = []
        for cminus, rest1 in _boundary_options(self.betas, nu, positive=False):
            for cplus, rest2 in _boundary_options(self.betas, rest1, positive=True):
                for c0, rest3 in self._tube_options(rest2):
                    m = _delta_multiple(rest3, self.delta)
                    if m is None:
                        continue
                    for lam in partitions_of(m):
                        out.append(PbwIndex(cminus, c0, cplus, lam))
        out.sort(key=lambda a: repr(a.key()))
        self._indices_cache[nu] = out
        return out

    def _tube_options(self, bound):
        """Tuples of per-tube multisegments with ambient dim sum <= bound."""
        segs = [((ti, (i, l)), _segment_dims(self.tube_dims[ti], i, l))
                for ti, r in enumerate(self.tube_ranks)
                for i in range(1, r + 1) for l in range(1, sum(bound) + 1)]
        return [(tuple(tuple((seg, m) for (tj, seg), m in chosen if tj == ti)
                       for ti in range(len(self.tube_ranks))), rest)
                for chosen, rest in _fitting(segs, bound)]

    def _part_dims(self, boundary=(), c0=(), lam=()):
        """The dimension vector of index parts: sum m beta_t over the (t, m)
        of boundary, sum m dim [i;l) over the tubes' parts, |lam| delta."""
        terms = [(self.betas[t], m) for t, m in boundary]
        terms += [(_segment_dims(self.tube_dims[ti], i, l), m)
                  for ti, part in enumerate(c0) for (i, l), m in part]
        terms.append((self.delta, sum(lam)))
        return tuple(sum(m * d[k] for d, m in terms) for k in range(len(self.delta)))

    def grading_of(self, index):
        return self._part_dims(index.cminus + index.cplus, index.c0, index.lam)

    # -- the four factors and N ---------------------------------------------

    def _boundary_label(self, part, positive):
        if positive:
            return ("L", (), tuple(() for _ in self.tube_ranks), (), tuple(part))
        return ("L", tuple(part), tuple(() for _ in self.tube_ranks), (), ())

    def _tube_label(self, c0):
        return ("L", (), tuple(c0), (), ())

    def angle_boundary(self, part, positive):
        """<M(c_-)> or <M(c_+)> as a label element."""
        if not part:
            return self.alg.unit()
        return self.alg.angle_elt(self._part_dims(part), self._boundary_label(part, positive))

    def angle_tube(self, c0):
        if all(not part for part in c0):
            return self.alg.unit()
        return self.alg.angle_elt(self._part_dims(c0=c0), self._tube_label(c0))

    def N_element(self, index):
        """N(c, t_lambda) = <M(c_-)> * <M(c_0)> * S_lambda * <M(c_+)>."""
        out = self.angle_boundary(index.cminus, positive=False)
        out = out * self.angle_tube(index.c0)
        out = out * self.symmetric.S(index.lam)
        out = out * self.angle_boundary(index.cplus, positive=True)
        return out

    # -- monomials ----------------------------------------------------------

    def dim_word(self, nu):
        """The word of m^nu: divided powers along the source-first order."""
        return tuple((i, nu[self.shape.index[i]]) for i in self.vertex_order
                     if nu[self.shape.index[i]])

    def monomial_word(self, index):
        word = []
        for t, m in sorted(index.cminus, reverse=True):   # beta_0 first
            word.extend(self.dim_word(tuple(m * x for x in self.betas[t])))
        for ti, part in enumerate(index.c0):
            if not part:
                continue
            pi = Multisegment(self.tube_ranks[ti], dict(part))
            for j, a in word_of(pi):
                word.extend(self.dim_word(
                    tuple(a * x for x in _segment_dims(self.tube_dims[ti], j, 1))))
        for part_size in index.lam:
            word.extend(self.dim_word(tuple(part_size * x for x in self.delta)))
        for t, m in sorted(index.cplus, reverse=True):    # ... beta_2, beta_1 last
            word.extend(self.dim_word(tuple(m * x for x in self.betas[t])))
        return tuple(word)

    def monomial(self, index):
        """m^omega(index) as a GenericElement with its word recorded."""
        word = self.monomial_word(index)
        return GenericElement(self, self.grading_of(index),
                              self.expand_in_N(self.alg.monomial_elt(word)),
                              monomial_expr=word)

    # -- expansion in the N basis -------------------------------------------

    def expand_in_N(self, elt):
        """Exact coordinates of a label element in the N basis of its slice."""
        if elt.is_zero():
            return {}
        nu = elt.grading
        indices = self.indices_of_grading(nu)
        solver = self._solver_cache.get(nu)
        if solver is None:
            solver = SpanSolver([self.N_element(a).coeffs for a in indices])
            self._solver_cache[nu] = solver
        coords, ok = solver.solve(elt.coeffs)
        if not ok:
            raise OracleError("element of grading %s lies outside the N-span" % (nu,))
        return {a: c for a, c in zip(indices, coords) if not c.is_zero()}

    def mult_N(self, a1, a2):
        """N(a1) * N(a2) expanded back in N coordinates, with support checks."""
        prod = self.N_element(a1) * self.N_element(a2)
        coords = self.expand_in_N(prod)
        for a, c in coords.items():
            if not _lex_geq_minus(a.cminus, a1.cminus):
                raise OracleError("product support violates c_- >=_L at %s" % (a,))
            if not _lex_geq_plus(a.cplus, a2.cplus):
                raise OracleError("product support violates c_+ >=_L at %s" % (a,))
            if not c.is_polynomial():
                raise OracleError("product coefficient at %s is not in A'" % (a,))
        target = tuple(x + y for x, y in zip(self.grading_of(a1), self.grading_of(a2)))
        return GenericElement(self, target, coords)

    # -- E and C bases --------------------------------------------------------

    def basis_of_grading(self, nu):
        """The slice data: indices, order, monomials, E, bar matrix and C."""
        nu = tuple(nu)
        if nu in self._basis_cache:
            return self._basis_cache[nu]
        indices = self.indices_of_grading(nu)
        apers = [a for a in indices if a.is_aperiodic(self.tube_ranks)]
        order = linear_extension(apers, lambda a: repr(a.key()), self._prec)
        monos = {a: self.monomial(a) for a in order}
        E, mono_E, bar_E, C = triangular_bases(
            order, {a: m.coords for a, m in monos.items()}, self._prec)
        for a in order:
            for b, c in E[a].items():
                if not c.is_polynomial():
                    raise OracleError("PBW coefficient at %s not in A'" % (b,))
        data = {"indices": indices, "aperiodic": order, "monomials": monos,
                "E": E, "mono_E": mono_E, "bar_E": bar_E, "C": C}
        self._basis_cache[nu] = data
        return data

    def _prec(self, a, b):
        return prec(a, b, self.tube_ranks)

    def C_in_N(self, nu, a):
        """C(a) expanded in N coordinates."""
        data = self.basis_of_grading(nu)
        return expand_in(data["C"][a], data["E"])

    def check_bar_involution(self, nu):
        """R bar(R) = Id for the bar matrix on E."""
        data = self.basis_of_grading(nu)
        for a in data["aperiodic"]:
            twice = apply_bar(apply_bar({a: RationalV(1)}, data["bar_E"]),
                              data["bar_E"])
            if twice != {a: RationalV(1)}:
                return False
        return True

    def check_C_bar_invariant(self, nu, a):
        data = self.basis_of_grading(nu)
        image = apply_bar(data["C"][a], data["bar_E"])
        return image == data["C"][a]

    # -- inner products -------------------------------------------------------

    def inner_N(self, a1, a2):
        return self.alg.inner(self.N_element(a1), self.N_element(a2))

    def verify_almost_orthogonal(self, nu):
        """(N(a), N(a')) - delta_{aa'} in v^-1 Q[[v^-1]], decided by poles."""
        indices = self.indices_of_grading(nu)
        failures = []
        for i, a1 in enumerate(indices):
            for a2 in indices[i:]:
                val = self.inner_N(a1, a2)
                if a1 == a2:
                    val = val - RationalV(1)
                if not in_lattice(val, strict=True):
                    failures.append((a1, a2, val))
        return failures


class GenericElement:
    """An element of H^0 in PBW coordinates, optionally with its word."""

    __slots__ = ("ctx", "grading", "coords", "monomial_expr")

    def __init__(self, ctx, grading, coords, monomial_expr=None):
        self.ctx = ctx
        self.grading = grading
        self.coords = {a: c for a, c in coords.items() if not c.is_zero()}
        self.monomial_expr = monomial_expr

    def coefficient(self, index):
        return self.coords.get(index, RationalV(0))

    def __repr__(self):
        body = "; ".join("%s: %s" % (a, c) for a, c in
                         sorted(self.coords.items(), key=lambda kv: repr(kv[0].key())))
        return "GenericElement(%s | %s)" % (self.grading, body)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _fitting(items, bound):
    """Every multiset of (label, dims) items with dim sum <= bound.

    Returns (((label, mult), ...) over the nonzero multiplicities, bound - dim sum)
    pairs, in the order of cartan.multisets.
    """
    return [(tuple((items[k][0], m) for k, m in chosen), rest)
            for chosen, rest in multisets([d for _, d in items], bound, exact=False)]


def _boundary_options(betas, bound, positive):
    """Multisets of the roots beta_t of the table betas, t > 0 or t <= 0,
    with dim sum <= bound."""
    return _fitting([(t, b) for t, b in betas.items() if (t > 0) == positive], bound)


def _segment_dims(simple_dims, i, l):
    """The dimension vector of the tube segment [i;l): the l simples from the
    i-th on (1-based), read cyclically from a tube's simple dims."""
    r = len(simple_dims)
    return tuple(map(sum, zip(*(simple_dims[(i - 1 + s) % r] for s in range(l)))))


def _delta_multiple(dims, delta):
    """m with dims = m * delta, or None."""
    if all(x == 0 for x in dims):
        return 0
    for m in range(1, max(dims) + 1):
        if tuple(m * x for x in delta) == tuple(dims):
            return m
    return None


class SpanSolver:
    """Solves sum x_j col_j = target over Q(v) for many targets, one elimination.

    Row-reduces [A | I] once, A having one row per key of the columns, and
    keeps the left factor E with E A = [I; 0].  A target b is in the span iff
    its keys are keys of the columns and the rows of E b past the pivots are
    zero; then the first rows of E b are its coordinates.  Insists on full
    column rank (the N-elements are a basis of their span).
    """

    def __init__(self, columns):
        keys = sorted({k for col in columns for k in col}, key=repr)
        ncols = len(columns)
        zero, one = RationalV(0), RationalV(1)
        R, pivots = row_reduce([[col.get(k, zero) for col in columns] +
                                [one if j == i else zero for j in range(len(keys))]
                                for i, k in enumerate(keys)], ncols)
        if len(pivots) < ncols:
            raise OracleError("N-basis columns are linearly dependent")
        self.ncols = ncols
        self.keys = frozenset(keys)
        # row r of E as its nonzero (key, entry) pairs
        self.rows = [[(k, e) for k, e in zip(keys, row[ncols:]) if e] for row in R]

    def solve(self, target):
        """(coeffs, True) with sum coeffs_j col_j = target, or ([], False)
        when the target lies outside the span of the columns."""
        if any(c and k not in self.keys for k, c in target.items()):
            return [], False
        zero = RationalV(0)
        out = []
        for r, row in enumerate(self.rows):
            s = zero
            for k, e in row:
                c = target.get(k)
                if c:
                    s = s + e * c
            if r < self.ncols:
                out.append(s)
            elif s:
                return [], False
        return out, True


# ---------------------------------------------------------------------------
# built-in contexts
# ---------------------------------------------------------------------------

_CONTEXTS = {}


def get_context(name, cache_dir=None):
    key = (name, cache_dir)
    if key not in _CONTEXTS:
        caps = context_caps()
        if name not in caps:
            raise ValueError("no composition context named %r" % (name,))
        _CONTEXTS[key] = CompositionContext(name, builtin_quiver(name), caps[name],
                                            cache_dir=cache_dir)
    return _CONTEXTS[key]
