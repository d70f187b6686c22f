"""Finite-field module oracle for (valued) quivers.

Modules are species representations: the space at vertex i is a vector space
over D_i = F_{q^{d_i}} and the map along an arrow h is a D_{t(h)}-linear map
M_h (x) V_{s(h)} -> V_{t(h)}, stored as a base-field matrix of shape
(d_t n_t) x (m_h n_s).  For trivial valuations this is an ordinary quiver
representation.

Catalogs list exactly one representative per isomorphism class of each
requested dimension vector.  Every slice is built one way: a synthesizer
lists the indecomposables of the dimension vector and the catalog forms
every direct sum of them.  The shape decides the synthesizer (synthesizer_of):
the Kronecker or nilpotent cyclic families, else orbit enumeration, which
keeps the orbit representatives whose End is local.  Completeness is certified
exactly, never assumed: a slice must pass the mass formula
sum |G|/|Aut M| = |rep space| on every acyclic shape, and on the nilpotent
slices small enough to count.  An orbit-enumerated slice must also partition
the whole representation space, with orbit sizes |G|/|Aut| of its classes.
The build also certifies, in Krull-Schmidt form, that the classes of every
dimension slice are pairwise non-isomorphic: their
decompositions into indecomposables are pairwise distinct, and Hom-dimension
profiles separate the indecomposables of each slice that share dim End and
the residue degree of End/rad.

Classification of arbitrary modules against a catalog goes through
Hom-dimension profiles against a probe set of indecomposables.  Probes are
chosen lazily, on the first classification in a slice, and only where the
slice has two or more classes; a slice that is never classified costs
nothing.  Each probe's Hom equations are built once per slice (HomSystem),
so a profile entry is one substitution and one sweep.  By Auslander's
theorem, Hom profiles against all indecomposables determine a module; if
the catalog's indecomposables do not separate the classes of a slice, its
first classification raises OracleError.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import tempfile
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter, sub

from .cartan import cartan_of, euler_form, gradings_below, is_affine, min_delta
# the fields and the GF(q) matrix kernel live in gf; modrep re-exports what its callers import
from .gf import (  # noqa: F401
    GF,
    MAX_FIELD_ORDER,
    _eliminate,
    _m_inv,
    _mul_t,
    all_subspaces,
    companion,
    field,
    field_of_order,
    gl_order,
    kernel_basis,
    m_id,
    m_mul,
    m_rank,
    m_transpose,
    monic_irreducibles,
    poly_pow_gf,
    prime_power,
    rref,
    subspaces,
)

#: every catalog slice over GF(q) has q^(total module dimension) <= 2^BUDGET
BUDGET = 30

#: one exhaustive search in one module (a scan, an isomorphism search) tries <= 2^SEARCH_BUDGET
SEARCH_BUDGET = 21

#: orbit enumeration and the nilpotent mass check walk or count at most
#: 2^STATE_BUDGET arrow-map tuples of a slice
STATE_BUDGET = 17


class BudgetError(RuntimeError):
    """An enumeration request exceeded one of the fixed resource budgets."""


def check_budget(shape, F, dims):
    """Raise BudgetError when q^(total dimension of dims) exceeds 2^BUDGET."""
    if F.q ** total_dim(shape, dims) > 2 ** BUDGET:
        raise BudgetError("dimension vector %s over GF(%d) exceeds budget 2^%d"
                          % (tuple(dims), F.q, BUDGET))


def check_search(count, what):
    """Raise BudgetError when one exhaustive search tries over 2^SEARCH_BUDGET candidates."""
    if count > 2 ** SEARCH_BUDGET:
        raise BudgetError("%s tries %d candidates, exceeds budget 2^%d"
                          % (what, count, SEARCH_BUDGET))


def check_walk(shape, F, dims):
    """Raise BudgetError when orbit enumeration of dims walks over 2^STATE_BUDGET states."""
    n_states = _state_count(shape, F, dims)
    if n_states > 2 ** STATE_BUDGET:
        raise BudgetError("orbit enumeration of %s over GF(%d) walks %d states, over 2^%d"
                          % (dims, F.q, n_states, STATE_BUDGET))


def check_admission(shape, F, dims_list):
    """Raise BudgetError unless every dims of dims_list fits BUDGET over F and,
    when shape has no synthesizer (orbit enumeration), STATE_BUDGET."""
    walk = synthesizer_of(shape) is None
    for dims in dims_list:
        check_budget(shape, F, dims)
        if walk:
            check_walk(shape, F, dims)


class OracleError(RuntimeError):
    """An internal consistency check of the oracle failed."""


class FitError(OracleError):
    """A fitted polynomial failed its held-out verification."""


# ---------------------------------------------------------------------------
# finite modules
# ---------------------------------------------------------------------------

class FiniteModule:
    """A species representation of a valued-quiver shape over a finite field.

    dims[i] is the dimension of the vertex space over D_i; maps[h] is the
    base-field matrix of the structure map of arrow h, of shape
    (d_t * n_t) x (m_h * n_s).  A valued vertex (d_i > 1) needs a prime base
    field, since D_i elements are written as d_i x d_i matrices over F_p.
    """

    __slots__ = ("shape", "F", "dims", "maps", "_key")

    def __init__(self, shape, F, dims, maps):
        if F.deg > 1 and any(shape.d[i] > 1 for i in shape.vertices):
            raise ValueError("valued vertices need a prime base field, not %r" % (F,))
        self.shape = shape
        self.F = F
        self.dims = tuple(int(x) for x in dims)
        self.maps = {h.id: tuple(tuple(int(x) for x in row) for row in maps[h.id])
                     for h in shape.arrows}
        self._key = None
        for hid, (rows, cols) in _arrow_shapes(shape, self.dims).items():
            mat = self.maps[hid]
            if len(mat) != rows or (rows and len(mat[0]) != cols):
                raise ValueError("map of arrow %r has the wrong shape" % (hid,))

    @classmethod
    def _trusted(cls, shape, F, dims, maps):
        """A module from a tuple dims and tuple-of-tuples maps of the right shapes, unchecked."""
        M = cls.__new__(cls)
        M.shape, M.F, M.dims, M.maps, M._key = shape, F, dims, maps, None
        return M

    def key(self):
        if self._key is None:
            self._key = (self.dims, tuple(self.maps[h.id] for h in self.shape.arrows))
        return self._key

    def dim_k(self):
        """Total dimension over the base field."""
        return total_dim(self.shape, self.dims)

    def vertex_field(self, i):
        d = self.shape.d[i]
        return self.F if d == 1 else field(self.F.p, self.F.deg * d)

    def __repr__(self):
        return "FiniteModule(dim=%s over GF(%d))" % (self.dims, self.F.q)


def total_dim(shape, dims):
    """Total dimension over the base field of a module of dimension vector dims."""
    return sum(shape.d[i] * dims[shape.index[i]] for i in shape.vertices)


def simple_module(shape, F, vertex):
    dims = _unit(len(shape.vertices), shape.index[vertex])
    sizes = _arrow_shapes(shape, dims)
    return FiniteModule(shape, F, dims, {hid: ((0,) * c,) * r for hid, (r, c) in sizes.items()})


def direct_sum(*modules, shape=None, F=None):
    """The direct sum of the modules; for no summands, the zero module of shape over F.

    Vertex spaces are stacked in summand order.  The source space of an
    arrow is m_h / d_s blocks of the vertex space, each stacked the same
    way, so every map is block diagonal in each block of its columns.
    """
    if modules:
        shape, F = modules[0].shape, modules[0].F
    dims = tuple(sum(M.dims[k] for M in modules) for k in range(len(shape.vertices)))
    maps = {}
    for h in shape.arrows:
        s, ds = shape.index[h.src], shape.d[h.src]
        width = ds * dims[s]
        rows, at = [], 0
        for M in modules:
            n = ds * M.dims[s]
            for src in M.maps[h.id]:
                row = [0] * (h.m * dims[s])
                for u in range(h.m // ds):
                    row[u * width + at:u * width + at + n] = src[u * n:(u + 1) * n]
                rows.append(tuple(row))
            at += n
        maps[h.id] = tuple(rows)
    return FiniteModule(shape, F, dims, maps)


# -- Hom spaces -------------------------------------------------------------

class HomSystem:
    """The linear equations of Hom(M, N) for every N of dimension vector dims.

    Unknown (i, a, b, c) is the block P_c = mult_matrix(g^c), g the generator
    of D_i, at D_i-entry (a, b) of f_i; unknowns run over the vertices in
    shape order, then a, b, c, and a vertex where n_N n_M = 0 has none.  The
    row of an unknown is its image under f -> (N_h (I (x) f_s) - f_t M_h)_h,
    arrows in shape order, each arrow's entries row by row.  An arrow into i
    puts -P_c M_h[b-th block of rows] in row block a, which depends on M
    alone.  An arrow out of i puts column e of N_h[:, a-th block of columns
    of block u] P_c, which is a column of N_h (I (x) P_c), in column block
    (u, b, e).

    The system is built once per (M, dims): every row's M part, and for each
    entry of N the place it goes.  The rows that hold no entry of N (those
    of vertices whose arrows out end at zero spaces of N) are eliminated
    once, on the first dim.  dim(N) writes N into the other rows and sweeps
    copies of only them against those pivots; rows(N) copies every row.
    P[i] = [P_0, ..., P_{d_i - 1}] for every vertex i with unknowns.
    """

    def __init__(self, M, dims):
        shape, F = M.shape, M.F
        at_vertex, d_of, maps, neg = shape.index, shape.d, M.maps, F._neg
        self.F, self.dims = F, tuple(dims)
        start, n_eq = {}, 0
        for h in shape.arrows:
            start[h.id] = n_eq
            n_eq += d_of[h.tgt] * dims[at_vertex[h.tgt]] * h.m * M.dims[at_vertex[h.src]]
        self.P = {}
        self._rows = []       # every row, unknowns in order; _fill writes N into them
        self._sink = []       # the rows that hold no entry of N
        self._seed = None     # their forward pivots, from the first dim
        self._live_rows = []  # the other rows
        # (row, places) for each of them; a place (k, at, stop, stride) puts
        # column k of N, as _fill reads them, at row[at:stop:stride]
        self._live = []
        # the columns of N that _fill reads, one (arrow, c) after another:
        # (arrow id, the transposed block diagonal of P_c, or None for d = 1)
        self._columns = []
        ends = _arrow_ends(shape)
        n_columns = 0
        for i in shape.vertices:
            d = d_of[i]
            n_N, n_M = dims[at_vertex[i]], M.dims[at_vertex[i]]
            if not n_N * n_M:
                continue
            if d > 1:
                Di = M.vertex_field(i)
                # g^c has the code p^c for c < d (base-p digits are coefficients)
                P = self.P[i] = [Di.mult_matrix(Di.p ** c) for c in range(d)]
            else:
                P = self.P[i] = [((1,),)]
            into, out = ends[i]
            # each band is built once and written into every row that holds it
            block = [[0] * n_eq for _ in range(n_N * n_M * d)]
            for h in into:
                width = h.m * M.dims[at_vertex[h.src]]
                for b in range(n_M):
                    for c, Pc in enumerate(P):
                        band = (sum(m_mul(F, Pc, maps[h.id][b * d:(b + 1) * d]), ()) if d > 1
                                else maps[h.id][b])
                        vals = [neg[x] for x in band]
                        for a in range(n_N):
                            at = start[h.id] + a * d * width
                            block[(a * n_M + b) * d + c][at:at + d * width] = vals
            out = [(h, length) for h in out if (length := d_of[h.tgt] * dims[at_vertex[h.tgt]])]
            self._rows += block
            if not out:
                self._sink += block
                continue
            places = [[] for _ in block]
            for h, length in out:
                width = h.m * n_M
                span = width * length
                for c, Pc in enumerate(P):
                    self._columns.append(
                        (h.id, _block_diag(F, m_transpose(Pc), h.m * n_N // d) if d > 1 else None))
                    for u in range(h.m // d):
                        for a in range(n_N):
                            for e in range(d):
                                k = n_columns + (u * n_N + a) * d + e
                                at = start[h.id] + u * d * n_M + e
                                # the rows (a, b, c) for b = 0, 1, ...
                                for row_places in places[a * n_M * d + c:(a + 1) * n_M * d:d]:
                                    row_places.append((k, at, at + span, width))
                                    at += d
                    n_columns += h.m * n_N
            self._live += zip(block, places)
            self._live_rows += block
        self.n_unknowns = len(self._rows)

    def _fill(self, N):
        """Write the entries of N into the rows that hold them.

        The rows are written in place: every call writes every entry of N
        anew, and the M parts are never written.  Callers copy the rows.
        """
        if N.dims != self.dims:
            raise ValueError("this Hom system is for dimension vector %s, not %s"
                             % (self.dims, N.dims))
        cols = []
        for hid, blocks_t in self._columns:
            # the columns of N_h (I (x) P_c), as rows: (I (x) P_c)^T N_h^T
            mat = N.maps[hid]
            cols += zip(*mat) if blocks_t is None else _mul_t(self.F, blocks_t, mat)
        for row, places in self._live:
            for k, at, stop, stride in places:
                row[at:stop:stride] = cols[k]

    def rows(self, N):
        """The equations of Hom(M, N), one row per unknown, unknowns in order."""
        self._fill(N)
        return [row[:] for row in self._rows]

    def dim(self, N):
        """dim_k Hom(M, N): unknowns minus the equations' rank."""
        if self._seed is None:
            self._seed = _eliminate(self.F, self._sink, False)
        self._fill(N)
        # _eliminate reads the rows and writes none of them
        return self.n_unknowns - len(_eliminate(self.F, self._live_rows, False, self._seed))


@functools.cache
def _arrow_ends(shape):
    """{vertex: (the arrows into it, the arrows out of it)}, once per shape."""
    return {i: ([h for h in shape.arrows if h.tgt == i], [h for h in shape.arrows if h.src == i])
            for i in shape.vertices}


def hom_space(M, N):
    """Base-field basis of Hom(M, N); each element is {vertex: base matrix}.

    The returned matrices are the base-field forms f_i^p of shape
    (d_i n_i^N) x (d_i n_i^M); the count equals dim_k Hom(M, N).
    """
    shape, F = M.shape, M.F
    add, mul = F._add, F._mul
    system = HomSystem(M, N.dims)
    rows = system.rows(N)
    sols = kernel_basis(F, m_transpose(rows), len(rows))
    out = []
    for vec in sols:
        coefs = iter(vec)
        fs = {}
        for i in shape.vertices:
            d = shape.d[i]
            n_N, n_M = N.dims[shape.index[i]], M.dims[shape.index[i]]
            mat = [[0] * (d * n_M) for _ in range(d * n_N)]
            for a in range(n_N):
                for b in range(n_M):
                    for Pc in system.P[i]:
                        coef = next(coefs)
                        if coef:
                            for r in range(d):
                                dst = mat[a * d + r]
                                for c in range(d):
                                    dst[b * d + c] = add[dst[b * d + c]][mul[coef][Pc[r][c]]]
            fs[i] = tuple(tuple(r) for r in mat)
        out.append(fs)
    return out


def _block_diag(F, mat, blocks):
    if blocks == 1:
        return mat
    r = len(mat)
    c = len(mat[0]) if r else 0
    out = [[0] * (c * blocks) for _ in range(r * blocks)]
    for u in range(blocks):
        for i in range(r):
            for j in range(c):
                out[u * r + i][u * c + j] = mat[i][j]
    return tuple(tuple(row) for row in out)


def hom_dim(M, N):
    """dim_k Hom(M, N) over the base field, from the equations' rank.

    No basis is built; hom_space does that for callers that need the maps.
    """
    return HomSystem(M, N.dims).dim(N)


def end_dim(M):
    return hom_dim(M, M)


def ext_dim(M, N):
    """dim_k Ext^1(M, N) = dim Hom - <dim M, dim N> (hereditary)."""
    e = hom_dim(M, N) - euler_form(M.shape, M.dims, N.dims)
    if e < 0:
        raise OracleError("negative Ext dimension; Euler identity violated")
    return e


def _isomorphisms(M, basis, what):
    """The invertible linear combinations of a basis of Hom(M, N), dim N = dim M.

    Yields the coefficient tuples, enumerating all q^len(basis) combinations
    in the order of itertools.product; raises BudgetError when there are more
    than 2^SEARCH_BUDGET of them.  The walk is depth first over the
    coefficients and carries the partial sum c_0 b_0 + ... + c_{j-1} b_{j-1}
    of every vertex matrix, flattened into one row, so each step adds one
    scaled basis element.  Every combination is tested for full rank at each
    vertex in shape order.
    """
    shape, F = M.shape, M.F
    check_search(F.q ** len(basis), "%s over GF(%d)" % (what, F.q))
    mul, add = F._mul, F._add
    blocks, width = [], 0
    for i in shape.vertices:
        n = shape.d[i] * M.dims[shape.index[i]]
        blocks.append((width, n))
        width += n * n
    # terms[j][c]: c times basis element j, flattened like the partial sums
    terms = []
    for b in basis:
        flat = [x for i in shape.vertices for row in b[i] for x in row]
        terms.append([[mul[c][x] for x in flat] for c in range(F.q)])
    coeffs = [0] * len(basis)

    def invertible(flat):
        return all(m_rank(F, [flat[at + r * n:at + (r + 1) * n] for r in range(n)]) == n
                   for at, n in blocks)

    def walk(j, partial):
        if j == len(terms):
            if invertible(partial):
                yield tuple(coeffs)
            return
        for c, term in enumerate(terms[j]):
            coeffs[j] = c
            yield from walk(j + 1, [add[x][y] for x, y in zip(partial, term)] if c else partial)

    yield from walk(0, [0] * width)


def is_isomorphic(M, N):
    """Exhaustive isomorphism test: search an invertible homomorphism."""
    if M.dims != N.dims:
        return False
    basis = hom_space(M, N)
    if len(basis) != hom_dim(N, M):
        return False
    return next(_isomorphisms(M, basis, "isomorphism search"), None) is not None


def _aut_and_residue(M, basis):
    """(|Aut M|, r) from a basis of End M, with r as in _residue_degree;
    (None, None) when End M is not local.

    End M is restricted to the smallest vertex where it acts faithfully, else
    to all of them, in reduced echelon form: an element's coordinates are its
    entries at the pivots.  When End M is commutative (the sum a of the basis
    generates it, that is 1, a, ..., a^(e-1) are independent, or the basis
    commutes pairwise), Phi(x) = x^q is F_q-linear on it, with fixed points
    F_q^(number of local factors).  So End M is local iff Phi - 1 has rank
    e - 1.  Then Phi kills rad and permutes End/rad = F_{q^r}, so the rank of
    Phi^t settles at r, and |Aut M| = q^e - q^(e - r).  A non-commutative
    End M is walked (_isomorphisms, within SEARCH_BUDGET).
    """
    shape, F, q, e = M.shape, M.F, M.F.q, len(basis)
    if e == 1:
        return q - 1, 1
    size = {i: shape.d[i] * M.dims[shape.index[i]] for i in shape.vertices}
    for vs in [[i] for i in sorted(shape.vertices, key=size.get)] + [shape.vertices]:
        R, piv = rref(F, [[x for i in vs for row in b[i] for x in row] for b in basis])
        if len(R) == e:
            break

    def unflat(row):
        x, at = [], 0
        for n in map(size.get, vs):
            x.append(tuple(row[at + r * n:at + (r + 1) * n] for r in range(n)))
            at += n * n
        return x

    def mul(x, y):
        return [m_mul(F, u, v) for u, v in zip(x, y)]

    def power(x, n):
        if n == 1:
            return x
        y = power(mul(x, x), n // 2)
        return mul(y, x) if n % 2 else y

    def coords(x):
        flat = [v for u in x for row in u for v in row]
        return [flat[c] for c in piv]

    elems = [unflat(row) for row in R]
    a = unflat([functools.reduce(lambda s, v: F._add[s][v], col) for col in zip(*R)])
    powers = [[m_id(F, size[i]) for i in vs], a]
    while len(powers) < e:
        powers.append(mul(powers[-1], a))
    if m_rank(F, [coords(x) for x in powers]) < e and any(
            mul(x, y) != mul(y, x) for j, x in enumerate(elems) for y in elems[:j]):
        aut = sum(1 for _ in _isomorphisms(M, basis, "automorphism count"))
        r = _residue_degree(q, e, aut)
        return (aut, r) if r else (None, None)
    phi = [coords(power(x, q)) for x in elems]
    minus_one = F._neg[1]
    if m_rank(F, [[F._add[v][minus_one] if j == k else v for k, v in enumerate(row)]
                  for j, row in enumerate(phi)]) != e - 1:
        return None, None
    phi_t, r = phi, m_rank(F, phi)
    while (rank := m_rank(F, phi_t := m_mul(F, phi_t, phi))) < r:
        r = rank
    return q ** e - q ** (e - r), r


# -- submodules, subquotients ------------------------------------------------

def _expand_rows_over_base(Di, d, rows):
    """Base-field expansion of D_i-basis rows: row j yields rows g^a * r_j.

    Base-field coordinates of D_i^n use per-coordinate blocks of size d, and
    the expanded row of (j, a) sits at index j*d + a, matching the standard
    encoding of D_i^(w) for the subspace itself.
    """
    if d == 1:
        return tuple(tuple(r) for r in rows)
    gen = Di.p
    out = []
    for r in rows:
        cur = tuple(r)
        for _a in range(d):
            fp_row = []
            for x in cur:
                fp_row.extend(Di.coords(x))
            out.append(tuple(fp_row))
            cur = tuple(Di.mul(gen, x) for x in cur)
    return tuple(out)


def _frame(F, Di, d, n, rows):
    """The adapted base-field basis of D_i^n for the D_i-subspace W = span(rows).

    The basis is the expansion of W's rows followed by the expansion of the
    unit rows at W's non-pivot D_i-coordinates, so its first w vectors span
    W.  Returns (w, to_basis, from_basis): to_basis holds the basis vectors
    as rows, and from_basis, the inverse of its transpose, takes a base-field
    column vector to its coordinates in the basis.
    """
    pivots = rref(Di, rows)[1]
    comp = tuple(tuple(int(c == j) for c in range(n)) for j in range(n) if j not in pivots)
    to_basis = _expand_rows_over_base(Di, d, tuple(rows) + comp)
    return d * len(rows), to_basis, _m_inv(F, m_transpose(to_basis))


#: the subspace frames of every vertex space met so far, keyed by
#: (p, deg of the base field, d_i, n_i) (see _vertex_frames), and the walk
#: plans of submodule_tuples that read them (see _walk_plan)
_FRAMES = {}


def _vertex_frames(F, d, n):
    """(subspaces, frames, containing, spans, killed) of D_i^n, D_i = F_{q^d}, once per process.

    subspaces lists every D_i-subspace in all_subspaces order and frames[k]
    is _frame of subspaces[k]; both depend only on the field and the size, so
    every module that has this vertex space shares them.  The subspaces come
    by ascending dimension, and spans[w] is the index range of those of
    dimension w.  containing memoizes, by the reduced echelon form of a set
    of base-field vectors and an index range (all of them, or a span), the
    indices k of the range in ascending order whose subspace contains the
    vectors; killed memoizes, the same way for a set of base-field
    functionals, those on whose subspace the functionals all vanish.
    """
    key = (F.p, F.deg, d, n)
    table = _FRAMES.get(key)
    if table is None:
        Di = F if d == 1 else field(F.p, F.deg * d)
        subs = list(all_subspaces(Di, n))
        spans = [range(bisect_left(subs, w, key=len), bisect_left(subs, w + 1, key=len))
                 for w in range(n + 1)]
        table = _FRAMES[key] = (subs, [_frame(F, Di, d, n, rows) for rows in subs], {}, spans,
                                {})
    return table


def _inside(F, frame, vectors):
    """Whether the base-field vectors lie in the subspace of the frame.

    They do iff their coordinates past w in the adapted basis all vanish.
    """
    w, _, from_basis = frame
    return not any(map(any, _mul_t(F, from_basis[w:], vectors)))


def _vanish(F, frame, functionals):
    """Whether the base-field functionals vanish on the subspace of the frame.

    They do iff they vanish on its first w adapted basis vectors.
    """
    w, to_basis, _ = frame
    return not any(map(any, _mul_t(F, functionals, to_basis[:w])))


def _containing(F, table, vectors, span):
    """Indices in span, ascending, of the table's subspaces that contain the vectors."""
    _, frames, memo, _, _ = table
    key = (rref(F, vectors)[0], span)
    found = memo.get(key)
    if found is None:
        found = memo[key] = [k for k in span if _inside(F, frames[k], key[0])]
    return found


def _killed(F, table, functionals, span):
    """Indices in span, ascending, of the table's subspaces on which the functionals vanish."""
    _, frames, _, _, memo = table
    key = (rref(F, functionals)[0], span)
    found = memo.get(key)
    if found is None:
        found = memo[key] = [k for k in span if _vanish(F, frames[k], key[0])]
    return found


def _meet(a, b):
    """The common entries of two ascending sequences, ascending."""
    if len(a) > len(b):
        a, b = b, a
    return [k for k in a if (at := bisect_left(b, k)) < len(b) and b[at] == k]


def _images(module, h, frame):
    """Images under M_h of the adapted basis of M_h (x) V_s, one per row.

    frame is _frame at the source s; the basis of M_h (x) V_s is its basis
    in each of the m_h / d_s blocks, so the images are the columns of
    M_h _block_diag(to_s^T).  Returns (the images of the W_s vectors, the
    images of the complement vectors), each block by block.
    """
    w, to_basis, _ = frame
    n, blocks = len(to_basis), h.m // module.shape.d[h.src]
    img = _mul_t(module.F, _block_diag(module.F, to_basis, blocks), module.maps[h.id])
    return (tuple(img[u * n + j] for u in range(blocks) for j in range(w)),
            tuple(img[u * n + j] for u in range(blocks) for j in range(w, n)))


class SubspaceTuple:
    """A tuple of D_i-subspaces W_i with an adapted basis of every V_i.

    frames[i] is _frame of W_i and images[h] is _images of the frame at the
    source of h.  submodule_tuples passes both in, having computed them once
    per subspace rather than once per tuple.
    """

    __slots__ = ("rows", "dims", "frames", "images")

    def __init__(self, module, rows, frames=None, images=None):
        shape = module.shape
        self.rows = rows
        self.dims = tuple(len(rows[i]) for i in shape.vertices)
        if frames is None:
            frames = {i: _frame(module.F, module.vertex_field(i), shape.d[i],
                                module.dims[shape.index[i]], rows[i])
                      for i in shape.vertices}
        if images is None:
            images = {h.id: _images(module, h, frames[h.src]) for h in shape.arrows}
        self.frames = frames
        self.images = images


def is_submodule(module, sub):
    """Arrow stability of a SubspaceTuple.

    M_h maps M_h (x) W_s into W_t iff the coordinates past w_t of the images
    of the W_s vectors, in the adapted basis at t, all vanish.
    """
    return all(_inside(module.F, sub.frames[h.tgt], sub.images[h.id][0])
               for h in module.shape.arrows)


def sub_quotient(module, sub):
    """The (submodule, quotient) pair of modules determined by SubspaceTuple.

    In the adapted basis at t, the coordinates of the images of the W_s
    vectors are the sub map on top and must vanish below w_t; below w_t, the
    coordinates of the images of the complement vectors are the quotient map.
    Raises OracleError when sub is not arrow-stable.
    """
    shape, F = module.shape, module.F
    sub_maps, quo_maps = {}, {}
    for h in shape.arrows:
        w_t, _, from_t = sub.frames[h.tgt]
        img_w, img_c = sub.images[h.id]
        coords = _mul_t(F, from_t, img_w)
        if any(map(any, coords[w_t:])):
            raise OracleError("an image of W leaves W; the tuple is not arrow-stable")
        sub_maps[h.id] = coords[:w_t]
        quo_maps[h.id] = _mul_t(F, from_t[w_t:], img_c)
    quo_dims = tuple(n - w for n, w in zip(module.dims, sub.dims))
    return (FiniteModule._trusted(shape, F, sub.dims, sub_maps),
            FiniteModule._trusted(shape, F, quo_dims, quo_maps))


def scan_candidates(shape, F, dims):
    """How many subspace tuples submodule_tuples can try on a module of dims, at most.

    That is prod_i G(n_i) at Q = q^(d_i), where G(n) = sum_k [n choose k]_Q
    counts the subspaces of D_i^n and obeys G(n+1) = 2 G(n) + (Q^n - 1) G(n-1).
    """
    total = 1
    for i in shape.vertices:
        Q, prev, cur = F.q ** shape.d[i], 0, 1
        for n in range(dims[shape.index[i]]):
            prev, cur = cur, 2 * cur + (Q ** n - 1) * prev
        total *= cur
    return total


def _walk_plan(shape, F, dims, sub):
    """How submodule_tuples walks the modules of dims over F, once per (shape, F, dims, sub).

    Returns (order, tables, spans, forcing, back, loops), indexed by vertex
    position j.  tables[j] is _vertex_frames of vertex j and spans[j] the
    index range of its candidates: all its subspaces, or those of dimension
    sub[j].  order visits first the vertices whose span holds a single
    subspace, then the others in shape order.  forcing[j] holds the arrows
    into j from a vertex visited before it, back[j] those out of j to one,
    and loops[j] those from j to j.  The plan lives in _FRAMES beside the
    tables it reads, so the two never disagree.
    """
    key = ("walk", shape.key(), F.p, F.deg, dims, sub)
    plan = _FRAMES.get(key)
    if plan is None:
        at = shape.index
        tables = [_vertex_frames(F, shape.d[i], dims[at[i]]) for i in shape.vertices]
        spans = [range(len(t[0])) if sub is None else t[3][sub[j]] for j, t in enumerate(tables)]
        order = sorted(range(len(tables)), key=lambda j: len(spans[j]) > 1)
        rank = {j: r for r, j in enumerate(order)}
        forcing = [[h for h in shape.arrows if at[h.tgt] == j and rank[at[h.src]] < rank[j]]
                   for j in range(len(tables))]
        back = [[h for h in shape.arrows if at[h.src] == j and rank[at[h.tgt]] < rank[j]]
                for j in range(len(tables))]
        loops = [[h for h in shape.arrows if at[h.src] == at[h.tgt] == j]
                 for j in range(len(tables))]
        plan = _FRAMES[key] = (order, tables, spans, forcing, back, loops)
    return plan


def submodule_tuples(module, sub=None):
    """All arrow-stable tuples of D_i-subspaces of the module, or those of dimension sub.

    The tuples come out in lexicographic order, in shape order, over the
    per-vertex lists of all_subspaces.  With sub, vertex j tries only its
    subspaces of dimension sub[j], one span of its list, so the tuples are
    those of the full scan with dims == sub, in the same order.  The walk
    (_walk_plan) first fixes the vertices whose span holds a single subspace,
    which leaves the order unchanged, then grows the others one by one in
    shape order.  The subspaces and frames of a vertex space come from the
    table that all modules share (_vertex_frames).  Vertex j tries only the
    subspaces that every arrow between it and a vertex visited before allows:
    an arrow s -> j forces the images of the chosen W_s into W_j, so W_j
    must contain them (_containing), and an arrow h: j -> t back to such a
    vertex confines W_j to the preimage M_h^{-1}(W_t), the common zeros of
    the rows from_t[w_t:] M_h, block by block (_killed).  So a split at one
    vertex reads its candidates off the preimages of the zero subspaces
    around it.  Both index lists are ascending, so their meet keeps the
    order.  A loop is checked for each candidate.  Each (arrow, source
    subspace) pair gets its images once and each (back arrow, target
    subspace) pair its preimage once, and a SubspaceTuple is built only for
    an arrow-stable tuple.
    """
    shape, F = module.shape, module.F
    verts = shape.vertices
    at = shape.index
    order, tables, spans, forcing, back, loops = _walk_plan(
        shape, F, module.dims, None if sub is None else tuple(sub))
    images = {h.id: {} for h in shape.arrows}
    preimages = {h.id: {} for hs in back for h in hs}
    picks = [0] * len(verts)

    def frame(i):
        return tables[at[i]][1][picks[at[i]]]

    def image(h):
        k = picks[at[h.src]]
        got = images[h.id].get(k)
        if got is None:
            got = images[h.id][k] = _images(module, h, frame(h.src))
        return got

    def preimage(h):
        k = picks[at[h.tgt]]
        got = preimages[h.id].get(k)
        if got is None:
            w, _, from_t = frame(h.tgt)
            s = at[h.src]
            n = shape.d[h.src] * module.dims[s]
            rows = m_mul(F, from_t[w:], module.maps[h.id])
            got = preimages[h.id][k] = _killed(
                F, tables[s], [row[u * n:(u + 1) * n] for u in range(h.m // shape.d[h.src])
                               for row in rows], spans[s])
        return got

    def grow(r):
        if r == len(order):
            yield SubspaceTuple(module, {i: tables[at[i]][0][picks[at[i]]] for i in verts},
                                {i: frame(i) for i in verts},
                                {h.id: image(h) for h in shape.arrows})
            return
        j = order[r]
        forced = [v for h in forcing[j] for v in image(h)[0]]
        cands = _containing(F, tables[j], forced, spans[j]) if forced else spans[j]
        for h in back[j]:
            cands = _meet(cands, preimage(h))
        for k in cands:
            picks[j] = k
            if all(_inside(F, frame(h.tgt), image(h)[0]) for h in loops[j]):
                yield from grow(r + 1)

    yield from grow(0)


# ---------------------------------------------------------------------------
# enumeration: breadth-first orbit search and synthesized families
# ---------------------------------------------------------------------------

def _arrow_shapes(shape, dims):
    out = {}
    for h in shape.arrows:
        s, t = shape.index[h.src], shape.index[h.tgt]
        out[h.id] = (shape.d[h.tgt] * dims[t], h.m * dims[s])
    return out


def _state_count(shape, F, dims):
    return F.q ** sum(r * c for r, c in _arrow_shapes(shape, dims).values())


def _iter_states(shape, F, dims):
    """All arrow-map tuples, in deterministic order."""
    shapes = [(h.id, _arrow_shapes(shape, dims)[h.id]) for h in shape.arrows]
    entry_counts = [r * c for _, (r, c) in shapes]
    for codes in itertools.product(*(itertools.product(range(F.q), repeat=n)
                                     for n in entry_counts)):
        maps = {}
        for (hid, (r, c)), flat in zip(shapes, codes):
            maps[hid] = tuple(tuple(flat[i * c + j] for j in range(c)) for i in range(r))
        yield maps


def _is_nilpotent(F, C):
    """C^n == 0 for the n x n matrix C, by squaring."""
    power, exponent = C, 1
    while exponent < len(C):
        power = m_mul(F, power, power)
        exponent *= 2
    return not any(any(row) for row in power)


def _all_matrices(F, rows, cols):
    for flat in itertools.product(range(F.q), repeat=rows * cols):
        yield tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))


def _nilpotent_point_count(shape, F, dims):
    """Number of arrow-map tuples of a cyclic shape whose cycle is nilpotent.

    The cycle starts at a vertex v0 of smallest dimension n0; its composite
    there is C = M_last P, with M_last the arrow into v0 and P the product of
    the other maps.  M -> M P maps onto the n0 x n0 matrices whose rows lie
    in rowspace P, with kernel of dimension n0 (n_last - rk P).  So each
    product P counts q^(n0 (n_last - rk P)) times the number N(rowspace P)
    of nilpotent n0 x n0 matrices with rows in W = rowspace P: the X B_W,
    with B_W the reduced basis of W, such that B_W X is nilpotent (AB is
    nilpotent iff BA is).  For the same reason nilpotency of the composite
    does not depend on the start vertex.
    """
    sizes = _arrow_shapes(shape, dims)
    if not all(dims):
        return F.q ** sum(r * c for r, c in sizes.values())
    n0 = min(dims)
    cur = shape.vertices[dims.index(n0)]
    by_src = {h.src: h for h in shape.arrows}
    prods = {m_id(F, n0): 1}  # product of the maps walked so far -> tuples
    for _ in range(len(shape.vertices) - 1):
        h = by_src[cur]
        step = {}
        for M in _all_matrices(F, *sizes[h.id]):
            for P, mult in prods.items():
                MP = m_mul(F, M, P)
                step[MP] = step.get(MP, 0) + mult
        prods = step
        cur = h.tgt
    n_last = dims[shape.index[cur]]
    nilpotent_in = {}  # reduced basis B_W -> N(W)
    total = 0
    for P, mult in prods.items():
        B = rref(F, P)[0]
        if B not in nilpotent_in:
            nilpotent_in[B] = sum(_is_nilpotent(F, m_mul(F, B, X))
                                  for X in _all_matrices(F, n0, len(B)))
        total += mult * F.q ** (n0 * (n_last - len(B))) * nilpotent_in[B]
    return total


def _gl_generators(Di, n):
    """Small generating set of GL_n(D_i): transvections and one scaling."""
    def identity_but(a, b, x):
        return tuple(tuple(x if (i, j) == (a, b) else int(i == j) for j in range(n))
                     for i in range(n))

    if n == 0:
        return []
    gens = [identity_but(a, b, 1) for a in range(n) for b in range(n) if a != b]
    prim = _primitive_element(Di)
    if prim != 1:
        gens.append(identity_but(0, 0, prim))
    return gens


def _primitive_element(F):
    for a in range(2 - (F.q == 2), F.q):
        x = a
        seen = set()
        while x not in seen:
            seen.add(x)
            x = F.mul(x, a)
        if len(seen) == F.q - 1:
            return a
    return 1


def _fp_form(F, Di, d, mat):
    """Base-field form of a D_i-matrix (blocks are mult matrices)."""
    if d == 1:
        return mat
    r = len(mat)
    c = len(mat[0]) if r else 0
    out = [[0] * (c * d) for _ in range(r * d)]
    for i in range(r):
        for j in range(c):
            blk = Di.mult_matrix(mat[i][j])
            for a in range(d):
                for b in range(d):
                    out[i * d + a][j * d + b] = blk[a][b]
    return tuple(tuple(row) for row in out)


def enumerate_bfs(shape, F, dims):
    """Orbit representatives by exhaustive breadth-first search.

    Returns a list of (maps, orbit_size) with maps the minimal state of its
    orbit; together the orbits partition the whole representation space of
    an acyclic shape.
    """
    for h in shape.arrows:
        if shape.d[h.tgt] != 1 and (shape.d[h.src] != shape.d[h.tgt] or h.m != shape.d[h.tgt]):
            raise NotImplementedError(
                "BFS enumeration with equivariance constraints is not implemented")
    # generator actions: (arrow -> left matrix, arrow -> transposed right matrix)
    actions = []
    for i in shape.vertices:
        ii = shape.index[i]
        d = shape.d[i]
        Di = F if d == 1 else field(F.p, F.deg * d)
        for g in _gl_generators(Di, dims[ii]):
            g_fp = _fp_form(F, Di, d, g)
            ginv_fp = _m_inv(F, g_fp)
            left = {}
            right = {}
            for h in shape.arrows:
                if h.tgt == i:
                    left[h.id] = g_fp
                if h.src == i:
                    blocks = h.m // shape.d[h.src]
                    right[h.id] = m_transpose(_block_diag(F, ginv_fp, blocks))
            if left or right:
                actions.append((left, right))
    reps = []
    visited = set()
    arrow_ids = [h.id for h in shape.arrows]

    def encode(maps):
        return tuple(maps[a] for a in arrow_ids)

    n_states = 0
    for maps in _iter_states(shape, F, dims):
        n_states += 1
        key = encode(maps)
        if key in visited:
            continue
        orbit = {key}
        frontier = [maps]
        while frontier:
            cur = frontier.pop()
            for left, right in actions:
                new = dict(cur)
                for hid, g in left.items():
                    new[hid] = m_mul(F, g, new[hid])
                for hid, gt in right.items():
                    new[hid] = _mul_t(F, new[hid], gt)
                k = encode(new)
                if k not in orbit:
                    orbit.add(k)
                    frontier.append(new)
        visited |= orbit
        rep_key = min(orbit)
        reps.append(({a: m for a, m in zip(arrow_ids, rep_key)}, len(orbit)))
    if len(visited) != n_states:
        raise OracleError("BFS orbits do not partition the state space")
    return reps


# -- synthesizers: the indecomposables of one dimension vector, [(key, module)]

def kronecker_indec(shape, F, key):
    """Representative of a Kronecker indecomposable from its family key."""
    a_id, b_id = shape.arrows[0].id, shape.arrows[1].id
    kind = key[0]
    if kind in ("pp", "pi"):
        n = key[1]
        A = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n + 1))
        B = tuple(tuple(1 if i == j + 1 else 0 for j in range(n)) for i in range(n + 1))
        if kind == "pp":
            return FiniteModule(shape, F, (n, n + 1), {a_id: A, b_id: B})
        # the preinjective of (n + 1, n) has the transposed maps
        return FiniteModule(shape, F, (n + 1, n), {a_id: m_transpose(A), b_id: m_transpose(B)})
    if kind == "reg":
        p, ell = key[1], key[2]
        n = (len(p) - 1) * ell
        A = m_id(F, n)
        B = companion(F, poly_pow_gf(F, p, ell))
        return FiniteModule(shape, F, (n, n), {a_id: A, b_id: B})
    if kind == "reginf":
        ell = key[1]
        A = companion(F, poly_pow_gf(F, (0, 1), ell))
        B = m_id(F, ell)
        return FiniteModule(shape, F, (ell, ell), {a_id: A, b_id: B})
    raise ValueError("unknown Kronecker indec key %r" % (key,))


def kronecker_indec_keys(F, dims):
    """All Kronecker indecomposable family keys of a given dimension vector."""
    a, b = dims
    keys = []
    if b == a + 1:
        keys.append(("pp", a))
    if a == b + 1:
        keys.append(("pi", b))
    if a == b and a > 0:
        n = a
        irred = monic_irreducibles(F, n)
        for d in range(1, n + 1):
            if n % d:
                continue
            ell = n // d
            for p in irred[d]:
                keys.append(("reg", p, ell))
        keys.append(("reginf", n))
    return keys


def synth_kronecker(shape, F, dims):
    """The Kronecker indecomposables of dims, one per family key."""
    return [(key, kronecker_indec(shape, F, key)) for key in kronecker_indec_keys(F, dims)]


def synthesizer_of(shape):
    """The synthesizer of shape's known families; None means orbit enumeration.

    Cyclic (nilpotent) shapes get segments, and two trivially valued
    vertices with exactly two arrows, both first -> second with m = 1, the
    Kronecker families.
    """
    if shape.nilpotent:
        from .cyclic import synth_cyclic
        return synth_cyclic
    arrows = [(h.src, h.tgt, h.m, shape.d[h.src], shape.d[h.tgt]) for h in shape.arrows]
    # (source, target, m, d_source, d_target): two arrows first -> second, all trivial
    return synth_kronecker if arrows == [shape.vertices + (1, 1, 1)] * 2 else None


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

class ClassInfo:
    __slots__ = ("cid", "_module", "dims", "indec", "decomposition", "synth_key",
                 "end", "aut", "res", "defect")

    def __init__(self, cid, module, dims):
        self.cid = cid
        self._module = module         # a FiniteModule, or (decomposition, (modules, shape, F))
        self.dims = dims
        self.indec = False
        self.decomposition = ()       # tuple of (indec cid, mult)
        self.synth_key = None
        self.end = None               # dim_k End
        self.aut = None               # |Aut|
        self.res = None               # residue degree of End/rad, indecs only
        self.defect = None            # 'pp' | 'reg' | 'pi' for indecs, affine shapes

    @property
    def module(self):
        """The representative; a recorded sum is formed from its classes on first read."""
        if not isinstance(self._module, FiniteModule):
            named, (modules, shape, F) = self._module
            self._module = direct_sum(*(modules[y] for y, m in named for _ in range(m)),
                                      shape=shape, F=F)
        return self._module


#: the position of each defect class in the order pp < reg < pi
_DEFECT_RANK = {"pp": 0, "reg": 1, "pi": 2}

#: the ClassInfo fields a cache file holds as they are
_STORED_AS_IS = ("indec", "end", "aut", "res", "defect")


def _residue_degree(q, e, aut):
    """r with End M / rad = F_{q^r} when End M, of dimension e over F_q, is local; else None.

    For End M / rad = prod_i M_{n_i}(F_{q^{k_i}}), |Aut M| is q^(dim rad)
    prod_i |GL_{n_i}(q^{k_i})|, and |GL_n(Q)| = Q^(n(n-1)/2) prod_{j<=n} (Q^j - 1).
    So aut = q^(e - s) prod_j (q^{a_j} - 1) with s = sum_j a_j, and e - s is
    its q-adic valuation.  Two or more factors q^a - 1 multiply to less than
    q^s - 1, so aut = (q^r - 1) q^(e - r) with r = s exactly when End M / rad
    is the one field F_{q^r}, that is, when End M is local.
    """
    k = 0
    while aut and aut % q == 0:
        aut //= q
        k += 1
    r = e - k
    return r if 1 <= r <= e and aut == q ** r - 1 else None


class _Fragments(dict):
    """The name fragment "(repr(synth key), m)" of each (cid, m), formed on first read."""

    def __init__(self, reprs):
        super().__init__()
        self.reprs = reprs

    def __missing__(self, cm):
        text = self[cm] = "(%s, %d)" % (self.reprs[cm[0]], cm[1])
        return text


def _dims_closure(requested):
    seen = {t for dims in requested for t in gradings_below(dims)}
    return sorted(seen, key=lambda t: (sum(t), t))


class IsoClassCatalog:
    """One representative per isomorphism class for a set of dimension vectors.

    Every slice comes from the synthesizer the shape decides (synthesizer_of),
    which lists its indecomposables; the catalog forms the direct sums.  Without
    known families, orbit enumeration is the synthesizer (_orbit_indecs).
    The exact mass formula
    sum |G| / |Aut M| = |representation space| certifies completeness on
    every dimension vector of an acyclic shape and on every nilpotent one
    small enough to count; an orbit-enumerated slice must also have the
    walked orbit sizes |G| / |Aut| of its classes.  Construction, from a
    build or a cache, certifies that no two classes of a slice are
    isomorphic (see _certify_distinct) and raises OracleError otherwise.  A catalog read
    from a cache is mass-checked again, slice by slice, and must certify
    exactly the slices the file lists as checked.  The probes that
    classify uses are chosen per slice on its first classification, so
    probes_by_dim is empty right after construction.
    """

    def __init__(self, shape, F, dims_list, cache_dir=None):
        for dims in dims_list:
            if len(dims) != len(shape.vertices) or min(dims, default=0) < 0:
                raise ValueError("dimension vector %s is not %d nonnegative entries, "
                                 "one per vertex" % (tuple(dims), len(shape.vertices)))
        self.shape = shape
        self.F = F
        self.dims_list = _dims_closure(dims_list)
        self.classes = []
        self.by_dim = {}
        self.indec_ids = []
        self._pair_hom = {}
        self._classify_cache = {}
        self._scan_cache = {}
        self.probes_by_dim = {}
        self._hom_systems = {}
        self._class_by_profile = {}
        self._tubes = None            # tube_structure, on first use
        self.mass_checked = []
        self._orbit_sizes = {}        # dims -> sorted orbit sizes, for orbit-enumerated slices
        self.cache_dir = cache_dir
        self.delta = None
        if not shape.nilpotent:
            datum = cartan_of(shape)
            if is_affine(datum):
                self.delta = min_delta(datum)
        if not (cache_dir and self._load_cache()):
            self._build()
            if cache_dir:
                self._save_cache()
        self._certify_distinct()

    # -- construction ---------------------------------------------------

    def _group_order(self, dims):
        out = 1
        for i in self.shape.vertices:
            ii = self.shape.index[i]
            out *= gl_order(self.F.q ** self.shape.d[i], dims[ii])
        return out

    def _build(self):
        check_admission(self.shape, self.F, self.dims_list)
        synthesizer = synthesizer_of(self.shape)
        # of each finished slice; of each indec, its synth key's repr and its module.
        # A sum holds modules, not the catalog, so no cycle keeps a dropped catalog alive.
        index, reprs, modules = {}, {}, {}
        for dims in self.dims_list:
            start = len(self.classes)
            self._build_dim_synth(dims, synthesizer or self._orbit_indecs, index, reprs, modules)
            self.by_dim[dims] = list(range(start, len(self.classes)))
            self._mass_check(dims)

    def _orbit_indecs(self, shape, F, dims):
        """The indecomposables of dims by orbit enumeration, a synthesizer.

        An orbit representative M is kept when End M is local, which
        _residue_degree decides from |Aut M| = |G| / orbit size and
        dim End M.  Its key is its tuple of arrow maps, the minimal state of
        its orbit; the flat tuple of their entries would be () for every
        simple.  The sorted orbit sizes are kept for _mass_check, which
        matches them against |G| / |Aut| of the classes.
        """
        g = self._group_order(dims)
        reps = enumerate_bfs(shape, F, dims)
        self._orbit_sizes[dims] = sorted(size for _, size in reps)
        out = []
        for maps, size in reps:
            M = FiniteModule(shape, F, dims, maps)
            if _residue_degree(F.q, hom_dim(M, M), g // size) is not None:
                out.append((M.key()[1], M))
        return out

    def _build_dim_synth(self, dims, synthesizer, index, reprs, modules):
        """Every class of dims: a new indecomposable, or a sum grown from a smaller slice.

        A sum of two or more summands is listed once, as C + X: X is one copy
        of its summand of largest cid, a cataloged indecomposable, and C a
        class of dims - dim X whose summands all have cid at most X's.
        index[dims - dim X] holds that slice's classes ascending in their
        largest summand cid, so those C are a prefix of it.  dim End adds up,
        end C + dim End X + sum over (Y, m) in C of m (dim Hom(X, Y) + dim Hom(Y, X)).
        |Aut(C + X)| = |Aut C| (q^(rm) - 1) q^(end - end C - rm), m the multiplicity
        and r the residue degree of X: |GL_m(q^r)| / |GL_(m-1)(q^r)| folded
        into |Aut| = prod |GL_m(q^r)| q^(end - sum m^2 r) over summands.
        Classes come in repr order of their name, which joins one fragment
        (repr(synth key), m) per summand in repr order; a sum keeps its
        (cid, m) in that order and the map modules to form on first read.
        The slice is then indexed for the slices above it; reprs and modules
        map each indecomposable's cid to its repr and its module.
        """
        q, source = self.F.q, (modules, self.shape, self.F)
        # (name, module, decomposition, synth key, end, aut): _add_class's arguments after the name
        entries = [("((%s, 1),)" % repr(key), M, None, key, None, None)
                   for key, M in synthesizer(self.shape, self.F, dims)]
        if not any(dims):
            entries.append(("()", ((), source), (), None, 0, 1))
        fragments = _Fragments(reprs)
        for x in self.indec_ids:
            X = self.classes[x]
            rest = tuple(map(sub, dims, X.dims))
            if min(rest) < 0:
                continue
            tops, cids = index[rest]
            sym = {}   # dim Hom(X, Y) + dim Hom(Y, X) by the cid of Y
            for c in cids[:bisect_right(tops, x)]:
                info = self.classes[c]
                end = info.end + X.end
                for y, m in info.decomposition:
                    if y not in sym:
                        sym[y] = self._pair(x, y) + self._pair(y, x)
                    end += m * sym[y]
                dec = info.decomposition
                if dec[-1][0] == x:
                    m = dec[-1][1] + 1
                    dec = dec[:-1] + ((x, m),)
                else:
                    m = 1
                    dec += ((x, 1),)
                rm = X.res * m
                aut = info.aut * (q ** rm - 1) * q ** (end - info.end - rm)
                named = sorted(dec, key=lambda cm: reprs[cm[0]])
                name = "(%s%s)" % (", ".join(map(fragments.__getitem__, named)),
                                   "," if len(named) == 1 else "")
                entries.append((name, (named, source), dec, None, end, aut))
        entries.sort(key=itemgetter(0))
        start, first = len(self.classes), len(self.indec_ids)
        for _, module, dec, key, end, aut in entries:
            self._add_class(module, dims, dec, key, end, aut)
        for x in self.indec_ids[first:]:
            reprs[x], modules[x] = repr(self.classes[x].synth_key), self.classes[x].module
        tops = sorted((info.decomposition[-1][0], info.cid)
                      for info in self.classes[start:] if info.decomposition)
        index[dims] = [top for top, _ in tops], [cid for _, cid in tops]

    def _add_class(self, module, dims, decomposition, synth_key=None, end=None, aut=None):
        """Append the class of module: a new indecomposable for decomposition None, else a sum."""
        info = ClassInfo(len(self.classes), module, dims)
        if decomposition is None:
            info.indec = True
            info.synth_key = synth_key
            self.indec_ids.append(info.cid)
            info.decomposition = ((info.cid, 1),)
            self._finish_indec(info)
        else:
            info.decomposition = decomposition
            info.end, info.aut = end, aut
        self.classes.append(info)
        return info

    def _pair(self, p_cid, x_cid):
        """dim Hom(indec p, indec x), cached; a miss fills p against every indec of x's slice."""
        if (p_cid, x_cid) not in self._pair_hom:
            self._fill_pairs([(p_cid, x) for x in self.by_dim[self.classes[x_cid].dims]
                              if self.classes[x].indec])
        return self._pair_hom[(p_cid, x_cid)]

    def _fill_pairs(self, pairs):
        """Cache dim Hom(p, x) of the new pairs: one Hom system per (p, dim x), not kept.

        On an affine shape a pair that is not regular x regular needs none.
        For indecomposables X, Y in the order pp < reg < pi, Hom(X, Y) = 0
        when Y comes first and Ext^1(X, Y) = D Hom(Y, tau X) = 0 when X comes
        first; within the directed pp or pi component one of the two
        vanishes.  So dim Hom(p, x) is the Euler form <p, x> when p comes
        first, max(<p, x>, 0) when both lie in pp or both in pi, and 0 when
        x comes first.
        """
        todo = {}
        for p, x in pairs:
            if (p, x) in self._pair_hom:
                continue
            a, b = self.classes[p], self.classes[x]
            if self.delta is None or a.defect == b.defect == "reg":
                todo.setdefault((p, b.dims), {})[x] = None
            elif _DEFECT_RANK[a.defect] > _DEFECT_RANK[b.defect]:
                self._pair_hom[(p, x)] = 0
            else:
                e = euler_form(self.shape, a.dims, b.dims)
                self._pair_hom[(p, x)] = e if a.defect != b.defect else max(e, 0)
        for (p, dims), xs in todo.items():
            system = HomSystem(self.classes[p].module, dims)
            for x in xs:
                self._pair_hom[(p, x)] = system.dim(self.classes[x].module)

    def _finish_indec(self, info):
        """dim End (also cached as dim Hom(X, X)), then |Aut| and the residue
        degree of End/rad from the same basis of End (_aut_and_residue)."""
        basis = hom_space(info.module, info.module)
        info.end = self._pair_hom[(info.cid, info.cid)] = len(basis)
        info.aut, info.res = _aut_and_residue(info.module, basis)
        if info.res is None:
            raise OracleError("class %d is not local; indec detection failed" % info.cid)
        if self.delta is not None:
            dfc = euler_form(self.shape, self.delta, info.dims)
            info.defect = "pp" if dfc < 0 else ("pi" if dfc > 0 else "reg")

    def _mass_check(self, dims):
        """Certify the slice by the mass formula sum |G|/|Aut M| = #states.

        For acyclic shapes #states is the closed form q^N, so every slice is
        checked; STATE_BUDGET bounds only the nilpotent point count.
        """
        n_states = _state_count(self.shape, self.F, dims)
        if self.shape.nilpotent:
            if n_states > 2 ** STATE_BUDGET:
                return
            n_states = _nilpotent_point_count(self.shape, self.F, dims)
        g = self._group_order(dims)
        orbits = []
        for cid in self.by_dim[dims]:
            aut = self.classes[cid].aut
            if g % aut:
                raise OracleError("|Aut| does not divide |G| at class %d" % cid)
            orbits.append(g // aut)
        walked = self._orbit_sizes.get(dims)
        if walked is not None and walked != sorted(orbits):
            raise OracleError("orbit sizes at %s over GF(%d) are not |G|/|Aut| of its classes"
                              % (dims, self.F.q))
        if sum(orbits) != n_states:
            raise OracleError(
                "mass check failed at %s over GF(%d): %d orbits counted vs %d states"
                % (dims, self.F.q, sum(orbits), n_states))
        self.mass_checked.append(dims)

    def _certify_distinct(self):
        """Certify that the classes of every slice are pairwise non-isomorphic.

        By Krull-Schmidt, modules are isomorphic exactly when their
        decompositions into indecomposables agree.  So it suffices that the
        decompositions of each slice are pairwise distinct and that no two
        indecomposables of a slice are isomorphic (indecomposables of
        different slices differ in dimension).  Isomorphic modules have the
        same dim End and the same residue degree of End/rad, so the
        indecomposables of a slice are grouped by (end, res), which
        _finish_indec computes exactly (a catalog read from a cache takes
        them from the file, as it takes |Aut|), and Hom profiles need only
        separate each group of two or more.  A group's own come first as
        candidates, since X = Y forces dim Hom(X, Y) = end X.
        """
        for dims, cids in self.by_dim.items():
            decs = {self.classes[cid].decomposition for cid in cids}
            if len(decs) != len(cids):
                raise OracleError("two classes at %s share a decomposition" % (dims,))
            groups = {}
            for cid in cids:
                info = self.classes[cid]
                if info.indec:
                    groups.setdefault((info.end, info.res), []).append(cid)
            for group in groups.values():
                if len(group) > 1:
                    self._separate(group, dims,
                                   group + [p for p in self.indec_ids if p not in group])

    def _separate(self, cids, dims, candidates):
        """Probes whose Hom profiles tell the classes cids apart.

        Candidates are taken in order and kept only when they split a group
        of classes whose profiles still collide; each kept probe extends
        every profile by one entry.  Raises OracleError when the candidates
        run out first, which their order does not change.
        """
        groups = [list(cids)]
        probes = []
        for p in candidates:
            if not groups:
                break
            self._fill_pairs([(p, icid) for group in groups for cid in group
                              for icid, _ in self.classes[cid].decomposition])
            parts = []
            for group in groups:
                by_entry = {}
                for cid in group:
                    by_entry.setdefault(self._class_profile_entry(cid, p), []).append(cid)
                parts.append(by_entry)
            if all(len(by_entry) == 1 for by_entry in parts):
                continue
            probes.append(p)
            groups = [g for by_entry in parts for g in by_entry.values() if len(g) > 1]
        if groups:
            raise OracleError("profiles do not separate the classes at %s" % (dims,))
        return probes

    def _class_profile_entry(self, cid, probe_cid):
        """dim Hom(probe, class) via additivity over the decomposition."""
        return sum(m * self._pair(probe_cid, icid)
                   for icid, m in self.classes[cid].decomposition)

    # -- queries ----------------------------------------------------------

    def classes_of_dim(self, dims):
        return [self.classes[cid] for cid in self.by_dim.get(tuple(dims), ())]

    def classify(self, module):
        """The catalog class id of a module (dims must be cataloged).

        A slice with several classes gets its probes on its first
        classification: indecomposables whose Hom profiles separate the
        classes of the slice (see _separate), and one Hom system per probe
        for the slice.  The module's profile against them names its class.
        """
        dims = module.dims
        if dims not in self.by_dim:
            raise KeyError("dimension vector %s is not cataloged" % (dims,))
        cids = self.by_dim[dims]
        if len(cids) == 1:
            return cids[0]
        key = module.key()
        if key in self._classify_cache:
            return self._classify_cache[key]
        if dims not in self.probes_by_dim:
            probes = self._separate(cids, dims, self.indec_ids)
            self.probes_by_dim[dims] = probes
            self._hom_systems[dims] = [HomSystem(self.classes[p].module, dims) for p in probes]
            self._class_by_profile[dims] = {
                tuple(self._class_profile_entry(cid, p) for p in probes): cid for cid in cids}
        prof = tuple(system.dim(module) for system in self._hom_systems[dims])
        match = self._class_by_profile[dims].get(prof)
        if match is None:
            raise OracleError("module of dims %s matches no catalog class" % (dims,))
        self._classify_cache[key] = match
        return match

    def decompose(self, module_or_cid):
        """Multiset of indecomposable class ids."""
        if isinstance(module_or_cid, FiniteModule):
            cid = self.classify(module_or_cid)
        else:
            cid = module_or_cid
        return self.classes[cid].decomposition

    def defect_class(self, cid):
        info = self.classes[cid]
        if self.delta is None:
            raise ValueError("defect classes need an affine valued quiver")
        if not info.indec:
            raise ValueError("defect classes are defined for indecomposables")
        return {"pp": "preprojective", "reg": "regular", "pi": "preinjective"}[info.defect]

    # -- submodule scans and Hall numbers ----------------------------------

    def scan_dim(self, dims, sub=None):
        """For every class L of this dimension: counts of (quotient, sub) ids.

        With sub, only the submodules of dimension sub count; without, all
        of them.  Each split is scanned once: from memory, else from its own
        scan file, else by _scan, which enumerates only its submodules, and
        then written to its file once.
        """
        dims, sub = tuple(dims), None if sub is None else tuple(sub)
        key = dims if sub is None else (dims, sub)
        out = self._scan_cache.get(key)
        if out is None:
            out = self._load_scan(dims, sub) if self.cache_dir else None
            if out is None:
                out = self._scan(dims, sub)
                if self.cache_dir:
                    self._save_scan(dims, sub, out)
            self._scan_cache[key] = out
        return out

    def _scan(self, dims, sub=None):
        out = {}
        for cid in self.by_dim[dims]:
            L = self.classes[cid].module
            counts = {}
            for st in submodule_tuples(L, sub):
                S, Q = sub_quotient(L, st)
                key = (self.classify(Q), self.classify(S))
                counts[key] = counts.get(key, 0) + 1
            out[cid] = counts
        return out

    # -- tubes --------------------------------------------------------------

    def regular_indec_ids(self):
        return [cid for cid in self.indec_ids if self.classes[cid].defect == "reg"]

    def regular_simple_ids(self):
        """Regular indecomposables with no proper nonzero regular submodule.

        Regular modules form an exact abelian subcategory (Dlab & Ringel,
        Mem. AMS 173, 1976; Ringel, LNM 1099, 1984), so the image of a map
        between them is regular: R is regular simple iff Hom(X, R) = 0 for
        every regular indecomposable X with dim X <= dim R componentwise and
        dim X != dim R.  Fills the regular x regular Hom block (_fill_pairs).
        """
        regs = self.regular_indec_ids()
        self._fill_pairs([(x, r) for x in regs for r in regs])
        dims = {cid: self.classes[cid].dims for cid in regs}
        return [r for r in regs if not any(
            self._pair(x, r) for x in regs
            if dims[x] != dims[r] and all(a <= b for a, b in zip(dims[x], dims[r])))]

    def tube_structure(self):
        """Tubes: tau-orbits of regular simples, nonhomogeneous ones first.

        tau X is detected as the unique regular simple Y with Ext^1(X, Y)
        nonzero (the almost split sequence ending at X), cross-checked on
        trivially valued shapes against the Coxeter transformation.
        dim Ext^1(X, Y) = dim Hom(X, Y) - <dim X, dim Y> (hereditary; Dlab &
        Ringel, as above) reads the regular Hom block.  Computed once.
        """
        if self._tubes is not None:
            return self._tubes
        simples = self.regular_simple_ids()
        tau = {}
        for cid in simples:
            ext = [self._pair(cid, oth) - euler_form(self.shape, self.classes[cid].dims,
                                                     self.classes[oth].dims) for oth in simples]
            if min(ext) < 0:
                raise OracleError("negative Ext dimension; Euler identity violated")
            targets = [oth for oth, e in zip(simples, ext) if e]
            if len(targets) != 1:
                raise OracleError("AR translate of class %d is not unique" % cid)
            tau[cid] = targets[0]
        cox = self._coxeter_matrix()
        if cox is not None:
            for cid, tcid in tau.items():
                predicted = tuple(sum(c * x for c, x in zip(row, self.classes[cid].dims))
                                  for row in cox)
                if predicted != self.classes[tcid].dims:
                    raise OracleError("tau contradicts the Coxeter transformation")
        seen = set()
        tubes = []
        for cid in simples:
            if cid in seen:
                continue
            orbit = [cid]
            seen.add(cid)
            nxt = tau[cid]
            while nxt not in seen:
                orbit.append(nxt)
                seen.add(nxt)
                nxt = tau[nxt]
            start = min(range(len(orbit)), key=lambda k: orbit[k])
            orbit = orbit[start:] + orbit[:start]
            tubes.append({"rank": len(orbit), "simples": orbit})
        tubes.sort(key=lambda t: (-t["rank"],
                                  tuple(sorted(self.classes[c].dims for c in t["simples"]))))
        self._tubes = tubes
        return tubes

    def _coxeter_matrix(self):
        """Integer Coxeter matrix -E^-T E for trivially valued shapes."""
        from .laurent import row_reduce  # only tubes need it; a catalog alone skips laurent

        sh = self.shape
        if any(sh.d[i] != 1 for i in sh.vertices):
            return None
        n = len(sh.vertices)
        E = [[Fraction(euler_form(sh, _unit(n, a), _unit(n, b))) for b in range(n)]
             for a in range(n)]
        R, pivots = row_reduce([row + [Fraction(int(a == b)) for b in range(n)]
                                for a, row in enumerate(E)], n)
        if len(pivots) < n:
            return None
        Einv = [row[n:] for row in R]
        cox = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                s = sum(-Einv[c][a] * E[c][b] for c in range(n))
                if s.denominator != 1:
                    return None
                cox[a][b] = int(s)
        return cox

    # -- caching -------------------------------------------------------------

    @functools.cached_property
    def _cache_key(self):
        """The key of this catalog's files: its shape, field, slices and format."""
        import hashlib  # its OpenSSL backend costs memory; only cache dirs need it
        blob = "%s|%d|%s|v7" % (self.shape.key(), self.F.q,
                                ";".join(map(str, self.dims_list)))
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def _cat_path(self):
        return os.path.join(self.cache_dir, "cat_%s.json" % self._cache_key)

    def _scan_path(self, dims, sub=None):
        """The scan file of dims, or of its split at sub: scan_<key>_<dims>[_<sub>].json."""
        parts = [self._cache_key] + ["-".join(map(str, v)) for v in (dims, sub) if v is not None]
        return os.path.join(self.cache_dir, "scan_%s.json" % "_".join(parts))

    def _save_cache(self):
        os.makedirs(self.cache_dir, exist_ok=True)
        payload = {
            "schema": 1,
            "classes": [
                dict({slot: getattr(c, slot) for slot in _STORED_AS_IS},
                     dims=list(c.dims),
                     maps={h.id: [list(r) for r in c.module.maps[h.id]]
                           for h in self.shape.arrows},
                     decomposition=[list(x) for x in c.decomposition],
                     synth_key=_key_to_json(c.synth_key))
                for c in self.classes
            ],
            "by_dim": {",".join(map(str, k)): v for k, v in self.by_dim.items()},
            "mass_checked": [list(d) for d in self.mass_checked],
        }
        _write_once(self._cat_path(), payload)

    def _load_cache(self):
        """Read the catalog from its file; False when there is none, OracleError
        when the file is not a catalog."""
        path = self._cat_path()
        if not os.path.exists(path):
            return False
        with open(path) as fh:
            text = fh.read()
        try:
            payload = json.loads(text)
            for n, c in enumerate(payload["classes"]):
                dims = tuple(c["dims"])
                maps = {hid: tuple(tuple(r) for r in rows) for hid, rows in c["maps"].items()}
                M = FiniteModule(self.shape, self.F, dims, maps)
                info = ClassInfo(n, M, dims)
                for slot in _STORED_AS_IS:
                    setattr(info, slot, c[slot])
                info.decomposition = tuple(tuple(x) for x in c["decomposition"])
                info.synth_key = _key_from_json(c["synth_key"])
                self.classes.append(info)
                if info.indec:
                    self.indec_ids.append(n)
            self.by_dim = {tuple(int(x) for x in k.split(",")) if k else (): v
                           for k, v in payload["by_dim"].items()}
            stored = [tuple(d) for d in payload["mass_checked"]]
        except (ValueError, KeyError, TypeError, AttributeError):
            raise OracleError("cache file %s is not a catalog" % path) from None
        if set(self.by_dim) != set(self.dims_list):
            raise OracleError("cache file %s does not hold the slices %s"
                              % (path, self.dims_list))
        try:
            for dims in self.dims_list:
                self._mass_check(dims)
        except OracleError as err:
            raise OracleError("cache file %s: %s" % (path, err)) from None
        if self.mass_checked != stored:
            raise OracleError("cache file %s lists the mass-checked slices %s, the check gives %s"
                              % (path, stored, self.mass_checked))
        return True

    def _save_scan(self, dims, sub, out):
        # the cache dir exists: the catalog was read from it or written to it
        payload = {str(cid): {"%d,%d" % k: v for k, v in counts.items()}
                   for cid, counts in out.items()}
        _write_once(self._scan_path(dims, sub), payload)

    def _load_scan(self, dims, sub=None):
        """The scan of dims, or of its split at sub, from its file; None when there is none.

        The file must list exactly the classes of the slice.  Every
        (quotient, sub) pair must be classes whose dimension vectors add up
        to dims, and for a split the sub class must have dimension sub.
        """
        path = self._scan_path(dims, sub)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            text = fh.read()
        try:
            out = {int(cid): {tuple(int(x) for x in k.split(",")): v for k, v in counts.items()}
                   for cid, counts in json.loads(text).items()}
        except ValueError:
            raise OracleError("scan file %s is not a scan of class ids" % path) from None
        if set(out) != set(self.by_dim[dims]):
            raise OracleError("scan file %s does not list the classes of the slice %s"
                              % (path, dims))
        n = len(self.classes)
        for counts in out.values():
            for pair in counts:
                ok = len(pair) == 2 and all(0 <= k < n for k in pair)
                if not ok or tuple(map(sum, zip(*(self.classes[k].dims for k in pair)))) != dims:
                    raise OracleError("scan file %s pairs classes %s, whose dimension "
                                      "vectors do not add up to %s" % (path, pair, dims))
                if sub is not None and self.classes[pair[1]].dims != sub:
                    raise OracleError("scan file %s pairs classes %s, whose sub is not of "
                                      "dimension %s" % (path, pair, sub))
        return out


def _write_once(path, payload):
    """Write payload as JSON to path unless it exists, atomically.

    The text goes to a temporary file in the same directory that replaces
    path only when complete, so a crash or an exception leaves either no
    file or a whole one, never a truncated file that later runs would load.
    """
    if os.path.exists(path):
        return
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _unit(n, a):
    return tuple(1 if i == a else 0 for i in range(n))


def _key_to_json(key):
    return list(map(_key_to_json, key)) if isinstance(key, tuple) else key


def _key_from_json(key):
    """A synthesizer key from its JSON form: every list, at any depth, back to a tuple."""
    return tuple(map(_key_from_json, key)) if isinstance(key, list) else key


# ---------------------------------------------------------------------------
# module-level spec operations (catalog-free, for small direct use)
# ---------------------------------------------------------------------------

def hall_number(L, M, N):
    """g^L_{MN} by exhaustive submodule enumeration and isomorphism tests."""
    if tuple(a + b for a, b in zip(M.dims, N.dims)) != L.dims:
        raise ValueError("dim L must equal dim M + dim N")
    count = 0
    for st in submodule_tuples(L, N.dims):
        S, Q = sub_quotient(L, st)
        if is_isomorphic(S, N) and is_isomorphic(Q, M):
            count += 1
    return count
