"""Valued quivers, folding, Cartan data, Euler forms and real-root sequences.

Dimension vectors are plain tuples of ints aligned with the quiver's vertex
order.  All root-system arithmetic is exact integer arithmetic; affineness is
decided by an exact rational semidefiniteness test, never numerically.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import le, sub


class Arrow:
    __slots__ = ("id", "src", "tgt", "m")

    def __init__(self, aid, src, tgt, m=1):
        self.id = aid
        self.src = src
        self.tgt = tgt
        self.m = int(m)

    def __repr__(self):
        return "Arrow(%r, %r -> %r, m=%d)" % (self.id, self.src, self.tgt, self.m)


class QuiverAutomorphism:
    """A pair of permutations compatible with sources and targets."""

    def __init__(self, quiver, vertex_perm, arrow_perm):
        self.quiver = quiver
        self.vertex_perm = dict(vertex_perm)
        self.arrow_perm = dict(arrow_perm)
        if set(self.vertex_perm) != set(quiver.vertices) or \
                set(self.vertex_perm.values()) != set(quiver.vertices):
            raise ValueError("vertex_perm is not a permutation of the vertices")
        aids = {h.id for h in quiver.arrows}
        if set(self.arrow_perm) != aids or set(self.arrow_perm.values()) != aids:
            raise ValueError("arrow_perm is not a permutation of the arrows")
        by_id = {h.id: h for h in quiver.arrows}
        for h in quiver.arrows:
            img = by_id[self.arrow_perm[h.id]]
            if img.src != self.vertex_perm[h.src] or img.tgt != self.vertex_perm[h.tgt]:
                raise ValueError("permutations do not commute with source/target at arrow %r" % (h.id,))

    @staticmethod
    def identity(quiver):
        return QuiverAutomorphism(quiver,
                                  {i: i for i in quiver.vertices},
                                  {h.id: h.id for h in quiver.arrows})


class ValuedQuiver:
    """A valued quiver: vertex valuations d_i, arrow valuations m_h.

    Vertex ids are distinct and arrows join declared vertices; m_h >= 1 is
    a common multiple of d at both endpoints; no loops, acyclic.
    """

    def __init__(self, vertices, d, arrows):
        self.vertices = tuple(vertices)
        self.index = {i: n for n, i in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.d = {i: int(d[i]) for i in self.vertices}
        self.arrows = tuple(h if isinstance(h, Arrow) else Arrow(*h) for h in arrows)
        for i, di in self.d.items():
            if di < 1:
                raise ValueError("vertex valuation at %r must be positive" % (i,))
        for h in self.arrows:
            if h.src not in self.index or h.tgt not in self.index:
                raise ValueError("arrow %r has an endpoint outside the vertex set" % (h.id,))
            if h.src == h.tgt:
                raise ValueError("loop at vertex %r" % (h.src,))
            if h.m < 1:
                raise ValueError("arrow valuation m=%d at %r must be positive" % (h.m, h.id))
            if h.m % self.d[h.src] or h.m % self.d[h.tgt]:
                raise ValueError("arrow valuation m=%d at %r is not a common multiple of d" % (h.m, h.id))
        if topological_order(self.vertices, [(h.src, h.tgt) for h in self.arrows]) is None:
            raise ValueError("valued quiver has an oriented cycle")

    @property
    def n(self):
        return len(self.vertices)

    def unit_vector(self, i):
        e = [0] * self.n
        e[self.index[i]] = 1
        return tuple(e)

    def reverse_at(self, i):
        """The valued quiver with all arrows at vertex i reversed."""
        arrows = [Arrow(h.id, h.tgt, h.src, h.m) if i in (h.src, h.tgt) else h
                  for h in self.arrows]
        return ValuedQuiver(self.vertices, self.d, arrows)

    #: module categories over acyclic quivers have no nilpotency condition
    nilpotent = False

    def key(self):
        """Deterministic structural key, used for cache file names."""
        return "V[%s]A[%s]" % (
            ",".join("%s:%d" % (i, self.d[i]) for i in self.vertices),
            ",".join("%s:%s>%s:%d" % (h.id, h.src, h.tgt, h.m) for h in self.arrows),
        )

    def __repr__(self):
        return "ValuedQuiver(%s)" % self.key()


def topological_order(vertices, arrows):
    """The sources-first order of the vertices that is smallest by str of the ids.

    arrows are (source, target) pairs; at each step the smallest vertex with
    no arrow in from the vertices not yet ordered comes next.  None when the
    arrows close an oriented cycle.
    """
    indeg = dict.fromkeys(vertices, 0)
    for _, t in arrows:
        indeg[t] += 1
    ready = [i for i in vertices if not indeg[i]]
    order = []
    while ready:
        i = min(ready, key=str)
        ready.remove(i)
        order.append(i)
        for s, t in arrows:
            if s == i:
                indeg[t] -= 1
                if not indeg[t]:
                    ready.append(t)
    return tuple(order) if len(order) == len(indeg) else None


def fold(quiver, auto):
    """Fold a trivially valued quiver along an automorphism into a valued quiver.

    Vertices/arrows of the result are the orbits; valuations are orbit sizes.
    Folding must not create a loop (an arrow inside a single vertex orbit).
    """
    if any(quiver.d[i] != 1 for i in quiver.vertices) or any(h.m != 1 for h in quiver.arrows):
        raise ValueError("fold needs a quiver whose valuations are all 1")

    def orbit(perm, x):
        o = [x]
        y = perm[x]
        while y != x:
            o.append(y)
            y = perm[y]
        return tuple(sorted(o, key=str))

    v_orbits = {}
    for i in quiver.vertices:
        v_orbits[i] = orbit(auto.vertex_perm, i)
    distinct_v = sorted(set(v_orbits.values()), key=str)
    names = {o: o[0] if len(o) == 1 else "+".join(str(x) for x in o) for o in distinct_v}
    d = {names[o]: len(o) for o in distinct_v}

    by_id = {h.id: h for h in quiver.arrows}
    a_orbits = sorted({orbit(auto.arrow_perm, h.id) for h in quiver.arrows}, key=str)
    arrows = []
    for o in a_orbits:
        h = by_id[o[0]]
        src = names[v_orbits[h.src]]
        tgt = names[v_orbits[h.tgt]]
        if src == tgt:
            raise ValueError("folding creates a loop at orbit %r" % (src,))
        aid = o[0] if len(o) == 1 else "+".join(str(x) for x in o)
        arrows.append(Arrow(aid, src, tgt, len(o)))
    return ValuedQuiver([names[o] for o in distinct_v], d, arrows)


class CartanDatum:
    """Index set I with matrices C (Cartan) and D (symmetrizer)."""

    def __init__(self, index, C, D):
        self.index = tuple(index)
        self.pos = {i: n for n, i in enumerate(self.index)}
        self.C = tuple(tuple(int(x) for x in row) for row in C)
        self.D = tuple(int(x) for x in D)
        n = len(self.index)
        for a in range(n):
            if self.C[a][a] != 2:
                raise ValueError("C has a diagonal entry != 2")
            if self.D[a] < 1:
                raise ValueError("D must have positive diagonal")
            for b in range(n):
                if a != b and self.C[a][b] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if self.D[a] * self.C[a][b] != self.D[b] * self.C[b][a]:
                    raise ValueError("DC is not symmetric")

    @property
    def n(self):
        return len(self.index)

    def sym(self, a, b):
        """(i,j) entry of the symmetric form DC, by position."""
        return self.D[a] * self.C[a][b]

    def sym_form(self, x, y):
        return sum(x[a] * self.D[a] * self.C[a][b] * y[b]
                   for a in range(self.n) for b in range(self.n))


def cartan_of(vq):
    """The Cartan datum of a valued quiver: C_ij = -sum m_h / d_i, D = diag(d)."""
    n = vq.n
    C = [[0] * n for _ in range(n)]
    for a in range(n):
        C[a][a] = 2
    for h in vq.arrows:
        a, b = vq.index[h.src], vq.index[h.tgt]
        # arrows between i and j contribute in both matrix slots
        C[a][b] -= h.m // vq.d[vq.vertices[a]]
        C[b][a] -= h.m // vq.d[vq.vertices[b]]
    D = [vq.d[i] for i in vq.vertices]
    return CartanDatum(vq.vertices, C, D)


def euler_form(vq, x, y):
    """<x,y> = sum d_i x_i y_i - sum_h m_h x_{s(h)} y_{t(h)}."""
    total = sum(vq.d[i] * x[vq.index[i]] * y[vq.index[i]] for i in vq.vertices)
    for h in vq.arrows:
        total -= h.m * x[vq.index[h.src]] * y[vq.index[h.tgt]]
    return total


def sym_form(vq, x, y):
    return euler_form(vq, x, y) + euler_form(vq, y, x)


# -- bounded multisets of dimension vectors --------------------------------

def gradings_below(cap):
    """Every grading 0 <= nu <= cap componentwise, in ascending lexicographic order."""
    return itertools.product(*(range(c + 1) for c in cap))


def multisets(weights, bound, exact=True):
    """Every multiset of weighted items whose total weight fits in bound.

    Yields (chosen, rest): chosen is the tuple of (k, m) pairs, ascending in
    the item index k, of the items k given a multiplicity m > 0, and
    rest = bound - sum m * weights[k] over chosen, componentwise >= 0.  With
    exact=True only rest == 0 is yielded.  An item of weight zero is never
    chosen.  The order is descending lexicographic in the multiplicity
    vector: item 0 outermost, largest multiplicity first.  Nothing is built
    up front, so a caller holds one multiset at a time.

    The walk branches only on the items given a positive multiplicity, each
    after the one chosen before it; choosing no further item comes last.  The
    branches of a state (first item still open, rest) are listed once and
    kept.  With exact=True a branch is listed only when the items after it
    can fill its rest exactly, which a memoised table answers, so every
    branch taken ends in at least one multiset.
    """
    weights = [tuple(w) for w in weights]
    bound = tuple(bound)
    chosen = []
    base = [k for k, w in enumerate(weights) if any(w) and all(map(le, w, bound))]
    fills, branches = {}, {}

    def fill(j, rest):
        # can some multiset of the items base[j:] weigh exactly rest?
        if (j, rest) not in fills:
            if not any(rest) or j == len(base):
                fills[j, rest] = not any(rest)
            else:
                w = weights[base[j]]
                fills[j, rest] = fill(j + 1, rest) or (
                    all(map(le, w, rest)) and fill(j, tuple(map(sub, rest, w))))
        return fills[j, rest]

    def branch(j, rest):
        # (item, multiplicity, rest left, next open position) for walk(j, rest)
        if (j, rest) not in branches:
            out = []
            for at in range(j, len(base)):
                if exact and not fill(at, rest):
                    break
                w = weights[base[at]]
                for m in range(min(r // x for r, x in zip(rest, w) if x), 0, -1):
                    left = tuple(r - m * x for r, x in zip(rest, w))
                    if not exact or fill(at + 1, left):
                        out.append((base[at], m, left, at + 1))
            branches[j, rest] = out
        return branches[j, rest]

    def walk(j, rest):
        # every multiset of the items base[j:] within rest
        for k, m, left, nxt in branch(j, rest):
            chosen.append((k, m))
            yield from walk(nxt, left)
            chosen.pop()
        if not (exact and any(rest)):
            yield tuple(chosen), rest

    return walk(0, bound)


def reflect(datum, i, x):
    """Simple reflection s_i(x) = x - (2(x,i)/(i,i)) i."""
    a = datum.pos[i]
    pairing = sum(x[b] * datum.sym(b, a) for b in range(datum.n))
    coeff = Fraction(2 * pairing, datum.sym(a, a))
    if coeff.denominator != 1:
        raise ArithmeticError("reflection produced a non-integer coefficient")
    out = list(x)
    out[a] -= int(coeff)
    return tuple(out)


def _symmetric_kernel_and_psd(datum):
    """Exact (kernel_basis, is_psd) for the symmetric matrix DC.

    Symmetric Gaussian elimination over Q: a negative pivot or a zero pivot
    with a nonzero row falsifies positive semidefiniteness.
    """
    n = datum.n
    A = [[Fraction(datum.sym(a, b)) for b in range(n)] for a in range(n)]
    # track row operations to recover the kernel
    T = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    psd = True
    kernel_rows = []
    rows = list(range(n))
    for a in rows:
        piv = A[a][a]
        if piv < 0:
            psd = False
            break
        if piv == 0:
            if any(A[a][b] != 0 for b in range(n)):
                # zero diagonal with nonzero row: indefinite
                if any(A[a][b] != 0 for b in range(a, n)):
                    psd = False
                    break
            kernel_rows.append(a)
            continue
        for r in range(a + 1, n):
            f = A[r][a] / piv
            if f == 0:
                continue
            for c in range(n):
                A[r][c] -= f * A[a][c]
                T[r][c] -= f * T[a][c]
    if not psd:
        return [], False
    kernel = []
    for a in kernel_rows:
        # the recorded row operations express a vanishing combination of rows
        vec = T[a]
        den = lcm(*(x.denominator for x in vec))
        ints = [int(x * den) for x in vec]
        g = gcd(*ints)
        if g:
            ints = [x // g for x in ints]
        kernel.append(tuple(ints))
    return kernel, True


def is_affine(datum):
    """True iff DC is positive semidefinite with a 1-dimensional kernel."""
    kernel, psd = _symmetric_kernel_and_psd(datum)
    return psd and len(kernel) == 1


def is_finite_type(datum):
    kernel, psd = _symmetric_kernel_and_psd(datum)
    return psd and len(kernel) == 0


def min_delta(datum):
    """The primitive positive integer kernel vector of an affine datum."""
    kernel, psd = _symmetric_kernel_and_psd(datum)
    if not psd or len(kernel) != 1:
        raise ValueError("min_delta requires an affine Cartan datum")
    vec = kernel[0]
    if all(x <= 0 for x in vec):
        vec = tuple(-x for x in vec)
    if not all(x > 0 for x in vec):
        raise ArithmeticError("kernel vector of an affine datum must be sign-definite")
    return vec


class OutsideWindowError(ValueError):
    """beta_t was asked for so far out that the sequence was never checked there."""


#: AdmissibleSequence checks the periodic extension on this many periods each side
CHECK_WINDOW_PERIODS = 3


class AdmissibleSequence:
    """The doubly infinite periodic extension of a total sink ordering.

    base_order = (i_0, i_-1, ..., i_-(n-1)) lists all vertices, each a sink
    at its turn; i_t for arbitrary t is the periodic extension.  Validity of
    the source side and reducedness (positivity of beta_t) are checked on a
    finite window.
    """

    def __init__(self, vq, base_order):
        self.vq = vq
        self.base_order = tuple(base_order)
        if sorted(self.base_order, key=str) != sorted(vq.vertices, key=str):
            raise ValueError("base_order must list every vertex exactly once")
        g = vq
        for i in self.base_order:
            if i not in {x for x in g.vertices if x not in {h.src for h in g.arrows}}:
                raise ValueError("%r is not a sink at its turn in the base order" % (i,))
            g = g.reverse_at(i)
        # positive side: the periodic extension must be an admissible source sequence
        g = vq
        for t in range(1, len(self.base_order) * CHECK_WINDOW_PERIODS + 1):
            i = self.vertex(t)
            if i in {h.tgt for h in g.arrows}:
                raise ValueError("%r is not a source at step %d of the positive side" % (i, t))
            g = g.reverse_at(i)
        self.datum = cartan_of(vq)
        self._window = CHECK_WINDOW_PERIODS * len(self.base_order)
        # For finite type the doubly infinite word is never reduced, so the
        # window check must not run: beta raises lazily when roots run out,
        # which is what root listings rely on to terminate.
        if not is_finite_type(self.datum):
            for t in range(-self._window, self._window + 1):
                self.beta(t)  # raises on a negative root, i.e. a non-reduced word

    def vertex(self, t):
        """i_t of the doubly infinite sequence."""
        return self.base_order[(-t) % len(self.base_order)]

    def beta(self, t):
        """The positive real root beta_t attached to position t."""
        if abs(t) > 10 * self._window:
            raise OutsideWindowError("beta_%d lies outside the verified window |t| <= %d"
                                     % (t, 10 * self._window))
        x = self.vq.unit_vector(self.vertex(t))
        if t <= 0:
            for s in range(t + 1, 1):
                x = reflect(self.datum, self.vertex(s), x)
        else:
            for s in range(t - 1, 0, -1):
                x = reflect(self.datum, self.vertex(s), x)
        if any(c < 0 for c in x) or all(c == 0 for c in x):
            raise ValueError("beta_%d is not a positive root; the sequence is not reduced there" % t)
        return x

    def betas(self, window):
        """{t: beta_t} for |t| <= window; each ray (t <= 0, then t >= 1) is
        walked outwards and stops where the periodic word stops being reduced.

        Raises OutsideWindowError if a ray runs past the verified window first.
        """
        out = {}
        for ray in (range(0, -window - 1, -1), range(1, window + 1)):
            for t in ray:
                try:
                    out[t] = self.beta(t)
                except OutsideWindowError:
                    raise
                except ValueError:
                    break
        return out


def admissible_of(vq):
    """The admissible sequence of the sink ordering smallest by str of the ids.

    A vertex is a sink at its turn when it has no arrow out to the vertices
    not yet ordered, so the order is the sources-first order of the opposite
    quiver.
    """
    return AdmissibleSequence(vq, topological_order(vq.vertices,
                                                    [(h.tgt, h.src) for h in vq.arrows]))


# -- plain text quiver format ------------------------------------------

def parse_quiver(text):
    """Parse the textual quiver format.

    One ``vertex <id> [d=<int>]`` line per vertex and one
    ``arrow <id> <src> <tgt> [m=<int>]`` line per arrow; blank lines and
    lines starting with '#' are ignored.
    """
    vertices = []
    d = {}
    arrows = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) < 2:
                raise ValueError("line %d: vertex needs an id" % ln)
            vid = parts[1]
            dv = 1
            for p in parts[2:]:
                if p.startswith("d="):
                    dv = int(p[2:])
                else:
                    raise ValueError("line %d: unknown vertex option %r" % (ln, p))
            vertices.append(vid)
            d[vid] = dv
        elif parts[0] == "arrow":
            if len(parts) < 4:
                raise ValueError("line %d: arrow needs id, source and target" % ln)
            aid, src, tgt = parts[1], parts[2], parts[3]
            m = None
            for p in parts[4:]:
                if p.startswith("m="):
                    m = int(p[2:])
                else:
                    raise ValueError("line %d: unknown arrow option %r" % (ln, p))
            arrows.append((aid, src, tgt, m))
        else:
            raise ValueError("line %d: expected 'vertex' or 'arrow', got %r" % (ln, parts[0]))
    fixed = []
    for aid, src, tgt, m in arrows:
        if m is None:
            m = lcm(d.get(src, 1), d.get(tgt, 1))
        fixed.append(Arrow(aid, src, tgt, m))
    return ValuedQuiver(vertices, d, fixed)


# -- built-in quivers ----------------------------------------------------

def _c2_folded():
    # the finite C2: fold of the A3 path 1 -> 2 <- 3 along the swap of the two ends
    q = ValuedQuiver(("1", "2", "3"), {"1": 1, "2": 1, "3": 1},
                     (Arrow("a", "1", "2"), Arrow("b", "3", "2")))
    return fold(q, QuiverAutomorphism(q, {"1": "3", "3": "1", "2": "2"}, {"a": "b", "b": "a"}))


def _d32():
    # D_3^(2): fold of A~_3 with arrows 2 -> 1, 2 -> 3, 4 -> 1, 4 -> 3 along the swap of 2 and 4
    q = ValuedQuiver(("1", "2", "3", "4"), {v: 1 for v in "1234"},
                     (Arrow("a", "2", "1"), Arrow("b", "4", "1"),
                      Arrow("c", "2", "3"), Arrow("d", "4", "3")))
    return fold(q, QuiverAutomorphism(q, {"1": "1", "2": "4", "3": "3", "4": "2"},
                                      {"a": "b", "b": "a", "c": "d", "d": "c"}))


#: every shipped shape: name -> (builder, composition-context basis cap or None),
#: read by builtin_quiver, the contexts and --ctx help; README's table mirrors it
BUILTIN_QUIVERS = {
    "a1": (lambda: ValuedQuiver(("1",), {"1": 1}, ()), None),
    "a2": (lambda: ValuedQuiver(("1", "2"), {"1": 1, "2": 1}, (Arrow("a", "1", "2"),)), None),
    "kronecker": (lambda: ValuedQuiver(("1", "2"), {"1": 1, "2": 1},
                                       (Arrow("a", "1", "2"), Arrow("b", "1", "2"))), (2, 2)),
    "a2tilde": (lambda: ValuedQuiver(("1", "2", "3"), {"1": 1, "2": 1, "3": 1},
                                     (Arrow("a", "1", "3"), Arrow("b", "2", "3"),
                                      Arrow("c", "1", "2"))), (1, 1, 1)),
    "d32": (_d32, (1, 1, 1)),
    "c2-folded": (_c2_folded, None),
}


def builtin_quiver(name):
    """The shipped shape name, built from its BUILTIN_QUIVERS record."""
    if name == "c2tilde-folded":
        raise ValueError("c2tilde-folded is the finite C2, renamed c2-folded")
    if name not in BUILTIN_QUIVERS:
        raise ValueError("unknown built-in quiver %r" % (name,))
    return BUILTIN_QUIVERS[name][0]()


def context_caps():
    """{name: basis cap} of the shipped composition contexts, read off BUILTIN_QUIVERS."""
    return {name: cap for name, (_, cap) in BUILTIN_QUIVERS.items() if cap is not None}
