"""Multisegment calculus for nilpotent representations of the cyclic quiver.

Segments [i;l) are uniserial modules with top S_i covering the vertices
i, i+1, ..., i+l-1 (cyclically, 1-based); a multisegment is a finite
multiset of segments and indexes an isomorphism class of nilpotent
representations independently of the ground field.

The generic-extension product is computed by the single-step rule
[j;1) o pi = pi - [j+1;l0) + [j;l0+1) with l0 the maximal length of a
segment of pi starting at j+1 (l0 = 0 meaning a plain insertion), applied
once per unit of multiplicity.  Words of one-box letters evaluate right to
left; word_of peels letters off with backtracking and is specified by the
round-trip contract diamond_word(word_of(pi)) == pi.
"""

from __future__ import annotations

import functools

from .cartan import Arrow, gradings_below, multisets
from .hall import GenericHallAlgebra, apply_bar, expand_in, linear_extension, triangular_bases
from .laurent import LaurentPoly, RationalV
from .modrep import (
    FiniteModule,
    OracleError,
    field,
    hom_dim,
)


class CyclicQuiver:
    """The cyclic quiver K_r with arrows i -> i+1; nilpotent representations."""

    nilpotent = True

    def __init__(self, r):
        if r < 2:
            raise ValueError("cyclic shapes need rank >= 2")
        self.r = r
        self.vertices = tuple(str(i) for i in range(1, r + 1))
        self.index = {v: n for n, v in enumerate(self.vertices)}
        self.d = {v: 1 for v in self.vertices}
        self.arrows = tuple(Arrow("a%d" % i, str(i), str(i % r + 1), 1)
                            for i in range(1, r + 1))

    @property
    def n(self):
        return self.r

    def key(self):
        return "K%d" % self.r

    def __repr__(self):
        return "CyclicQuiver(%d)" % self.r


_SHAPES = {}


def cyclic_shape(r):
    if r not in _SHAPES:
        _SHAPES[r] = CyclicQuiver(r)
    return _SHAPES[r]


class Multisegment:
    """A finite multiset of cyclic segments pi_{i,l} [i;l), vertices 1..r."""

    __slots__ = ("r", "entries", "_key")

    def __init__(self, r, entries=None):
        self.r = r
        d = {}
        if entries:
            for (i, l), m in (entries.items() if isinstance(entries, dict) else entries):
                if not (1 <= i <= r and l >= 1):
                    raise ValueError("segment [%d;%d) out of range for rank %d" % (i, l, r))
                if m < 0:
                    raise ValueError("negative multiplicity")
                if m:
                    d[(i, l)] = d.get((i, l), 0) + m
        self.entries = d
        self._key = (r, tuple(sorted(d.items())))

    @staticmethod
    def zero(r):
        return Multisegment(r)

    @staticmethod
    def segment(r, i, l, mult=1):
        return Multisegment(r, {(i, l): mult})

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Multisegment) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def multiplicity(self, i, l):
        return self.entries.get((i, l), 0)

    def total_boxes(self):
        return sum(l * m for (_, l), m in self.entries.items())

    def dim_vector(self):
        dims = [0] * self.r
        for (i, l), m in self.entries.items():
            for t in range(l):
                dims[(i - 1 + t) % self.r] += m
        return tuple(dims)

    def add_segment(self, i, l, mult=1):
        d = dict(self.entries)
        d[(i, l)] = d.get((i, l), 0) + mult
        if d[(i, l)] == 0:
            del d[(i, l)]
        elif d[(i, l)] < 0:
            raise ValueError("multiplicity went negative at [%d;%d)" % (i, l))
        return Multisegment(self.r, d)

    def is_aperiodic(self):
        """For every length l some vertex i has pi_{i,l} = 0."""
        lengths = {l for (_, l) in self.entries}
        for l in lengths:
            if all(self.entries.get((i, l), 0) > 0 for i in range(1, self.r + 1)):
                return False
        return True

    def __str__(self):
        if not self.entries:
            return "r=%d; 0" % self.r
        body = "; ".join("%d:%d x%d" % (i, l, m)
                         for (i, l), m in sorted(self.entries.items()))
        return "r=%d; %s" % (self.r, body)

    def __repr__(self):
        return "Multisegment(%s)" % str(self)


def parse_multisegment(text):
    """Parse the text format ``r=2; 1:2 x1; 2:1 x3``."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts or not parts[0].startswith("r="):
        raise ValueError("multisegment text must start with r=<rank>")
    r = int(parts[0][2:])
    entries = {}
    for p in parts[1:]:
        if p == "0":
            continue
        seg, _, mult = p.partition("x")
        i, _, l = seg.strip().partition(":")
        entries[(int(i), int(l))] = entries.get((int(i), int(l)), 0) + int(mult or "1")
    return Multisegment(r, entries)


# ---------------------------------------------------------------------------
# generic extensions
# ---------------------------------------------------------------------------

def diamond_step(j, pi):
    """[j;1) o pi: extend the longest segment starting at j+1, or insert.

    The published condition 'l0 maximal with pi_{j+1,l0} <= 0' cannot be
    meant literally; this is the generic-extension reading, which reproduces
    the displayed two-sided computation of the folding homomorphism.
    """
    r = pi.r
    nxt = j % r + 1
    l0 = 0
    for (i, l) in pi.entries:
        if i == nxt and l > l0:
            l0 = l
    if l0 == 0:
        return pi.add_segment(j, 1)
    return pi.add_segment(nxt, l0, -1).add_segment(j, l0 + 1)


def diamond_word(word, r):
    """Evaluate a word ((vertex, mult), ...) right to left by single steps."""
    pi = Multisegment.zero(r)
    for j, a in reversed(list(word)):
        for _ in range(a):
            pi = diamond_step(j, pi)
    return pi


_WORD_MEMO = {}


def word_of(pi):
    """A word of one-box letters evaluating to pi; requires pi aperiodic.

    Peels the outermost letter with backtracking: [j;l) can be the segment
    created last iff no longer segment starts at j+1, and the remainder must
    stay aperiodic.  Each step tries the vertex of the letter just peeled
    first, so repeated letters merge into one divided power where they can
    (for [3;2) x2 at r = 3 the word is ((3,2),(1,2)), not 3,1,3,1).  The
    result satisfies diamond_word(word_of(pi)) == pi.
    """
    if not pi.is_aperiodic():
        raise ValueError("word_of is defined for aperiodic multisegments only")
    letters = _peel(pi)
    if letters is None:
        raise OracleError("aperiodic multisegment %s has no word" % pi)
    # merge adjacent letters at the same vertex into one multiplicity
    word = []
    for j in letters:
        if word and word[-1][0] == j:
            word[-1] = (j, word[-1][1] + 1)
        else:
            word.append((j, 1))
    return tuple(word)


def _peel(pi, prev=None):
    """The letters of a word of pi, outermost first; prev is the letter peeled before."""
    if pi.total_boxes() == 0:
        return ()
    key = (pi.key(), prev)
    if key in _WORD_MEMO:
        return _WORD_MEMO[key]
    result = None
    r = pi.r
    order = range(1, r + 1) if prev is None else \
        [prev] + [j for j in range(1, r + 1) if j != prev]
    for j in order:
        nxt = j % r + 1
        max_next = max((l for (i, l) in pi.entries if i == nxt), default=0)
        lengths = sorted((l for (i, l) in pi.entries if i == j), reverse=True)
        for l in lengths:
            # inverting one step: the created segment [j;l) must have been
            # the extension of the longest segment at j+1 (or an insertion)
            if l == 1:
                if max_next != 0:
                    continue
                smaller = pi.add_segment(j, 1, -1)
            else:
                if max_next > l - 1:
                    continue
                smaller = pi.add_segment(j, l, -1).add_segment(nxt, l - 1)
            if not smaller.is_aperiodic():
                continue
            rest = _peel(smaller, j)
            if rest is not None:
                result = (j,) + rest
                break
        if result is not None:
            break
    _WORD_MEMO[key] = result
    return result


def eta_fold(pi):
    """The rank-doubling map sending [i;l) to [i;l) + [i+r;l), linearly."""
    r = pi.r
    entries = {}
    for (i, l), m in pi.entries.items():
        entries[(i, l)] = entries.get((i, l), 0) + m
        entries[(i + r, l)] = entries.get((i + r, l), 0) + m
    return Multisegment(2 * r, entries)


def multisegments_of_dim(r, dims):
    """All multisegments of the cyclic quiver K_r with the given dim vector."""
    segs = [((i, l), Multisegment.segment(r, i, l).dim_vector())
            for i in range(1, r + 1) for l in range(1, sum(dims) + 1)]
    return [Multisegment(r, {segs[k][0]: m for k, m in chosen})
            for chosen, _ in multisets([d for _, d in segs], dims)]


# ---------------------------------------------------------------------------
# modules and the Hom oracle
# ---------------------------------------------------------------------------

def build_module(shape, F, pi):
    """The nilpotent representation M(pi): a sum of uniserial chains."""
    r = shape.r
    basis = [[] for _ in range(r)]  # per vertex: list of (block, step)
    blocks = []
    b = 0
    for (i, l), m in sorted(pi.entries.items()):
        for _ in range(m):
            blocks.append((i, l))
            for t in range(l):
                basis[(i - 1 + t) % r].append((b, t))
            b += 1
    dims = tuple(len(basis[k]) for k in range(r))
    pos = [{bt: n for n, bt in enumerate(basis[k])} for k in range(r)]
    maps = {}
    for h in shape.arrows:
        s = shape.index[h.src]
        t = shape.index[h.tgt]
        mat = [[0] * dims[s] for _ in range(dims[t])]
        for (blk, step) in basis[s]:
            i0, l0 = blocks[blk]
            if step + 1 < l0:
                mat[pos[t][(blk, step + 1)]][pos[s][(blk, step)]] = 1
        maps[h.id] = tuple(tuple(row) for row in mat)
    return FiniteModule(shape, F, dims, maps)


def synth_cyclic(shape, F, dims):
    """Synthesizer: the segments [i;l) whose dimension vector is dims."""
    l = sum(dims)
    segments = [(i, Multisegment.segment(shape.r, i, l)) for i in range(1, shape.r + 1) if l]
    return [(("seg", i, l), build_module(shape, F, seg))
            for i, seg in segments if seg.dim_vector() == tuple(dims)]


@functools.cache
def _segment_hom(r, s1, s2):
    """dim Hom([i1;l1), [i2;l2)) on K_r, oracle-computed over F2 and asserted over F3.

    The value is field independent; computing it over two fields and
    demanding agreement is the cross-check that guards the whole
    multisegment layer.  It is memoized per (r, segment, segment), so each
    segment module is built once per field and each pair is checked once.
    """
    vals = []
    for q in (2, 3):
        vals.append(hom_dim(_segment_module(r, q, s1), _segment_module(r, q, s2)))
    if vals[0] != vals[1]:
        raise OracleError("Hom dimension between [%d;%d) and [%d;%d) is field dependent"
                          % (s1 + s2))
    return vals[0]


@functools.cache
def _segment_module(r, q, s):
    """The uniserial module of the segment s = (i, l) on K_r over GF(q), built once."""
    return build_module(cyclic_shape(r), field(q), Multisegment.segment(r, *s))


def hom_dim_ms(pi1, pi2):
    """dim Hom(M(pi1), M(pi2)), a sum over the segments of both multisegments.

    Hom is additive in each argument, so this is
    sum pi1_s1 pi2_s2 dim Hom(s1, s2) over the segment pairs, each read off
    _segment_hom, which computes it over F2 and F3 and demands agreement.
    """
    if pi1.r != pi2.r:
        raise ValueError("rank mismatch")
    return sum(m1 * m2 * _segment_hom(pi1.r, s1, s2)
               for s1, m1 in pi1.entries.items() for s2, m2 in pi2.entries.items())


@functools.cache
def _hom_profile(pi):
    """(dim Hom(sigma, pi) for the test segments sigma = [i;l), l <= the boxes of pi)."""
    return tuple(hom_dim_ms(Multisegment.segment(pi.r, i, l), pi)
                 for i in range(1, pi.r + 1) for l in range(1, max(pi.total_boxes(), 1) + 1))


def leq_G(pi1, pi2):
    """The degeneration order: pi1 <=_G pi2 iff same dimension vector and
    dim Hom(sigma, pi1) >= dim Hom(sigma, pi2) for all test segments sigma.

    Equal dimension vectors give equal box counts, so both profiles run over
    the same segments sigma; each multisegment's profile is computed once.
    """
    if pi1.r != pi2.r:
        raise ValueError("rank mismatch")
    if pi1.dim_vector() != pi2.dim_vector():
        return False
    return all(a >= b for a, b in zip(_hom_profile(pi1), _hom_profile(pi2)))


# ---------------------------------------------------------------------------
# the generic cyclic Hall algebra and the canonical basis
# ---------------------------------------------------------------------------

class CyclicLabeler:
    """Classes of nilpotent K_r representations are labeled by multisegments."""

    def __init__(self, r):
        self.r = r

    def label_of(self, catalog, cid):
        info = catalog.classes[cid]
        entries = {}
        for icid, m in info.decomposition:
            key = catalog.classes[icid].synth_key
            if key is None or key[0] != "seg":
                raise OracleError("cyclic labeling needs synthesized catalogs")
            entries[(key[1], key[2])] = entries.get((key[1], key[2]), 0) + m
        return ("Pi", tuple(sorted(entries.items())))

    def to_multisegment(self, label):
        return Multisegment(self.r, dict(label[1]))

    def of_multisegment(self, pi):
        return ("Pi", tuple(sorted(pi.entries.items())))


def cyclic_generic_algebra(r, cap, cache_dir=None):
    """The generic Hall algebra of nilpotent K_r representations up to cap."""
    return GenericHallAlgebra(cyclic_shape(r), cap, CyclicLabeler(r), cache_dir=cache_dir)


class CyclicCanonicalBasis:
    """Monomial, PBW and canonical bases of the composition algebra of K_r.

    For every aperiodic multisegment pi of a grading within the cap:

    - m(pi): the product of divided powers along word_of(pi); it equals
      <M(pi)> plus strictly <_G-smaller angle-basis terms,
    - E(pi): the elimination of aperiodic lower terms from m(pi),
    - B(pi): the bar-invariant element E(pi) + sum g E(pi') with
      g in v^-1 Q[v^-1].

    All coefficients are exact elements of Q(v).
    """

    def __init__(self, r, cap, **kwargs):
        self.r = r
        self.cap = tuple(cap)
        self.alg = cyclic_generic_algebra(r, cap, **kwargs)
        self.labeler = self.alg.labeler
        self.E = {}
        self.B = {}
        self.monomials = {}
        self.mono_E_coords = {}
        self.bar_E = {}
        self.order_by_grading = {}
        for dims in gradings_below(self.cap):
            self._build_grading(dims)

    # angle coordinates: {pi-key: RationalV} relative to <M(pi)>

    def _to_angle(self, elt):
        out = {}
        for label, c in elt.coeffs.items():
            data = self.alg.label_data(label)
            pi = self.labeler.to_multisegment(label)
            shift = RationalV(LaurentPoly.v_power(data["dim_k"] - data["end"]))
            out[pi] = c * shift
        return out

    def _build_grading(self, dims):
        alg = self.alg
        pis = [self.labeler.to_multisegment(l) for l in alg.labels_of_dim(dims)]
        order = linear_extension([pi for pi in pis if pi.is_aperiodic()], Multisegment.key,
                                 _below_G)
        self.order_by_grading[dims] = order
        for pi in order:
            word = word_of(pi)
            if diamond_word(word, self.r) != pi:
                raise OracleError("word round-trip failed for %s" % pi)
            mono = alg.monomial_elt(tuple((str(j), a) for j, a in word))
            self.monomials[pi] = self._to_angle(mono)
        E, mono_E, bar_E, B = triangular_bases(order, self.monomials, _below_G)
        self.E.update(E)
        self.mono_E_coords.update(mono_E)
        self.bar_E.update(bar_E)
        self.B.update(B)

    def B_in_angle(self, pi):
        """B(pi) expanded in the <M(pi')> coordinates."""
        return expand_in(self.B[pi], self.E)

    def check_bar_invariant(self, pi):
        return apply_bar(self.B[pi], self.bar_E) == self.B[pi]


def _below_G(pi1, pi2):
    """The strict degeneration order pi1 <_G pi2."""
    return leq_G(pi1, pi2) and pi1 != pi2
