import itertools
import random

import pytest

from hallbases.cartan import (
    AdmissibleSequence,
    Arrow,
    OutsideWindowError,
    CartanDatum,
    QuiverAutomorphism,
    ValuedQuiver,
    admissible_of,
    builtin_quiver,
    cartan_of,
    euler_form,
    fold,
    gradings_below,
    is_affine,
    is_finite_type,
    min_delta,
    multisets,
    parse_quiver,
    reflect,
    sym_form,
    topological_order,
)

KRON = builtin_quiver("kronecker")
A2 = builtin_quiver("a2")
A2T = builtin_quiver("a2tilde")
C2F = builtin_quiver("c2-folded")


class TestQuiverValidation:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            ValuedQuiver(("1",), {"1": 1}, (Arrow("a", "1", "1"),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            ValuedQuiver(("1", "2"), {"1": 1, "2": 1},
                         (Arrow("a", "1", "2"), Arrow("b", "2", "1")))

    def test_valuation_divisibility(self):
        with pytest.raises(ValueError):
            ValuedQuiver(("1", "2"), {"1": 2, "2": 1}, (Arrow("a", "1", "2", 1),))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError, match="duplicate vertex ids"):
            ValuedQuiver(("1", "1"), {"1": 1}, ())

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError, match="outside the vertex set"):
            ValuedQuiver(("1",), {"1": 1}, (Arrow("a", "1", "2"),))

    @pytest.mark.parametrize("m", [0, -2])
    def test_nonpositive_arrow_valuation_rejected(self, m):
        with pytest.raises(ValueError, match="must be positive"):
            ValuedQuiver(("1", "2"), {"1": 1, "2": 1}, (Arrow("a", "1", "2", m),))

    def test_old_c2_name_names_the_new_one(self):
        with pytest.raises(ValueError, match="c2-folded") as exc:
            builtin_quiver("c2tilde-folded")
        assert "\n" not in str(exc.value)


class TestTopologicalOrder:
    def test_smallest_source_first(self):
        # 3 -> 1 and 2 -> 1: both sources precede 1, the smaller id first
        assert topological_order(("1", "2", "3"), [("3", "1"), ("2", "1")]) == ("2", "3", "1")

    def test_cycle_is_none(self):
        assert topological_order(("1", "2", "3"), [("1", "2"), ("2", "3"), ("3", "2")]) is None

    def test_opposite_order_is_the_sink_walk(self):
        rng = random.Random(5)
        for _ in range(60):
            vs = rng.sample("abcdefg", rng.randint(2, 6))
            arrows = []
            for k in range(rng.randint(0, 7)):
                i, j = sorted(rng.sample(range(len(vs)), 2))  # list order is acyclic
                arrows.append(Arrow("h%d" % k, vs[i], vs[j]))
            g = ValuedQuiver(vs, dict.fromkeys(vs, 1), arrows)
            assert topological_order(vs, [(h.tgt, h.src) for h in arrows]) == _sink_walk(g)

    def test_admissible_order_is_the_sink_walk(self):
        for g in (KRON, A2T, C2F):
            assert admissible_of(g).base_order == _sink_walk(g)


def _sink_walk(g):
    """Take the smallest sink, reverse its arrows, repeat: a reference sink order."""
    walk = []
    while len(walk) < len(g.vertices):
        walk.append(min((i for i in g.vertices
                         if i not in walk and all(h.src != i for h in g.arrows)), key=str))
        g = g.reverse_at(walk[-1])
    return tuple(walk)


class TestFold:
    def test_identity_fold_is_trivial(self):
        q = ValuedQuiver(("1", "2"), {"1": 1, "2": 1},
                         (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
        g = fold(q, QuiverAutomorphism.identity(q))
        assert g.n == 2
        assert all(g.d[i] == 1 for i in g.vertices)
        assert all(h.m == 1 for h in g.arrows)

    def test_fold_a3_swap(self):
        # A3 path 1 -> 2 <- 3, swapping the ends: two vertices, d=(2,1), m=2
        g = C2F
        assert sorted(g.d.values()) == [1, 2]
        assert len(g.arrows) == 1
        assert g.arrows[0].m == 2

    def test_fold_d4_triple(self):
        q = ValuedQuiver(("1", "2", "3", "c"), dict.fromkeys(("1", "2", "3", "c"), 1),
                         (Arrow("a", "1", "c"), Arrow("b", "2", "c"), Arrow("e", "3", "c")))
        sigma = QuiverAutomorphism(q, {"1": "2", "2": "3", "3": "1", "c": "c"},
                                   {"a": "b", "b": "e", "e": "a"})
        g = fold(q, sigma)
        assert sorted(g.d.values()) == [1, 3]
        assert len(g.arrows) == 1 and g.arrows[0].m == 3

    def test_incompatible_automorphism_rejected(self):
        # swapping the endpoints of 1 -> 2 while fixing the arrow is not an
        # automorphism; an orbit arrow inside a vertex orbit (the loop case)
        # is impossible for acyclic quivers, so rejection happens here
        q = ValuedQuiver(("1", "2"), {"1": 1, "2": 1}, (Arrow("a", "1", "2"),))
        with pytest.raises(ValueError):
            QuiverAutomorphism(q, {"1": "2", "2": "1"}, {"a": "a"})

    def test_valued_input_rejected(self):
        # C2F has d = 2 at its folded vertex; fold only takes trivially valued quivers
        with pytest.raises(ValueError, match="valuations are all 1"):
            fold(C2F, QuiverAutomorphism.identity(C2F))
        q = ValuedQuiver(("1", "2"), {"1": 1, "2": 1}, (Arrow("a", "1", "2", 2),))
        with pytest.raises(ValueError, match="valuations are all 1"):
            fold(q, QuiverAutomorphism.identity(q))


class TestCartan:
    def test_kronecker(self):
        c = cartan_of(KRON)
        assert c.C == ((2, -2), (-2, 2))

    def test_folded_a3_is_c2(self):
        c = cartan_of(C2F)
        # vertex order ("1+3", "2")
        assert c.C == ((2, -1), (-2, 2))
        assert c.D == (2, 1)

    def test_single_arrow_is_a2(self):
        assert cartan_of(A2).C == ((2, -1), (-1, 2))

    def test_orientation_independence(self):
        g1 = ValuedQuiver(("1", "2"), {"1": 2, "2": 1}, (Arrow("a", "1", "2", 2),))
        g2 = ValuedQuiver(("1", "2"), {"1": 2, "2": 1}, (Arrow("a", "2", "1", 2),))
        c1, c2 = cartan_of(g1), cartan_of(g2)
        assert c1.C == c2.C and c1.D == c2.D

    def test_dc_symmetry_enforced(self):
        with pytest.raises(ValueError):
            CartanDatum(("1", "2"), ((2, -1), (-2, 2)), (1, 1))


class TestEulerForm:
    def test_kronecker_values(self):
        assert euler_form(KRON, (1, 0), (0, 1)) == -2
        assert sym_form(KRON, (1, 1), (1, 1)) == 0

    def test_simple_diagonal(self):
        for g in (KRON, A2T, C2F):
            for i in g.vertices:
                e = g.unit_vector(i)
                assert euler_form(g, e, e) == g.d[i]

    def test_sym_form_matches_datum(self):
        rng = random.Random(7)
        for g in (KRON, A2T, C2F):
            c = cartan_of(g)
            for _ in range(100):
                x = tuple(rng.randrange(-4, 5) for _ in range(g.n))
                y = tuple(rng.randrange(-4, 5) for _ in range(g.n))
                assert sym_form(g, x, y) == c.sym_form(x, y)


class TestReflect:
    def test_simple_root_negated(self):
        c = cartan_of(KRON)
        assert reflect(c, "1", (1, 0)) == (-1, 0)

    def test_kronecker_s2(self):
        c = cartan_of(KRON)
        assert reflect(c, "2", (1, 0)) == (1, 2)

    def test_delta_fixed(self):
        for g in (KRON, A2T):
            c = cartan_of(g)
            delta = min_delta(c)
            for i in g.vertices:
                assert reflect(c, i, delta) == delta

    def test_involution_and_isometry(self):
        rng = random.Random(11)
        for g in (KRON, A2T, C2F):
            c = cartan_of(g)
            for _ in range(50):
                x = tuple(rng.randrange(-3, 4) for _ in range(g.n))
                for i in g.vertices:
                    assert reflect(c, i, reflect(c, i, x)) == x
                    assert c.sym_form(reflect(c, i, x), reflect(c, i, x)) == c.sym_form(x, x)


class TestAffine:
    def test_kronecker_affine(self):
        c = cartan_of(KRON)
        assert is_affine(c)
        assert min_delta(c) == (1, 1)

    def test_a2_finite(self):
        c = cartan_of(A2)
        assert not is_affine(c)
        assert is_finite_type(c)
        with pytest.raises(ValueError):
            min_delta(c)

    def test_a2tilde_affine(self):
        c = cartan_of(A2T)
        assert is_affine(c)
        assert min_delta(c) == (1, 1, 1)

    def test_c2_folded_finite(self):
        assert is_finite_type(cartan_of(C2F))


class TestAdmissibleSequence:
    def test_kronecker_base_order(self):
        assert admissible_of(KRON).base_order == ("2", "1")

    def test_a2_base_order(self):
        assert admissible_of(A2).base_order == ("2", "1")

    def test_a2tilde_base_order(self):
        assert admissible_of(A2T).base_order == ("3", "2", "1")

    def test_bad_base_order_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleSequence(KRON, ("1", "2"))  # 1 is not a sink


class TestBeta:
    def test_beta_at_0_and_1(self):
        seq = admissible_of(KRON)
        assert seq.beta(0) == KRON.unit_vector(seq.vertex(0))
        assert seq.beta(1) == KRON.unit_vector(seq.vertex(1))

    def test_kronecker_small_betas(self):
        seq = admissible_of(KRON)
        assert seq.beta(-1) == (1, 2)
        assert seq.beta(2) == (2, 1)

    def test_affine_window_distinct_positive(self):
        for g in (KRON, A2T):
            seq = admissible_of(g)
            c = seq.datum
            seen = set()
            for t in range(-20, 21):
                b = seq.beta(t)
                assert all(x >= 0 for x in b)
                assert b not in seen
                seen.add(b)
                ei = g.unit_vector(seq.vertex(t))
                assert c.sym_form(b, b) == c.sym_form(ei, ei)


    def test_betas_walk_both_rays(self):
        seq = admissible_of(KRON)
        betas = seq.betas(2)
        assert list(betas) == [0, -1, -2, 1, 2]
        assert betas == {t: seq.beta(t) for t in range(-2, 3)}
        assert seq.betas(0) == {0: seq.beta(0)}

    def test_betas_stop_where_the_word_is_not_reduced(self):
        # finite type: each ray lists the three positive roots of A2, then stops
        betas = admissible_of(A2).betas(6)
        assert list(betas) == [0, -1, -2, 1, 2, 3]
        assert sorted(set(betas.values())) == [(0, 1), (1, 0), (1, 1)]
        assert admissible_of(A2).betas(100) == betas

    def test_betas_refuse_past_the_verified_window(self):
        # kronecker checks |t| <= 6 and computes beta_t up to ten times that
        seq = admissible_of(KRON)
        assert len(seq.betas(60)) == 121
        with pytest.raises(OutsideWindowError, match="beta_-61"):
            seq.betas(61)


class TestTextFormat:
    def test_roundtrip(self):
        text = """
        # folded example
        vertex A d=2
        vertex B
        arrow h A B m=2
        """
        g = parse_quiver(text)
        assert g.vertices == ("A", "B")
        assert g.d == {"A": 2, "B": 1}
        assert g.arrows[0].m == 2

    def test_default_m_is_lcm(self):
        g = parse_quiver("vertex A d=2\nvertex B d=3\narrow h A B")
        assert g.arrows[0].m == 6

    def test_unknown_directive(self):
        with pytest.raises(ValueError):
            parse_quiver("edge A B")


def _multisets_oracle(weights, bound, exact):
    """Filter the full product of descending per-item multiplicity ranges.

    Each multiset is given by its nonzero (item index, multiplicity) pairs.
    """
    tops = [min((b // x for b, x in zip(bound, w) if x), default=0) if any(w) else 0
            for w in weights]
    out = []
    for mults in itertools.product(*(range(t, -1, -1) for t in tops)):
        rest = tuple(b - sum(m * w[c] for m, w in zip(mults, weights))
                     for c, b in enumerate(bound))
        if all(x >= 0 for x in rest) and not (exact and any(rest)):
            out.append((tuple((k, m) for k, m in enumerate(mults) if m), rest))
    return out


class TestMultisets:
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("ncomp", [1, 2, 3])
    def test_matches_product_oracle(self, exact, ncomp):
        rng = random.Random(100 * ncomp + exact)
        for _ in range(150):
            nitems = rng.randint(0, 5)
            weights = [tuple(rng.randint(0, 3) for _ in range(ncomp)) for _ in range(nitems)]
            bound = tuple(rng.randint(0, 5) for _ in range(ncomp))
            want = _multisets_oracle(weights, bound, exact)
            assert list(multisets(weights, bound, exact)) == want

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("ncomp", [2, 3])
    def test_unit_weights_first_and_last(self, exact, ncomp):
        # a slice lists a simple first (S_1 of a Kronecker slice), so the
        # items in between can leave a rest that only the last one fills
        rng = random.Random(1000 * ncomp + exact)
        cases = 0
        while cases < 40:
            units = [tuple(int(c == a) for c in range(ncomp)) for a in range(ncomp)]
            middle = [tuple(rng.randint(0, 3) for _ in range(ncomp))
                      for _ in range(rng.randint(4, 7))]
            weights = [rng.choice(units)] + middle + [rng.choice(units)]
            bound = tuple(rng.randint(0, 4) for _ in range(ncomp))
            size = 1
            for w in weights:
                size *= 1 + min((b // x for b, x in zip(bound, w) if x), default=0)
            if size > 20000:
                continue
            cases += 1
            want = _multisets_oracle(weights, bound, exact)
            assert list(multisets(weights, bound, exact)) == want

    def test_zero_weight_gets_multiplicity_zero(self):
        assert list(multisets([(0, 0), (1, 0)], (2, 0))) == [(((1, 2),), (0, 0))]
        assert list(multisets([(0,)], (3,), exact=False)) == [((), (3,))]
        assert list(multisets([(0,)], (0,))) == [((), (0,))]

    def test_no_items(self):
        assert list(multisets([], (0, 0))) == [((), (0, 0))]
        assert list(multisets([], (1, 0))) == []
        assert list(multisets([], (1, 0), exact=False)) == [((), (1, 0))]

    def test_descending_lexicographic(self):
        got = [m for m, _ in multisets([(1, 0), (0, 1), (1, 1)], (2, 2))]
        assert got == [((0, 2), (1, 2)), ((0, 1), (1, 1), (2, 1)), ((2, 2),)]
        got = [m for m, _ in multisets([(1,), (2,)], (3,), exact=False)]
        dense = [tuple(dict(chosen).get(k, 0) for k in range(2)) for chosen in got]
        assert dense == sorted(dense, reverse=True) and len(got) == 6


class TestGradingsBelow:
    @pytest.mark.parametrize("cap", [(), (0,), (3,), (2, 0), (1, 2), (2, 1, 2)])
    def test_every_grading_once_in_lex_order(self, cap):
        got = list(gradings_below(cap))
        want = sorted(nu for nu in itertools.product(range(max(cap, default=0) + 1),
                                                     repeat=len(cap))
                      if all(x <= c for x, c in zip(nu, cap)))
        assert got == want
