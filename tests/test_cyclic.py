import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallbases.cyclic import (
    CyclicCanonicalBasis,
    Multisegment,
    build_module,
    cyclic_shape,
    diamond_step,
    diamond_word,
    eta_fold,
    hom_dim_ms,
    leq_G,
    multisegments_of_dim,
    parse_multisegment,
    word_of,
)
from hallbases.laurent import RationalV, in_lattice
from hallbases.modrep import OracleError, field, hall_number, hom_dim


def seg(r, i, l, m=1):
    return Multisegment.segment(r, i, l, m)


def whole_module_hom(pi1, pi2):
    """dim Hom(M(pi1), M(pi2)) from the two whole modules, over F2 and asserted over F3."""
    shape = cyclic_shape(pi1.r)
    vals = {hom_dim(build_module(shape, field(q), pi1), build_module(shape, field(q), pi2))
            for q in (2, 3)}
    if len(vals) != 1:
        raise OracleError("Hom dimension between %s and %s is field dependent" % (pi1, pi2))
    return vals.pop()


@st.composite
def multisegments(draw, r, max_boxes=6):
    """Multisegments of rank r with at most max_boxes boxes, sums included."""
    entries, boxes = {}, 0
    for _ in range(draw(st.integers(0, 3))):
        l = draw(st.integers(1, 4))
        m = draw(st.integers(1, 2))
        if boxes + l * m > max_boxes:
            break
        key = (draw(st.integers(1, r)), l)
        entries[key] = entries.get(key, 0) + m
        boxes += l * m
    return Multisegment(r, entries)


def aperiodic_upto(r, max_boxes):
    out = []
    for total in range(max_boxes + 1):
        for dims in itertools.product(range(total + 1), repeat=r):
            if sum(dims) == total:
                for pi in multisegments_of_dim(r, dims):
                    if pi.is_aperiodic():
                        out.append(pi)
    return out


class TestMultisegment:
    def test_dim_vector_wraps(self):
        assert seg(2, 1, 2).dim_vector() == (1, 1)
        assert seg(2, 2, 3).dim_vector() == (1, 2)
        assert seg(3, 3, 2).dim_vector() == (1, 0, 1)

    def test_aperiodicity(self):
        assert seg(2, 1, 2).is_aperiodic()
        assert not Multisegment(2, {(1, 1): 1, (2, 1): 1}).is_aperiodic()
        assert Multisegment(3, {(1, 1): 1, (2, 1): 1}).is_aperiodic()

    def test_text_roundtrip(self):
        pi = Multisegment(2, {(1, 2): 1, (2, 1): 3})
        assert parse_multisegment(str(pi)) == pi
        assert parse_multisegment("r=2; 1:2 x1; 2:1 x3") == pi


class TestDiamond:
    def test_insertion(self):
        assert diamond_step(1, Multisegment.zero(2)) == seg(2, 1, 1)

    def test_extension(self):
        assert diamond_step(1, seg(2, 2, 1)) == seg(2, 1, 2)
        # indices mod r: [2;1) o [1;1) extends through vertex 1
        assert diamond_step(2, seg(2, 1, 1)) == seg(2, 2, 2)

    def test_step_matches_oracle_generic_extension(self):
        # the result of one step is the unique submodule-maximal extension:
        # g^{step}_{S_j, pi} != 0 and every other extension L is <_G-below
        shape = cyclic_shape(2)
        F = field(2)
        for pi in aperiodic_upto(2, 3):
            for j in (1, 2):
                ext = diamond_step(j, pi)
                sj = build_module(shape, F, seg(2, j, 1))
                mpi = build_module(shape, F, pi)
                mx = build_module(shape, F, ext)
                assert hall_number(mx, sj, mpi) > 0
                for other in multisegments_of_dim(2, ext.dim_vector()):
                    L = build_module(shape, F, other)
                    if hall_number(L, sj, mpi) > 0 and other != ext:
                        assert leq_G(other, ext) and not leq_G(ext, other)


class TestWords:
    def test_single_box(self):
        assert word_of(seg(2, 1, 1)) == ((1, 1),)

    def test_segment_word(self):
        assert word_of(seg(2, 1, 2)) == ((1, 1), (2, 1))

    def test_three_letter_example(self):
        pi = Multisegment(2, {(1, 2): 1, (1, 1): 1})
        w = word_of(pi)
        assert sum(a for _, a in w) == 3
        assert diamond_word(w, 2) == pi

    def test_roundtrip_exhaustive(self):
        for r in (2, 3):
            for pi in aperiodic_upto(r, 4):
                assert diamond_word(word_of(pi), r) == pi

    def test_repeated_letters_merge(self):
        # 3,1,3,1 also evaluates to [3;2) x2, but its monomial has leading
        # coefficient v + v^-1; the divided powers give 1
        pi = Multisegment(3, {(3, 2): 2})
        assert word_of(pi) == ((3, 2), (1, 2))
        assert diamond_word(word_of(pi), 3) == pi

    def test_nonaperiodic_rejected(self):
        with pytest.raises(ValueError):
            word_of(Multisegment(2, {(1, 1): 1, (2, 1): 1}))

    def test_bracketing_consistency(self):
        # evaluating a word left-to-right equals any split into two halves
        # evaluated separately and then combined letter by letter
        words = [((1, 1), (2, 1), (1, 1)), ((2, 2), (1, 1), (2, 1)),
                 ((1, 1), (2, 1), (1, 1), (2, 1))]
        for w in words:
            full = diamond_word(w, 2)
            for cut in range(1, len(w)):
                right = diamond_word(w[cut:], 2)
                out = right
                for j, a in reversed(w[:cut]):
                    for _ in range(a):
                        out = diamond_step(j, out)
                assert out == full


class TestHomOrder:
    def test_simples(self):
        assert hom_dim_ms(seg(2, 1, 1), seg(2, 1, 1)) == 1
        assert hom_dim_ms(seg(2, 1, 1), seg(2, 2, 1)) == 0

    def test_seg12_self(self):
        assert hom_dim_ms(seg(2, 1, 2), seg(2, 1, 2)) == 1

    def test_semisimple_to_seg(self):
        ss = Multisegment(2, {(1, 1): 1, (2, 1): 1})
        assert hom_dim_ms(ss, seg(2, 1, 2)) == 1

    def test_leq_reflexive(self):
        for pi in aperiodic_upto(2, 3):
            assert leq_G(pi, pi)

    def test_semisimple_below_segment(self):
        ss = Multisegment(2, {(1, 1): 1, (2, 1): 1})
        assert leq_G(ss, seg(2, 1, 2))
        assert not leq_G(seg(2, 1, 2), ss)

    def test_different_dims_incomparable(self):
        assert not leq_G(seg(2, 1, 1), seg(2, 2, 1))

    def test_rank_mismatch_refused(self):
        # the rank-3 segment is not a module of K_2
        with pytest.raises(ValueError, match="rank mismatch"):
            hom_dim_ms(seg(2, 1, 2), seg(3, 3, 1))
        with pytest.raises(ValueError, match="rank mismatch"):
            leq_G(seg(2, 1, 2), seg(3, 3, 1))

    @pytest.mark.parametrize("r", [2, 3])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_segment_sums_equal_the_whole_module_oracle(self, r, data):
        pi1 = data.draw(multisegments(r))
        pi2 = data.draw(multisegments(r))
        assert hom_dim_ms(pi1, pi2) == whole_module_hom(pi1, pi2)

    @pytest.mark.parametrize("r, dims", [(2, (2, 3)), (2, (3, 3)), (3, (2, 1, 2))])
    def test_order_equals_the_whole_module_comparison(self, r, dims):
        pis = multisegments_of_dim(r, dims)
        tests = [seg(r, i, l) for i in range(1, r + 1) for l in range(1, sum(dims) + 1)]
        hom = {(sigma, pi): whole_module_hom(sigma, pi) for sigma in tests for pi in pis}
        for pi1, pi2 in itertools.product(pis, repeat=2):
            assert leq_G(pi1, pi2) == all(hom[(sigma, pi1)] >= hom[(sigma, pi2)]
                                          for sigma in tests), (pi1, pi2)


class TestEta:
    def test_segment_rule(self):
        assert eta_fold(seg(2, 1, 1)) == Multisegment(4, {(1, 1): 1, (3, 1): 1})
        assert eta_fold(Multisegment.zero(2)) == Multisegment.zero(4)

    def test_homomorphism_exhaustive(self):
        # eta(pi o pi') = eta(pi) o eta(pi') for aperiodic rank-2 inputs
        # with |pi| + |pi'| <= 5 boxes
        apers = aperiodic_upto(2, 5)
        for pi in apers:
            wpi = word_of(pi)
            for pi2 in apers:
                if pi.total_boxes() + pi2.total_boxes() > 5:
                    continue
                lhs_arg = pi2
                for j, a in reversed(wpi):
                    for _ in range(a):
                        lhs_arg = diamond_step(j, lhs_arg)
                lhs = eta_fold(lhs_arg)
                rhs = eta_fold(pi2)
                eta_word = word_of(eta_fold(pi))
                for j, a in reversed(eta_word):
                    for _ in range(a):
                        rhs = diamond_step(j, rhs)
                assert lhs == rhs, (pi, pi2)

    def test_eta_preserves_aperiodicity(self):
        for pi in aperiodic_upto(2, 4):
            assert eta_fold(pi).is_aperiodic()


@pytest.fixture(scope="module")
def canonical22():
    return CyclicCanonicalBasis(2, (2, 2))


class TestCanonical:
    def test_simples_are_canonical(self, canonical22):
        b = canonical22.B_in_angle(seg(2, 1, 1))
        assert list(b) == [seg(2, 1, 1)]

    def test_bar_invariance(self, canonical22):
        for pi in canonical22.B:
            assert canonical22.check_bar_invariant(pi)

    def test_unitriangular_with_negative_coeffs(self, canonical22):
        for pi in canonical22.B:
            ang = canonical22.B_in_angle(pi)
            for pi2, c in ang.items():
                if pi2 == pi:
                    assert c == RationalV(1)
                else:
                    assert leq_G(pi2, pi) and pi2 != pi
                    assert c.is_polynomial()
                    assert in_lattice(c, strict=True)

    def test_seg12_transition(self, canonical22):
        ss = Multisegment(2, {(1, 1): 1, (2, 1): 1})
        ang = canonical22.B_in_angle(seg(2, 1, 2))
        assert set(ang) == {seg(2, 1, 2), ss}
        got = ang[ss].as_poly()
        assert in_lattice(got, strict=True)
        assert got.bar() != got  # genuinely negative-power

    def test_word_monomials_unitriangular(self, canonical22):
        for pi, angle in canonical22.monomials.items():
            assert str(angle[pi]) == "1*v^0"


def test_rank_three_canonical_basis_is_bar_invariant():
    # (2,2,2) holds [3;2) x2, whose alternating word is not unitriangular
    basis = CyclicCanonicalBasis(3, (2, 2, 2))
    assert Multisegment(3, {(3, 2): 2}) in basis.B
    for pi in basis.B:
        assert basis.check_bar_invariant(pi)
