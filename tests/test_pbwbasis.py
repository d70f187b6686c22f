import hashlib
import itertools

import pytest

from hallbases.cartan import (
    Arrow,
    QuiverAutomorphism,
    ValuedQuiver,
    admissible_of,
    builtin_quiver,
    fold,
)
from hallbases.hall import eliminate
from hallbases.laurent import LaurentPoly, RationalV, in_lattice
from hallbases.modrep import IsoClassCatalog, OracleError, field, field_of_order
from hallbases.pbwbasis import (
    AffineLabeler,
    GenericElement,
    PbwIndex,
    _boundary_options,
    _lex_geq_minus,
    _lex_geq_plus,
    get_context,
    prec,
)
from hallbases.symfun import kostka


@pytest.fixture(scope="module")
def kron():
    return get_context("kronecker")


@pytest.fixture(scope="module")
def a2t():
    return get_context("a2tilde")


def gradings_below(cap):
    return [nu for nu in itertools.product(*(range(c + 1) for c in cap))
            if any(nu)]


def monomial_to_C(ctx, nu, a):
    """The coefficients h with m(a) = C(a) + sum of h C(a') over a' below a."""
    data = ctx.basis_of_grading(nu)
    order = data["aperiodic"]
    residual, out = eliminate(data["mono_E"][a], reversed(order[: order.index(a) + 1]),
                              data["C"])
    assert not residual
    return out


class TestIndices:
    def test_counts_kronecker(self, kron):
        assert len(kron.indices_of_grading((0, 0))) == 1
        assert len(kron.indices_of_grading((1, 1))) == 2
        assert len(kron.indices_of_grading((2, 2))) == 6

    def test_gradings_match(self, kron):
        for nu in gradings_below((2, 2)):
            for a in kron.indices_of_grading(nu):
                assert kron.grading_of(a) == nu

    def test_a2tilde_has_tube_indices(self, a2t):
        idx = a2t.indices_of_grading((1, 1, 1))
        assert len(idx) == 7
        assert sum(1 for a in idx if not a.is_aperiodic(a2t.tube_ranks)) == 1

    def test_index_validation(self):
        with pytest.raises(ValueError):
            PbwIndex(cminus=((1, 1),))  # positive t in c_-
        with pytest.raises(ValueError):
            PbwIndex(cplus=((0, 1),))  # nonpositive t in c_+


class TestLabeler:
    def test_one_labeler_two_catalogs_over_one_field(self):
        # tube data belongs to a catalog, not to a field: after labeling the
        # cap (1,1,1), one labeler labels the cap (1,1,2) over the same field
        # as a new labeler does
        shape = builtin_quiver("a2tilde")
        small = IsoClassCatalog(shape, field(2), [(1, 1, 1)])
        big = IsoClassCatalog(shape, field(2), [(1, 1, 2)])
        shared = AffineLabeler(shape, admissible_of(shape))
        for cid in range(len(small.classes)):
            shared.label_of(small, cid)
        fresh = AffineLabeler(shape, admissible_of(shape))
        assert len(big.classes) == 33
        assert ([shared.label_of(big, cid) for cid in range(33)]
                == [fresh.label_of(big, cid) for cid in range(33)])
        assert [t["simples"] for t in big.tube_structure() if t["rank"] > 1] == [[2, 8]]

    @pytest.mark.parametrize("hom", [0, 1])
    def test_regular_class_needs_one_regular_top(self, monkeypatch, hom):
        # with no map to a regular simple, or a map to all three at (1,1) over
        # GF(2), a regular class is no segment of one tube
        shape = builtin_quiver("kronecker")
        cat = IsoClassCatalog(shape, field(2), [(1, 1)])
        cat.tube_structure()
        monkeypatch.setattr(cat, "_pair", lambda p, x: hom)
        with pytest.raises(OracleError, match="%d regular tops" % (3 * hom)):
            AffineLabeler(shape, admissible_of(shape)).label_of(cat, 0)

    def test_labels_past_the_shipped_caps_pinned(self):
        # caps where points carry two or more homogeneous summands, which no
        # shipped cap does: 969 labels, 364 of them with two or more
        cases = [("kronecker", (3, 3), 2), ("kronecker", (3, 3), 3), ("kronecker", (4, 4), 2),
                 ("a2tilde", (1, 1, 2), 2), ("a2tilde", (1, 1, 2), 3),
                 ("a2tilde", (2, 1, 1), 2), ("d32", (1, 1, 1), 2), ("d32", (1, 1, 1), 3)]
        digest = hashlib.sha256()
        for name, cap, q in cases:
            shape = builtin_quiver(name)
            cat = IsoClassCatalog(shape, field_of_order(q), [cap])
            labeler = AffineLabeler(shape, admissible_of(shape))
            digest.update(repr([labeler.label_of(cat, cid)
                                for cid in range(len(cat.classes))]).encode())
        assert digest.hexdigest() == (
            "c83416aec956b40e7f92a5b4d106a54d8085ae84eef02a91086ccb89b8b17aab")


class TestRootTable:
    def test_twisted_positive_ray_at_two_delta(self, monkeypatch):
        # D3(2): A~3 with arrows 2 -> 1, 2 -> 3, 4 -> 1, 4 -> 3 folded along the
        # swap of 2 and 4.  Its positive ray is beta_4 = (2,3,2), beta_5 = (2,2,1),
        # beta_6 = (1,2,2): sizes do not grow along it, so the options at 2 delta
        # must come from the whole root table, not from a walk stopped by size
        a3 = ValuedQuiver(("1", "2", "3", "4"), dict.fromkeys("1234", 1),
                          (Arrow("a", "2", "1"), Arrow("b", "2", "3"),
                           Arrow("c", "4", "1"), Arrow("d", "4", "3")))
        swap = QuiverAutomorphism(a3, {"1": "1", "2": "4", "3": "3", "4": "2"},
                                  {"a": "c", "b": "d", "c": "a", "d": "b"})
        d32 = fold(a3, swap)

        def build(self, *args, **kwargs):
            raise AssertionError("a catalog was built for the root table")

        monkeypatch.setattr(IsoClassCatalog, "__init__", build)
        betas = AffineLabeler(d32, admissible_of(d32)).betas
        assert [betas[t] for t in (4, 5, 6)] == [(2, 3, 2), (2, 2, 1), (1, 2, 2)]
        options = _boundary_options(betas, (2, 2, 2), positive=True)
        used = {t for chosen, _ in options for t, _ in chosen}
        assert {5, 6} <= used and 4 not in used
        assert (((5, 1),), (0, 0, 1)) in options and (((6, 1),), (1, 0, 0)) in options


class TestOrder:
    def test_lex_orders(self):
        # c_- compared from t = 0 downwards
        assert _lex_geq_minus(((0, 2),), ((0, 1), (-1, 5)))
        assert not _lex_geq_minus(((0, 1), (-1, 5)), ((0, 2),))
        # c_+ compared from t = 1 upwards
        assert _lex_geq_plus(((1, 2),), ((1, 1), (2, 5)))

    def test_clause_a(self, kron):
        # strictly larger boundary on one side makes the index smaller
        a = PbwIndex(cminus=((0, 2),), cplus=((1, 2),))
        b = PbwIndex(cminus=((0, 1),), cplus=((1, 1),), lam=(1,))
        assert prec(a, b, kron.tube_ranks)
        assert not prec(b, a, kron.tube_ranks)

    def test_clause_b(self, a2t):
        # equal boundaries, tube content replacing a delta: fewer deltas wins;
        # this is the only way clause (b) fires inside one graded piece
        tube_full = PbwIndex(c0=((((1, 1), 1), ((2, 1), 1)),))
        one_delta = PbwIndex(lam=(1,))
        assert a2t.grading_of(tube_full) == a2t.grading_of(one_delta)
        assert prec(tube_full, one_delta, a2t.tube_ranks)
        assert not prec(one_delta, tube_full, a2t.tube_ranks)

    def test_final_clause_partitions(self, kron):
        a = PbwIndex(lam=(2,))
        b = PbwIndex(lam=(1, 1))
        # (2) >_lex (1,1), so (c, t_(2)) is LOWER
        assert prec(a, b, kron.tube_ranks)
        assert not prec(b, a, kron.tube_ranks)

    def test_clause_c_tubes(self, a2t):
        ss = PbwIndex(c0=((((1, 1), 1), ((2, 1), 1)),))
        seg = PbwIndex(c0=((((1, 2), 1),),))
        assert prec(ss, seg, a2t.tube_ranks)
        assert not prec(seg, ss, a2t.tube_ranks)

    def test_irreflexive(self, kron):
        for a in kron.indices_of_grading((2, 2)):
            assert not prec(a, a, kron.tube_ranks)


class TestNElements:
    def test_zero_index_is_unit(self, kron):
        n = kron.N_element(PbwIndex())
        assert (n - kron.alg.unit()).is_zero()

    def test_single_simple(self, kron):
        # N(e_0) = <M(beta_0)> = [S_{i_0}] with i_0 = sink vertex "2"
        n = kron.N_element(PbwIndex(cminus=((0, 1),)))
        assert (n - kron.alg.u("2")).is_zero()

    def test_regular_is_H1(self, kron):
        n = kron.N_element(PbwIndex(lam=(1,)))
        assert (n - kron.symmetric.H(1)).is_zero()

    def test_expand_roundtrip(self, kron):
        for nu in [(1, 1), (2, 1), (2, 2)]:
            for a in kron.indices_of_grading(nu):
                coords = kron.expand_in_N(kron.N_element(a))
                assert coords == {a: RationalV(1)}

    def test_outside_span_detected(self, kron):
        # at (2,2) the regular part has four labels but H^0 only contains the
        # two-dimensional span of S_(2) and S_(1,1): a single point-type sum
        # of classes lies outside and must be reported
        alg = kron.alg
        labels = [l for l in alg.labels_of_dim((2, 2)) if alg.labeler.is_homogeneous_label(l)]
        assert len(labels) == 4
        x = alg.label_elt((2, 2), labels[0])
        with pytest.raises(OracleError):
            kron.expand_in_N(x)


class TestMonomials:
    def test_simple_monomial(self, kron):
        word = kron.monomial_word(PbwIndex(cplus=((1, 1),)))
        assert word == (("1", 1),)

    def test_delta_monomial_vertex_order(self, kron):
        word = kron.monomial_word(PbwIndex(lam=(1,)))
        assert word == (("1", 1), ("2", 1))

    def test_unitriangular_with_kostka(self, kron):
        lam_idx = {a.lam: a for a in kron.indices_of_grading((2, 2))
                   if not a.cminus and not a.cplus}
        for lam in [(2,), (1, 1)]:
            mono = kron.monomial(lam_idx[lam])
            for mu in [(2,), (1, 1)]:
                assert mono.coefficient(lam_idx[mu]) == RationalV(kostka(mu, lam))

    def test_monomial_support_below(self, kron):
        for nu in [(1, 1), (2, 2)]:
            for a in kron.indices_of_grading(nu):
                mono = kron.monomial(a)
                assert mono.coefficient(a) == RationalV(1)
                for b in mono.coords:
                    assert b == a or prec(b, a, kron.tube_ranks)

    def test_tube_monomial_uses_word(self, a2t):
        seg = PbwIndex(c0=((((1, 2), 1),),))
        word = a2t.monomial_word(seg)
        # word of [1;2) is (1,1),(2,1): dims of L_1 = (0,1,0), L_2 = (1,0,1)
        assert word == (("2", 1), ("1", 1), ("3", 1))


class TestPbwE:
    def test_minimal_is_N(self, kron):
        data = kron.basis_of_grading((0, 1))
        a = data["aperiodic"][0]
        assert data["E"][a] == {a: RationalV(1)}

    def test_support_nonaperiodic(self, a2t):
        data = a2t.basis_of_grading((1, 1, 1))
        for a in data["aperiodic"]:
            for b, c in data["E"][a].items():
                assert b == a or not b.is_aperiodic(a2t.tube_ranks)
                assert c.is_polynomial()

    def test_kronecker_delta_slice(self, kron):
        data = kron.basis_of_grading((1, 1))
        lam_idx = [a for a in data["aperiodic"] if a.lam == (1,)][0]
        e = data["E"][lam_idx]
        # no non-aperiodic indices on Kronecker: E = N there
        assert e == {lam_idx: RationalV(1)}

    def test_multiplicative(self, kron):
        data = kron.basis_of_grading((2, 2))
        for a in data["aperiodic"]:
            left = kron.angle_boundary(a.cminus, positive=False)
            mid_idx = PbwIndex((), a.c0, (), a.lam)
            mid_data = kron.basis_of_grading(kron.grading_of(mid_idx))
            mid = None
            for k, v in mid_data["E"][mid_idx].items():
                term = kron.N_element(k).scale(v)
                mid = term if mid is None else mid + term
            right = kron.angle_boundary(a.cplus, positive=True)
            assert kron.expand_in_N(left * mid * right) == data["E"][a]


class TestBarAndC:
    @pytest.mark.parametrize("nu", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_bar_is_involution(self, kron, nu):
        assert kron.check_bar_involution(nu)

    @pytest.mark.parametrize("nu", [(1, 1), (2, 2)])
    def test_C_bar_invariant(self, kron, nu):
        data = kron.basis_of_grading(nu)
        for a in data["aperiodic"]:
            assert kron.check_C_bar_invariant(nu, a)
            for a2, g in data["C"][a].items():
                if a2 != a:
                    assert g.is_polynomial()
                    assert in_lattice(g, strict=True)

    def test_minimal_C_equals_E(self, kron):
        data = kron.basis_of_grading((1, 1))
        bottom = data["aperiodic"][0]
        assert data["C"][bottom] == {bottom: RationalV(1)}

    def test_monomial_to_C_in_Aprime(self, kron):
        for nu in [(1, 1), (2, 2)]:
            data = kron.basis_of_grading(nu)
            for a in data["aperiodic"]:
                for a2, h in monomial_to_C(kron, nu, a).items():
                    assert h.is_polynomial()

    def test_C_congruent_N_mod_lattice(self, kron):
        for nu in [(1, 1), (2, 2)]:
            for a in kron.basis_of_grading(nu)["aperiodic"]:
                cn = kron.C_in_N(nu, a)
                cn[a] = cn.get(a, RationalV(0)) - RationalV(1)
                for k, c in cn.items():
                    assert in_lattice(c, strict=True)

    def test_C_almost_orthonormal(self, kron):
        # (C(a), C(a)) in 1 + v^-1 Q[[v^-1]]
        for nu in [(1, 1), (2, 2)]:
            data = kron.basis_of_grading(nu)
            for a in data["aperiodic"]:
                elt = None
                for k, c in kron.C_in_N(nu, a).items():
                    term = kron.N_element(k).scale(c)
                    elt = term if elt is None else elt + term
                val = kron.alg.inner(elt, elt) - RationalV(1)
                assert in_lattice(val, strict=True)


class TestOrthogonality:
    @pytest.mark.parametrize("nu", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_kronecker_slices(self, kron, nu):
        assert kron.verify_almost_orthogonal(nu) == []

    def test_a2tilde_slice(self, a2t):
        assert a2t.verify_almost_orthogonal((1, 1, 1)) == []


class TestMultN:
    def test_unit_product(self, kron):
        a = kron.indices_of_grading((1, 1))[0]
        out = kron.mult_N(PbwIndex(), a)
        assert out.coords == {a: RationalV(1)}

    def test_support_constraints(self, kron):
        e0 = PbwIndex(cminus=((0, 1),))
        e1 = PbwIndex(cplus=((1, 1),))
        out = kron.mult_N(e0, e1)
        for a in out.coords:
            assert _lex_geq_minus(a.cminus, e0.cminus)
            assert _lex_geq_plus(a.cplus, e1.cplus)

    def test_reverse_product_hits_regulars(self, kron):
        e0 = PbwIndex(cminus=((0, 1),))
        e1 = PbwIndex(cplus=((1, 1),))
        out = kron.mult_N(e1, e0)
        assert any(a.lam for a in out.coords)
