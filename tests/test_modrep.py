import gc
import itertools
import json
import os
from collections import Counter
import random
import re
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hallbases import gf, modrep
from hallbases.cartan import (
    Arrow,
    ValuedQuiver,
    admissible_of,
    builtin_quiver,
    euler_form,
    multisets,
    parse_quiver,
)
from hallbases.cyclic import (
    CyclicCanonicalBasis,
    Multisegment,
    build_module,
    cyclic_shape,
    multisegments_of_dim,
    synth_cyclic,
)
from hallbases.modrep import (
    GF,
    BudgetError,
    FiniteModule,
    HomSystem,
    IsoClassCatalog,
    OracleError,
    SubspaceTuple,
    all_subspaces,
    direct_sum,
    end_dim,
    ext_dim,
    field,
    field_of_order,
    hall_number,
    hom_dim,
    hom_space,
    is_isomorphic,
    is_submodule,
    kernel_basis,
    kronecker_indec,
    kronecker_indec_keys,
    m_id,
    m_mul,
    m_rank,
    m_transpose,
    rref,
    scan_candidates,
    simple_module,
    sub_quotient,
    submodule_tuples,
    synth_kronecker,
)
from hallbases.pbwbasis import AffineLabeler

KRON = builtin_quiver("kronecker")
A1 = builtin_quiver("a1")
A2 = builtin_quiver("a2")
A2T = builtin_quiver("a2tilde")
C2F = builtin_quiver("c2-folded")
F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def aut_order_brute(M):
    """|Aut M| by walking every combination of a basis of End M (small modules only)."""
    return sum(1 for _ in modrep._isomorphisms(M, hom_space(M, M), "automorphism count"))


def _synthesize_with(monkeypatch, synth):
    """From now on every shape's catalog is built by synth; None enumerates orbits."""
    monkeypatch.setattr(modrep, "synthesizer_of", lambda shape: synth)


class TestGF:
    def test_prime_field(self):
        assert F3.add(2, 2) == 1
        assert F3.mul(2, 2) == 1
        assert F3.inv(2) == 2

    def test_f4(self):
        # generator g (code 2) satisfies g^2 = g + 1
        g = 2
        assert F4.mul(g, g) == F4.add(g, 1)
        for a in range(1, 4):
            assert F4.mul(a, F4.inv(a)) == 1

    def test_mult_matrix(self):
        # multiplication by g on F4 over F2 in basis 1, g
        assert F4.mult_matrix(2) == ((0, 1), (1, 1))

    # 32, 81 and 121 have no defining polynomial on record: GF finds one
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 32, 81, 121])
    def test_field_of_order(self, q):
        F = field_of_order(q)
        assert F.q == q and F.p ** F.deg == q
        for a in range(1, q):
            assert F.mul(a, F.inv(a)) == 1

    @pytest.mark.parametrize("q", [0, 1, 6, 12, 257])
    def test_field_of_order_refused(self, q):
        with pytest.raises(ValueError):
            field_of_order(q)

    def test_recorded_polynomial_kept(self):
        # GF(8) keeps x^3 + x + 1, although the search would list x^3 + x^2 + 1 first
        F8, x = field(2, 3), 2
        assert F8.mul(x, F8.mul(x, x)) == F8.add(x, 1)

    @pytest.mark.parametrize("p", [4, 6])
    def test_composite_base_refused(self, p):
        # Z/4 is no field: 2 * 2 = 0 there
        with pytest.raises(ValueError, match="not a prime"):
            field(p)
        assert field_of_order(4) is F4


@pytest.fixture(scope="module")
def kron_cat():
    return IsoClassCatalog(KRON, F2, [(2, 2)])


class TestEnumerate:
    # orbit enumeration; shapes with known families are routed to it by _synthesize_with
    def test_a1_dim2_single_class(self, monkeypatch):
        _synthesize_with(monkeypatch, None)
        assert len(IsoClassCatalog(A1, F2, [(2,)]).by_dim[(2,)]) == 1

    def test_a2_dim11_two_classes(self):
        for F in (F2, F3):
            assert len(IsoClassCatalog(A2, F, [(1, 1)]).by_dim[(1, 1)]) == 2

    def test_kronecker_dim11_projective_line(self, monkeypatch):
        # S1 + S2 plus |P^1(F_q)| regular classes
        _synthesize_with(monkeypatch, None)
        for F in (F2, F3):
            assert len(IsoClassCatalog(KRON, F, [(1, 1)]).by_dim[(1, 1)]) == 1 + (F.q + 1)

    def test_budget_refused(self, monkeypatch):
        # 3^18 states at (3, 3), over STATE_BUDGET; the catalog checks every
        # slice of the cap, (2, 3) first, before any orbit is walked
        def walk(*args):
            raise AssertionError("orbits walked before the state-budget refusal")

        with pytest.raises(BudgetError, match=r"walks 387420489 states, over 2\^17"):
            modrep.check_walk(KRON, F3, (3, 3))
        monkeypatch.setattr(modrep, "enumerate_bfs", walk)
        _synthesize_with(monkeypatch, None)
        with pytest.raises(BudgetError, match=r"\(2, 3\) over GF\(3\) walks 531441 states"):
            IsoClassCatalog(KRON, F3, [(3, 3)])

    def test_budget_checked_before_any_slice_is_built(self, monkeypatch):
        # 9^10 > 2^BUDGET at (5, 5) only; every smaller slice would pass
        def synth(shape, F, dims):
            raise AssertionError("slice %s built before the budget refusal" % (dims,))
        _synthesize_with(monkeypatch, synth)
        with pytest.raises(BudgetError, match=r"\(5, 5\) over GF\(9\)"):
            IsoClassCatalog(cyclic_shape(2), field_of_order(9), [(5, 5)])

    def test_synthesis_matches_bfs(self, monkeypatch):
        for F in (F2, F3):
            with monkeypatch.context() as m:
                _synthesize_with(m, None)
                bfs = IsoClassCatalog(KRON, F, [(2, 2)])
            syn = IsoClassCatalog(KRON, F, [(2, 2)])
            # the two routes: walked orbits, and the Kronecker families
            assert bfs._orbit_sizes and not syn._orbit_sizes
            for dims in bfs.by_dim:
                assert len(bfs.by_dim[dims]) == len(syn.by_dim[dims])


class TestSynthesizerOf:
    """The shape alone picks its synthesizer; None means orbit enumeration."""

    @pytest.mark.parametrize("shape, synth", [
        pytest.param(KRON, synth_kronecker, id="kronecker"),
        pytest.param(A1, None, id="a1"),
        pytest.param(cyclic_shape(2), synth_cyclic, id="cyclic:2"),
        pytest.param(cyclic_shape(3), synth_cyclic, id="cyclic:3"),
        pytest.param(A2, None, id="a2"),
        pytest.param(A2T, None, id="a2tilde"),
        pytest.param(C2F, None, id="c2tilde-folded"),
        # the Kronecker quiver spelled out as a file, as builtin_quiver has it
        pytest.param(parse_quiver("vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\n"),
                     synth_kronecker, id="kronecker-file"),
        # dimension vectors are read in vertex order: target first is no Kronecker
        pytest.param(parse_quiver("vertex 2\nvertex 1\narrow a 1 2\narrow b 1 2\n"),
                     None, id="kronecker-file-target-first"),
        pytest.param(parse_quiver("vertex 1\nvertex 2\narrow a 1 2 m=2\n"),
                     None, id="one-arrow-m2-file"),
    ])
    def test_table(self, shape, synth):
        assert modrep.synthesizer_of(shape) is synth


class TestInputChecks:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (1,), (1, -1)])
    @pytest.mark.parametrize("synthesized", [False, True], ids=["orbits", "synthesized"])
    def test_bad_dimension_vector_refused(self, dims, synthesized, monkeypatch):
        def build(*args):
            raise AssertionError("a slice was built before the refusal")

        monkeypatch.setattr(modrep, "enumerate_bfs", build)
        _synthesize_with(monkeypatch, build if synthesized else None)
        with pytest.raises(ValueError, match="one per vertex") as exc:
            IsoClassCatalog(KRON, F2, [(1, 1), dims])
        assert "\n" not in str(exc.value)


class TestHomEnd:
    def test_simple_end(self):
        for g, F in ((KRON, F2), (A2T, F3)):
            for i in g.vertices:
                s = simple_module(g, F, i)
                assert end_dim(s) == g.d[i]
                assert aut_order_brute(s) == F.q ** g.d[i] - 1

    def test_valued_simple(self):
        sA = simple_module(C2F, F2, C2F.vertices[0])
        assert end_dim(sA) == 2
        assert aut_order_brute(sA) == 3

    def test_kronecker_ext(self):
        s1 = simple_module(KRON, F2, "1")
        s2 = simple_module(KRON, F2, "2")
        assert ext_dim(s1, s2) == 2

    def test_euler_identity_on_catalog(self, kron_cat):
        # hom - ext = <dim, dim> for all cataloged pairs at small dims
        classes = [c for c in kron_cat.classes if sum(c.dims) <= 3]
        for a in classes:
            for b in classes:
                lhs = hom_dim(a.module, b.module) - ext_dim(a.module, b.module)
                assert lhs == euler_form(KRON, a.dims, b.dims)


class TestHallNumbers:
    def test_trivial_ends(self, kron_cat):
        # the scan counts the submodules 0 and L of every L once each
        scan = kron_cat.scan_dim((1, 1))
        zero = kron_cat.by_dim[(0, 0)][0]
        for c in kron_cat.classes_of_dim((1, 1)):
            assert scan[c.cid][(zero, c.cid)] == 1
            assert scan[c.cid][(c.cid, zero)] == 1

    def test_a1_lines_in_plane(self):
        for F in (F2, F3, F4):
            cat = IsoClassCatalog(A1, F, [(2,)])
            s = cat.by_dim[(1,)][0]
            ss = cat.by_dim[(2,)][0]
            assert cat.scan_dim((2,), (1,)) == {ss: {(s, s): F.q + 1}}

    def test_module_level_hall(self):
        s1 = simple_module(KRON, F2, "1")
        s2 = simple_module(KRON, F2, "2")
        both = direct_sum(s1, s2)
        assert hall_number(both, s1, s2) == 1
        assert hall_number(both, s2, s1) == 1

    def test_riedtmann_bound(self, kron_cat):
        # g <= number of graded subspaces of matching dimension
        scan = kron_cat.scan_dim((1, 1))
        for cid, counts in scan.items():
            for (mq, ms), g in counts.items():
                assert g <= 3 * 3  # crude subspace-count bound at (1,1) over F2

    def test_scan_consistency_with_module_level(self, kron_cat):
        scan = kron_cat.scan_dim((1, 1))
        for cid in kron_cat.by_dim[(1, 1)]:
            L = kron_cat.classes[cid].module
            for (mq, ms), g in scan[cid].items():
                M = kron_cat.classes[mq].module
                N = kron_cat.classes[ms].module
                assert hall_number(L, M, N) == g


class TestDecompose:
    def test_simple_sum(self, kron_cat):
        s1 = simple_module(KRON, F2, "1")
        s2 = simple_module(KRON, F2, "2")
        dec = kron_cat.decompose(direct_sum(s1, s2))
        assert len(dec) == 2 and all(m == 1 for _, m in dec)

    def test_indec_is_itself(self, kron_cat):
        for cid in kron_cat.indec_ids:
            assert kron_cat.classes[cid].decomposition == ((cid, 1),)

    def test_regular_2delta_split(self):
        # two distinct points of P^1 give a dim (2,2) module splitting into
        # two dim (1,1) regulars
        cat = IsoClassCatalog(KRON, F2, [(2, 2)])
        regs = [c for c in cat.classes_of_dim((1, 1)) if c.indec and c.defect == "reg"]
        M = direct_sum(regs[0].module, regs[1].module)
        dec = cat.decompose(M)
        assert sorted(dec) == sorted(((regs[0].cid, 1), (regs[1].cid, 1)))


class TestDefect:
    def test_kronecker_defects(self, kron_cat):
        by_dim_defect = {}
        for c in kron_cat.classes:
            if c.indec:
                by_dim_defect.setdefault(c.dims, set()).add(c.defect)
        assert by_dim_defect[(1, 2)] == {"pp"}
        assert by_dim_defect[(2, 1)] == {"pi"}
        assert by_dim_defect[(1, 1)] == {"reg"}

    def test_defect_class_names(self, kron_cat):
        pp = [c for c in kron_cat.classes if c.indec and c.dims == (1, 2)][0]
        assert kron_cat.defect_class(pp.cid) == "preprojective"


def _scan_regular_simples(cat):
    """The regular simples by their definition: regular indecomposables with
    no proper nonzero regular submodule, found by scanning every submodule."""
    def regular(cid):
        return all(cat.classes[i].defect == "reg" for i, _ in cat.classes[cid].decomposition)

    return [cid for cid in cat.regular_indec_ids()
            if not any(any(st.dims) and st.dims != cat.classes[cid].dims
                       and regular(cat.classify(sub_quotient(cat.classes[cid].module, st)[0]))
                       for st in submodule_tuples(cat.classes[cid].module))]


class TestTubes:
    # the Hom-vanishing rule against the scan: (q + 1) simples at delta and,
    # for the Kronecker quiver, (q^2 - q) / 2 more at 2 delta
    @pytest.mark.parametrize("shape, q, cap, count", [
        pytest.param(KRON, 2, (2, 2), 4, id="kronecker-q2"),
        pytest.param(KRON, 3, (2, 2), 7, id="kronecker-q3"),
        pytest.param(KRON, 4, (2, 2), 11, id="kronecker-q4"),
        pytest.param(KRON, 5, (2, 2), 16, id="kronecker-q5"),
        pytest.param(A2T, 2, (1, 1, 1), 4, id="a2tilde-q2"),
        pytest.param(A2T, 3, (1, 1, 1), 5, id="a2tilde-q3"),
    ])
    def test_regular_simples_match_scan(self, shape, q, cap, count):
        cat = IsoClassCatalog(shape, field_of_order(q), [cap])
        simples = cat.regular_simple_ids()
        assert simples == _scan_regular_simples(cat)
        assert len(simples) == count

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_kronecker_past_delta(self, q):
        # the points of degree 2 appear at 2 delta, each a rank-1 tube
        cat = IsoClassCatalog(KRON, field_of_order(q), [(2, 2)])
        tubes = cat.tube_structure()
        assert all(t["rank"] == 1 for t in tubes)
        assert len(tubes) == (q + 1) + (q * q - q) // 2
        assert sum(cat.classes[t["simples"][0]].dims == (2, 2) for t in tubes) == (q * q - q) // 2
        assert cat.tube_structure() is tubes

    def test_kronecker_all_homogeneous(self):
        for F in (F2, F3):
            cat = IsoClassCatalog(KRON, F, [(1, 1)])
            tubes = cat.tube_structure()
            assert all(t["rank"] == 1 for t in tubes)
            assert len(tubes) == F.q + 1

    def test_a2tilde_rank2_tube(self):
        cat = IsoClassCatalog(A2T, F2, [(1, 1, 1)])
        tubes = cat.tube_structure()
        assert tubes[0]["rank"] == 2
        dims = sorted(cat.classes[c].dims for c in tubes[0]["simples"])
        assert dims == [(0, 1, 0), (1, 0, 1)]
        assert sum(1 for t in tubes if t["rank"] == 1) == 2  # q+1-1 homogeneous


PAIR_CATALOGS = {
    "kronecker-q3": lambda: IsoClassCatalog(KRON, F3, [(2, 2)]),
    "a2tilde-q2": lambda: IsoClassCatalog(A2T, F2, [(1, 1, 1)]),
    # a valued source vertex: the d > 1 columns of a Hom system
    "c2tilde-folded-q3": lambda: IsoClassCatalog(C2F, F3, [(2, 1), (1, 3)]),
    "cyclic3-q2": lambda: IsoClassCatalog(cyclic_shape(3), F2, [(1, 1, 2), (2, 1, 1)]),
}


def _record_systems(monkeypatch):
    """Weak references to every HomSystem built from now on in modrep."""
    built = []

    class Recorded(HomSystem):
        def __init__(self, M, dims):
            super().__init__(M, dims)
            built.append(weakref.ref(self))

    monkeypatch.setattr(modrep, "HomSystem", Recorded)
    return built


class TestPairBlock:
    @pytest.mark.parametrize("name", sorted(PAIR_CATALOGS))
    def test_batched_fill_matches_hom_dim(self, name, monkeypatch):
        cat = PAIR_CATALOGS[name]()
        ids = cat.indec_ids
        for dims, cids in cat.by_dim.items():
            if len(cids) > 1:
                cat.classify(cat.classes[cids[0]].module)
        kept = {dims: list(systems) for dims, systems in cat._hom_systems.items()}
        built = _record_systems(monkeypatch)
        cat._pair_hom.clear()
        cat._fill_pairs([(p, x) for p in ids for x in ids])
        # one system per (source, target dims) of the pairs that the Euler form
        # does not give (see TestEulerHom), none kept past the batch
        assert len(built) == len({(p, cat.classes[x].dims) for p in ids for x in ids
                                  if cat.delta is None
                                  or cat.classes[p].defect == cat.classes[x].defect == "reg"})
        gc.collect()
        assert all(ref() is None for ref in built)
        assert cat._hom_systems == kept
        monkeypatch.undo()
        assert cat._pair_hom == {(p, x): hom_dim(cat.classes[p].module, cat.classes[x].module)
                                 for p in ids for x in ids}

    def test_labeling_builds_one_system_per_regular_and_dims(self, monkeypatch):
        cat = IsoClassCatalog(KRON, field(5), [(2, 2)])
        regs = cat.regular_indec_ids()
        assert (len(regs), len({cat.classes[r].dims for r in regs})) == (22, 2)
        labeler = AffineLabeler(KRON, admissible_of(KRON))
        built = _record_systems(monkeypatch)
        for cid in range(len(cat.classes)):
            labeler.label_of(cat, cid)
        assert 0 < len(built) <= 22 * 2


EULER_CATALOGS = {
    "kronecker-window7-q2": lambda: IsoClassCatalog(
        KRON, F2, sorted(admissible_of(KRON).betas(7).values())),
    "kronecker-q3": lambda: IsoClassCatalog(KRON, F3, [(3, 3)]),
    "kronecker-q4": lambda: IsoClassCatalog(KRON, field_of_order(4), [(2, 3), (3, 2)]),
    "a2tilde-q2": lambda: IsoClassCatalog(A2T, F2, [(1, 1, 2), (2, 1, 1), (1, 2, 1)]),
    "a2tilde-q3": lambda: IsoClassCatalog(A2T, F3, [(1, 1, 1)]),
}


class TestEulerHom:
    @pytest.mark.parametrize("name", sorted(EULER_CATALOGS))
    def test_pairs_off_the_euler_form_match_hom_dim(self, name, monkeypatch):
        """dim Hom of indecomposables not both regular is read off the Euler form."""
        cat = EULER_CATALOGS[name]()
        ids = cat.indec_ids
        built = _record_systems(monkeypatch)
        cat._pair_hom.clear()
        cat._fill_pairs([(p, x) for p in ids for x in ids])
        monkeypatch.undo()
        defects = Counter((cat.classes[p].defect, cat.classes[x].defect) for p in ids for x in ids)
        # every order of defect classes occurs, and only regular pairs build systems
        assert set(defects) == {(a, b) for a in ("pp", "reg", "pi") for b in ("pp", "reg", "pi")}
        assert len(built) == len({(p, cat.classes[x].dims) for p in ids for x in ids
                                  if cat.classes[p].defect == cat.classes[x].defect == "reg"})
        assert cat._pair_hom == {(p, x): hom_dim(cat.classes[p].module, cat.classes[x].module)
                                 for p in ids for x in ids}


def _record_callers(monkeypatch):
    """(names of the functions on the stack, source key, target dims) of every HomSystem built."""
    built = []

    class Recorded(HomSystem):
        def __init__(self, M, dims):
            super().__init__(M, dims)
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_name)
                frame = frame.f_back
            built.append((names, M.key(), tuple(dims)))

    monkeypatch.setattr(modrep, "HomSystem", Recorded)
    return built


class TestCatalogBuild:
    @pytest.mark.parametrize("shape, F, cap", [
        pytest.param(KRON, F2, (2, 3), id="kronecker-q2"),
        pytest.param(KRON, F3, (2, 3), id="kronecker-q3"),
        pytest.param(A2T, F2, (1, 1, 1), id="a2tilde-q2"),
    ])
    def test_sums_match_brute_end_and_aut(self, shape, F, cap):
        cat = IsoClassCatalog(shape, F, [cap])
        sums = [info for info in cat.classes if not info.indec]
        assert sums
        for info in sums:
            assert info.end == end_dim(info.module), info.cid
            # 3^13 combinations at S1^2 + S2^3 over GF(3): about 20 s of brute
            # force, so that one semisimple class is checked by |GL_2| |GL_3|
            if F.q ** info.end > 3 ** 10:
                assert F.q == 3 and info.dims == (2, 3)
                assert all(sum(cat.classes[c].dims) == 1 for c, _ in info.decomposition)
                assert info.aut == modrep.gl_order(3, 2) * modrep.gl_order(3, 3)
            else:
                assert info.aut == aut_order_brute(info.module), info.cid

    @pytest.mark.parametrize("shape, F, cap", [
        pytest.param(KRON, F3, (2, 3), id="kronecker-q3"),
        pytest.param(A2T, F2, (1, 1, 1), id="a2tilde-q2"),
    ])
    def test_one_system_per_new_indecomposable(self, shape, F, cap, monkeypatch):
        built = _record_callers(monkeypatch)
        cat = IsoClassCatalog(shape, F, [cap])
        ends = [(key, dims) for names, key, dims in built if "_finish_indec" in names]
        assert len(ends) == len(cat.indec_ids)
        assert ends == [(cat.classes[c].module.key(), cat.classes[c].dims)
                        for c in cat.indec_ids]

    def test_orbit_indecs_build_one_system_per_orbit_representative(self, monkeypatch):
        # the locality test reads dim End of every representative, decomposable
        # or not, from one Hom system of its own
        built = _record_callers(monkeypatch)
        cat = IsoClassCatalog(A2T, F2, [(1, 1, 1)])
        walked = [(key, dims) for names, key, dims in built if "_orbit_indecs" in names]
        reps = [((dims, tuple(maps[h.id] for h in A2T.arrows)), dims) for dims in cat.dims_list
                for maps, _ in modrep.enumerate_bfs(A2T, F2, dims)]
        assert walked == reps
        assert len(reps) > len(cat.indec_ids)

    @pytest.mark.parametrize("shape, F, cap", [
        pytest.param(KRON, F2, (2, 2), id="kronecker-q2"),
        pytest.param(KRON, F3, (2, 2), id="kronecker-q3"),
        pytest.param(A2T, F2, (1, 1, 1), id="a2tilde-q2"),
    ])
    def test_residue_degree_of_the_walked_aut(self, shape, F, cap):
        # r with (q^r - 1) q^(e - r) = |Aut| on every indecomposable, None on every sum
        cat = IsoClassCatalog(shape, F, [cap])
        for info in cat.classes:
            aut, e = aut_order_brute(info.module), end_dim(info.module)
            r = modrep._residue_degree(F.q, e, aut)
            if info.indec:
                assert r == info.res and (F.q ** r - 1) * F.q ** (e - r) == aut, info.cid
            else:
                assert r is None, info.cid

    def test_planted_aut_fails_the_orbit_size_check(self, monkeypatch):
        # |Aut| of the regular (1, 1) indecomposables doubled to |G| = 4 over
        # GF(3): the walked orbit sizes are no longer |G| / |Aut| of the classes
        finish = IsoClassCatalog._finish_indec

        def planted(self, info):
            finish(self, info)
            if info.dims == (1, 1):
                info.aut *= 2

        monkeypatch.setattr(IsoClassCatalog, "_finish_indec", planted)
        _synthesize_with(monkeypatch, None)
        with pytest.raises(OracleError, match=r"orbit sizes at \(1, 1\) over GF\(3\)"):
            IsoClassCatalog(KRON, F3, [(1, 1)])


class TestSubQuotient:
    def test_sub_plus_quotient_dims(self, kron_cat):
        L = kron_cat.classes_of_dim((2, 2))[5].module
        for st in itertools.islice(submodule_tuples(L), 40):
            S, Q = sub_quotient(L, st)
            assert tuple(a + b for a, b in zip(S.dims, Q.dims)) == L.dims

    def test_iso_search_agrees_with_classify(self, kron_cat):
        # dual route: exhaustive isomorphism search vs profile classification
        classes = kron_cat.classes_of_dim((1, 1))
        for a in classes:
            for b in classes:
                want = a.cid == b.cid
                assert is_isomorphic(a.module, b.module) == want


class TestCaching:
    def test_cache_roundtrip_byte_identical(self, tmp_path, monkeypatch):
        _synthesize_with(monkeypatch, None)
        d = str(tmp_path)
        cat1 = IsoClassCatalog(KRON, F2, [(1, 1)], cache_dir=d)
        cat1.scan_dim((1, 1))
        files1 = {f: open(tmp_path / f, "rb").read() for f in sorted(p.name for p in tmp_path.iterdir())}
        cat2 = IsoClassCatalog(KRON, F2, [(1, 1)], cache_dir=d)
        cat2.scan_dim((1, 1))
        files2 = {f: open(tmp_path / f, "rb").read() for f in sorted(p.name for p in tmp_path.iterdir())}
        assert files1 == files2
        assert len(cat2.classes) == len(cat1.classes)
        assert [c.aut for c in cat2.classes] == [c.aut for c in cat1.classes]
        # an orbit indecomposable's key is its tuple of arrow maps, nested tuples
        assert [c.synth_key for c in cat2.classes] == [c.synth_key for c in cat1.classes]


class TestDualRouteCounting:
    def test_hall_numbers_via_injective_homs(self, kron_cat):
        # g^L_{MN} |Aut N| equals the number of injective homomorphisms
        # N -> L whose cokernel is isomorphic to M: the same count reached
        # through the automorphism-group route instead of subspace listing
        import itertools as it

        from hallbases.modrep import SubspaceTuple, hom_space, m_rank, rref

        F = F2
        scan = kron_cat.scan_dim((1, 1))
        for l_cid in kron_cat.by_dim[(1, 1)]:
            L = kron_cat.classes[l_cid].module
            for n_cid in kron_cat.by_dim[(0, 1)] + kron_cat.by_dim[(1, 0)]:
                N = kron_cat.classes[n_cid].module
                basis = hom_space(N, L)
                inj_by_quot = {}
                for coeffs in it.product(range(F.q), repeat=len(basis)):
                    f = {}
                    for v in KRON.vertices:
                        acc = None
                        for c, b in zip(coeffs, basis):
                            if c:
                                term = [[F.mul(c, x) for x in row] for row in b[v]]
                                acc = term if acc is None else [
                                    [F.add(x, y) for x, y in zip(ra, rb)]
                                    for ra, rb in zip(acc, term)]
                        if acc is None:
                            rows = N.dims[KRON.index[v]]
                            cols = L.dims[KRON.index[v]]
                            acc = tuple((0,) * cols for _ in range(rows)) if rows else ()
                        f[v] = acc
                    injective = all(
                        m_rank(F, _mt(f[v])) == N.dims[KRON.index[v]]
                        for v in KRON.vertices)
                    if not injective:
                        continue
                    rows = {v: rref(F, _mt(f[v]))[0][: N.dims[KRON.index[v]]]
                            if N.dims[KRON.index[v]] else ()
                            for v in KRON.vertices}
                    st = SubspaceTuple(L, rows)
                    _, Q = __import__("hallbases.modrep", fromlist=["sub_quotient"]).sub_quotient(L, st)
                    q_cid = kron_cat.classify(Q)
                    inj_by_quot[q_cid] = inj_by_quot.get(q_cid, 0) + 1
                for (m_cid, n2_cid), g in scan[l_cid].items():
                    if n2_cid != n_cid:
                        continue
                    aut_n = kron_cat.classes[n_cid].aut
                    assert inj_by_quot.get(m_cid, 0) == g * aut_n


def _mt(mat):
    # transpose helper: hom_space returns maps as (target x source); the
    # image rows live in the target, one per source basis vector
    if not mat:
        return ()
    return tuple(tuple(mat[i][j] for i in range(len(mat))) for j in range(len(mat[0])))


def _planted(extra):
    """synth_kronecker plus the indecomposables extra(shape, F, dims) returns."""
    def synth(shape, F, dims):
        return synth_kronecker(shape, F, dims) + extra(shape, F, dims)
    return synth


class TestBuildCertificate:
    # the mass check is switched off, so only the Krull-Schmidt certificate
    # can catch the planted duplicate; STATE_BUDGET cannot do that for an
    # acyclic shape, whose every slice is mass-checked

    @pytest.fixture(autouse=True)
    def no_mass_check(self, monkeypatch):
        monkeypatch.setattr(IsoClassCatalog, "_mass_check", lambda self, dims: None)

    # at (2, 2) the slice's own indecomposables are the first candidates
    @pytest.mark.parametrize("planted", [("reg", (0, 1), 1), ("reg", (1, 1, 1), 1)],
                             ids=["slice-1-1", "slice-2-2"])
    def test_indecomposable_cataloged_twice(self, planted, monkeypatch):
        dims = kronecker_indec(KRON, F2, planted).dims

        def extra(shape, F, d):
            if d != dims:
                return []
            return [(("regdup",) + planted[1:], kronecker_indec(shape, F, planted))]
        _synthesize_with(monkeypatch, _planted(extra))
        with pytest.raises(OracleError, match="do not separate"):
            IsoClassCatalog(KRON, F2, [dims])

    def test_base_changed_copy_is_not_separated(self, monkeypatch):
        # a copy in another basis has the same (end, res), so it lands in
        # the group of the indecomposable it copies
        planted = ("reg", (1, 1, 1), 1)
        dims = kronecker_indec(KRON, F2, planted).dims

        def extra(shape, F, d):
            if d != dims:
                return []
            copy = _base_change(kronecker_indec(shape, F, planted), random.Random("copy"))
            return [(("regdup",) + planted[1:], copy)]
        _synthesize_with(monkeypatch, _planted(extra))
        with pytest.raises(OracleError, match="do not separate"):
            IsoClassCatalog(KRON, F2, [dims])

    def test_decomposition_cataloged_twice(self, tmp_path):
        # the catalog records every sum once, so the duplicate is planted in
        # its cache file, which a later construction loads and certifies
        cat = IsoClassCatalog(KRON, F2, [(1, 1)], cache_dir=str(tmp_path))
        path = cat._cat_path()
        with open(path) as fh:
            payload = json.load(fh)
        sums = [cid for cid in payload["by_dim"]["1,1"]
                if not payload["classes"][cid]["indec"]]
        payload["by_dim"]["1,1"].append(len(payload["classes"]))
        payload["classes"].append(payload["classes"][sums[0]])
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(OracleError, match="share a decomposition"):
            IsoClassCatalog(KRON, F2, [(1, 1)], cache_dir=str(tmp_path))


class TestCertificateGroups:
    @pytest.mark.parametrize("shape, F, cap", [
        (KRON, F2, (3, 3)), (KRON, F3, (2, 2)), (A2T, F2, (1, 1, 1)),
        (cyclic_shape(2), F2, (2, 2)),
    ], ids=["kronecker-q2", "kronecker-q3", "a2tilde-q2", "cyclic2-q2"])
    def test_each_separated_group_shares_end_and_residue(self, shape, F, cap, monkeypatch):
        # construction calls _separate only from _certify_distinct: once per
        # (end, res) group of two or more indecomposables of a slice, the
        # group's own first among the candidates
        calls = []
        separate = IsoClassCatalog._separate

        def recorded(self, cids, dims, candidates):
            calls.append((dims, list(cids), list(candidates)))
            return separate(self, cids, dims, candidates)
        monkeypatch.setattr(IsoClassCatalog, "_separate", recorded)
        cat = IsoClassCatalog(shape, F, [cap])
        want = {}
        for dims, cids in cat.by_dim.items():
            for cid in cids:
                info = cat.classes[cid]
                if info.indec:
                    want.setdefault((dims, info.end, info.res), []).append(cid)
        want = sorted((dims, group) for (dims, _, _), group in want.items() if len(group) > 1)
        assert sorted((dims, cids) for dims, cids, _ in calls) == want
        for dims, cids, candidates in calls:
            assert len({(cat.classes[c].end, cat.classes[c].res) for c in cids}) == 1
            assert candidates[:len(cids)] == cids
            assert sorted(candidates) == cat.indec_ids
        if shape is KRON:
            # (2, 2) splits by residue degree: the points of P^1 have r = 1 and
            # the quadratic ones r = 2; GF(2) has one, which is separated from nothing
            sizes = sorted(len(group) for dims, group in want if dims == (2, 2))
            assert sizes == ([3] if F is F2 else [3, 4])


def _dropping_one_indec(drop_dims, synthesizer=synth_cyclic):
    """synthesizer without the last indecomposable of the slice drop_dims."""
    def synth(shape, F, dims):
        indecs = synthesizer(shape, F, dims)
        return indecs[:-1] if dims == drop_dims else indecs
    return synth


def _is_nilpotent_state(shape, F, dims, maps):
    """Nilpotency of the composite of maps once around the cycle of a cyclic shape."""
    verts = list(shape.vertices)
    nonzero = [k for k, n in enumerate(dims) if n]
    if not nonzero:
        return True
    k = nonzero[0]
    verts = verts[k:] + verts[:k]
    by_src = {h.src: h for h in shape.arrows}
    comp = m_id(F, dims[k])
    for i in verts:
        comp = m_mul(F, maps[by_src[i].id], comp) if comp else ()
    return modrep._is_nilpotent(F, comp)


class TestNilpotentMassCheck:
    @pytest.mark.parametrize("r, q", [(r, q) for r in (2, 3) for q in (2, 3, 4, 5)])
    def test_count_matches_state_walk(self, r, q):
        shape, F = cyclic_shape(r), field_of_order(q)
        checked = 0
        for dims in itertools.product(range(4), repeat=r):
            if modrep._state_count(shape, F, dims) > 2 ** 12:
                continue
            walked = sum(_is_nilpotent_state(shape, F, dims, maps)
                         for maps in modrep._iter_states(shape, F, dims))
            assert modrep._nilpotent_point_count(shape, F, dims) == walked, dims
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("F", [F2, F3])
    def test_dropped_class_fails_the_mass_check(self, F, dims, monkeypatch):
        _synthesize_with(monkeypatch, _dropping_one_indec(dims))
        with pytest.raises(OracleError, match="mass check failed at %s" % re.escape(str(dims))):
            IsoClassCatalog(cyclic_shape(2), F, [dims])

    def test_cyclic_algebra_certifies_the_same_slices(self):
        # no fit of the (2, 3) basis widens, so GF(7) is never read
        slices = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1),
                  (1, 3), (2, 2), (2, 3)]
        alg = CyclicCanonicalBasis(2, (2, 3)).alg
        assert {q: cat.mass_checked for q, cat in alg.catalogs.items()} == {
            2: slices, 3: slices[:11], 4: slices[:11], 5: slices[:10]}


class TestAcyclicMassCheck:
    # 7^8 states at (2, 2), over STATE_BUDGET: an acyclic count is q^N anyway

    def test_every_slice_certified(self):
        cat = IsoClassCatalog(KRON, field(7), [(2, 2)])
        assert len(cat.dims_list) == 9 and cat.mass_checked == cat.dims_list

    def test_dropped_class_fails_the_mass_check(self, monkeypatch):
        _synthesize_with(monkeypatch, _dropping_one_indec((2, 2), synth_kronecker))
        with pytest.raises(OracleError, match=r"mass check failed at \(2, 2\) over GF\(7\)"):
            IsoClassCatalog(KRON, field(7), [(2, 2)])


def _oracle_decompositions(indecs, dims):
    """Every decomposition of dims over indecs [(key, dims)], in catalog order.

    A filtered product: first how many summands of each dimension vector
    (kept when they add up to dims), then, for each vector, a multiset of
    that many indecomposables of it.  A decomposition is ((key, mult), ...)
    in repr-of-key order, and the list is sorted by its repr.
    """
    by_dims = {}
    for key, d in indecs:
        by_dims.setdefault(d, []).append(key)
    vectors = [d for d in sorted(by_dims) if all(x <= y for x, y in zip(d, dims))]
    out = []
    for counts in itertools.product(*(range(min(y // x for x, y in zip(d, dims) if x) + 1)
                                      for d in vectors)):
        if tuple(sum(c * d[k] for c, d in zip(counts, vectors))
                 for k in range(len(dims))) != tuple(dims):
            continue
        for picks in itertools.product(*(itertools.combinations_with_replacement(by_dims[d], c)
                                         for d, c in zip(vectors, counts))):
            mults = Counter(key for pick in picks for key in pick)
            out.append(tuple(sorted(mults.items(), key=lambda km: repr(km[0]))))
    return sorted(out, key=repr)


def _catalog_decompositions(cat, dims):
    """The classes of a slice as ((synth key, mult), ...), in cid order."""
    return [tuple(sorted(((cat.classes[icid].synth_key, m) for icid, m in c.decomposition),
                         key=lambda km: repr(km[0])))
            for c in cat.classes_of_dim(dims)]


def _kronecker_indecs(F, cap):
    return [(key, d) for d in itertools.product(*(range(c + 1) for c in cap))
            for key in kronecker_indec_keys(F, d)]


def _cyclic_indecs(r, cap):
    segments = [Multisegment.segment(r, i, l)
                for i in range(1, r + 1) for l in range(1, sum(cap) + 1)]
    return [(("seg",) + next(iter(pi.entries)), pi.dim_vector()) for pi in segments]


class TestSliceDecompositions:
    """Each slice's classes are exactly the sums of indecomposables, in order."""

    @pytest.mark.parametrize("shape, cap, F, indecs", [
        pytest.param(KRON, (3, 3), F2, _kronecker_indecs(F2, (3, 3)), id="kronecker-q2"),
        pytest.param(KRON, (3, 3), F3, _kronecker_indecs(F3, (3, 3)), id="kronecker-q3"),
        pytest.param(cyclic_shape(2), (3, 3), F2, _cyclic_indecs(2, (3, 3)), id="cyclic2"),
        pytest.param(cyclic_shape(3), (2, 2, 2), F3, _cyclic_indecs(3, (2, 2, 2)), id="cyclic3"),
    ])
    def test_matches_product_oracle(self, shape, cap, F, indecs):
        cat = IsoClassCatalog(shape, F, [cap])
        for dims in cat.dims_list:
            assert _catalog_decompositions(cat, dims) == _oracle_decompositions(indecs, dims), dims

    def test_each_indecomposable_built_once(self, monkeypatch):
        built = []
        real = modrep.kronecker_indec

        def counting(shape, F, key):
            built.append(key)
            return real(shape, F, key)

        monkeypatch.setattr(modrep, "kronecker_indec", counting)
        cat = IsoClassCatalog(KRON, F3, [(3, 3)])
        assert len(built) == len(cat.indec_ids) == len(set(built))
        assert set(built) == {cat.classes[cid].synth_key for cid in cat.indec_ids}


def _multisets_classes(cat, dims, hom):
    """(decomposition, end, aut) of every class of dims, from one cartan.multisets walk.

    The walk runs over the catalog's indecomposables that fit in dims, in repr
    order of their synth keys, and the classes are sorted by the name that
    joins one (repr(key), m) per summand.  dim End is sum m m' hom(X, X')
    over summands, and |Aut| = prod |GL_m(q^r)| q^(end - sum m^2 r).
    """
    items = sorted((info for info in (cat.classes[c] for c in cat.indec_ids)
                    if all(x <= y for x, y in zip(info.dims, dims))),
                   key=lambda info: repr(info.synth_key))
    named = sorted(("(%s%s)" % (", ".join("(%r, %d)" % (items[k].synth_key, m) for k, m in chosen),
                                "," if len(chosen) == 1 else ""), chosen)
                   for chosen, _ in multisets([info.dims for info in items], dims))
    out = []
    for _, chosen in named:
        summands = [(items[k], m) for k, m in chosen]
        end = sum(m * m2 * hom(X, Y) for X, m in summands for Y, m2 in summands)
        aut = cat.F.q ** (end - sum(m * m * X.res for X, m in summands))
        for X, m in summands:
            aut *= modrep.gl_order(cat.F.q ** X.res, m)
        out.append((tuple(sorted((X.cid, m) for X, m in summands)), end, aut))
    return out


def _hom_table(cat):
    """dim Hom(X, Y) of indecomposables, memoised, from one Hom system per (X, dim Y)."""
    systems, values = {}, {}

    def hom(X, Y):
        if (X.cid, Y.cid) not in values:
            if (X.cid, Y.dims) not in systems:
                systems[X.cid, Y.dims] = HomSystem(X.module, Y.dims)
            values[X.cid, Y.cid] = systems[X.cid, Y.dims].dim(Y.module)
        return values[X.cid, Y.cid]
    return hom


GROWN_CATALOGS = {
    "kronecker-window6-q2": lambda: IsoClassCatalog(
        KRON, F2, sorted(admissible_of(KRON).betas(6).values())),
    "kronecker-q3": lambda: IsoClassCatalog(KRON, F3, [(3, 3)]),
    "a2tilde-q2": lambda: IsoClassCatalog(A2T, F2, [(1, 1, 2)]),
    "cyclic2-q2": lambda: IsoClassCatalog(cyclic_shape(2), F2, [(2, 3)]),
    "a1-q2": lambda: IsoClassCatalog(A1, F2, [(4,)]),
}


class TestGrownSlices:
    """Sums grown from smaller slices are the multisets of the slice's indecomposables."""

    @pytest.mark.parametrize("name", sorted(GROWN_CATALOGS))
    def test_matches_multisets_oracle(self, name):
        cat = GROWN_CATALOGS[name]()
        hom = _hom_table(cat)
        for dims in cat.dims_list:
            got = [(c.decomposition, c.end, c.aut) for c in cat.classes_of_dim(dims)]
            assert got == _multisets_classes(cat, dims, hom), dims

    @pytest.mark.parametrize("name", sorted(GROWN_CATALOGS))
    def test_sum_formed_from_its_summands_in_repr_order(self, name):
        cat = GROWN_CATALOGS[name]()
        for info in cat.classes:
            if not info.indec:
                named = sorted(info.decomposition,
                               key=lambda cm: repr(cat.classes[cm[0]].synth_key))
                summands = [cat.classes[y].module for y, m in named for _ in range(m)]
                want = direct_sum(*summands, shape=cat.shape, F=cat.F)
                assert info.module.key() == want.key(), info.cid

    @pytest.mark.parametrize("name", sorted(GROWN_CATALOGS))
    def test_end_of_every_indecomposable_in_the_pair_cache(self, name):
        cat = GROWN_CATALOGS[name]()
        assert all(cat._pair_hom.get((x, x)) == cat.classes[x].end for x in cat.indec_ids)


def _random_invertible(F, n, rng):
    while True:
        g = tuple(tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n))
        if m_rank(F, g) == n:
            return g


def _base_change(M, rng):
    """M transported along random invertible vertex maps (trivial valuations)."""
    shape, F = M.shape, M.F
    g = {i: _random_invertible(F, M.dims[shape.index[i]], rng) for i in shape.vertices}
    ginv = {i: modrep._m_inv(F, g[i]) if g[i] else () for i in shape.vertices}
    maps = {}
    for h in shape.arrows:
        mat = M.maps[h.id]
        if mat and mat[0]:
            mat = m_mul(F, m_mul(F, g[h.tgt], mat), ginv[h.src])
        maps[h.id] = mat
    return FiniteModule(shape, F, M.dims, maps)


LAZY_CATALOGS = {
    "kronecker-q2": lambda: IsoClassCatalog(KRON, F2, [(2, 2)]),
    "kronecker-q3": lambda: IsoClassCatalog(KRON, F3, [(2, 2)]),
    "a2tilde-q2": lambda: IsoClassCatalog(A2T, F2, [(1, 1, 1)]),
    "cyclic2-q2": lambda: IsoClassCatalog(cyclic_shape(2), F2, [(2, 2)]),
}


class TestLazyClassification:
    @pytest.mark.parametrize("name", sorted(LAZY_CATALOGS))
    def test_classify_against_catalog(self, name):
        cat = LAZY_CATALOGS[name]()
        assert cat.probes_by_dim == {}
        rng = random.Random(name)
        for c in cat.classes:
            assert cat.classify(c.module) == c.cid
            assert cat.classify(_base_change(c.module, rng)) == c.cid
        multi = [dims for dims, cids in cat.by_dim.items() if len(cids) > 1]
        assert sorted(cat.probes_by_dim) == sorted(multi)
        for dims, probes in cat.probes_by_dim.items():
            profiles = {tuple(hom_dim(cat.classes[p].module, c.module) for p in probes)
                        for c in cat.classes_of_dim(dims)}
            assert len(profiles) == len(cat.by_dim[dims])

    # classify takes candidates in indec_ids order, whatever order the
    # distinctness certificate tries them in
    @pytest.mark.parametrize("name, pinned", [
        ("kronecker-q3", {(1, 1): [2, 5, 6, 7], (1, 2): [2, 5, 6, 7, 8],
                          (2, 1): [2, 5, 6, 7], (2, 2): [2, 5, 6, 7, 8, 34, 42]}),
        ("a2tilde-q2", {(0, 1, 1): [2], (1, 0, 1): [3], (1, 1, 0): [3],
                        (1, 1, 1): [2, 3, 7, 9, 13]}),
    ])
    def test_probes_pinned(self, name, pinned):
        cat = LAZY_CATALOGS[name]()
        for cids in cat.by_dim.values():
            cat.classify(cat.classes[cids[0]].module)
        assert cat.probes_by_dim == pinned

    def test_hom_systems_kept_per_probe_and_slice(self):
        # the first classification in a slice builds one system per probe,
        # and every later one reads the same systems
        cat = LAZY_CATALOGS["kronecker-q3"]()
        rng = random.Random("systems")
        passes = []
        for _ in range(2):
            for c in cat.classes:
                assert cat.classify(_base_change(c.module, rng)) == c.cid
            passes.append({dims: list(systems) for dims, systems in cat._hom_systems.items()})
        first, second = passes
        assert {dims: len(systems) for dims, systems in first.items()} == {
            dims: len(probes) for dims, probes in cat.probes_by_dim.items()}
        assert first.keys() == second.keys()
        assert all(a is b for dims in first for a, b in zip(first[dims], second[dims]))


class TestSumsOnFirstRead:
    def test_build_forms_no_sum(self, monkeypatch):
        formed = []
        real = modrep.direct_sum

        def counting(*modules, **kwargs):
            formed.append(len(modules))
            return real(*modules, **kwargs)
        monkeypatch.setattr(modrep, "direct_sum", counting)
        betas = admissible_of(KRON).betas(5)
        cat = IsoClassCatalog(KRON, F2, sorted(betas.values()))
        assert formed == []
        sums = [info for info in cat.classes if not info.indec]
        for info in sums:
            assert info.module.dims == info.dims
            assert info.module is info.module
        assert len(formed) == len(sums)
        # classifying all 2 382 sums takes ~10 s; the first and last sum of
        # every slice cover each slice's probes and both ends of its order
        for cids in cat.by_dim.values():
            slice_sums = [cid for cid in cids if not cat.classes[cid].indec]
            for cid in slice_sums[:1] + slice_sums[-1:]:
                assert cat.classify(cat.classes[cid].module) == cid


def _fail(*args, **kwargs):
    raise RuntimeError("injected failure")


class TestCacheWrites:
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        broken_json = SimpleNamespace(dumps=_fail)
        cache = tmp_path / "cache"

        def build():
            return IsoClassCatalog(KRON, F2, [(1, 1)], cache_dir=str(cache))

        with monkeypatch.context() as m:
            m.setattr(modrep, "json", broken_json)
            with pytest.raises(RuntimeError):
                build()
        assert list(cache.iterdir()) == []
        with monkeypatch.context() as m:
            m.setattr(modrep.os, "replace", _fail)
            with pytest.raises(RuntimeError):
                build()
        assert list(cache.iterdir()) == []
        cat = build()  # rebuilds and writes a whole file
        assert [p.name for p in cache.iterdir()] == [os.path.basename(cat._cat_path())]
        with monkeypatch.context() as m:
            m.setattr(modrep, "json", broken_json)
            with pytest.raises(RuntimeError):
                cat.scan_dim((1, 1))
        assert len(list(cache.iterdir())) == 1
        assert build().scan_dim((1, 1)) == cat.scan_dim((1, 1))
        assert len(list(cache.iterdir())) == 2


class TestCacheLoad:
    """A loaded catalog is re-checked by the mass formula, slice by slice."""

    @staticmethod
    def _build(cache):
        return IsoClassCatalog(KRON, F2, [(1, 2)], cache_dir=str(cache))

    @staticmethod
    def _rewrite(path, edit):
        with open(path) as fh:
            payload = json.load(fh)
        edit(payload)
        with open(path, "w") as fh:
            json.dump(payload, fh)

    def test_loaded_catalog_is_mass_checked_again(self, tmp_path, monkeypatch):
        built = self._build(tmp_path)
        calls = []
        check = IsoClassCatalog._mass_check
        monkeypatch.setattr(IsoClassCatalog, "_build", _fail)
        monkeypatch.setattr(IsoClassCatalog, "_mass_check",
                            lambda self, dims: calls.append(dims) or check(self, dims))
        loaded = self._build(tmp_path)
        assert calls == built.dims_list
        assert loaded.mass_checked == built.mass_checked == built.dims_list

    def test_wrong_automorphism_count_is_refused(self, tmp_path):
        path = self._build(tmp_path)._cat_path()

        def edit(payload):
            # another class's |Aut| still divides |G| but changes the sum
            classes = [payload["classes"][cid] for cid in payload["by_dim"]["1,2"]]
            other = next(c["aut"] for c in classes if c["aut"] != classes[0]["aut"])
            classes[0]["aut"] = other
        self._rewrite(path, edit)
        with pytest.raises(OracleError, match="cache file %s: mass check failed at \\(1, 2\\)"
                           % re.escape(path)):
            self._build(tmp_path)

    def test_dropped_class_is_refused(self, tmp_path):
        path = self._build(tmp_path)._cat_path()
        self._rewrite(path, lambda payload: payload["by_dim"]["1,2"].pop())
        with pytest.raises(OracleError, match="cache file %s: mass check failed"
                           % re.escape(path)):
            self._build(tmp_path)

    def test_stored_list_must_equal_the_recomputed_one(self, tmp_path):
        path = self._build(tmp_path)._cat_path()
        self._rewrite(path, lambda payload: payload["mass_checked"].pop())
        with pytest.raises(OracleError, match="lists the mass-checked slices"):
            self._build(tmp_path)

    def test_missing_slice_is_refused(self, tmp_path):
        path = self._build(tmp_path)._cat_path()
        self._rewrite(path, lambda payload: payload["by_dim"].pop("1,2"))
        with pytest.raises(OracleError, match="does not hold the slices"):
            self._build(tmp_path)

    @pytest.mark.parametrize("edit, match", [
        # a class of the slice listed as the zero class
        (lambda payload, zero: payload.update({zero: payload.pop(min(payload))}),
         "does not list the classes of the slice"),
        # a pair of the slice's first class read as the zero class twice
        (lambda payload, zero: payload[min(payload)].update(
            {"%s,%s" % (zero, zero): payload[min(payload)].popitem()[1]}),
         "whose dimension vectors do not add up"),
        # a pair key that is not two class ids
        (lambda payload, zero: payload[min(payload)].update(
            {"x,%s" % zero: payload[min(payload)].popitem()[1]}),
         "is not a scan of class ids"),
    ], ids=["class", "pair", "text"])
    def test_edited_scan_file_is_refused(self, tmp_path, edit, match):
        cat = self._build(tmp_path)
        want, path = cat.scan_dim((1, 2)), cat._scan_path((1, 2))
        # the file as written loads
        assert self._build(tmp_path)._load_scan((1, 2)) == want
        self._rewrite(path, lambda payload: edit(payload, str(cat.by_dim[(0, 0)][0])))
        with pytest.raises(OracleError, match="scan file %s .*%s" % (re.escape(path), match)):
            self._build(tmp_path).scan_dim((1, 2))

    def test_split_scan_pair_of_another_dimension_is_refused(self, tmp_path):
        # a pair of the split (0,1) + (1,1) re-pointed at a quotient of (1,0)
        # and a sub of (0,2): its dimension vectors still add up to (1,2)
        cat = self._build(tmp_path)
        want, path = cat.scan_dim((1, 2), (0, 1)), cat._scan_path((1, 2), (0, 1))
        assert self._build(tmp_path)._load_scan((1, 2), (0, 1)) == want
        pair = "%d,%d" % (cat.by_dim[(1, 0)][0], cat.by_dim[(0, 2)][0])
        self._rewrite(path, lambda payload: payload[min(payload)].update(
            {pair: payload[min(payload)].popitem()[1]}))
        with pytest.raises(OracleError, match="scan file %s pairs classes .*, whose sub is not "
                           "of dimension \\(0, 1\\)" % re.escape(path)):
            self._build(tmp_path).scan_dim((1, 2), (0, 1))

    def test_cache_key_is_hashed_once(self, tmp_path, monkeypatch):
        import hashlib
        cat = self._build(tmp_path)
        monkeypatch.setattr(hashlib, "sha256", _fail)
        paths = {cat._scan_path((1, 2), sub) for sub in ((0, 1), (1, 0), (1, 1))}
        assert len(paths) == 3 and all(cat._cache_key in path for path in paths)

    def test_cache_of_the_previous_format_is_not_read(self, tmp_path):
        # the key names the catalog format; a file written under the old
        # key (class order of before) is never loaded
        import hashlib
        cat = self._build(tmp_path / "new")
        blob = "%s|%d|%s|v4" % (KRON.key(), 2, ";".join(map(str, cat.dims_list)))
        old = tmp_path / ("cat_%s.json" % hashlib.sha256(blob.encode()).hexdigest()[:24])
        old.write_text("not a catalog")
        rebuilt = self._build(tmp_path)
        assert os.path.basename(rebuilt._cat_path()) != old.name
        assert [c.aut for c in rebuilt.classes] == [c.aut for c in cat.classes]


FIELDS = (field(2), field(3), field(2, 2), field(5), field(7))


@st.composite
def gf_matrices(draw):
    """A field and a matrix over it of any shape up to 7 x 7, empty shapes
    included.  Some are products through an inner dimension of 1 to 3, so
    of low rank, and some have rows set to zero."""
    F = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))

    def mat(r, c):
        return [[draw(st.integers(0, F.q - 1)) for _ in range(c)] for _ in range(r)]

    inner = draw(st.one_of(st.none(), st.integers(1, 3)))
    if inner is None:
        A = mat(rows, cols)
    else:
        A = [list(row) for row in m_mul(F, mat(rows, inner), mat(inner, cols))]
    for r in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        A[r] = [0] * cols
    return F, tuple(tuple(row) for row in A)


# a valued shape (a valued vertex is a source), one with a vertex that has
# arrows in and out, and one with an oriented cycle and no sink; the maps
# drawn on the cycle need not be nilpotent, which Hom does not need
HOM_SHAPES = (KRON, C2F, A2T, cyclic_shape(3))


def _draw_module(draw, shape, F, dims=None):
    """A random module of shape over F, of dims or of random dims up to 2."""
    if dims is None:
        dims = tuple(draw(st.integers(0, 2)) for _ in shape.vertices)
    maps = {}
    for h in shape.arrows:
        r = shape.d[h.tgt] * dims[shape.index[h.tgt]]
        c = h.m * dims[shape.index[h.src]]
        maps[h.id] = tuple(tuple(draw(st.lists(st.integers(0, F.q - 1),
                                               min_size=c, max_size=c)))
                           for _ in range(r))
    if shape is C2F and F.deg > 1:
        # valued vertices are refused over a non-prime base field
        with pytest.raises(ValueError, match="prime base field"):
            FiniteModule(shape, F, dims, maps)
        reject()
    return FiniteModule(shape, F, dims, maps)


@st.composite
def module_pairs(draw, fields=FIELDS):
    """Two random modules of one small shape over one field."""
    shape = draw(st.sampled_from(HOM_SHAPES))
    F = draw(st.sampled_from(fields))
    return _draw_module(draw, shape, F), _draw_module(draw, shape, F)


@st.composite
def module_families(draw):
    """A random module M and 2 to 6 random modules of one dimension vector."""
    shape = draw(st.sampled_from(HOM_SHAPES))
    F = draw(st.sampled_from(FIELDS))
    M = _draw_module(draw, shape, F)
    first = _draw_module(draw, shape, F)
    return M, [first] + [_draw_module(draw, shape, F, first.dims)
                         for _ in range(draw(st.integers(1, 5)))]


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(gf_matrices())
    def test_rank_matches_rref(self, case):
        F, A = case
        assert m_rank(F, A) == len(rref(F, A)[1])

    @settings(max_examples=150, deadline=None)
    @given(module_pairs())
    def test_hom_dim_matches_hom_space(self, pair):
        M, N = pair
        assert hom_dim(M, N) == len(hom_space(M, N))

    @settings(max_examples=100, deadline=None)
    @given(module_families())
    def test_one_system_serves_every_module_of_its_dims(self, family):
        # no pivot of one call reaches the next: each dim equals a fresh count
        M, Ns = family
        system = HomSystem(M, Ns[0].dims)
        want = [len(hom_space(M, N)) for N in Ns]
        assert [system.dim(N) for N in Ns + Ns[:1]] == want + want[:1]
        assert all(system.rows(N) == HomSystem(M, N.dims).rows(N) for N in Ns)

    def test_system_refuses_other_dims(self):
        S1, S2 = simple_module(KRON, F2, "1"), simple_module(KRON, F2, "2")
        with pytest.raises(ValueError, match="dimension vector"):
            HomSystem(S1, S1.dims).dim(S2)


# -- an oracle for Hom and the GF(q) kernel that does not share their code ---

PRIME_FIELDS = (field(2), field(3), field(5), field(7))


def _product(F, A, B, rows, inner, cols):
    """A (rows x inner) times B (inner x cols), entry by entry."""
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            s = 0
            for k in range(inner):
                s = F.add(s, F.mul(A[r][k], B[k][c]))
            row.append(s)
        out.append(row)
    return out


def _is_hom(M, N, f):
    """f_t M_h = N_h (I (x) f_s) on every arrow h, I (x) f_s block diagonal."""
    shape, F = M.shape, M.F
    for h in shape.arrows:
        s, t = shape.index[h.src], shape.index[h.tgt]
        ds, dt = shape.d[h.src], shape.d[h.tgt]
        rows, cols = dt * N.dims[t], h.m * M.dims[s]
        fs, nN, nM = f[h.src], ds * N.dims[s], ds * M.dims[s]
        lifted = [[fs[r % nN][c % nM] if r // nN == c // nM else 0
                   for c in range(h.m * M.dims[s])] for r in range(h.m * N.dims[s])]
        lhs = _product(F, f[h.tgt], M.maps[h.id], rows, dt * M.dims[t], cols)
        rhs = _product(F, N.maps[h.id], lifted, rows, h.m * N.dims[s], cols)
        if lhs != rhs:
            return False
    return True


def _vertex_maps(M, N, i):
    """Every D_i-linear map M_i -> N_i, in base-field form."""
    shape = M.shape
    d = shape.d[i]
    Di = M.vertex_field(i)
    n_N, n_M = N.dims[shape.index[i]], M.dims[shape.index[i]]
    for entries in itertools.product(range(Di.q), repeat=n_N * n_M):
        mat = [[0] * (d * n_M) for _ in range(d * n_N)]
        for k, x in enumerate(entries):
            a, b = divmod(k, n_M)
            blk = Di.mult_matrix(x) if d > 1 else ((x,),)
            for r in range(d):
                for c in range(d):
                    mat[a * d + r][b * d + c] = blk[r][c]
        yield tuple(tuple(row) for row in mat)


@st.composite
def square_matrices(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 6))
    return F, tuple(tuple(draw(st.integers(0, F.q - 1)) for _ in range(n)) for _ in range(n))


class TestHomOracle:
    @settings(max_examples=120, deadline=None)
    @given(module_pairs(PRIME_FIELDS))
    def test_hom_space_elements_are_homomorphisms(self, pair):
        M, N = pair
        basis = hom_space(M, N)
        assert len(basis) == hom_dim(M, N)
        for f in basis:
            assert _is_hom(M, N, f)
        flat = [tuple(x for i in M.shape.vertices for row in f[i] for x in row)
                for f in basis]
        assert m_rank(M.F, flat) == len(basis)

    @settings(max_examples=60, deadline=None)
    @given(module_pairs(PRIME_FIELDS))
    def test_hom_dim_counts_homomorphisms(self, pair):
        M, N = pair
        shape, F = M.shape, M.F
        unknowns = sum(shape.d[i] * M.dims[shape.index[i]] * N.dims[shape.index[i]]
                       for i in shape.vertices)
        if F.q ** unknowns > 2 ** 12:
            return
        count = 0
        for maps in itertools.product(*(_vertex_maps(M, N, i) for i in shape.vertices)):
            count += _is_hom(M, N, dict(zip(shape.vertices, maps)))
        assert count == F.q ** hom_dim(M, N)


class TestKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(gf_matrices(), st.integers(0, 7))
    def test_kernel_basis(self, case, cols_if_no_rows):
        F, A = case
        ncols = len(A[0]) if A else cols_if_no_rows
        basis = kernel_basis(F, A, ncols)
        assert len(basis) == ncols - m_rank(F, A)
        for x in basis:
            assert len(x) == ncols
            assert _product(F, A, [[v] for v in x], len(A), ncols, 1) == [[0]] * len(A)
        assert m_rank(F, basis) == len(basis)

    @settings(max_examples=200, deadline=None)
    @given(square_matrices())
    def test_inverse(self, case):
        F, A = case
        n = len(A)
        if m_rank(F, A) < n:
            with pytest.raises(ValueError):
                modrep._m_inv(F, A)
            return
        identity = [[int(r == c) for c in range(n)] for r in range(n)]
        assert _product(F, modrep._m_inv(F, A), A, n, n, n) == identity

    @settings(max_examples=300, deadline=None)
    @given(gf_matrices())
    def test_rref_is_reduced(self, case):
        F, A = case
        R, pivots = rref(F, A)
        assert len(R) == len(pivots) and list(pivots) == sorted(set(pivots))
        for r, pc in enumerate(pivots):
            assert R[r][pc] == 1 and not any(R[r][:pc])
            assert all(R[k][pc] == 0 for k in range(len(R)) if k != r)
        assert m_rank(F, tuple(A) + R) == len(pivots)

    @settings(max_examples=300, deadline=None)
    @given(gf_matrices())
    def test_transpose_matches_index_form(self, case):
        _, A = case
        want = tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0]))) if A else ()
        assert m_transpose(A) == want

    def test_transpose_of_empty_shapes(self):
        # no rows, or rows of no columns: the index form gives () for both
        assert m_transpose(()) == m_transpose([]) == ()
        assert m_transpose(((), ())) == m_transpose([[]]) == ()

    @settings(max_examples=300, deadline=None)
    @given(gf_matrices())
    def test_rank_matches_sympy(self, case):
        from sympy import GF as SympyGF
        from sympy.polys.matrices import DomainMatrix

        F, A = case
        if F.deg > 1:
            return
        want = DomainMatrix.from_list([list(r) for r in A], SympyGF(F.p)).rank() if A else 0
        assert m_rank(F, A) == want


EXTENSION_FIELDS = (field(2, 2), field(2, 3), field(3, 2))


@st.composite
def sparse_matrices(draw):
    """A matrix over GF(4), GF(8) or GF(9) with at most 4 columns whose
    entries are zero two times in three, as in the Hom systems."""
    F = draw(st.sampled_from(EXTENSION_FIELDS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 4))
    entries = st.sampled_from((0,) * (2 * (F.q - 1)) + tuple(range(1, F.q)))
    return F, cols, tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))


class TestExtensionFieldRank:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_kernel_count_matches_rank(self, case):
        F, ncols, A = case
        zeros = [[0]] * len(A)
        kernel = sum(_product(F, A, [[x] for x in vec], len(A), ncols, 1) == zeros
                     for vec in itertools.product(range(F.q), repeat=ncols))
        rank = m_rank(F, A)
        assert kernel == F.q ** (ncols - rank)
        assert len(rref(F, A)[1]) == rank


@st.composite
def gf2_wide_matrices(draw):
    """A GF(2) matrix of up to 40 x 200 as mutable list rows, so a packed
    row spans several int limbs.  Some are products through an inner
    dimension of 1 to 5, so of low rank, and some have rows set to zero."""
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 200))

    def mat(r, c):
        return [[bits >> k & 1 for k in range(c)]
                for bits in draw(st.lists(st.integers(0, 2 ** c - 1), min_size=r, max_size=r))]

    inner = draw(st.one_of(st.none(), st.integers(1, 5)))
    if inner is None:
        A = mat(rows, cols)
    else:
        A = [list(row) for row in m_mul(F2, mat(rows, inner), mat(inner, cols))]
    for r in draw(st.sets(st.integers(0, rows - 1))) if rows else ():
        A[r] = [0] * cols
    return A


def _packed(pivots):
    """Pivot rows of the list kernel as the GF(2) kernel keeps them: a byte per entry."""
    return {c: sum(v << 8 * k for k, v in row) for c, row in pivots.items()}


def _list_kernel(F, A, reduced):
    """_eliminate by the list kernel over GF(2), pivots packed for rref to read."""
    return _packed(gf._eliminate_lists(F, A, reduced))


class TestPackedGF2:
    # the list kernel, which every other field runs, is the oracle of the
    # packed GF(2) one: both keep the same pivot rows

    @settings(max_examples=150, deadline=None)
    @given(gf2_wide_matrices())
    def test_pivot_rows_match_the_list_kernel(self, A):
        before = [row[:] for row in A]
        for reduced in (False, True):
            assert gf._eliminate(F2, A, reduced) == _packed(gf._eliminate_lists(F2, A, reduced))
        assert A == before

    @settings(max_examples=100, deadline=None)
    @given(gf2_wide_matrices())
    def test_rref_rank_and_kernel_match_the_list_kernel(self, A):
        ncols = len(A[0]) if A else 0
        packed = rref(F2, A), m_rank(F2, A), kernel_basis(F2, A, ncols)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "_eliminate", _list_kernel)
            lists = rref(F2, A), m_rank(F2, A), kernel_basis(F2, A, ncols)
        assert packed == lists

    @settings(max_examples=100, deadline=None)
    @given(gf2_wide_matrices(), st.integers(0, 40))
    def test_seeded_elimination(self, A, split):
        # rows swept against the pivots of rows before them, as HomSystem.dim does
        head, tail = A[:split], A[split:]
        seed = gf._eliminate(F2, head, False)
        kept = dict(seed)
        got = gf._eliminate(F2, tail, False, seed)
        assert seed == kept
        assert got == gf._eliminate(F2, A, False)
        assert got == _packed(gf._eliminate_lists(
            F2, tail, False, gf._eliminate_lists(F2, head, False)))

    def test_pivot_rows_are_bytes_of_entries(self):
        # one byte per entry, entry k at byte k, leftmost entry at the pivot column
        A = [[0, 1, 1, 0, 1], [0, 1, 0, 1, 1], [0, 0, 0, 0, 0]]
        assert gf._eliminate(F2, A, False) == {1: 0x0100010100, 2: 0x0001010000}
        assert rref(F2, A) == (((0, 1, 0, 1, 1), (0, 0, 1, 1, 0)), (1, 2))


class TestValuedVertices:
    def test_refused_over_a_prime_power(self):
        with pytest.raises(ValueError, match="prime base field"):
            simple_module(C2F, F4, "1+3")
        with pytest.raises(ValueError, match="prime base field"):
            IsoClassCatalog(C2F, F4, [(1, 1)])


class TestStability:
    def test_unstable_tuple_refused(self):
        L = kronecker_indec(KRON, F2, ("reg", (1, 1), 1))
        W = SubspaceTuple(L, {"1": ((1,),), "2": ()})
        assert not is_submodule(L, W)
        with pytest.raises(OracleError, match="arrow-stable"):
            sub_quotient(L, W)


# -- an oracle for submodules and subquotients that does not share _frame's code

# an unvalued vertex into a valued one: M_h (x) V_s has m_h / d_s = 2 blocks
TWO_BLOCKS = ValuedQuiver(("1", "2"), {"1": 1, "2": 2}, (Arrow("a", "1", "2", 2),))
#: arrows back to the first vertex, which confine the candidates at the second:
#: from a valued vertex in one block of M_h (x) V_2, and into one in two blocks
BACK_SHAPES = {
    "back-one-block": ValuedQuiver(("1", "2"), {"1": 1, "2": 2}, (Arrow("a", "2", "1", 2),)),
    "back-two-blocks": ValuedQuiver(("1", "2"), {"1": 2, "2": 1}, (Arrow("a", "2", "1", 2),)),
}


def _shape_of(name):
    if name == "two-blocks":
        return TWO_BLOCKS
    if name in BACK_SHAPES:
        return BACK_SHAPES[name]
    if name == "c2tilde-folded":
        # the former built-in name of c2-folded, kept as a test label so test ids stay put
        return C2F
    if name.startswith("cyclic:"):
        # the arrow r -> 1 closes back to the first vertex only at the last one
        return cyclic_shape(int(name[len("cyclic:"):]))
    return builtin_quiver(name)


def _random_modules(shape, F, rng, count):
    """Modules with dims up to 2 whose maps are zero, of rank <= 1 or random."""
    for _ in range(count):
        dims = tuple(rng.choice((0, 1, 2, 2)) for _ in shape.vertices)
        maps = {}
        for h in shape.arrows:
            r = shape.d[h.tgt] * dims[shape.index[h.tgt]]
            c = h.m * dims[shape.index[h.src]]
            kind = rng.choice(("zero", "rank <= 1", "random"))
            if kind == "rank <= 1":
                u = [rng.randrange(F.q) for _ in range(r)]
                v = [rng.randrange(F.q) for _ in range(c)]
                mat = [[F.mul(a, b) for b in v] for a in u]
            else:
                mat = [[rng.randrange(F.q) if kind == "random" else 0 for _ in range(c)]
                       for _ in range(r)]
            maps[h.id] = tuple(tuple(row) for row in mat)
        yield FiniteModule(shape, F, dims, maps)


def _base_rows(Di, d, rows):
    """The rows g^a r (a < d, g the generator of D_i) in base-field coordinates."""
    if d == 1:
        # D_i is the base field itself, which need not be prime
        return [list(r) for r in rows]
    powers = [1]
    while len(powers) < d:
        powers.append(Di.mul(powers[-1], Di.p))
    return [[c for x in r for c in Di.coords(Di.mul(g, x))] for r in rows for g in powers]


def _bases(M, i, rows):
    """(basis of W_i, basis of the complement) over the base field, as lists.

    rows is in reduced echelon form, so a pivot is a row's first nonzero entry;
    the complement is spanned by the unit rows at the other coordinates.
    """
    n = M.dims[M.shape.index[i]]
    pivots = {next(c for c, x in enumerate(r) if x) for r in rows}
    units = [[int(c == j) for c in range(n)] for j in range(n) if j not in pivots]
    Di, d = M.vertex_field(i), M.shape.d[i]
    return _base_rows(Di, d, rows), _base_rows(Di, d, units)


def _images(M, h, vectors):
    """M_h applied to each vector of V_s placed in each block of M_h (x) V_s."""
    shape, F = M.shape, M.F
    blocks = h.m // shape.d[h.src]
    n = shape.d[h.src] * M.dims[shape.index[h.src]]
    out = []
    for u in range(blocks):
        for v in vectors:
            x = [0] * (blocks * n)
            x[u * n:(u + 1) * n] = v
            out.append([_dot(F, row, x) for row in M.maps[h.id]])
    return out


def _dot(F, a, b):
    s = 0
    for x, y in zip(a, b):
        s = F.add(s, F.mul(x, y))
    return s


def _combination(F, basis, coeffs, n):
    """sum_k coeffs[k] basis[k], a vector of length n."""
    return [_dot(F, [b[c] for b in basis], coeffs) for c in range(n)]


def _in_span(F, basis, vectors):
    stack = tuple(tuple(v) for v in basis + vectors)
    return m_rank(F, stack) == m_rank(F, tuple(tuple(v) for v in basis))


class TestSubmoduleOracle:
    @pytest.mark.parametrize("q, name", [
        (q, name) for q in (2, 3, 4, 5)
        for name in ("a2tilde", "c2tilde-folded", "cyclic:2", "cyclic:3", "kronecker",
                     "two-blocks", *BACK_SHAPES)
        # valued vertices need a prime base field
        if not (q == 4 and name in ("c2tilde-folded", "two-blocks", *BACK_SHAPES))])
    def test_every_subspace_tuple(self, q, name):
        shape, F = _shape_of(name), field_of_order(q)
        stable = rejected = 0
        for M in _random_modules(shape, F, random.Random("%s-%d" % (name, q)), 20):
            spaces = [list(all_subspaces(M.vertex_field(i), M.dims[shape.index[i]]))
                      for i in shape.vertices]
            accepted = []
            for combo in itertools.product(*spaces):
                rows = dict(zip(shape.vertices, combo))
                bases = {i: _bases(M, i, rows[i]) for i in shape.vertices}
                want = all(_in_span(F, bases[h.tgt][0], _images(M, h, bases[h.src][0]))
                           for h in shape.arrows)
                W = SubspaceTuple(M, rows)
                assert is_submodule(M, W) == want, (M.maps, rows)
                if not want:
                    with pytest.raises(OracleError, match="arrow-stable"):
                        sub_quotient(M, W)
                    rejected += 1
                    continue
                accepted.append(combo)
                S, Q = sub_quotient(M, W)
                assert S.dims == tuple(len(r) for r in combo)
                assert Q.dims == tuple(a - b for a, b in zip(M.dims, S.dims))
                for h in shape.arrows:
                    B_t, C_t = bases[h.tgt]
                    n_t = shape.d[h.tgt] * M.dims[shape.index[h.tgt]]
                    # M_h B_s = B_t S_h, column by column
                    for c, img in enumerate(_images(M, h, bases[h.src][0])):
                        coeffs = [row[c] for row in S.maps[h.id]]
                        assert img == _combination(F, B_t, coeffs, n_t)
                    # M_h C_s = C_t Q_h modulo W_t, column by column
                    for c, img in enumerate(_images(M, h, bases[h.src][1])):
                        coeffs = [row[c] for row in Q.maps[h.id]]
                        rest = _combination(F, C_t, coeffs, n_t)
                        assert _in_span(F, B_t, [[F.sub(a, b) for a, b in zip(img, rest)]])
            stable += len(accepted)
            assert [tuple(W.rows[i] for i in shape.vertices)
                    for W in submodule_tuples(M)] == accepted
        assert stable and rejected


def _stable_tuples(M, sub=None):
    """Every tuple of D_i-subspaces (of dimension sub) that is_submodule accepts, in order."""
    shape = M.shape
    spaces = [list(all_subspaces(M.vertex_field(i), M.dims[shape.index[i]]))
              for i in shape.vertices]
    return [combo for combo in itertools.product(*spaces)
            if (sub is None or tuple(map(len, combo)) == sub)
            and is_submodule(M, SubspaceTuple(M, dict(zip(shape.vertices, combo))))]


class TestBackArrowScan:
    @pytest.mark.parametrize("r, q, dims", [(2, 2, (2, 3)), (2, 3, (2, 2)), (3, 2, (2, 1, 2)),
                                            (3, 3, (1, 2, 1))])
    def test_cyclic_sums(self, r, q, dims):
        """The arrow r -> 1 confines W_r; the tuples stay those of the brute-force filter."""
        shape, F = cyclic_shape(r), field(q)
        sums = [pi for pi in multisegments_of_dim(r, dims) if sum(pi.entries.values()) > 1]
        splits = [tuple(a if j == i else 0 for j in range(r))
                  for i, n in enumerate(dims) for a in range(1, n + 1)]
        assert sums
        for pi in sums:
            M = build_module(shape, F, pi)
            for sub in [None] + splits:
                assert [tuple(W.rows[i] for i in shape.vertices)
                        for W in submodule_tuples(M, sub)] == _stable_tuples(M, sub), (pi, sub)


class TestSharedFrames:
    @pytest.mark.parametrize("name, q, dims", [("cyclic:2", 3, (2, 2)), ("kronecker", 2, (2, 2)),
                                               ("c2tilde-folded", 3, (1, 2))],
                             ids=["cyclic:2", "kronecker", "c2tilde-folded"])
    def test_frame_once_per_subspace(self, monkeypatch, name, q, dims):
        """One frame per (base field, D_i, n_i, subspace) across all classes of a slice."""
        shape, F = _shape_of(name), field(q)
        cat = IsoClassCatalog(shape, F, [dims])
        monkeypatch.setattr(modrep, "_FRAMES", {})
        made = Counter()
        frame = modrep._frame

        def counted(F, Di, d, n, rows):
            made[(F.q, Di.q, n, rows)] += 1
            return frame(F, Di, d, n, rows)

        monkeypatch.setattr(modrep, "_frame", counted)
        counts = cat.scan_dim(dims)
        assert len(counts) == len(cat.by_dim[dims]) > 1
        assert made and max(made.values()) == 1
        # every subspace of every vertex space of the slice has its frame
        spaces = {(shape.d[i], dims[shape.index[i]]) for i in shape.vertices}
        assert len(made) == sum(len(list(all_subspaces(field(F.p, F.deg * d), n)))
                                for d, n in spaces)


class TestSplitScan:
    @pytest.mark.parametrize("name", ["kronecker", "a2tilde", "cyclic:2", "cyclic:3",
                                      "c2tilde-folded", *BACK_SHAPES])
    @pytest.mark.parametrize("q", [2, 3])
    def test_tuples_of_one_split_in_full_scan_order(self, name, q):
        shape, F = _shape_of(name), field(q)
        rng = random.Random("%s/%d" % (name, q))
        for M in _random_modules(shape, F, rng, 6):
            full = [(W.dims, tuple(W.rows[i] for i in shape.vertices))
                    for W in submodule_tuples(M)]
            for sub in itertools.product(*(range(n + 1) for n in M.dims)):
                assert [tuple(W.rows[i] for i in shape.vertices)
                        for W in submodule_tuples(M, sub)] == [
                    rows for dims, rows in full if dims == sub], (M.maps, sub)

    @staticmethod
    def _catalog(name, q, dims, cache_dir=None):
        return IsoClassCatalog(_shape_of(name), field(q), [dims], cache_dir=cache_dir)

    @staticmethod
    def _filtered(cat, dims, sub):
        return {cid: {k: g for k, g in counts.items() if cat.classes[k[1]].dims == sub}
                for cid, counts in cat.scan_dim(dims).items()}

    @pytest.mark.parametrize("name, q, dims", [("kronecker", 3, (2, 2)), ("cyclic:2", 2, (2, 3)),
                                               ("a2tilde", 2, (1, 1, 1))],
                             ids=["kronecker", "cyclic:2", "a2tilde"])
    def test_one_vertex_split_is_the_filtered_full_scan(self, name, q, dims):
        cat = self._catalog(name, q, dims)
        splits = list(itertools.product(*(range(n + 1) for n in dims)))
        assert sum(sum(map(bool, sub)) == 1 for sub in splits) == sum(dims)
        # every split, at one vertex or more, is scanned on its own: no full
        # scan is in memory yet
        own = {sub: cat.scan_dim(dims, sub) for sub in splits}
        assert dims not in cat._scan_cache
        for sub in splits:
            assert own[sub] == self._filtered(cat, dims, sub), sub

    def test_split_reads_its_own_scan_file(self, tmp_path, monkeypatch):
        dims, splits = (2, 3), ((0, 2), (1, 2))
        cat = self._catalog("cyclic:2", 2, dims, str(tmp_path))
        own = {sub: cat.scan_dim(dims, sub) for sub in splits}
        assert sorted(path.name for path in tmp_path.glob("scan_*.json")) == sorted(
            os.path.basename(cat._scan_path(dims, sub)) for sub in splits)
        calls = Counter()
        scan = modrep.submodule_tuples

        def counted(*args):
            calls["scan"] += 1
            return scan(*args)

        monkeypatch.setattr(modrep, "submodule_tuples", counted)
        warm = self._catalog("cyclic:2", 2, dims, str(tmp_path))
        assert {sub: warm.scan_dim(dims, sub) for sub in splits} == own
        assert not calls
        # the full scan has a file of its own, written once it is scanned
        assert not os.path.exists(warm._scan_path(dims))
        assert {sub: self._filtered(warm, dims, sub) for sub in splits} == own
        assert calls["scan"] == len(warm.by_dim[dims])
        assert len(list(tmp_path.glob("scan_*.json"))) == len(splits) + 1


class TestScanCandidates:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_closed_form_counts_the_subspaces(self, q):
        F = field_of_order(q)
        for n in range(5):
            assert scan_candidates(A1, F, (n,)) == len(list(all_subspaces(F, n)))

    @pytest.mark.parametrize("q", [2, 3])
    def test_valued_vertex_counts_over_its_division_ring(self, q):
        # the vertex 1+3 of c2-folded has d = 2, so D = GF(q^2)
        D = field_of_order(q * q)
        for n in range(4):
            assert scan_candidates(C2F, field(q), (n, 0)) == len(list(all_subspaces(D, n)))

    def test_product_over_vertices(self):
        assert (scan_candidates(KRON, F3, (2, 3))
                == scan_candidates(A1, F3, (2,)) * scan_candidates(A1, F3, (3,)))


class TestDirectSum:
    @pytest.mark.parametrize("name, q", [("kronecker", 2), ("cyclic:2", 3),
                                         ("c2tilde-folded", 3), ("two-blocks", 3)])
    def test_equals_the_left_fold(self, name, q):
        shape, F = _shape_of(name), field(q)
        rng = random.Random(name)
        for _ in range(6):
            mods = list(_random_modules(shape, F, rng, rng.randrange(1, 5)))
            total = direct_sum(*mods)
            fold = mods[0]
            for M in mods[1:]:
                fold = direct_sum(fold, M)
            assert total.dims == fold.dims and total.maps == fold.maps
            # Hom is additive in each argument: the blocks sit where they should
            for i in shape.vertices:
                S = simple_module(shape, F, i)
                assert hom_dim(S, total) == sum(hom_dim(S, M) for M in mods)
                assert hom_dim(total, S) == sum(hom_dim(M, S) for M in mods)

    def test_no_summands(self):
        Z = direct_sum(shape=C2F, F=F3)
        assert Z.dims == (0, 0) and all(m == () for m in Z.maps.values())


# -- an oracle for the isomorphism search that does not share its arithmetic

def _invertible_by_kernel(F, mat):
    """No nonzero vector is killed by the square matrix mat (brute force)."""
    n = len(mat)
    return not any(any(v) and _product(F, mat, [[x] for x in v], n, n, 1) == [[0]] * n
                   for v in itertools.product(range(F.q), repeat=n))


def _naive_isomorphisms(M, basis):
    """The coefficient tuples of itertools.product whose combination of basis
    is invertible at every vertex."""
    shape, F = M.shape, M.F
    out = []
    for coeffs in itertools.product(range(F.q), repeat=len(basis)):
        for i in shape.vertices:
            n = shape.d[i] * M.dims[shape.index[i]]
            mat = [[0] * n for _ in range(n)]
            for c, b in zip(coeffs, basis):
                mat = [[F.add(x, F.mul(c, y)) for x, y in zip(row, brow)]
                       for row, brow in zip(mat, b[i])]
            if not _invertible_by_kernel(F, mat):
                break
        else:
            out.append(coeffs)
    return out


class TestIsomorphismOracle:
    @pytest.mark.parametrize("name, q", [
        ("kronecker", 2), ("kronecker", 3), ("kronecker", 4), ("a2tilde", 2), ("a2tilde", 4),
        ("c2tilde-folded", 2), ("c2tilde-folded", 3)])
    def test_matches_the_filtered_product(self, name, q):
        shape, F = _shape_of(name), field_of_order(q)
        rng = random.Random("iso-%s-%d" % (name, q))
        checked = 0
        for M in _random_modules(shape, F, rng, 40):
            basis = hom_space(M, M)
            if F.q ** len(basis) > 256:
                continue
            want = _naive_isomorphisms(M, basis)
            assert list(modrep._isomorphisms(M, basis, "test")) == want
            assert aut_order_brute(M) == len(want)
            checked += 1
            if all(shape.d[i] == 1 for i in shape.vertices):
                assert is_isomorphic(M, _base_change(M, rng))
        assert checked >= 10

    def test_is_isomorphic_on_the_decompose_pairs(self, kron_cat):
        s1, s2 = simple_module(KRON, F2, "1"), simple_module(KRON, F2, "2")
        regs = [c for c in kron_cat.classes_of_dim((1, 1)) if c.indec and c.defect == "reg"]
        for M in (direct_sum(s1, s2), direct_sum(regs[0].module, regs[1].module)):
            cid = kron_cat.classify(M)
            for c in kron_cat.classes_of_dim(M.dims):
                assert is_isomorphic(M, c.module) == (c.cid == cid)
        assert not is_isomorphic(s1, s2)

    def test_vertices_without_unknowns_are_skipped(self):
        S1, S2 = simple_module(C2F, F3, "1+3"), simple_module(C2F, F3, "2")
        N = direct_sum(S1, S2)
        system = HomSystem(S1, N.dims)
        assert set(system.P) == {"1+3"} and system.n_unknowns == len(system.rows(N)) == 2
        assert hom_dim(S1, N) == len(hom_space(S1, N)) == 2


def _no_walk(*args):
    raise AssertionError("the automorphism walk ran")


class TestAutAndResidue:
    """|Aut M| and the residue degree from the Frobenius map on End M, the walk as oracle."""

    @pytest.mark.parametrize("shape, q, cap", [
        *(pytest.param(KRON, q, (3, 3), id="kronecker-q%d" % q) for q in (2, 3, 4, 5)),
        pytest.param(A2T, 2, (1, 1, 1), id="a2tilde-q2"),
        pytest.param(A2T, 3, (1, 1, 1), id="a2tilde-q3"),
        pytest.param(builtin_quiver("d32"), 2, (1, 1, 1), id="d32-q2"),
        pytest.param(builtin_quiver("d32"), 3, (1, 1, 1), id="d32-q3"),
        # c2-folded is finite: its highest root (1, 2) bounds every indecomposable
        pytest.param(C2F, 2, (1, 2), id="c2-folded-q2"),
        pytest.param(C2F, 3, (1, 2), id="c2-folded-q3"),
        pytest.param(cyclic_shape(2), 2, (2, 3), id="cyclic2-q2"),
        pytest.param(cyclic_shape(2), 3, (2, 3), id="cyclic2-q3"),
    ])
    def test_matches_the_walk_on_every_indecomposable(self, shape, q, cap):
        F = field_of_order(q)
        cat = IsoClassCatalog(shape, F, [cap])
        for cid in cat.indec_ids:
            M = cat.classes[cid].module
            basis = hom_space(M, M)
            aut = aut_order_brute(M)
            want = (aut, modrep._residue_degree(q, len(basis), aut))
            assert modrep._aut_and_residue(M, basis) == want, cid
            assert (cat.classes[cid].aut, cat.classes[cid].res) == want, cid

    @pytest.mark.parametrize("name, q", [
        ("kronecker", 2), ("kronecker", 3), ("kronecker", 4), ("a2tilde", 2), ("a2tilde", 3),
        ("c2tilde-folded", 2), ("c2tilde-folded", 3)])
    def test_random_modules_agree_with_the_walk(self, name, q):
        # mostly decomposable: r is None exactly when the walked count has no
        # residue degree, and |Aut| is the walked one whenever r is not None
        shape, F = _shape_of(name), field_of_order(q)
        local = 0
        for M in _random_modules(shape, F, random.Random("aut-%s-%d" % (name, q)), 40):
            basis = hom_space(M, M)
            if F.q ** len(basis) > 4096:
                continue
            walked = sum(1 for _ in modrep._isomorphisms(M, basis, "test"))
            r = modrep._residue_degree(q, len(basis), walked)
            got = modrep._aut_and_residue(M, basis)
            assert got == ((walked, r) if r else (None, None)), M.maps
            local += r is not None
        assert local

    @pytest.mark.parametrize("q", [2, 3])
    def test_split_end_is_refused_before_the_mass_check(self, q, monkeypatch):
        # S1 + S2 passed off as an indecomposable of (1, 1): End = F_q x F_q is
        # commutative, and the Frobenius map fixes both idempotents
        F = field_of_order(q)
        s1, s2 = simple_module(KRON, F, "1"), simple_module(KRON, F, "2")
        checked, check = [], IsoClassCatalog._mass_check

        def synth(shape, F, dims):
            fake = [(("split",), direct_sum(s1, s2))] if dims == (1, 1) else []
            return fake + synth_kronecker(shape, F, dims)

        _synthesize_with(monkeypatch, synth)
        monkeypatch.setattr(modrep, "_isomorphisms", _no_walk)
        monkeypatch.setattr(IsoClassCatalog, "_mass_check",
                            lambda self, dims: checked.append(dims) or check(self, dims))
        with pytest.raises(OracleError, match="is not local"):
            IsoClassCatalog(KRON, F, [(1, 1)])
        assert (1, 1) not in checked and checked
        basis = hom_space(direct_sum(s1, s2), direct_sum(s1, s2))
        assert modrep._aut_and_residue(direct_sum(s1, s2), basis) == (None, None)

    def test_matrix_end_takes_the_walk(self, monkeypatch):
        # End(S + S) = M_2(F_q) is not commutative: the walk counts GL_2(q) and
        # finds no residue degree
        walks, walk = [], modrep._isomorphisms
        monkeypatch.setattr(modrep, "_isomorphisms",
                            lambda *args: walks.append(args[2]) or walk(*args))
        for F in (F2, F3):
            S = direct_sum(simple_module(KRON, F, "1"), simple_module(KRON, F, "1"))
            assert modrep._aut_and_residue(S, hom_space(S, S)) == (None, None)
            assert modrep._residue_degree(F.q, 4, modrep.gl_order(F.q, 2)) is None
        assert walks == ["automorphism count"] * 2

    def test_catalogs_never_walk(self, monkeypatch):
        monkeypatch.setattr(modrep, "_isomorphisms", _no_walk)
        for shape, F, cap in ((KRON, F3, (3, 3)), (A2T, F2, (1, 1, 1)),
                              (builtin_quiver("d32"), F3, (1, 1, 1)),
                              (cyclic_shape(2), F2, (2, 3)), (cyclic_shape(3), F2, (2, 2, 2))):
            cat = IsoClassCatalog(shape, F, [cap])
            assert all(cat.classes[c].res for c in cat.indec_ids)
