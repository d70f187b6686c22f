"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (arbitrary-precision rational arithmetic; series
membership decided by pole analysis); there are no numeric tolerances to
tune.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import sys

import pytest

from hallbases.cartan import builtin_quiver
from hallbases.cyclic import (
    CyclicCanonicalBasis,
    Multisegment,
    cyclic_generic_algebra,
    cyclic_shape,
    diamond_step,
    eta_fold,
    leq_G,
    multisegments_of_dim,
    word_of,
)
from hallbases.hall import GenericHallAlgebra, HallContext
from hallbases.kashiwara import (
    AdmissibleTriple,
    check_lattice_stability,
    verify_sink_identity,
)
from hallbases.laurent import LaurentPoly, RationalV, expand_at_infinity, in_lattice
from hallbases.modrep import IsoClassCatalog, ext_dim, field, hom_dim
from hallbases.pbwbasis import get_context
from hallbases.symfun import kostka


def report(num, text, ok):
    print("ACCEPTANCE %2d %s: %s" % (num, "PASS" if ok else "FAIL", text),
          file=sys.stderr)
    assert ok, "acceptance criterion %d failed: %s" % (num, text)


def gradings_below(cap):
    return list(itertools.product(*(range(c + 1) for c in cap)))


def test_01_quantum_serre_relations():
    ok = True
    for name in ("kronecker", "c2-folded"):
        shape = builtin_quiver(name)
        dims = []
        from hallbases.cartan import cartan_of
        datum = cartan_of(shape)
        for i in shape.vertices:
            for j in shape.vertices:
                if i == j:
                    continue
                n = 1 - datum.C[datum.pos[i]][datum.pos[j]]
                d = [0] * len(shape.vertices)
                d[shape.index[i]] = n
                d[shape.index[j]] = 1
                dims.append(tuple(d))
        for q in (2, 3):
            cat = IsoClassCatalog(shape, field(q), dims)
            hc = HallContext(cat)
            for i in shape.vertices:
                for j in shape.vertices:
                    if i != j:
                        ok = ok and hc.vanishes_at_field(hc.serre_sum(i, j))
    report(1, "quantum Serre relations, Kronecker and folded C2, F2 and F3 (exact zero)", ok)


def test_02_hall_polynomial_fitting():
    alg = cyclic_generic_algebra(2, (1, 1))
    lab = alg.labeler
    hp = alg.fit_hall_polynomial(
        lab.of_multisegment(Multisegment.segment(2, 1, 2)),
        lab.of_multisegment(Multisegment.segment(2, 1, 1)),
        lab.of_multisegment(Multisegment.segment(2, 2, 1)),
        (1, 0), (0, 1), primes=(2, 3, 4, 5), verify=7)
    ok = hp.poly == LaurentPoly.one()

    a1 = builtin_quiver("a1")

    class A1Labeler:
        def label_of(self, catalog, cid):
            return ("A1", catalog.classes[cid].dims)

    alg1 = GenericHallAlgebra(a1, (2,), A1Labeler())
    hp1 = alg1.fit_hall_polynomial(("A1", (2,)), ("A1", (1,)), ("A1", (1,)),
                                   (1,), (1,), primes=(2, 3, 4, 5), verify=7)
    ok = ok and hp1.poly == LaurentPoly({1: 1, 0: 1})
    report(2, "Hall polynomials fit on {2,3,4,5} and verify at 7: "
              "g^{[1;2)}_{S1,S2} = 1, g^{S+S}_{S,S} = q+1", ok)


def test_03_cyclic_canonical_basis():
    basis = CyclicCanonicalBasis(2, (2, 2))
    ok = True
    integral = True
    for pi in basis.B:
        ok = ok and basis.check_bar_invariant(pi)
        ang = basis.B_in_angle(pi)
        ok = ok and ang[pi] == RationalV(1)
        for pi2, c in ang.items():
            if pi2 == pi:
                continue
            ok = ok and leq_G(pi2, pi) and pi2 != pi
            ok = ok and c.is_polynomial() and in_lattice(c, strict=True)
            integral = integral and c.as_poly().has_integer_coeffs()
    report(3, "cyclic r=2 canonical basis <= (2,2): bar-invariant, <_G-unitriangular,"
              " off-diagonal in v^-1 Q[v^-1] (integrality observed: %s)" % integral, ok)


def test_04_kostka_coefficients():
    ctx = get_context("kronecker")
    # the regular catalog to (2,2) must exist over F2 and F3 and agree: the
    # generic layer asserts identical label sets and fitted constants
    ok = all(q in ctx.alg.catalogs and (2, 2) in ctx.alg.catalogs[q].by_dim for q in (2, 3))
    lam_idx = {a.lam: a for a in ctx.indices_of_grading((2, 2))
               if not a.cminus and not a.cplus}
    lam_idx1 = {a.lam: a for a in ctx.indices_of_grading((1, 1))
                if not a.cminus and not a.cplus}
    for lam in [(1,)]:
        mono = ctx.monomial(lam_idx1[lam])
        for mu in [(1,)]:
            ok = ok and mono.coefficient(lam_idx1[mu]) == RationalV(kostka(mu, lam))
    for lam in [(2,), (1, 1)]:
        mono = ctx.monomial(lam_idx[lam])
        for mu in [(2,), (1, 1)]:
            ok = ok and mono.coefficient(lam_idx[mu]) == RationalV(kostka(mu, lam))
    report(4, "Kostka coefficients of m^omega(0,t_lambda) at N(0,t_mu), |lambda| <= 2,"
              " Kronecker over F2/F3", ok)


def test_05_almost_orthogonality():
    ctx = get_context("kronecker")
    ok = True
    pairs = 0
    for nu in gradings_below((2, 2)):
        fails = ctx.verify_almost_orthogonal(nu)
        ok = ok and not fails
        n = len(ctx.indices_of_grading(nu))
        pairs += n * (n + 1) // 2
    report(5, "almost orthogonality of N on Kronecker, D <= (2,2)"
              " (%d pairs, exact pole analysis)" % pairs, ok)


def test_06_eta_homomorphism():
    apers = []
    for total in range(6):
        for dims in itertools.product(range(total + 1), repeat=2):
            if sum(dims) == total:
                for pi in multisegments_of_dim(2, dims):
                    if pi.is_aperiodic():
                        apers.append(pi)
    checked = 0
    ok = True
    for pi1 in apers:
        w1 = word_of(pi1)
        w1eta = word_of(eta_fold(pi1))
        for pi2 in apers:
            if pi1.total_boxes() + pi2.total_boxes() > 5:
                continue
            arg = pi2
            for j, a in reversed(w1):
                for _ in range(a):
                    arg = diamond_step(j, arg)
            lhs = eta_fold(arg)
            rhs = eta_fold(pi2)
            for j, a in reversed(w1eta):
                for _ in range(a):
                    rhs = diamond_step(j, rhs)
            ok = ok and lhs == rhs
            checked += 1
    report(6, "eta(pi o pi') = eta(pi) o eta(pi'), rank 2, |pi|+|pi'| <= 5"
              " (%d pairs, exhaustive)" % checked, ok)


def test_07_bar_invariant_basis():
    ctx = get_context("kronecker")
    ok = True
    for nu in gradings_below((2, 2)):
        data = ctx.basis_of_grading(nu)
        for a in data["aperiodic"]:
            ok = ok and ctx.check_C_bar_invariant(nu, a)
            for a2, g in data["C"][a].items():
                if a2 != a:
                    ok = ok and g.is_polynomial() and in_lattice(g, strict=True)
            cn = ctx.C_in_N(nu, a)
            cn[a] = cn.get(a, RationalV(0)) - RationalV(1)
            for c in cn.values():
                ok = ok and in_lattice(c, strict=True)
    basis = CyclicCanonicalBasis(2, (2, 2))
    for pi in basis.B:
        ok = ok and basis.check_bar_invariant(pi)
        for pi2, c in basis.B[pi].items():
            if pi2 != pi:
                ok = ok and c.is_polynomial() and in_lattice(c, strict=True)
        ang = basis.B_in_angle(pi)
        ang[pi] = ang.get(pi, RationalV(0)) - RationalV(1)
        for c in ang.values():
            ok = ok and in_lattice(c, strict=True)
    report(7, "bar-invariant bases on Kronecker and cyclic r=2 slices <= (2,2):"
              " g in v^-1 Q[v^-1], bar(C) = C, C = E = N mod v^-1 L", ok)


def test_08_root_module_correspondence():
    ok = True
    checked = []
    for name in ("kronecker", "a2tilde"):
        shape = builtin_quiver(name)
        from hallbases.cartan import admissible_of
        seq = admissible_of(shape)
        betas = {t: seq.beta(t) for t in range(-4, 5)}
        cat = IsoClassCatalog(shape, field(2), sorted(set(betas.values())))
        mods = {}
        for t, b in betas.items():
            indecs = [c for c in cat.classes_of_dim(b) if c.indec]
            ok = ok and len(indecs) == 1
            if not indecs:
                continue
            want = "preprojective" if t <= 0 else "preinjective"
            ok = ok and cat.defect_class(indecs[0].cid) == want
            mods[t] = indecs[0].module
        for t1, t2 in itertools.product(betas, betas):
            if (t1 < t2 <= 0) or (0 < t1 < t2):
                ok = ok and hom_dim(mods[t1], mods[t2]) == 0
                ok = ok and ext_dim(mods[t2], mods[t1]) == 0
        checked.append(name)
    report(8, "beta_t <-> unique indecomposable with predicted defect, |t| <= 4,"
              " and Hom/Ext vanishing (%s)" % ", ".join(checked), ok)


def test_09_kashiwara_suite():
    ctx = get_context("kronecker")
    ok = True
    for v in ctx.shape.vertices:
        tri = AdmissibleTriple(ctx, v)
        for nu in gradings_below((2, 2)):
            target = tuple(a + b for a, b in zip(nu, tri.e_i))
            if all(t <= c for t, c in zip(target, ctx.cap)):
                ok = ok and tri.check_relation(nu)
                if all(t + e <= c for t, e, c in zip(target, tri.e_i, ctx.cap)):
                    ok = ok and tri.check_divided_relation(nu, 2)
            ok = ok and check_lattice_stability(tri, nu) == []
    for nu in gradings_below((2, 2)):
        for a in ctx.indices_of_grading(nu):
            ok = ok and verify_sink_identity(ctx, a)
    report(9, "Kashiwara suite on Kronecker slices <= (2,2): eps phi = v_i^2 phi eps + 1,"
              " lattice stability, sink identity", ok)


def test_10_inner_product_normalization():
    ok = True
    contexts = []
    # composition contexts carry their own generic algebras
    for name in ("kronecker", "a2tilde"):
        ctx = get_context(name)
        for v in ctx.shape.vertices:
            ok = ok and _check_simple_inner(ctx.alg, v, ctx.shape.d[v])
        contexts.append(name)
    # cyclic contexts
    for r in (2, 3):
        alg = cyclic_generic_algebra(r, tuple(1 for _ in range(r)))
        for v in alg.shape.vertices:
            ok = ok and _check_simple_inner(alg, v, 1)
        contexts.append("cyclic:%d" % r)
    # the folded C2 quiver through a dimension labeler (one class per e_i),
    # on its ladder of primes
    c2f = builtin_quiver("c2-folded")

    class DimsLabeler:
        def label_of(self, catalog, cid):
            return ("D", catalog.classes[cid].dims)

    algf = GenericHallAlgebra(c2f, (1, 1), DimsLabeler())
    for v in c2f.vertices:
        ok = ok and _check_simple_inner(algf, v, c2f.d[v])
    ok = ok and 4 not in algf.ladder and set(algf.catalogs) <= set(algf.ladder)
    contexts.append("c2-folded")
    report(10, "(<S_i>,<S_i>) = 1 + v_i^-2 + v_i^-4 + ... to order 10, "
               "all vertices of %s" % ", ".join(contexts), ok)


def _check_simple_inner(alg, vertex, d):
    val = alg.inner(alg.u(vertex), alg.u(vertex))
    series = expand_at_infinity(val, 10)
    want = [(-2 * d * k, 1) for k in range(0, 10 // (2 * d) + 1) if 2 * d * k <= 10]
    return series.terms == want
