import hashlib
import itertools

import pytest

from hallbases.kashiwara import (
    AdmissibleTriple,
    check_lattice_stability,
    verify_sink_identity,
)
from hallbases.laurent import LaurentPoly, RationalV, in_lattice
from hallbases.modrep import BudgetError, OracleError
from hallbases.pbwbasis import PbwIndex, get_context


@pytest.fixture(scope="module")
def kron():
    return get_context("kronecker")


@pytest.fixture(scope="module")
def triples(kron):
    return {v: AdmissibleTriple(kron, v) for v in ("1", "2")}


def slices_with_room(ctx, e_i):
    for nu in itertools.product(*(range(c + 1) for c in ctx.cap)):
        target = tuple(a + b for a, b in zip(nu, e_i))
        if all(t <= c for t, c in zip(target, ctx.cap)):
            yield nu


class TestRelations:
    def test_eps_phi_commutation(self, kron, triples):
        for v, tri in triples.items():
            for nu in slices_with_room(kron, tri.e_i):
                assert tri.check_relation(nu), (v, nu)

    def test_divided_power_relation(self, kron, triples):
        tri = triples["2"]
        assert tri.check_divided_relation((0, 0), 2)
        assert tri.check_divided_relation((1, 0), 2)
        tri1 = triples["1"]
        assert tri1.check_divided_relation((0, 0), 2)
        assert tri1.check_divided_relation((0, 1), 2)


class TestStrings:
    def test_kernel_element_is_string_zero(self, kron, triples):
        tri = triples["2"]
        # u_1 = N(e_1 at t=1) is killed by eps_2
        x = {PbwIndex(cplus=((1, 1),)): RationalV(1)}
        assert tri.eps(x) == {}
        assert tri.string_decompose(x) == [(0, x)]

    def test_u_i_is_phi_of_unit(self, kron, triples):
        tri = triples["2"]
        x = {PbwIndex(cminus=((0, 1),)): RationalV(1)}
        dec = tri.string_decompose(x)
        assert len(dec) == 1 and dec[0][0] == 1
        assert dec[0][1] == {PbwIndex(): RationalV(1)}

    def test_mixed_element_reassembles(self, kron, triples):
        tri = triples["2"]
        # u_2^(2) u_1-flavored slice element: decompose every basis vector
        for a in kron.indices_of_grading((1, 2)):
            dec = tri.string_decompose({a: RationalV(1)})
            assert dec  # representation exists and reassembles (checked inside)

    def test_round_trips(self, kron, triples):
        for v, tri in triples.items():
            for nu in slices_with_room(kron, tri.e_i):
                for a in kron.indices_of_grading(nu):
                    x = {a: RationalV(1)}
                    assert tri.etilde(tri.phitilde(x)) == x
        # phitilde . etilde = id away from P(0)
        tri = triples["2"]
        x = {PbwIndex(cminus=((0, 1),)): RationalV(1)}
        assert tri.phitilde(tri.etilde(x)) == x

    def test_etilde_kills_P0(self, kron, triples):
        tri = triples["2"]
        x = {PbwIndex(cplus=((1, 1),)): RationalV(1)}
        assert tri.etilde(x) == {}

    def test_cap_error(self, kron, triples):
        tri = triples["2"]
        a = [i for i in kron.indices_of_grading((2, 2))][0]
        with pytest.raises(BudgetError):
            tri.phitilde({a: RationalV(1)})


class TestLattice:
    def test_all_slices_stable(self, kron):
        for v in ("1", "2"):
            tri = AdmissibleTriple(kron, v)
            for nu in itertools.product(range(3), repeat=2):
                assert check_lattice_stability(tri, nu) == []

    def test_negative_control(self, kron):
        # v * N(a) leaves the lattice: some string coefficient gains a power
        tri = AdmissibleTriple(kron, "2")
        a = kron.indices_of_grading((1, 1))[0]
        x = {a: RationalV(LaurentPoly.v_power(1))}
        bad = False
        for n, y in tri.string_decompose(x):
            for _, c in tri.phi_divided(y, n).items():
                if not in_lattice(c, strict=False):
                    bad = True
        assert bad


class TestFactorOnce:
    def test_lattice_check_decomposes_each_N_once(self, kron, monkeypatch):
        calls = []
        decompose = AdmissibleTriple.string_decompose

        def counted(self, coords):
            calls.append(tuple(coords))
            return decompose(self, coords)

        monkeypatch.setattr(AdmissibleTriple, "string_decompose", counted)
        tri = AdmissibleTriple(kron, "2")
        for nu in [(1, 0), (2, 1), (2, 2)]:  # (2, 2) cannot be raised within the cap
            calls.clear()
            assert check_lattice_stability(tri, nu) == []
            assert sorted(calls, key=repr) == sorted(
                ((a,) for a in kron.indices_of_grading(nu)), key=repr)

    def test_corrupted_solver_does_not_reassemble(self, kron):
        tri = AdmissibleTriple(kron, "2")
        a = kron.indices_of_grading((1, 1))[0]
        tri.string_decompose({a: RationalV(1)})
        _, solver = tri._string_cache[(1, 1)]
        two = RationalV(2)
        solver.rows = [[(k, e * two) for k, e in row] for row in solver.rows]
        for b in kron.indices_of_grading((1, 1)):
            with pytest.raises(OracleError, match="does not reassemble"):
                tri.string_decompose({b: RationalV(1)})

    def test_shifted_strings_pinned(self, kron):
        """etilde and phitilde of every N(a) of both contexts, by one digest.

        Taken before the string solve was factored once per grading; keys
        are listed in repr order, so the digest holds the values only.
        """
        def text(coords):
            return "{%s}" % ", ".join("%s: %s" % (a, c) for a, c in
                                      sorted(coords.items(), key=lambda kv: repr(kv[0].key())))

        digest = hashlib.sha256()
        for ctx in (kron, get_context("a2tilde")):
            for vertex in ctx.shape.vertices:
                tri = AdmissibleTriple(ctx, vertex)
                for nu in itertools.product(*(range(c + 1) for c in ctx.cap)):
                    raised = all(x + e <= c for x, e, c in zip(nu, tri.e_i, ctx.cap))
                    for a in ctx.indices_of_grading(nu):
                        x = {a: RationalV(1)}
                        line = "%s %s %s %s %s" % (ctx.name, vertex, nu, a, text(tri.etilde(x)))
                        if raised:
                            line += " | " + text(tri.phitilde(x))
                        digest.update((line + "\n").encode())
        assert digest.hexdigest() == (
            "be167f1edc12cbfcc4a248a706d3d49dd8d13c88e3df46d887b58d7adb08752a")


class TestSinkIdentity:
    def test_divided_power_case(self, kron):
        # c = N e_0: phitilde^N(1) = u_{i_0}^(N) = N(N e_0)
        for n in (1, 2):
            assert verify_sink_identity(kron, PbwIndex(cminus=((0, n),)))

    def test_mixed_case(self, kron):
        assert verify_sink_identity(kron, PbwIndex(cminus=((0, 1),), cplus=((1, 1),)))

    def test_trivial_when_no_sink_part(self, kron):
        assert verify_sink_identity(kron, PbwIndex(cplus=((1, 1),)))

    def test_all_indices_in_cap(self, kron):
        for nu in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            for a in kron.indices_of_grading(nu):
                assert verify_sink_identity(kron, a)

    def test_a2tilde_indices(self):
        a2t = get_context("a2tilde")
        for a in a2t.indices_of_grading((1, 1, 1)):
            assert verify_sink_identity(a2t, a)
