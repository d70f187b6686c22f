import pytest

from hallbases import symfun
from hallbases.symfun import (
    SymmetricLayer,
    dominance_leq,
    jacobi_trudi,
    kostka,
    partitions_of,
)


class TestOrders:
    def test_dominance_reflexive(self):
        for lam in partitions_of(5):
            assert dominance_leq(lam, lam)

    def test_dominance_example(self):
        assert dominance_leq((1, 1, 1), (2, 1))
        assert not dominance_leq((2, 1), (1, 1, 1))

    def test_dominance_implies_lex(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    if dominance_leq(lam, mu) and lam != mu:
                        assert lam < mu


class TestKostka:
    def test_diagonal(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                assert kostka(lam, lam) == 1

    def test_small_values(self):
        assert kostka((2,), (1, 1)) == 1
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((1, 1), (2,)) == 0

    def test_nonzero_iff_dominance(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert (kostka(lam, mu) != 0) == dominance_leq(mu, lam)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka((2,), (1,))


class TestJacobiTrudi:
    def test_single_row(self):
        assert jacobi_trudi((1,)) == {(1,): 1}
        assert jacobi_trudi((2,)) == {(2,): 1}
        assert jacobi_trudi(()) == {(): 1}  # S_() = 1, the empty product

    def test_column(self):
        # S_(1,1) = H1^2 - H2
        assert jacobi_trudi((1, 1)) == {(1, 1): 1, (2,): -1}
        # (2,2,1,1) is the smallest shape where two products cancel; none is kept
        assert all(jacobi_trudi((2, 2, 1, 1)).values())

    def test_kostka_inverts_jacobi_trudi(self):
        # H_mu = sum_lam K_{lam, mu} S_lam, so the Jacobi-Trudi products cancel to H_mu
        for n in range(1, 6):
            for mu in partitions_of(n):
                total = {}
                for lam in partitions_of(n):
                    for parts, c in jacobi_trudi(lam).items():
                        total[parts] = total.get(parts, 0) + kostka(lam, mu) * c
                assert {parts: c for parts, c in total.items() if c} == {mu: 1}, mu


class TestPartitions:
    # p(n) for n = 0..12
    COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]

    @pytest.mark.parametrize("n", range(13))
    def test_descending_lex_with_p_n_entries(self, n):
        lams = partitions_of(n)
        assert len(lams) == self.COUNTS[n]
        assert lams == sorted(set(lams), reverse=True)
        for lam in lams:
            assert sum(lam) == n and list(lam) == sorted(lam, reverse=True)
            assert all(part > 0 for part in lam)


class _Words:
    """Elements of a free algebra, {word: coefficient}, where no two letters commute."""

    def __init__(self, coeffs):
        self.coeffs = {w: c for w, c in coeffs.items() if c}

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
        return _Words(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) - c
        return _Words(out)


class _FreeAlgebra:
    def unit(self):
        return _Words({(): 1})


class TestSymmetricLayerCommutation:
    @pytest.fixture
    def planted(self, monkeypatch):
        # H_m is the one-letter word (m,), so no two distinct H_m commute
        monkeypatch.setattr(symfun, "H_element", lambda alg, delta, m: _Words({(m,): 1}))

    def test_non_commuting_pair_raises(self, planted):
        with pytest.raises(ArithmeticError, match="H_1 and H_2 do not commute"):
            SymmetricLayer(_FreeAlgebra(), (1, 1), 3)

    @pytest.mark.parametrize("max_m", [1, 2])
    def test_caps_below_three_check_no_pair(self, planted, max_m):
        # the shipped caps: a2tilde (1, 1, 1) has max_m = 1, kronecker (2, 2) max_m = 2
        layer = SymmetricLayer(_FreeAlgebra(), (1, 1), max_m)
        assert layer.H(max_m).coeffs == {(max_m,): 1}
