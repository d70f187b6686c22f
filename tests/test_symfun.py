import pytest

from hallbases.symfun import (
    HPoly,
    dominance_leq,
    h_to_s_matrix,
    jacobi_trudi,
    kostka,
    lex_less,
    partitions_of,
)


class TestOrders:
    def test_lex(self):
        assert lex_less((1, 1), (2,))
        assert not lex_less((2,), (1, 1))
        assert not lex_less((2, 1), (2, 1))

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
                        assert lex_less(lam, mu)


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
        assert jacobi_trudi((1,)) == HPoly.h(1)
        assert jacobi_trudi((2,)) == HPoly.h(2)

    def test_column(self):
        # S_(1,1) = H1^2 - H2
        assert jacobi_trudi((1, 1)) == HPoly.h(1) * HPoly.h(1) - HPoly.h(2)

    def test_h_to_s_coefficients_are_kostka(self):
        for n in range(1, 5):
            mat = h_to_s_matrix(n)
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert mat.get((lam, mu), 0) == kostka(lam, mu)


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
