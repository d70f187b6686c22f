import functools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from hallbases.laurent import (
    LaurentPoly,
    RationalV,
    _divmod_laurent,
    bar,
    expand_at_infinity,
    gauss_binom,
    in_lattice,
    poly_gcd,
    quantum_factorial,
    quantum_int,
    row_reduce,
)
from hallbases.modrep import OracleError
from hallbases.pbwbasis import SpanSolver


def L(d):
    return LaurentPoly(d)


V = LaurentPoly.v_power


class TestBasics:
    def test_zero_coeffs_dropped(self):
        p = L({2: 1, 0: 0, -1: 3})
        assert set(p.coeffs) == {2, -1}

    @pytest.mark.parametrize("c", [0.1, 2.0, 1j, complex(1, 0)])
    def test_inexact_coefficient_rejected(self, c):
        # a float or complex would smuggle a rounded binary value into exact arithmetic
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            L({0: c})
        with pytest.raises(TypeError):
            LaurentPoly.const(c)

    def test_coefficients_canonical(self):
        p = L({1: Fraction(4, 2), 0: Fraction(1, 2), -1: True})
        assert [type(p.coeffs[e]) for e in (1, 0, -1)] == [int, Fraction, int]
        assert type((p * 2).coeffs[0]) is int
        assert type((p + L({0: Fraction(1, 2)})).coeffs[0]) is int
        assert type(L({0: Fraction(3)}).divexact(L({0: 3})).coeffs[0]) is int
        assert L({0: 1}).divexact(L({0: 3})).coeffs == {0: Fraction(1, 3)}

    def test_add_mul_commute(self):
        p = L({1: 1, -2: 3})
        q = L({0: Fraction(1, 2), 3: -1})
        assert p + q == q + p
        assert p * q == q * p

    def test_mul_identity(self):
        p = L({5: 2, -5: 2})
        assert p * LaurentPoly.one() == p

    def test_pow(self):
        assert V(1) ** 3 == V(3)
        assert (V(1) + V(-1)) ** 2 == L({2: 1, 0: 2, -2: 1})

    def test_str_canonical_form(self):
        assert str(L({2: 1, -1: -1})) == "1*v^2 + -1*v^-1"
        assert str(LaurentPoly.zero()) == "0"

    def test_divexact(self):
        p = L({2: 1, 0: -1})  # v^2 - 1
        q = L({1: 1, 0: -1})  # v - 1
        assert p.divexact(q) == L({1: 1, 0: 1})
        with pytest.raises(ValueError):
            p.divexact(L({1: 1, 0: 1, -1: 1}))

    def test_subs_v_squared(self):
        p = L({2: 1, 0: -2})  # v^2 - 2 vanishes at q = 2
        assert p.subs_v_squared(2) == (0, 0)
        p = L({3: 1, 1: 1, 0: 5})
        c0, c1 = p.subs_v_squared(3)
        assert (c0, c1) == (5, 4)  # v^3 + v = (3 + 1) v at q = 3


class TestBar:
    def test_bar_on_v(self):
        assert bar(V(1)) == V(-1)

    def test_bar_symmetric_fixed(self):
        p = V(1) + V(-1)
        assert bar(p) == p

    def test_bar_termwise(self):
        assert bar(L({2: 3, -1: -1})) == L({-2: 3, 1: -1})


coeff_st = st.integers(min_value=-6, max_value=6)
poly_st = st.dictionaries(st.integers(min_value=-5, max_value=5), coeff_st, max_size=5).map(LaurentPoly)


class TestBarIsRingInvolution:
    @given(poly_st, poly_st)
    @settings(max_examples=60, deadline=None)
    def test_multiplicative(self, f, g):
        assert bar(f * g) == bar(f) * bar(g)

    @given(poly_st, poly_st)
    @settings(max_examples=60, deadline=None)
    def test_additive(self, f, g):
        assert bar(f + g) == bar(f) + bar(g)

    @given(poly_st)
    @settings(max_examples=60, deadline=None)
    def test_involution(self, f):
        assert bar(bar(f)) == f


class TestQuantumIntegers:
    def test_quantum_int_values(self):
        assert quantum_int(0) == LaurentPoly.zero()
        assert quantum_int(1) == LaurentPoly.one()
        assert quantum_int(2, 1) == V(1) + V(-1)
        assert quantum_int(3, 1) == L({2: 1, 0: 1, -2: 1})
        assert quantum_int(2, 2) == L({2: 1, -2: 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantum_int(-1)
        with pytest.raises(ValueError):
            quantum_factorial(-2)

    def test_factorial(self):
        assert quantum_factorial(2, 1) == V(1) + V(-1)
        assert quantum_factorial(3, 1) == quantum_int(3) * quantum_int(2)

    def test_binom_small(self):
        assert gauss_binom(2, 1, 1) == V(1) + V(-1)
        # frozen from expanding [4]!/([2]![2]!) symbolically
        assert gauss_binom(4, 2, 1) == L({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})

    def test_binom_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_binom(2, 3, 1)
        with pytest.raises(ValueError):
            gauss_binom(2, -1, 1)

    @pytest.mark.parametrize("n", range(13))
    def test_binom_is_exact_ratio(self, n):
        # the division [n]!/([k]![n-k]!) leaves no remainder up to n = 12
        for k in range(n + 1):
            b = gauss_binom(n, k, 1)
            assert b * quantum_factorial(k) * quantum_factorial(n - k) == quantum_factorial(n)
            assert b.is_bar_symmetric()
            assert all(c.denominator == 1 and c > 0 for c in b.coeffs.values())


class TestRationalV:
    def test_normalization_unique(self):
        a = RationalV(L({1: 2}), L({2: 2, 0: -2}))
        b = RationalV(L({1: 1}), L({2: 1, 0: -1}))
        assert a == b

    def test_zero_den_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalV(LaurentPoly.one(), LaurentPoly.zero())

    def test_arithmetic(self):
        half = RationalV(LaurentPoly.one(), V(1) + 1)
        other = RationalV(V(1), V(1) + 1)
        assert half + other == RationalV(LaurentPoly.one())
        assert half * (V(1) + 1) == RationalV(LaurentPoly.one())

    def test_gcd(self):
        assert poly_gcd(L({2: 1, 0: -1}), L({1: 1, 0: -1})) == L({1: 1, 0: -1})


class TestExpansion:
    def test_geometric_series(self):
        # 1/(1 - v^-2) = 1 + v^-2 + v^-4 + v^-6 + ...
        r = RationalV(LaurentPoly.one(), LaurentPoly.one() - V(-2))
        s = expand_at_infinity(r, 6)
        assert s.terms == [(0, 1), (-2, 1), (-4, 1), (-6, 1)]

    def test_v_over_v_minus_1(self):
        r = RationalV(V(1), V(1) - 1)
        s = expand_at_infinity(r, 4)
        assert s.terms == [(0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1)]

    def test_exact_laurent(self):
        r = RationalV(L({2: 1, 0: 1}), V(2))
        s = expand_at_infinity(r, 3)
        assert s.terms == [(0, 1), (-2, 1)]

    def test_top_exponent_reported(self):
        r = RationalV(L({3: 1, 0: 5}), V(1) + 1)
        assert expand_at_infinity(r, 4).top_exponent() == 2
        assert r.top_exponent() == 2

    @given(
        st.dictionaries(st.integers(min_value=-3, max_value=3), coeff_st, min_size=1, max_size=4).map(LaurentPoly),
        st.dictionaries(st.integers(min_value=-3, max_value=3), coeff_st, min_size=1, max_size=4).map(LaurentPoly),
    )
    @settings(max_examples=40, deadline=None)
    def test_orders_consistent(self, num, den):
        # expansions to order m and m + 5 agree on the shared exponents
        if den.is_zero() or num.is_zero():
            return
        r = RationalV(num, den)
        s1 = expand_at_infinity(r, 4)
        s2 = expand_at_infinity(r, 9)
        for e, c in s1.terms:
            assert s2.coefficient(e) == c


class TestLattice:
    def test_simple_members(self):
        r = RationalV(LaurentPoly.one(), LaurentPoly.one() - V(-2))
        assert in_lattice(r, strict=False)
        assert not in_lattice(r, strict=True)

    def test_positive_power_fails(self):
        assert not in_lattice(RationalV(V(1) + 1), strict=False)

    def test_strict_member(self):
        r = RationalV(V(-1), LaurentPoly.one() - V(-1))
        assert in_lattice(r, strict=True)

    def test_zero_in_lattice(self):
        assert in_lattice(RationalV(LaurentPoly.zero()), strict=True)


# -- exact elimination over Q and Q(v) ---------------------------------------

_v = sympy.Symbol("v")

frac_entry_st = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]).map(Fraction)
rat_entry_st = st.builds(
    lambda num, den: RationalV(LaurentPoly(num), den),
    st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=2),
    st.sampled_from([LaurentPoly.one(), V(1) + 1, V(1) - 1, V(-1) + 2]))


def matrix_st(entry_st, max_size):
    return st.integers(1, max_size).flatmap(lambda m: st.integers(1, max_size).flatmap(
        lambda n: st.lists(st.lists(entry_st, min_size=n, max_size=n), min_size=m, max_size=m)))


matrices_st = st.one_of(matrix_st(frac_entry_st, 4), matrix_st(rat_entry_st, 3))


def _sym(x):
    if isinstance(x, RationalV):
        return _sym(x.num) / _sym(x.den)
    if isinstance(x, LaurentPoly):
        return sum((_sym(c) * _v ** e for e, c in x.coeffs.items()), sympy.Integer(0))
    return sympy.Rational(x.numerator, x.denominator)


def _sympy_rank(A):
    M = sympy.Matrix([[_sym(x) for x in row] for row in A])
    return DomainMatrix.from_Matrix(M).convert_to(sympy.QQ.frac_field(_v)).rank()


def _zero(A):
    return A[0][0] * 0


def _mat_vec(A, x):
    return [sum((a * b for a, b in zip(row, x)), _zero(A)) for row in A]


class TestRowReduce:
    @given(matrices_st)
    @settings(max_examples=60, deadline=None)
    def test_kernel(self, A):
        n = len(A[0])
        R, pivots = row_reduce(A, n)
        rank = _sympy_rank(A)
        assert len(pivots) == rank
        for k, pc in enumerate(pivots):
            assert [bool(R[r][pc]) for r in range(len(R))] == [r == k for r in range(len(R))]
        kernel = []
        for free in (c for c in range(n) if c not in pivots):
            x = [_zero(A)] * n
            x[free] = _zero(A) + 1
            for r, pc in enumerate(pivots):
                x[pc] = -R[r][free]
            kernel.append(x)
        assert len(kernel) == n - rank
        for x in kernel:
            assert not any(_mat_vec(A, x))

    @given(matrices_st, st.data())
    @settings(max_examples=60, deadline=None)
    def test_solve(self, A, data):
        m, n = len(A), len(A[0])
        columns = [{r: A[r][c] for r in range(m)} for c in range(n)]
        x0 = data.draw(st.lists(st.sampled_from([0, 1, -2]), min_size=n, max_size=n))
        b = _mat_vec(A, [_zero(A) + c for c in x0])
        bump = data.draw(st.integers(0, m - 1))
        b_bad = [y + int(r == bump) for r, y in enumerate(b)]
        if _sympy_rank(A) < n:
            with pytest.raises(OracleError):
                SpanSolver(columns)
            return
        solver = SpanSolver(columns)
        x, ok = solver.solve(dict(enumerate(b)))
        assert ok and x == [_zero(A) + c for c in x0]
        consistent = _sympy_rank([row + [y] for row, y in zip(A, b_bad)]) == n
        x, ok = solver.solve(dict(enumerate(b_bad)))
        assert ok == consistent
        assert _mat_vec(A, x) == b_bad if ok else x == []

    @given(matrices_st)
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, A):
        n = min(len(A), len(A[0]))
        A = [row[:n] for row in A[:n]]
        one = _zero(A) + 1
        eye = [[one if i == j else _zero(A) for j in range(n)] for i in range(n)]
        R, pivots = row_reduce([row + e for row, e in zip(A, eye)], n)
        if _sympy_rank(A) < n:
            assert len(pivots) < n
            return
        assert len(pivots) == n
        inv = [row[n:] for row in R]
        assert [_mat_vec(A, col) for col in zip(*inv)] == [list(c) for c in zip(*eye)]
        M = sympy.Matrix([[_sym(x) for x in row] for row in A])
        assert all(sympy.simplify(_sym(x) - y) == 0
                   for x, y in zip(sum(inv, []), M.inv()))


# -- the factor-once solver and the Laurent kernel against independent oracles --

key_names = ["k%d" % i for i in range(7)]
small_poly_st = st.dictionaries(
    st.integers(-2, 2), st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]),
    max_size=2).map(LaurentPoly)
entry_kept_st = st.sampled_from([True, False, False])  # keeps elimination over Q(v) small


@st.composite
def span_systems(draw, min_size=1):
    """Columns over Q(v) with up to 7 keys, sometimes dependent, and targets
    that are in the span, bumped out of it, or carry a key outside the columns."""
    m = draw(st.integers(min_size, 7))
    n = draw(st.integers(min_size, m))
    A = [[RationalV(draw(small_poly_st) if draw(entry_kept_st) else LaurentPoly.zero())
          for _ in range(n)] for _ in range(m)]
    for c, r in enumerate(draw(st.permutations(range(m)))[:n]):  # mostly full rank
        A[r][c] = RationalV(draw(small_poly_st.filter(bool)))
    if n >= 3 and draw(st.booleans()):
        c1, c2 = draw(st.lists(st.sampled_from([RationalV(V(1)), RationalV(-2),
                                                RationalV(V(-1) + 1)]), min_size=2, max_size=2))
        for row in A:
            row[n - 1] = row[0] * c1 + row[1] * c2
    x = [RationalV(draw(small_poly_st)) for _ in range(n)]
    b = _mat_vec(A, x)
    kind = draw(st.sampled_from(["span", "bump", "outside"]))
    target = {key_names[r]: y for r, y in enumerate(b) if y}
    if kind == "bump":
        r = draw(st.integers(0, m - 1))
        target[key_names[r]] = b[r] + RationalV(draw(small_poly_st.filter(bool)))
    elif kind == "outside":
        target["z"] = RationalV(draw(small_poly_st.filter(bool)))
    columns = [{key_names[r]: A[r][c] for r in range(m) if A[r][c]} for c in range(n)]
    return A, columns, target


def _one_shot(A, target):
    """Coordinates by one elimination of [A | b], b's outside keys as extra rows."""
    n = len(A[0])
    rows = [row + [target.get(key_names[r], RationalV(0))] for r, row in enumerate(A)]
    rows += [[RationalV(0)] * n + [c] for k, c in target.items() if k not in key_names]
    R, pivots = row_reduce(rows, n)
    if len(pivots) < n:
        return None
    if any(row[n] for row in R[n:]):
        return [], False
    return [row[n] for row in R[:n]], True


class TestSpanSolver:
    @given(span_systems())
    @settings(max_examples=80, deadline=None)
    def test_matches_one_shot_elimination(self, system):
        self.check(system)

    @given(span_systems(min_size=5))
    @settings(max_examples=15, deadline=None)
    def test_matches_one_shot_elimination_large(self, system):
        self.check(system)

    @staticmethod
    def check(system):
        A, columns, target = system
        want = _one_shot(A, target)
        if want is None:
            with pytest.raises(OracleError, match="linearly dependent"):
                SpanSolver(columns)
            return
        solver = SpanSolver(columns)
        got = solver.solve(target)
        assert got == want
        if got[1]:
            assert _mat_vec(A, got[0]) == [target.get(k, RationalV(0))
                                            for k in key_names[:len(A)]]
        # the factor is reused: a second target through the same solver
        assert solver.solve({}) == ([RationalV(0)] * len(columns), True)

    def test_outside_key_with_zero_value_is_in_span(self):
        columns = [{"a": RationalV(V(1))}]
        assert SpanSolver(columns).solve({"a": RationalV(V(2)), "z": RationalV(0)}) == (
            [RationalV(V(1))], True)
        assert SpanSolver(columns).solve({"z": RationalV(1)}) == ([], False)


q_poly_st = st.dictionaries(
    st.integers(-4, 4),
    st.one_of(coeff_st, st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])),
    max_size=4).map(LaurentPoly)


def _sym_coeffs(expr):
    """{exponent: Fraction} of a Laurent polynomial given as a sympy expression."""
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    shift = 20
    poly = sympy.Poly(sympy.expand(expr * _v ** shift), _v)
    return {e - shift: Fraction(int(c.p), int(c.q)) for (e,), c in poly.as_dict().items()}


def _check_stored(p, want):
    """p holds exactly the coefficients want in canonical form (an int when
    integral, else a Fraction with denominator > 1; never zero, never a
    float), in canonical text."""
    assert p.coeffs == want
    assert all(c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator > 1))
               for c in p.coeffs.values())
    text = " + ".join("%s*v^%d" % (want[e], e) for e in sorted(want, reverse=True))
    assert str(p) == (text or "0")


def _strip(p):
    """p / v^val(p) as a sympy polynomial."""
    return sympy.Poly(sympy.expand(_sym(p) * _v ** -p.valuation()), _v)


class TestKernelAgainstSympy:
    @given(q_poly_st, q_poly_st)
    @settings(max_examples=80, deadline=None)
    def test_add_mul(self, f, g):
        _check_stored(f + g, _sym_coeffs(_sym(f) + _sym(g)))
        _check_stored(f * g, _sym_coeffs(_sym(f) * _sym(g)))
        _check_stored(f - g, _sym_coeffs(_sym(f) - _sym(g)))
        _check_stored(f + (-f), {})

    @given(q_poly_st, q_poly_st)
    @settings(max_examples=80, deadline=None)
    def test_divexact(self, f, g):
        if g.is_zero():
            return
        _check_stored((f * g).divexact(g), _sym_coeffs(_sym(f)))
        if f.is_zero():
            return
        _, rem = sympy.div(_strip(f), _strip(g))
        if rem.is_zero:
            _check_stored(f.divexact(g), _sym_coeffs(sympy.cancel(_sym(f) / _sym(g))))
        else:
            with pytest.raises(ValueError, match="not exact"):
                f.divexact(g)

    @given(q_poly_st, q_poly_st, q_poly_st)
    @settings(max_examples=60, deadline=None)
    def test_poly_gcd(self, f, g, h):
        if f.is_zero() or g.is_zero() or h.is_zero():
            return
        a, b = f * h, g * h
        want = sympy.gcd(_strip(a), _strip(b)).monic()
        _check_stored(poly_gcd(a, b), _sym_coeffs(want.as_expr()))
        assert poly_gcd(a, b) == _euclid_gcd(a, b)

    @given(q_poly_st, q_poly_st, q_poly_st, q_poly_st)
    @settings(max_examples=60, deadline=None)
    def test_rational_normal_form(self, f, g, h, k):
        if g.is_zero() or k.is_zero():
            return
        r, s = RationalV(f, g), RationalV(h, k)
        for got, want in [(r, _sym(f) / _sym(g)),
                          (r + s, _sym(f) / _sym(g) + _sym(h) / _sym(k)),
                          (r * s, _sym(f) / _sym(g) * (_sym(h) / _sym(k))),
                          (RationalV(f) + s, _sym(f) + _sym(h) / _sym(k)),
                          (s * RationalV(f), _sym(h) / _sym(k) * _sym(f)),
                          (r - r, sympy.Integer(0))]:
            assert sympy.cancel(_sym(got) - want) == 0
            # den: an ordinary polynomial, monic on top, coprime to num
            assert got.den.valuation() == 0
            assert got.den.coeffs[got.den.degree()] == 1
            if got.is_zero():
                assert got.den == LaurentPoly.one()
            else:
                assert sympy.gcd(_strip(got.num), _strip(got.den)).degree() == 0
            _check_stored(got.num, _sym_coeffs(_sym(got.num)))
            _check_stored(got.den, _sym_coeffs(_sym(got.den)))
            if got.is_polynomial():
                assert str(got) == str(got.num)
            else:
                assert str(got) == "(%s) / (%s)" % (got.num, got.den)

    @given(q_poly_st, q_poly_st)
    @settings(max_examples=60, deadline=None)
    def test_polynomial_fast_path(self, f, g):
        # denominators 1 on both sides: the sum and product stay plain polynomials
        for got, want in [(RationalV(f) + RationalV(g), f + g),
                          (RationalV(f) * RationalV(g), f * g)]:
            assert got.is_polynomial() and got.num == want
            assert got == RationalV(want, LaurentPoly.one())
            assert str(got) == str(want)


def _euclid_gcd(a, b):
    """The Euclidean algorithm over Q that poly_gcd replaced, kept as an oracle."""
    a = a.shift(-a.valuation()) if not a.is_zero() else a
    b = b.shift(-b.valuation()) if not b.is_zero() else b
    while not b.is_zero():
        _, r = _divmod_laurent(a, b)
        a, b = b, r
        if not b.is_zero():
            b = b.shift(-b.valuation())
    if a.is_zero():
        return LaurentPoly.one()
    return a.divexact(LaurentPoly.const(a.coeffs[a.degree()]))


gcd_factor_st = st.sampled_from([
    L({1: 1, 0: -1}), L({1: -2, 0: 3}), L({2: 1, 0: 1}), L({1: Fraction(1, 2), 0: 2}),
    L({2: -3, 1: 1, 0: Fraction(-2, 3)}), L({3: 4, 0: -6}), V(1), V(-2), L({0: -6}),
    L({0: Fraction(2, 3)})])
gcd_operand_st = st.lists(gcd_factor_st, max_size=4).map(
    lambda fs: functools.reduce(operator.mul, fs, LaurentPoly.one()))


class TestPolyGcdOracle:
    """poly_gcd (a primitive remainder sequence over Z) against Euclid over Q
    and sympy, on non-primitive integer contents, negative leading
    coefficients, Fraction coefficients, v-power factors and zero operands."""

    @staticmethod
    def check(a, b):
        got = poly_gcd(a, b)
        assert got == _euclid_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert got == LaurentPoly.one()
        else:
            want = sympy.gcd(*(_strip(x) if x else sympy.Poly(0, _v) for x in (a, b))).monic()
            _check_stored(got, _sym_coeffs(want.as_expr()))

    @given(gcd_operand_st, gcd_operand_st, gcd_operand_st)
    @settings(max_examples=80, deadline=None)
    def test_against_euclid_and_sympy(self, f, g, h):
        self.check(f * h, g * h)
        self.check(g * h, f * h)

    def test_cases(self):
        zero = LaurentPoly.zero()
        six = L({2: 6, 1: 6, 0: -12})  # 6 (v + 2)(v - 1)
        cases = [
            (six, L({1: -4, 0: 4})),  # contents 6 and 4, negative top coefficient
            (six.shift(-3), L({2: -2, 0: 2}).shift(5)),  # v-power factors
            (L({1: Fraction(1, 2), 0: -Fraction(1, 2)}), L({2: Fraction(3, 4), 0: Fraction(-3, 4)})),
            (six, zero), (zero, L({1: -3, 0: 6}).shift(-2)), (zero, zero),
            (six, L({0: -5})), (V(3), V(-1)),
        ]
        for a, b in cases:
            self.check(a, b)
        assert poly_gcd(six, L({1: -4, 0: 4})) == L({1: 1, 0: -1})
        assert poly_gcd(zero, L({1: -3, 0: 6}).shift(-2)) == L({1: 1, 0: -2})
        assert poly_gcd(six, L({0: -5})) == LaurentPoly.one()


def _dense_system(rng, n):
    """A dense n x n system over Q(v), every entry a two-term Laurent
    polynomial, with a target b = A x."""
    def entry():
        e1, e2 = rng.sample(range(-2, 3), 2)
        return RationalV(L({e1: rng.choice([1, -1, 2, -3]), e2: rng.choice([1, -1, 2])}))
    A = [[entry() for _ in range(n)] for _ in range(n)]
    x = [entry() for _ in range(n)]
    target = {key_names[r]: y for r, y in enumerate(_mat_vec(A, x)) if y}
    columns = [{key_names[r]: A[r][c] for r in range(n)} for c in range(n)]
    return A, columns, target, x


class TestDenseElimination:
    """Dense Q(v) systems, where every pivot step reduces every entry by a gcd."""

    @pytest.mark.parametrize("n, seed", [(4, 1), (4, 2), (5, 3)])
    def test_span_solver_matches_one_shot(self, n, seed):
        A, columns, target, x = _dense_system(random.Random(seed), n)
        # these seeds give full rank, so the one-shot solution is the x that b was built from
        assert _one_shot(A, target) == (x, True)
        solver = SpanSolver(columns)
        assert solver.solve(target) == (x, True)
        outside = dict(target, z=RationalV(V(1)))
        assert _one_shot(A, outside) == ([], False)
        assert solver.solve(outside) == ([], False)
