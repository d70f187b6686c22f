"""Partitions, Kostka numbers and the symmetric-function layer of H^0.

H_m is the sum of v^(-dim_k M) [M] over homogeneous regular classes of
dimension vector m * delta; S_lambda is the Jacobi-Trudi determinant
det(H_{lambda_t - t + t'}).  The determinant only makes sense because the
H_m commute, which is verified in the algebra rather than assumed.
"""

from __future__ import annotations

import itertools

from .cartan import multisets
from .hall import HallElement
from .laurent import LaurentPoly, RationalV


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def check_partition(lam):
    lam = tuple(int(x) for x in lam)
    if any(x <= 0 for x in lam):
        raise ValueError("partition parts must be positive")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return lam


def partitions_of(n):
    """All partitions of n, in descending lexicographic order."""
    parts = range(n, 0, -1)
    return [tuple(parts[k] for k, m in chosen for _ in range(m))
            for chosen, _ in multisets([(p,) for p in parts], (n,))]


def dominance_leq(lam, mu):
    """lam <=_dom mu: partial sums of lam never exceed those of mu."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of the same size")
    a = b = 0
    for k in range(max(len(lam), len(mu))):
        a += lam[k] if k < len(lam) else 0
        b += mu[k] if k < len(mu) else 0
        if a > b:
            return False
    return True


def kostka(lam, mu):
    """The number of semistandard Young tableaux of shape lam and content mu."""
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("shape and content must have equal size")
    if not lam:
        return 1
    rows = len(lam)
    remaining = list(mu)
    tableau = [[0] * lam[r] for r in range(rows)]
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]

    def rec(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = tableau[r][c - 1] if c else 1
        total = 0
        for val in range(max(lo, r + 1), len(mu) + 1):
            if remaining[val - 1] == 0:
                continue
            if r and lam[r - 1] > c and tableau[r - 1][c] >= val:
                continue
            tableau[r][c] = val
            remaining[val - 1] -= 1
            total += rec(idx + 1)
            remaining[val - 1] += 1
            tableau[r][c] = 0
        return total

    return rec(0)


# ---------------------------------------------------------------------------
# the Jacobi-Trudi expansion
# ---------------------------------------------------------------------------

def jacobi_trudi(lam):
    """S_lambda = det(H_{lambda_t - t + t'}) as {parts: coefficient}.

    parts lists the H indices of one product of the commuting H_m in
    descending order; H_0 = 1 is left out and a product with a negative
    index, H_neg = 0, is dropped.
    """
    lam = check_partition(lam)
    out = {}
    for perm in itertools.permutations(range(len(lam))):
        parts = [lam[t] - t + perm[t] for t in range(len(lam))]
        if min(parts, default=0) < 0:
            continue
        parts = tuple(sorted((m for m in parts if m), reverse=True))
        c = out.get(parts, 0) + _perm_sign(perm)
        if c:
            out[parts] = c
        else:
            del out[parts]
    return out


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# H_m and S_lambda inside a generic Hall algebra
# ---------------------------------------------------------------------------

def homogeneous_labels(alg, dims):
    """Labels at dims whose classes are purely homogeneous regular."""
    return [label for label in alg.labels_of_dim(dims)
            if alg.labeler.is_homogeneous_label(label)]


def H_element(alg, delta, m):
    """H_m = sum over homogeneous regular classes of dim m*delta of
    v^(-dim_k M) [M], as a label element; H_0 = 1."""
    if m == 0:
        return alg.unit()
    dims = tuple(m * x for x in delta)
    coeffs = {}
    for label in homogeneous_labels(alg, dims):
        data = alg.label_data(label)
        coeffs[label] = RationalV(LaurentPoly.v_power(-data["dim_k"]))
    return HallElement(alg, dims, coeffs)


class SymmetricLayer:
    """Cached H_m / S_lambda evaluation with verified commutation.

    H_a and H_b are checked to commute for every a < b with a + b <= max_m,
    the products that S_lambda of weight <= max_m can reorder.  The shipped
    caps check no pair: kronecker (2, 2) has max_m = 2 and a2tilde
    (1, 1, 1) has max_m = 1.
    """

    def __init__(self, alg, delta, max_m):
        self.alg = alg
        self.delta = tuple(delta)
        self.max_m = max_m
        self._H = {0: alg.unit()}
        self._S = {}
        for m in range(1, max_m + 1):
            self._H[m] = H_element(alg, delta, m)
        # the determinant is only well-defined because the H_m commute
        for a in range(1, max_m + 1):
            for b in range(a + 1, max_m + 1):
                if a + b <= max_m:
                    left = self._H[a] * self._H[b]
                    right = self._H[b] * self._H[a]
                    if (left - right).coeffs:
                        raise ArithmeticError("H_%d and H_%d do not commute" % (a, b))

    def H(self, m):
        return self._H[m]

    def S(self, lam):
        lam = check_partition(lam)
        if lam in self._S:
            return self._S[lam]
        if sum(lam) > self.max_m:
            raise ValueError("partition weight %d exceeds the layer cap %d"
                             % (sum(lam), self.max_m))
        total = None
        for mono, c in jacobi_trudi(lam).items():
            term = self.alg.unit().scale(RationalV(LaurentPoly.const(c)))
            for m in mono:
                term = term * self._H[m]
            total = term if total is None else total + term
        if total is None:
            total = self.alg.zero_elt()
        self._S[lam] = total
        return total
