"""Admissible triples and Kashiwara operators on graded slices of H^0.

For a vertex i, epsilon is the left derivation (the u_i-component of the
Green coproduct) and phi is left multiplication by u_i; they satisfy
eps phi = v_i^2 phi eps + 1, so the slice decomposes as P = (+) phi^(N) P(0)
and the string-shifting operators are defined by exact linear algebra over
Q(v).  No completions, no approximations: every identity here is an
equality of vectors of rational functions.
"""

from __future__ import annotations

# read qualified: the package's lazy layers, so that importing this module
# compiles none of them
from . import hall, laurent, pbwbasis
from .modrep import BudgetError, OracleError


class AdmissibleTriple:
    """(P, eps_i, phi_i) for one vertex of a composition context."""

    def __init__(self, ctx, vertex):
        self.ctx = ctx
        self.vertex = vertex
        self.e_i = tuple(1 if i == vertex else 0 for i in ctx.shape.vertices)
        self.d_i = ctx.shape.d[vertex]
        self._phi_cache = {}
        self._eps_cache = {}
        self._p0_cache = {}
        self._string_cache = {}

    # -- raw operators in N coordinates -----------------------------------

    def _check_cap(self, nu):
        if any(x > c for x, c in zip(nu, self.ctx.cap)):
            raise BudgetError("slice %s exceeds the context cap %s"
                              % (nu, self.ctx.cap))

    def phi_on_index(self, a):
        """u_i * N(a) expanded in N coordinates."""
        key = a.key()
        if key not in self._phi_cache:
            nu = self.ctx.grading_of(a)
            target = tuple(x + y for x, y in zip(nu, self.e_i))
            self._check_cap(target)
            prod = self.ctx.alg.u(self.vertex) * self.ctx.N_element(a)
            self._phi_cache[key] = self.ctx.expand_in_N(prod)
        return self._phi_cache[key]

    def eps_on_index(self, a):
        """The left derivation of N(a), expanded in N coordinates."""
        key = a.key()
        if key not in self._eps_cache:
            image = self.ctx.alg.derive_left(self.vertex, self.ctx.N_element(a))
            self._eps_cache[key] = self.ctx.expand_in_N(image)
        return self._eps_cache[key]

    def phi(self, coords):
        return hall.expand_in(coords, {a: self.phi_on_index(a) for a in coords})

    def eps(self, coords):
        return hall.expand_in(coords, {a: self.eps_on_index(a) for a in coords})

    def phi_divided(self, coords, n):
        """phi^(n) = phi^n / [n]!_{v_i}."""
        out = dict(coords)
        for _ in range(n):
            out = self.phi(out)
        fact = laurent.RationalV(laurent.quantum_factorial(n, self.d_i))
        return {k: v / fact for k, v in out.items()}

    # -- verification of the defining relations -----------------------------

    def check_relation(self, nu):
        """eps phi = v_i^2 phi eps + 1 on the full slice of grading nu: the
        divided relation at N = 1, where phi^(1) = phi and phi^(0) = id."""
        return self.check_divided_relation(nu, 1)

    def check_divided_relation(self, nu, n):
        """eps phi^(N) = v_i^(2N) phi^(N) eps + v_i^(N-1) phi^(N-1)."""
        target = tuple(x + n * y for x, y in zip(nu, self.e_i))
        self._check_cap(target)
        vi2N = laurent.RationalV(laurent.LaurentPoly.v_power(2 * n * self.d_i))
        viN1 = laurent.RationalV(laurent.LaurentPoly.v_power((n - 1) * self.d_i))
        for a in self.ctx.indices_of_grading(nu):
            x = {a: laurent.RationalV(1)}
            lhs = self.eps(self.phi_divided(x, n))
            rhs = _add(_scale(self.phi_divided(self.eps(x), n), vi2N),
                       _scale(self.phi_divided(x, n - 1), viN1))
            if not _eq(lhs, rhs):
                return False
        return True

    # -- string decomposition ------------------------------------------------

    def p0_basis(self, nu):
        """A basis of P(0) = ker(eps) on the slice, as N-coordinate dicts."""
        nu = tuple(nu)
        if nu in self._p0_cache:
            return self._p0_cache[nu]
        indices = self.ctx.indices_of_grading(nu)
        images = [self.eps_on_index(a) for a in indices]
        keys = sorted({k for img in images for k in img}, key=lambda a: repr(a.key()))
        zero = laurent.RationalV(0)
        R, pivots = laurent.row_reduce([[img.get(k, zero) for img in images] for k in keys],
                                       len(indices))
        basis = []
        for free in range(len(indices)):
            if free in pivots:
                continue
            vec = {indices[pc]: -R[r][free] for r, pc in enumerate(pivots)}
            vec[indices[free]] = laurent.RationalV(1)
            basis.append({a: vec[a] for a in indices if vec.get(a)})
        self._p0_cache[nu] = basis
        return basis

    def string_decompose(self, coords):
        """x = sum phi^(N) y_N with eps(y_N) = 0, exactly; returns [(N, y_N)].

        Solved in the span of the columns phi^(n) y, y running over a basis
        of P(0) on the slice nu - n e_i, factored once per grading; the
        reconstruction residual of every decomposition is checked to be
        identically zero.
        """
        if not coords:
            return []
        nu = _grading_of(self.ctx, coords)
        tags, solver = self._string_solver(nu)
        sol, ok = solver.solve(coords)
        if not ok:
            raise OracleError("string decomposition failed: slice not saturated")
        by_n = {}
        for (n, bi), c in zip(tags, sol):
            if not c.is_zero():
                by_n.setdefault(n, {})[bi] = c
        result = []
        for n, coefs in sorted(by_n.items()):
            base_nu = tuple(x - n * e for x, e in zip(nu, self.e_i))
            y = hall.expand_in(coefs, self.p0_basis(base_nu))
            if y:
                result.append((n, y))
        # exact reconstruction check
        recon = {}
        for n, y in result:
            recon = _add(recon, self.phi_divided(y, n))
        if not _eq(recon, coords):
            raise OracleError("string decomposition does not reassemble")
        return result

    def _string_solver(self, nu):
        """(tags, solver) for the columns phi^(n) y of the slice nu."""
        if nu not in self._string_cache:
            columns = []
            tags = []
            n = 0
            while all(x - n * e >= 0 for x, e in zip(nu, self.e_i)):
                base_nu = tuple(x - n * e for x, e in zip(nu, self.e_i))
                for bi, y in enumerate(self.p0_basis(base_nu)):
                    columns.append(self.phi_divided(y, n))
                    tags.append((n, bi))
                n += 1
            self._string_cache[nu] = (tags, pbwbasis.SpanSolver(columns))
        return self._string_cache[nu]

    def shift(self, strings, k):
        """Move every string of a decomposition by k: sum phi^(N+k) y_N.

        Strings pushed below N = 0 vanish; raising may hit the cap.
        """
        out = {}
        for n, y in strings:
            if n + k >= 0:
                out = _add(out, self.phi_divided(y, n + k))
        return out

    def etilde(self, coords):
        """Shift the string decomposition down by one."""
        return self.shift(self.string_decompose(coords), -1)

    def phitilde(self, coords):
        """Shift the string decomposition up by one (may hit the cap)."""
        return self.shift(self.string_decompose(coords), 1)


def check_lattice_stability(triple, nu):
    """Kashiwara operators preserve the crystal lattice on the slice.

    For each N(a) of the slice, the N-coordinates of etilde(N(a)) (and of
    phitilde(N(a)) when the raised slice is within the cap) must lie in
    Q[[v^-1]] cap Q(v), decided exactly.  Returns the list of violations.
    """
    ctx = triple.ctx
    failures = []
    target = tuple(p + e for p, e in zip(nu, triple.e_i))
    raise_too = all(t <= c for t, c in zip(target, ctx.cap))
    for a in ctx.indices_of_grading(nu):
        strings = triple.string_decompose({a: laurent.RationalV(1)})
        images = [("etilde", triple.shift(strings, -1))]
        if raise_too:
            images.append(("phitilde", triple.shift(strings, 1)))
        for tag, img in images:
            for b, c in img.items():
                if not laurent.in_lattice(c, strict=False):
                    failures.append((tag, a, b, c))
    return failures


def verify_sink_identity(ctx, a):
    """The sink vertex acts on c_-(0) by pure divided powers.

    With i_0 the sink and N = c_-(0): eps_{i_0}(N(c^|-, t_lambda)) = 0 and
    phitilde^N of it equals N(c, t_lambda) exactly.
    """
    i0 = ctx.seq.vertex(0)
    triple = AdmissibleTriple(ctx, i0)
    n_mult = dict(a.cminus).get(0, 0)
    reduced = pbwbasis.PbwIndex(tuple((t, m) for t, m in a.cminus if t != 0),
                                a.c0, a.cplus, a.lam)
    base = {reduced: laurent.RationalV(1)}
    eps_img = triple.eps(base)
    if eps_img:
        return False
    lifted = triple.phi_divided(base, n_mult)
    return lifted == {a: laurent.RationalV(1)}


# -- small dict-vector helpers (N coordinates over Q(v)) --------------------

def _add(x, y):
    out = dict(x)
    for k, v in y.items():
        s = out.get(k, laurent.RationalV(0)) + v
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def _scale(x, c):
    return {k: v * c for k, v in x.items()}


def _eq(x, y):
    return _is_zero(_add(x, _scale(y, laurent.RationalV(-1))))


def _is_zero(x):
    return all(v.is_zero() for v in x.values())


def _grading_of(ctx, coords):
    gradings = {ctx.grading_of(a) for a in coords}
    if len(gradings) != 1:
        raise ValueError("coordinates mix gradings")
    return gradings.pop()
