"""Command-line front end emitting deterministic JSON reports.

Subcommands: roots, verify, comp-basis, cyclic-canonical, hall-poly.
Every report carries schema: 1; Laurent polynomials are serialized in the
canonical ``c*v^e + ...`` text form; exit status is 0 exactly when every
checked identity passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cartan import (
    BUILTIN_QUIVERS,
    OutsideWindowError,
    admissible_of,
    builtin_quiver,
    cartan_of,
    gradings_below,
    is_affine,
    parse_quiver,
)
from .cyclic import (
    CyclicCanonicalBasis,
    cyclic_generic_algebra,
    cyclic_shape,
    diamond_step,
    eta_fold,
    multisegments_of_dim,
    parse_multisegment,
    word_of,
)
from .hall import FitError, GenericHallAlgebra, HallContext
from .kashiwara import AdmissibleTriple, check_lattice_stability, verify_sink_identity
from .laurent import RationalV
from .modrep import (
    BudgetError,
    IsoClassCatalog,
    OracleError,
    check_admission,
    field,
    field_of_order,
)
from .pbwbasis import context_caps, get_context


class RunConfig:
    """Resolved command-line configuration."""

    def __init__(self, args):
        self.ctx = getattr(args, "ctx", None)
        self.quiver_file = getattr(args, "quiver", None)
        self.cap = _parse_ints(getattr(args, "cap", None), "--cap")
        self.primes = _parse_ints(getattr(args, "primes", None), "--primes") or (2, 3, 4, 5)
        verify = getattr(args, "verify_prime", None)
        self.verify_prime = 7 if verify is None else verify
        self.cache_dir = getattr(args, "cache_dir", None)
        self.out = getattr(args, "out", None)

    def shape(self):
        if self.quiver_file:
            try:
                with open(self.quiver_file) as fh:
                    return parse_quiver(fh.read())
            except (OSError, ValueError) as exc:
                raise SystemExit("--quiver %s: %s" % (self.quiver_file, exc))
        if self.ctx:
            return _ctx_shape(self.ctx)
        raise SystemExit("either --ctx or --quiver is required")


def _ctx_shape(ctx):
    """The shape named by --ctx; ValueError for an unknown name."""
    if ctx.startswith("cyclic:"):
        return cyclic_shape(int(ctx.split(":")[1]))
    return builtin_quiver(ctx)


def _basis_cap(config):
    """The grading cap of a composition-context command, within the context's cap."""
    caps = context_caps()
    if config.ctx not in caps:
        raise SystemExit("--ctx must name a composition context (%s), not %r"
                         % (", ".join(sorted(caps)), config.ctx))
    limit = caps[config.ctx]
    cap = config.cap or limit
    if len(cap) != len(limit) or any(not 0 <= c <= m for c, m in zip(cap, limit)):
        raise SystemExit("--cap %s is outside the %s basis cap %s"
                         % (",".join(map(str, cap)), config.ctx, ",".join(map(str, limit))))
    return cap


def _parse_ints(text, option):
    if not text:
        return None
    try:
        values = tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise SystemExit("%s %s: expected comma-separated integers" % (option, text))
    if any(x < 0 for x in values):
        raise SystemExit("%s %s: entries must not be negative" % (option, text))
    return values


def emit(config, payload, failed=False):
    payload = dict(payload)
    payload["schema"] = 1
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 2 if failed else 0


def _serre_dims(shape):
    datum = cartan_of(shape)
    dims = []
    for i in shape.vertices:
        for j in shape.vertices:
            if i == j:
                continue
            n = 1 - datum.C[datum.pos[i]][datum.pos[j]]
            d = [0] * len(shape.vertices)
            d[shape.index[i]] = n
            d[shape.index[j]] = 1
            dims.append(tuple(d))
    return dims


class _A1Labeler:
    """A1 classes are labeled by their dimension alone."""

    def label_of(self, catalog, cid):
        return ("A1", catalog.classes[cid].dims)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def cmd_roots(config, window):
    shape = config.shape()
    if shape.nilpotent:
        raise SystemExit("the roots command needs an acyclic valued quiver")
    seq = admissible_of(shape)
    datum = cartan_of(shape)
    affine = is_affine(datum)
    catalog = None
    rows = []
    failed = False
    try:
        betas = seq.betas(window)
    except OutsideWindowError as exc:
        raise SystemExit("--window %d: %s" % (window, exc))
    if affine:
        try:
            catalog = IsoClassCatalog(shape, field(2), sorted(betas.values()),
                                      cache_dir=config.cache_dir)
        except BudgetError as exc:  # resource refusal is reported, not hidden
            rows.append({"warning": "no catalog: %s" % exc})
    for t, b in sorted(betas.items()):
        row = {"t": t, "beta": list(b), "vertex": str(seq.vertex(t))}
        if catalog is not None:
            indecs = [c for c in catalog.classes_of_dim(b) if c.indec]
            row["indecomposables"] = len(indecs)
            if len(indecs) != 1:
                failed = True
            else:
                row["defect"] = catalog.defect_class(indecs[0].cid)
                want = "preprojective" if t <= 0 else "preinjective"
                if row["defect"] != want:
                    failed = True
        rows.append(row)
    return emit(config, {"command": "roots", "affine": affine,
                         "window": window, "table": rows}, failed)


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_serre(config):
    shape = config.shape()
    dims = _serre_dims(shape)
    results = []
    ok = True
    fields = [field(2), field(3)]
    for F in fields:  # both fields admitted before the first catalog
        check_admission(shape, F, dims)
    for F in fields:
        cat = IsoClassCatalog(shape, F, dims, cache_dir=config.cache_dir)
        hc = HallContext(cat)
        for i in shape.vertices:
            for j in shape.vertices:
                if i == j:
                    continue
                passed = hc.vanishes_at_field(hc.serre_sum(i, j))
                ok = ok and passed
                results.append({"q": F.q, "i": str(i), "j": str(j), "pass": passed})
    return {"suite": "serre", "pass": ok, "checks": results}, not ok


def _suite_orthogonality(config):
    cap = _basis_cap(config)
    ctx = get_context(config.ctx, cache_dir=config.cache_dir)
    results = []
    ok = True
    for nu in gradings_below(cap):
        fails = ctx.verify_almost_orthogonal(nu)
        results.append({"grading": list(nu), "pairs_failed": len(fails)})
        ok = ok and not fails
    return {"suite": "orthogonality", "pass": ok, "slices": results}, not ok


def _slice_checks(ctx, nu):
    """The entry of grading nu: its index counts and both bar checks, and whether they passed."""
    data = ctx.basis_of_grading(nu)
    entry = {"indices": len(data["indices"]), "aperiodic": len(data["aperiodic"]),
             "bar_involution": ctx.check_bar_involution(nu),
             "C_bar_invariant": all(ctx.check_C_bar_invariant(nu, a) for a in data["aperiodic"])}
    return entry, entry["bar_involution"] and entry["C_bar_invariant"]


def _suite_triangularity(config):
    cap = _basis_cap(config)
    ctx = get_context(config.ctx, cache_dir=config.cache_dir)
    results = []
    ok = True
    for nu in gradings_below(cap):
        entry, passed = _slice_checks(ctx, nu)
        ok = ok and passed
        results.append(dict(entry, grading=list(nu)))
    return {"suite": "triangularity", "pass": ok, "slices": results}, not ok


def _eta_pairs(rank, bound):
    apers = []
    for dims in sorted(gradings_below((bound,) * rank), key=lambda d: (sum(d), d)):
        if sum(dims) <= bound:
            apers += [pi for pi in multisegments_of_dim(rank, dims) if pi.is_aperiodic()]
    for pi1 in apers:
        for pi2 in apers:
            if pi1.total_boxes() + pi2.total_boxes() <= bound:
                yield pi1, pi2


def _eta_check(pair):
    pi1, pi2 = pair
    arg = pi2
    for j, a in reversed(word_of(pi1)):
        for _ in range(a):
            arg = diamond_step(j, arg)
    lhs = eta_fold(arg)
    rhs = eta_fold(pi2)
    for j, a in reversed(word_of(eta_fold(pi1))):
        for _ in range(a):
            rhs = diamond_step(j, rhs)
    return lhs == rhs


def _suite_eta(config, rank, bound):
    pairs = list(_eta_pairs(rank, bound))
    bad = [str(p) for p in pairs if not _eta_check(p)]
    ok = not bad
    return {"suite": "eta", "rank": rank, "bound": bound,
            "pairs_checked": len(pairs), "pass": ok, "counterexamples": bad}, not ok


def _suite_kashiwara(config):
    cap = _basis_cap(config)
    ctx = get_context(config.ctx, cache_dir=config.cache_dir)
    results = []
    ok = True
    for v in ctx.shape.vertices:
        tri = AdmissibleTriple(ctx, v)
        rel_ok = True
        for nu in gradings_below(cap):
            target = tuple(a + b for a, b in zip(nu, tri.e_i))
            if all(t <= c for t, c in zip(target, cap)):
                rel_ok = rel_ok and tri.check_relation(nu)
        lat_fails = 0
        for nu in gradings_below(cap):
            lat_fails += len(check_lattice_stability(tri, nu))
        ok = ok and rel_ok and lat_fails == 0
        results.append({"vertex": str(v), "relation": rel_ok,
                        "lattice_failures": lat_fails})
    sink_ok = True
    for nu in gradings_below(cap):
        for a in ctx.indices_of_grading(nu):
            sink_ok = sink_ok and verify_sink_identity(ctx, a)
    ok = ok and sink_ok
    return {"suite": "kashiwara", "pass": ok, "vertices": results,
            "sink_identity": sink_ok}, not ok


def _suite_hallpoly(config):
    checks = []
    # (report name, context, hall-poly --triple, expected coefficients)
    for name, ctx, triple, want in (
            ("g^{[1;2)}_{S1,S2} (cyclic r=2)", "cyclic:2", "1:2 x1 / 1:1 x1 / 2:1 x1", ["1"]),
            ("g^{S+S}_{S,S} (A1)", "a1", "2/1/1", ["1", "1"])):
        poly = [str(c) for c in _fit_triple(config, ctx, triple).coefficients()]
        checks.append({"triple": name, "poly": poly, "pass": poly == want})
    ok = all(check["pass"] for check in checks)
    return {"suite": "hallpoly", "pass": ok, "checks": checks,
            "primes": list(config.primes), "verified_at": config.verify_prime}, not ok


def cmd_verify(config, suite, rank, bound):
    suites = [suite]
    if suite == "all":
        suites = ["serre", "eta", "hallpoly"]
        if config.ctx in context_caps():
            suites += ["orthogonality", "triangularity", "kashiwara"]
    if "eta" in suites:
        _check_cyclic_rank(rank)
    runners = {"serre": _suite_serre, "orthogonality": _suite_orthogonality,
               "triangularity": _suite_triangularity, "kashiwara": _suite_kashiwara,
               "hallpoly": _suite_hallpoly, "eta": lambda c: _suite_eta(c, rank, bound)}
    reports = []
    failed = False
    for s in suites:
        rep, bad = runners[s](config)
        reports.append(rep)
        failed = failed or bad
    return emit(config, {"command": "verify",
                         "pass": not failed, "suites": reports}, failed)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

def cmd_comp_basis(config, which):
    cap = _basis_cap(config)
    ctx = get_context(config.ctx, cache_dir=config.cache_dir)
    slices = {}
    failed = False
    for nu in gradings_below(cap):
        if which == "report":
            entry, passed = _slice_checks(ctx, nu)
            failed = failed or not passed
        else:
            entry = {}
            data = ctx.basis_of_grading(nu)
            for a in data["aperiodic"]:
                if which == "N":
                    coords = {a: RationalV(1)}
                elif which == "E":
                    coords = data["E"][a]
                else:
                    coords = ctx.C_in_N(nu, a)
                entry[str(a)] = [[str(b), str(c)]
                                 for b, c in sorted(coords.items(), key=lambda kv: str(kv[0]))]
        slices["%s" % (list(nu),)] = entry
    return emit(config, {"command": "comp-basis", "ctx": config.ctx,
                         "emit": which, "cap": list(cap), "slices": slices}, failed)


def _check_cyclic_rank(rank):
    if rank < 2:
        raise SystemExit("--rank %d: cyclic shapes need rank >= 2" % rank)


def cmd_cyclic_canonical(config, rank, dim):
    _check_cyclic_rank(rank)
    cap = _parse_ints(dim, "--dim") or (2, 2)
    if len(cap) != rank:
        raise SystemExit("--dim %s needs %d entries, one per vertex of --rank %d"
                         % (",".join(map(str, cap)), rank, rank))
    basis = CyclicCanonicalBasis(rank, cap, cache_dir=config.cache_dir)
    out = {}
    failed = False
    for pi in sorted(basis.B, key=str):
        ang = basis.B_in_angle(pi)
        ok = basis.check_bar_invariant(pi)
        failed = failed or not ok
        out[str(pi)] = {
            "bar_invariant": ok,
            "coords": [[str(p), str(c)] for p, c in sorted(ang.items(), key=lambda kv: str(kv[0]))],
        }
    return emit(config, {"command": "cyclic-canonical", "rank": rank,
                         "dim": list(cap), "emit": "B", "basis": out}, failed)


def _fit_triple(config, ctx, triple_spec):
    """The Hall polynomial of a --triple text in ctx (a1 or cyclic:<r>), fitted and verified."""
    primes, verify = config.primes, config.verify_prime
    if ctx and ctx.startswith("cyclic:"):
        r = int(ctx.split(":")[1])
        parts = [p.strip() for p in triple_spec.split("/")]
        if len(parts) != 3:
            raise SystemExit("--triple needs 'L / M / N' multisegment texts")
        try:
            pis = [parse_multisegment("r=%d; %s" % (r, p) if not p.startswith("r=") else p)
                   for p in parts]
        except ValueError as exc:
            raise SystemExit("--triple %s: %s" % (triple_spec, exc))
        if any(pi.r != r for pi in pis):
            raise SystemExit("--triple %s: every multisegment needs rank %d" % (triple_spec, r))
        dims = [pi.dim_vector() for pi in pis]
        if dims[0] != tuple(m + n for m, n in zip(dims[1], dims[2])):
            raise SystemExit("--triple %s: L must have the dimension vector of M + N"
                             % triple_spec)
        cap = tuple(max(d[k] for d in dims) for k in range(r))
        alg = cyclic_generic_algebra(r, cap, cache_dir=config.cache_dir)
        labels = [alg.labeler.of_multisegment(pi) for pi in pis]
        return alg.fit_hall_polynomial(*labels, dims[1], dims[2], primes=primes, verify=verify)
    if ctx == "a1":
        try:
            dims = [int(x) for x in triple_spec.split("/")]
        except ValueError:
            dims = []
        if len(dims) != 3 or dims[0] != dims[1] + dims[2]:
            raise SystemExit("--triple needs 'l / m / n' with l = m + n")
        alg = GenericHallAlgebra(builtin_quiver("a1"), (dims[0],), _A1Labeler(),
                                 cache_dir=config.cache_dir)
        return alg.fit_hall_polynomial(*[("A1", (d,)) for d in dims], (dims[1],), (dims[2],),
                                       primes=primes, verify=verify)
    raise SystemExit("hall-poly supports --ctx a1 or --ctx cyclic:<r>")


def cmd_hall_poly(config, triple_spec):
    hp = _fit_triple(config, config.ctx, triple_spec)
    return emit(config, {"command": "hall-poly", "poly": [str(c) for c in hp.coefficients()],
                         "primes": list(config.primes), "verified_at": config.verify_prime,
                         "verified": True})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p, *names):
    """The shared options p reads, of ctx, quiver, cap and fields; then --cache-dir and --out."""
    if "ctx" in names:
        p.add_argument("--ctx", help="built-in context name (%s, cyclic:<r>)"
                                     % ", ".join(BUILTIN_QUIVERS))
    if "quiver" in names:
        p.add_argument("--quiver", help="path to a quiver description file")
    if "cap" in names:
        p.add_argument("--cap", help="grading cap a,b[,c...]")
    if "fields" in names:
        p.add_argument("--primes", help="fit field orders q (prime powers), e.g. 2,3,4,5")
        p.add_argument("--verify-prime", "--verify", dest="verify_prime", type=int,
                       help="held-out verification field order q")
    p.add_argument("--cache-dir", dest="cache_dir", help="catalog cache directory")
    p.add_argument("--out", help="write the JSON report to this path")


class _Parser(argparse.ArgumentParser):
    """Usage errors end like every other bad input: one line on stderr, exit 1."""

    def error(self, message):
        self.exit(1, "%s: %s\n" % (self.prog, message))


def main(argv=None):
    parser = _Parser(prog="hallbases", description="exact affine composition-algebra bases")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="real-root table with catalog matching")
    _add_common(p, "ctx", "quiver")
    p.add_argument("--window", type=int, default=3)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p, "ctx", "quiver", "cap", "fields")
    p.add_argument("--suite", required=True,
                   choices=["serre", "orthogonality", "triangularity", "eta",
                            "kashiwara", "hallpoly", "all"])
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--bound", type=int, default=5)

    p = sub.add_parser("comp-basis", help="composition-algebra basis tables")
    _add_common(p, "ctx", "cap")
    p.add_argument("--emit", default="C", choices=["N", "E", "C", "report"])

    p = sub.add_parser("cyclic-canonical", help="cyclic-quiver canonical basis")
    _add_common(p)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--dim", help="dimension cap, e.g. 2,2")

    p = sub.add_parser("hall-poly", help="fit and verify one Hall polynomial")
    _add_common(p, "ctx", "fields")
    p.add_argument("--triple", required=True,
                   help="'L / M / N' multisegments (cyclic) or dims (a1)")

    args = parser.parse_args(argv)
    for option in ("window", "bound"):
        if getattr(args, option, 0) < 0:
            raise SystemExit("--%s %d: must not be negative" % (option, getattr(args, option)))
    config = RunConfig(args)
    if config.ctx:
        try:
            _ctx_shape(config.ctx)
        except ValueError as exc:
            raise SystemExit("--ctx %s: %s" % (config.ctx, exc))
    cache_dir = config.cache_dir
    if cache_dir and os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
        raise SystemExit("--cache-dir %s: not a directory" % cache_dir)
    for q in config.primes + (config.verify_prime,):
        try:
            field_of_order(q)
        except ValueError as exc:
            raise SystemExit("--primes/--verify-prime: %s" % exc)
    if len(set(config.primes)) != len(config.primes):
        raise SystemExit("--primes %s: a fit field is named twice"
                         % ",".join(map(str, config.primes)))
    if config.verify_prime in config.primes:
        raise SystemExit("--verify-prime %d: the held-out field must not be one of --primes %s"
                         % (config.verify_prime, ",".join(map(str, config.primes))))
    try:
        if args.command == "roots":
            return cmd_roots(config, args.window)
        if args.command == "verify":
            return cmd_verify(config, args.suite, args.rank, args.bound)
        if args.command == "comp-basis":
            return cmd_comp_basis(config, args.emit)
        if args.command == "cyclic-canonical":
            return cmd_cyclic_canonical(config, args.rank, args.dim)
        if args.command == "hall-poly":
            return cmd_hall_poly(config, args.triple)
    except BudgetError as exc:
        raise SystemExit("refused, over budget: %s" % exc)
    except FitError as exc:
        sys.stderr.write("refused, fit not verified: %s\n" % exc)
        return 2
    except OracleError as exc:
        sys.stderr.write("check failed: %s\n" % exc)
        return 2
    raise SystemExit("unknown command")


if __name__ == "__main__":
    sys.exit(main())
