"""Outside-in layer tracing for one ``hallbases`` CLI command.

The benchmark runs a traced command as

    python perfbench/tracer.py STATS.json -- <hallbases cli arguments>

with ``src`` on ``PYTHONPATH``.  Before ``hallbases.cli.main`` is called,
the public functions of each module are replaced by span wrappers, in every
``hallbases`` module namespace that binds the same object, and methods are
wrapped on their class.  Nothing under ``src`` is edited, and stdout carries
the unchanged report.  The layer statistics and the span tree go to
STATS.json when the command ends.

A span's self time is its duration minus the durations of its direct traced
children.  Hot kernels (``HOT``) take part in that arithmetic but are only
aggregated, so that a million ``m_mul`` calls do not become a million span
records.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute, span name); "A.b" wraps method b on class A
TARGETS = (
    ("modrep", "IsoClassCatalog.__init__", "modrep.catalog"),
    ("modrep", "hom_space", "modrep.hom_space"),
    ("modrep", "rref", "modrep.rref"),
    ("modrep", "kernel_basis", "modrep.kernel_basis"),
    ("modrep", "m_mul", "modrep.m_mul"),
    ("modrep", "IsoClassCatalog.classify", "modrep.classify"),
    ("modrep", "IsoClassCatalog.scan_dim", "modrep.scan_dim"),
    ("modrep", "submodule_tuples", "modrep.submodule_tuples"),
    ("modrep", "is_submodule", "modrep.is_submodule"),
    ("modrep", "sub_quotient", "modrep.sub_quotient"),
    ("hall", "GenericHallAlgebra.labels_of_dim", "hall.labels_of_dim"),
    ("hall", "GenericHallAlgebra.mult_table", "hall.mult_table"),
    ("hall", "fit_and_verify", "hall.fit_and_verify"),
    ("hall", "bar_matrix_from_monomials", "hall.bar_matrix_from_monomials"),
    ("hall", "bar_invariant_solve", "hall.bar_invariant_solve"),
    ("laurent", "poly_gcd", "laurent.poly_gcd"),
    ("laurent", "in_lattice", "laurent.in_lattice"),
    ("symfun", "SymmetricLayer.__init__", "symfun.SymmetricLayer"),
    ("pbwbasis", "get_context", "pbwbasis.get_context"),
    ("pbwbasis", "CompositionContext.basis_of_grading", "pbwbasis.basis_of_grading"),
    ("pbwbasis", "CompositionContext.verify_almost_orthogonal",
     "pbwbasis.verify_almost_orthogonal"),
    ("kashiwara", "AdmissibleTriple.check_relation", "kashiwara.check_relation"),
    ("kashiwara", "check_lattice_stability", "kashiwara.check_lattice_stability"),
    ("kashiwara", "verify_sink_identity", "kashiwara.verify_sink_identity"),
    ("cyclic", "CyclicCanonicalBasis.__init__", "cyclic.CyclicCanonicalBasis"),
    ("cyclic", "leq_G", "cyclic.leq_G"),
    ("cyclic", "diamond_step", "cyclic.diamond_step"),
    ("cli", "emit", "cli.emit"),
)

# called often enough that one span record per call would swamp memory
HOT = frozenset({
    "modrep.hom_space", "modrep.rref", "modrep.kernel_basis", "modrep.m_mul",
    "modrep.classify", "modrep.is_submodule", "modrep.sub_quotient",
    "laurent.poly_gcd", "laurent.in_lattice", "cyclic.leq_G", "cyclic.diamond_step",
})


class Tracer:
    """Span stack with per-name call counts, inclusive and self time.

    ``stats[name]`` is ``[calls, s, self_s]``.  ``s`` counts only the
    outermost activation of a name, so recursion is not counted twice.
    ``spans`` holds ``[id, parent_id, name, start, end]`` for every span
    whose name is not in ``hot``; a hot span passes its recorded ancestor
    on to its children as their parent.
    """

    def __init__(self, clock=time.perf_counter, hot=HOT):
        self.clock = clock
        self.hot = hot
        self.stats = {}
        self.counters = {}
        self.spans = []
        self._stack = []
        self._active = {}

    def enter(self, name):
        parent = self._stack[-1][3] if self._stack else None
        span_id = parent
        if name not in self.hot:
            span_id = len(self.spans)
            self.spans.append([span_id, parent, name, None, None])
        self._stack.append([name, self.clock(), 0.0, span_id])
        self._active[name] = self._active.get(name, 0) + 1

    def exit(self):
        name, start, child_s, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[2] += duration - child_s
        self._active[name] -= 1
        if not self._active[name]:
            stat[1] += duration
        if name not in self.hot:
            self.spans[span_id][3:] = [start, end]
        if self._stack:
            self._stack[-1][2] += duration

    def active(self, name):
        return self._active.get(name, 0) > 0

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _wrapper(tracer, name, fn):
    """The wrapper for one target, with the counters its layer reports."""
    if name == "modrep.submodule_tuples":
        # a generator: its body runs inside whichever span pulls from it
        @functools.wraps(fn)
        def tuples(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.count("modrep.submodule_tuples.yielded")
                yield item
        return tuples
    inner = _span(tracer, name, fn)
    if name == "modrep.rref":
        @functools.wraps(fn)
        def rref(F, A):
            tracer.count("modrep.rref.cells", len(A) * (len(A[0]) if A else 0))
            return inner(F, A)
        return rref
    if name == "modrep.hom_space":
        @functools.wraps(fn)
        def hom_space(M, N):
            if tracer.active("modrep.classify"):
                tracer.count("modrep.classify.hom_calls")
            return inner(M, N)
        return hom_space
    if name == "modrep.is_submodule":
        @functools.wraps(fn)
        def is_submodule(module, sub):
            accepted = inner(module, sub)
            if accepted:
                tracer.count("modrep.is_submodule.accepted")
            return accepted
        return is_submodule
    if name == "modrep.catalog":
        @functools.wraps(fn)
        def catalog_init(self, *args, **kwargs):
            inner(self, *args, **kwargs)
            tracer.count("modrep.catalog.classes", len(self.classes))
            tracer.count("modrep.catalog.mass_checked", len(self.mass_checked))
        return catalog_init
    if name == "hall.fit_and_verify":
        fit_error = sys.modules["hallbases.hall"].FitError

        @functools.wraps(fn)
        def fit_and_verify(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            except fit_error:
                tracer.count("hall.fit_and_verify.escalations")
                raise
        return fit_and_verify
    return inner


def install(tracer):
    """Wrap every target; returns [(original, wrapper, owner or None, attr)]."""
    importlib.import_module("hallbases.cli")  # imports every layer module
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if n == "hallbases" or n.startswith("hallbases.")]
    installed = []
    for mod_name, attr, name in TARGETS:
        mod = sys.modules["hallbases." + mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            wrapper = _wrapper(tracer, name, original)
            setattr(owner, meth, wrapper)
            installed.append((original, wrapper, owner, meth))
            continue
        original = getattr(mod, attr)
        wrapper = _wrapper(tracer, name, original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
        installed.append((original, wrapper, None, attr))
    return installed


def run_traced(stats_path, cli_argv):
    """Run one CLI command under tracing; returns its exit code."""
    import hallbases.cli

    tracer = Tracer()
    install(tracer)
    tracer.enter("cli.main")
    try:
        return hallbases.cli.main(cli_argv)
    finally:
        tracer.exit()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"stats": tracer.stats, "counters": tracer.counters,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py STATS.json -- <hallbases cli arguments>")
    sys.exit(run_traced(sys.argv[1], sys.argv[3:]))
