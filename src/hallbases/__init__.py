"""Exact symbolic computation of affine composition-algebra bases.

Subpackage overview:

- laurent    exact arithmetic in Q[v, v^-1] and Q(v), bar involution, series
- cartan     valued quivers, folding, Cartan data, Euler forms, real roots
- modrep     finite-field module oracle: catalogs, Hom/Ext, Hall numbers, tubes
- hall       per-field twisted Hall algebras and the generic (symbolic) layer
- cyclic     multisegment calculus for nilpotent cyclic-quiver modules
- symfun     partitions, Kostka numbers, H_m / S_lambda inside a Hall algebra
- pbwbasis   index set, order, N / monomial / E / C bases of H^0
- kashiwara  admissible triples, string decompositions, lattice checks
- cli        command-line front end emitting JSON reports

Importing the package puts ``laurent``, ``hall``, ``cyclic``, ``symfun`` and
``pbwbasis`` in ``sys.modules`` as lazy modules: each is compiled and run at
the first read of one of its attributes.  ``from . import hall`` binds the
module without running it, so a CLI command compiles only the layers it
reads (``roots`` reads ``cartan``, ``gf`` and ``modrep``), and every layer is
in ``sys.modules`` for ``perfbench/tracer.py`` to wrap.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name):
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in ("laurent", "hall", "cyclic", "symfun", "pbwbasis"):
    _lazy(_name)
del _name
