"""Exact computer algebra for centralizer constructions over a coefficient table.

The package builds U(gl(N, Omega)) for a finite-dimensional table Omega with
exact rational arithmetic, realizes the centralizer generators t_ij(x; N; s),
the projections between consecutive sizes, linear double Poisson brackets on
the tensor algebra with their matrix-symbol and necklace quotients, and the
graded current algebra that the construction degenerates to.  Every claimed
identity is checked by explicit computation; two-size stabilization stands in
for statements about the inverse limit.

Importing the package loads ``omega``, ``enveloping``, ``doublepoisson`` and
``suites``, in that order.  The two top layers, ``yangian`` and ``current``,
load the first time one of their names is read from the package (a PEP 562
module ``__getattr__``), or when a suite that runs them starts, so a double
or symbols run never compiles them.  Such a name is looked up in its layer on
every read and never cached here, so a name patched in its layer shows
through the package.
"""

from .omega import (
    AlgebraSpec,
    StabilizationError,
    StructureError,
    as_scalar,
    check_associativity,
    detect_unit,
    direct_sum_C,
    from_dict,
    load_algebra,
    matrix_algebra,
    multiply,
    nonassoc_witness,
    null_algebra,
    save_algebra,
    to_dict,
)
from .enveloping import Enveloping, UElement
from .doublepoisson import (
    check_double_jacobi,
    check_leibniz,
    check_letter_bracket,
    check_skew,
    double_bracket,
    poisson_pgen,
    poisson_stc,
    pvdw_equivalence,
    symbol_match_smd,
    symbol_match_stc,
    trace_bracket,
)
from .suites import VERSION as __version__

# name -> the layer that defines it, for the two layers loaded on first use
_LAZY = {
    "independence_check": "yangian",
    "necklace_count": "yangian",
    "pbw_monomials": "yangian",
    "pbw_suite": "yangian",
    "splitting_expected": "yangian",
    "splitting_probe": "yangian",
    "t_gen": "yangian",
    "bimodule_iso_check": "current",
    "degeneration_check": "current",
    "gl_current_bracket": "current",
    "graded_dim": "current",
    "odot_words": "current",
    "path_algebra_iso_check": "current",
}


def __getattr__(name):
    layer = _LAZY.get(name)
    if layer is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    import importlib  # imported here so the package gains no name; the interpreter has loaded it already

    return getattr(importlib.import_module("." + layer, __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
