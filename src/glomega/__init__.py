"""Exact computer algebra for centralizer constructions over a coefficient table.

The package builds U(gl(N, Omega)) for a finite-dimensional table Omega with
exact rational arithmetic, realizes the centralizer generators t_ij(x; N; s),
the projections between consecutive sizes, linear double Poisson brackets on
the tensor algebra with their matrix-symbol and necklace quotients, and the
graded current algebra that the construction degenerates to.  Every claimed
identity is checked by explicit computation; two-size stabilization stands in
for statements about the inverse limit.
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
from .yangian import (
    independence_check,
    necklace_count,
    pbw_monomials,
    pbw_suite,
    splitting_expected,
    splitting_probe,
    t_gen,
)
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
from .current import (
    bimodule_iso_check,
    degeneration_check,
    gl_current_bracket,
    graded_dim,
    odot_words,
    path_algebra_iso_check,
)

__version__ = "0.1.0"
