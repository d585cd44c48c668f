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
    OmegaElement,
    Scalar,
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
from .words import (
    CyclicWord,
    TensorElement,
    basis_words,
    coagulate,
    coagulate_word,
    compositions,
    cyclic_canonical,
    project_cyclic,
    tensor_word,
    words_up_to,
)
from .linalg import SpanSolver, kernel_basis, primitive, rank, rref, subspace_equal
from .enveloping import Enveloping, UElement
from .yangian import (
    TGen,
    YExpression,
    evaluate,
    independence_check,
    multiply_y,
    necklace_count,
    pbw_monomials,
    pbw_suite,
    shift,
    shift_automorphism_check,
    splitting_expected,
    splitting_probe,
    t_gen,
)
from .doublepoisson import (
    DoubleTensor,
    NecklacePoly,
    PGen,
    SPoly,
    TripleTensor,
    check_double_jacobi,
    check_leibniz,
    check_letter_bracket,
    check_skew,
    double_bracket,
    poisson_pgen,
    poisson_smd,
    poisson_stc,
    pvdw_equivalence,
    symbol_match_smd,
    symbol_match_stc,
    trace_bracket,
    trace_elem,
    triple_jacobi_sum,
)
from .current import (
    AlElement,
    CurrentElement,
    bimodule_iso_check,
    check_current_antisym,
    check_current_jacobi,
    check_odot_assoc,
    current_unit_check,
    degeneration_check,
    find_noncommutative_pair,
    generator_bracket_display_check,
    gl_current_bracket,
    graded_basis,
    graded_dim,
    odot_words,
    path_algebra_iso_check,
    t_expansion,
)
from .suites import Report, SuiteConfig, resolve_omega, run_suite

__version__ = "0.1.0"
