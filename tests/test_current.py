"""Current algebra over a table: products, gradings, isomorphism checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glomega import (
    Enveloping,
    StabilizationError,
    StructureError,
    direct_sum_C,
    matrix_algebra,
    null_algebra,
)
from glomega.current import (
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
    shifted_degree,
    t_expansion,
)
from glomega.omega import stable
from glomega.yangian import t_gen


def test_odot_words_junction_products():
    spec = direct_sum_C(2)
    assert odot_words(spec, (0,), (0,)) == {(0,): Fraction(1)}
    assert odot_words(spec, (0,), (1,)) == {}
    assert odot_words(spec, (0, 1), (1, 0)) == {(0, 1, 0): Fraction(1)}
    assert odot_words(spec, (0, 1), (0, 0)) == {}
    m = matrix_algebra(2)
    # junction e12 * e21 = e11
    assert odot_words(m, (0, 1), (2, 3)) == {(0, 0, 3): Fraction(1)}
    with pytest.raises(StructureError):
        odot_words(spec, (), (0,))


def test_odot_grade_additivity():
    spec = direct_sum_C(2)
    a = AlElement.from_word(spec, (0, 1))
    b = AlElement.from_word(spec, (1,))
    prod = a * b
    assert prod == AlElement.from_word(spec, (0, 1))
    assert set(prod.grades()) <= {1}  # grade(x) = len(x) - 1, additive under odot


def test_odot_associativity_exhaustive():
    for spec in (direct_sum_C(1), direct_sum_C(2), null_algebra(2)):
        assert check_odot_assoc(spec, 5) is None
    assert check_odot_assoc(matrix_algebra(2), 4) is None


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_odot_associativity_random_matrix_words(wa, wb, wc):
    spec = matrix_algebra(2)
    a, b, c = (AlElement.from_word(spec, tuple(w)) for w in (wa, wb, wc))
    assert (a * b) * c == a * (b * c)


def test_noncommutativity_witness():
    pair = find_noncommutative_pair(direct_sum_C(2), 3)
    assert pair is not None
    x, y = pair
    spec = direct_sum_C(2)
    assert odot_words(spec, x, y) != odot_words(spec, y, x)
    # the null table collapses every product, so no witness exists
    assert find_noncommutative_pair(null_algebra(2), 3) is None


def test_unit_transfer():
    for spec in (direct_sum_C(1), direct_sum_C(2), matrix_algebra(2)):
        rep = current_unit_check(spec)
        assert rep == {"omega_has_unit": True, "acts_as_unit": True, "passed": True}
    rep = current_unit_check(null_algebra(2))
    assert rep["omega_has_unit"] is False
    assert rep["passed"] is True


def test_current_bracket_hand_case():
    spec = direct_sum_C(1)
    a = CurrentElement.basis(spec, 2, 1, 1, (0,))
    b = CurrentElement.basis(spec, 2, 1, 2, (0,))
    got = gl_current_bracket(a, b)
    assert got == CurrentElement.basis(spec, 2, 1, 2, (0,))
    assert gl_current_bracket(a, a).is_zero()


def test_current_bracket_axioms():
    for spec in (direct_sum_C(1), direct_sum_C(2)):
        assert check_current_antisym(spec, 2, 1) is None
        assert check_current_jacobi(spec, 2, 1) is None
    assert check_current_jacobi(direct_sum_C(1), 2, 2) is None


def test_graded_dim_formula():
    for L in (1, 2, 3):
        spec = direct_sum_C(L)
        for d in (1, 2, 3):
            for n in (0, 1, 2, 3):
                want = d * d * L ** (n + 1)
                assert graded_dim(spec, d, n) == want
                assert len(graded_basis(spec, d, n)) == want
    # non-split table: dimension counts letters, not blocks
    assert graded_dim(matrix_algebra(2), 1, 1) == 16


def test_path_algebra_iso():
    for L in (1, 2, 3):
        assert path_algebra_iso_check(L, 3)


def test_bimodule_iso():
    assert bimodule_iso_check(direct_sum_C(1), 3)
    assert bimodule_iso_check(direct_sum_C(2), 2)
    assert bimodule_iso_check(matrix_algebra(2), 1)
    with pytest.raises(StructureError):
        bimodule_iso_check(null_algebra(2), 2)


def test_generator_bracket_display():
    assert generator_bracket_display_check(direct_sum_C(1), 2, Fraction(0), 4)
    assert generator_bracket_display_check(direct_sum_C(2), 2, Fraction(0), 4)
    assert generator_bracket_display_check(direct_sum_C(2), 1, Fraction(1), 3)


def test_t_expansion_recovers_single_generator():
    spec = direct_sum_C(1)
    ctx = Enveloping.get(spec, 3)
    s = Fraction(0)
    u = ctx.t_elem(1, 1, (0, 0), s)
    exp = t_expansion(ctx, u, 1, s)
    assert exp == [((t_gen(1, 1, (0, 0), s),), Fraction(1))]
    assert shifted_degree((t_gen(1, 1, (0, 0), s),)) == 1
    assert shifted_degree((t_gen(1, 1, (0,), s), t_gen(1, 1, (0,), s))) == 0


def test_degeneration_check_basic_cases():
    C = direct_sum_C(1)
    C2 = direct_sum_C(2)
    s = Fraction(0)
    # abelian d=1 letter case: commutator and display both vanish
    assert degeneration_check(C, 1, 1, 1, 1, (0,), (0,), 1, s)
    # the gl-current display on letters at d=2
    assert degeneration_check(C, 1, 2, 2, 1, (0,), (0,), 2, s)
    # orthogonal letters: display vanishes, commutator drops degree
    assert degeneration_check(C2, 1, 2, 2, 1, (0,), (1,), 2, s)


def test_degeneration_check_length_two_words():
    # both deltas fire and the quadratic remainder must be peeled exactly
    C2 = direct_sum_C(2)
    assert degeneration_check(C2, 1, 1, 1, 1, (0, 1), (1, 0), 2, Fraction(0))
    assert degeneration_check(direct_sum_C(1), 1, 1, 1, 1, (0, 0), (0, 0), 1, Fraction(1))


def test_degeneration_check_argument_validation():
    C = direct_sum_C(1)
    with pytest.raises(StructureError):
        degeneration_check(C, 1, 3, 1, 1, (0,), (0,), 2, Fraction(0))


def test_stabilization_error_is_distinct():
    assert issubclass(StabilizationError, StructureError)


def test_stable_returns_the_shared_verdict_or_raises():
    assert stable({3: True, 4: True}, "unused") is True
    assert stable({3: 5, 4: 5, 5: 5}, "unused") == 5
    with pytest.raises(StabilizationError) as exc:
        stable({3: 5, 4: 5, 5: 6}, "dims differ")
    assert str(exc.value) == "dims differ"
