"""Current algebra over a table: products, gradings, isomorphism checks."""

import itertools
import random
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
    nonassoc_witness,
    null_algebra,
)
from glomega import current as cur
from glomega.current import (
    _phi,
    bimodule_iso_check,
    check_current_antisym,
    check_current_jacobi,
    check_odot_assoc,
    current_basis_keys,
    current_jacobi_sum,
    current_unit_check,
    degeneration_check,
    find_noncommutative_pair,
    generator_bracket_display_check,
    gl_current_bracket,
    graded_basis,
    graded_dim,
    odot,
    odot_words,
    path_algebra_iso_check,
    shifted_degree,
    t_expansion,
)
from glomega.enveloping import stable
from glomega.linalg import SpanSolver
from glomega.omega import _acc, vec_add
from glomega.suites import _random_table
from glomega.words import basis_words, words_up_to
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


def test_letters_outside_the_table_raise():
    # a letter away from the junction, one at it, a negative one, and one met through the bracket
    spec = direct_sum_C(1)
    for x, y in (((0,), (0, 7)), ((3,), (0,)), ((0,), (-1,))):
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.0"):
            odot_words(spec, x, y)
    with pytest.raises(StructureError, match=r"letters must lie in 0\.\.0"):
        gl_current_bracket(spec, {(1, 1, (3,)): 1}, {(1, 1, (0,)): 1})


def test_current_bracket_checks_keys_whose_pairs_do_not_meet():
    # (1, 2) and (1, 2) do not meet in either order, so no junction product
    # is formed; the keys are checked all the same
    spec = direct_sum_C(1)
    with pytest.raises(StructureError, match=r"letters must lie in 0\.\.0"):
        gl_current_bracket(spec, {(1, 2, (3,)): 1}, {(1, 2, (0,)): 1})
    with pytest.raises(StructureError, match=r"letters must lie in 0\.\.0"):
        gl_current_bracket(spec, {(1, 2, (0,)): 1}, {(1, 2, (-1,)): 1})
    with pytest.raises(StructureError, match="nonempty"):
        gl_current_bracket(spec, {(1, 2, ()): 1}, {(1, 2, (0,)): 1})


def test_current_bracket_rejects_matrix_indices_below_one():
    spec = direct_sum_C(1)
    for a, b in (
        ({(0, 1, (0,)): 1}, {(1, 0, (0,)): 1}),  # these meet, and gave {(0, 0, (0,)): 1, (1, 1, (0,)): -1}
        ({(0, -4, (0,)): 1}, {(1, 2, (0,)): 1}),
        ({(1, 1, (0,)): 1}, {(1, -1, (0,)): 1}),
    ):
        with pytest.raises(StructureError, match="matrix indices must be >= 1"):
            gl_current_bracket(spec, a, b)


def test_odot_grade_additivity():
    spec = direct_sum_C(2)
    assert odot(spec, {(0, 1): 1}, {(1,): 1}) == {(0, 1): 1}
    # grade(x) = len(x) - 1 is additive under odot
    m = matrix_algebra(2)
    for x in words_up_to(m, 2):
        for y in words_up_to(m, 2):
            for w in odot(m, {x: 1}, {y: 1}):
                assert len(w) - 1 == (len(x) - 1) + (len(y) - 1)


def test_odot_is_bilinear_and_keeps_its_order():
    # the junction product of sums is the sum of the word products, in order
    m = matrix_algebra(2)
    a = {(0, 1): 2, (1,): Fraction(-1, 3)}
    b = {(2,): 1, (1, 3): Fraction(5, 2)}
    want = {}
    for x, cx in a.items():
        for y, cy in b.items():
            vec_add(want, odot_words(m, x, y), cx * cy)
    assert odot(m, a, b) == want
    assert odot(m, b, a) != want  # e12 e21 = e11 but e21 e12 = e22
    assert odot(m, a, {}) == {} and odot(m, {}, b) == {}


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
    a, b, c = ({tuple(w): 1} for w in (wa, wb, wc))
    assert odot(spec, odot(spec, a, b), c) == odot(spec, a, odot(spec, b, c))


def test_noncommutativity_witness():
    pair = find_noncommutative_pair(direct_sum_C(2), 3)
    assert pair is not None
    x, y = pair
    spec = direct_sum_C(2)
    assert odot_words(spec, x, y) != odot_words(spec, y, x)
    # the null table collapses every product, so no witness exists
    assert find_noncommutative_pair(null_algebra(2), 3) is None


def _reference_odot_assoc(spec, cap):
    """The scan as a fixed word list filtered by total length."""
    words = list(words_up_to(spec, cap - 2))
    for wx in words:
        for wy in words:
            if len(wx) + len(wy) >= cap:
                continue
            for wz in words:
                if len(wx) + len(wy) + len(wz) > cap:
                    continue
                x, y, z = {wx: 1}, {wy: 1}, {wz: 1}
                if odot(spec, odot(spec, x, y), z) != odot(spec, x, odot(spec, y, z)):
                    return (wx, wy, wz)
    return None


def _reference_noncommutative_pair(spec, cap):
    words = list(words_up_to(spec, cap - 1))
    for wx in words:
        for wy in words:
            if len(wx) + len(wy) <= cap and odot_words(spec, wx, wy) != odot_words(spec, wy, wx):
                return (wx, wy)
    return None


def test_odot_scans_agree_with_the_filtered_word_lists():
    # the scans cap each word by what the earlier ones leave of the total, so
    # they visit the filtered lists' words in the same (length, word) order
    tables = [nonassoc_witness(), matrix_algebra(2), null_algebra(2), direct_sum_C(2)]
    tables += [_random_table(rng.randint(1, 2), rng) for rng in map(random.Random, range(30))]
    found = 0
    for spec in tables:
        for cap in (3, 4, 5):
            want = _reference_odot_assoc(spec, cap)
            assert check_odot_assoc(spec, cap) == want, (spec.table, cap)
            found += want is not None
        for cap in (2, 3, 4):
            want = _reference_noncommutative_pair(spec, cap)
            assert find_noncommutative_pair(spec, cap) == want, (spec.table, cap)
            found += want is not None
    assert found == 82  # of the 204 scans


def test_unit_transfer():
    for spec in (direct_sum_C(1), direct_sum_C(2), matrix_algebra(2)):
        rep = current_unit_check(spec)
        assert rep == {"omega_has_unit": True, "acts_as_unit": True, "passed": True}
    rep = current_unit_check(null_algebra(2))
    assert rep["omega_has_unit"] is False
    assert rep["passed"] is True


def test_current_bracket_hand_case():
    spec = direct_sum_C(1)
    a = {(1, 1, (0,)): 1}
    b = {(1, 2, (0,)): 1}
    assert gl_current_bracket(spec, a, b) == {(1, 2, (0,)): 1}
    assert gl_current_bracket(spec, a, a) == {}
    # [E12(x), E21(y)] = E11(x(.)y) - E22(y(.)x) over C^2, bilinear in both slots
    c2 = direct_sum_C(2)
    got = gl_current_bracket(c2, {(1, 2, (0, 1)): 2}, {(2, 1, (1,)): 1, (2, 1, (0,)): 3})
    assert got == {(1, 1, (0, 1)): 2, (2, 2, (0, 1)): -6}


def test_current_jacobi_sum_adds_all_three_terms():
    """The Jacobi sum is [[a, b], c] + [[b, c], a] + [[c, a], b], written out here."""
    spec = matrix_algebra(2)
    a = {(1, 2, (1,)): 1, (1, 1, (0, 2)): -1}
    b = {(2, 1, (2,)): 2}
    c = {(1, 2, (0,)): Fraction(1, 2), (2, 2, (3, 1)): 1}
    br = lambda x, y: gl_current_bracket(spec, x, y)
    terms = [br(br(a, b), c), br(br(b, c), a), br(br(c, a), b)]
    assert all(terms)  # each term is nonzero, so dropping one shows
    want = {}
    for t in terms:
        vec_add(want, t)
    assert current_jacobi_sum(spec, a, b, c) == want == {}
    # on a non-associative table the three terms need not cancel
    bad = nonassoc_witness()
    witness = ((1, 1, (0,)), (1, 1, (1,)), (1, 2, (0,)))
    assert check_current_jacobi(bad, 2, 0) == witness
    assert current_jacobi_sum(bad, *({k: 1} for k in witness)) != {}


def test_current_bracket_axioms():
    for spec in (direct_sum_C(1), direct_sum_C(2)):
        assert check_current_antisym(spec, 2, 1) is None
        assert check_current_jacobi(spec, 2, 1) is None
    assert check_current_jacobi(direct_sum_C(1), 2, 2) is None


def _reference_antisym(spec, d, maxgrade):
    """The first failing pair of the plain loop over all ordered pairs."""
    keys = current_basis_keys(spec, d, maxgrade)
    for ka in keys:
        for kb in keys:
            ba = cur.gl_current_bracket(spec, {kb: 1}, {ka: 1})
            if cur.gl_current_bracket(spec, {ka: 1}, {kb: 1}) != {k: -c for k, c in ba.items()}:
                return (ka, kb)
    return None


def _reference_jacobi(spec, d, maxgrade):
    """The first failing triple of the plain loop over all ordered triples."""
    keys = current_basis_keys(spec, d, maxgrade)
    for ka in keys:
        for kb in keys:
            for kc in keys:
                if current_jacobi_sum(spec, {ka: 1}, {kb: 1}, {kc: 1}):
                    return (ka, kb, kc)
    return None


# (d, grade cap) per table dimension, small enough for the full ordered loops
_SCAN_SIZES = {1: ((1, 2), (2, 1)), 2: ((1, 1), (2, 0))}


def test_current_jacobi_scan_agrees_with_the_ordered_loop():
    # non-associative draws fail Jacobi, so the witnesses are compared as well as the verdicts
    failing = 0
    tables = [nonassoc_witness()] + [_random_table(dim, random.Random(seed)) for seed in range(40) for dim in (1, 2)]
    for spec in tables:
        for d, cap in _SCAN_SIZES[spec.dim]:
            want = _reference_jacobi(spec, d, cap)
            assert check_current_jacobi(spec, d, cap) == want, (spec.table, d, cap)
            failing += want is not None
    assert failing >= 20


def test_current_antisym_scan_agrees_with_the_ordered_loop(monkeypatch):
    # the bracket is antisymmetric by its formula, so planted faults make the pairs that fail
    bracket = cur.gl_current_bracket
    failing = 0
    for seed in range(30):
        rng = random.Random(seed)
        spec = _random_table(rng.randint(1, 2), rng)
        d, cap = _SCAN_SIZES[spec.dim][seed % 2]
        keys = current_basis_keys(spec, d, cap)
        bad = {(ka, kb) for ka in keys for kb in keys if rng.random() < 0.02}

        def planted(spec, a, b):
            out = bracket(spec, a, b)
            return {**out, (9, 9, (0,)): 1} if (*a, *b) in bad and len(a) == len(b) == 1 else out

        monkeypatch.setattr(cur, "gl_current_bracket", planted)
        want = _reference_antisym(spec, d, cap)
        assert check_current_antisym(spec, d, cap) == want, (seed, sorted(bad))
        failing += want is not None
    assert failing >= 10


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


def _phi_with_unit_head(unit, word):
    """A planted fault: phi pads with the first basis term of the unit only."""
    return _phi(dict([min(unit.items())]), word)


def _balancing_without_last_junction(spec, k):
    """A planted fault: the balancing relations of every junction but the last."""
    solver = SpanSolver()
    for t in range(k - 2):
        for left in basis_words(spec, 2 * t + 1):
            for y, w, z in itertools.product(range(spec.dim), repeat=3):
                for right in basis_words(spec, 2 * k - 2 * t - 3):
                    vec = {}
                    for c, coeff in spec.product(y, w).items():
                        _acc(vec, left + (c, z) + right, coeff)
                    for c, coeff in spec.product(w, z).items():
                        _acc(vec, left + (y, c) + right, -coeff)
                    if vec:
                        solver.add(vec)
    return solver


@pytest.mark.parametrize(
    "name, planted",
    [("_phi", _phi_with_unit_head), ("_balancing_solver", _balancing_without_last_junction)],
    ids=["unit-head", "last-junction"],
)
def test_bimodule_iso_fails_on_planted_faults(monkeypatch, name, planted):
    monkeypatch.setattr(cur, name, planted)
    assert not bimodule_iso_check(matrix_algebra(2), 2)
    assert not bimodule_iso_check(direct_sum_C(2), 2)
    # dim 1 cannot see either fault: its unit has one term and every relation is zero
    assert bimodule_iso_check(direct_sum_C(1), 3)


def test_bimodule_iso_refuses_grades_below_one():
    for maxgrade in (0, -1):
        with pytest.raises(StructureError, match="maxgrade"):
            bimodule_iso_check(matrix_algebra(2), maxgrade)


def test_path_algebra_iso_refuses_negative_grades():
    with pytest.raises(StructureError, match="maxgrade"):
        path_algebra_iso_check(2, -1)
    assert path_algebra_iso_check(2, 0)


def test_odot_assoc_refuses_total_length_below_three():
    for total in (2, 1, 0):
        with pytest.raises(StructureError, match="total length"):
            check_odot_assoc(matrix_algebra(2), total)
    assert check_odot_assoc(matrix_algebra(2), 3) is None


def test_current_scans_refuse_caps_that_scan_nothing():
    spec = matrix_algebra(2)
    for d, maxgrade in ((2, -1), (0, 1), (-1, 0)):
        for scan in (current_basis_keys, check_current_antisym, check_current_jacobi):
            with pytest.raises(StructureError, match="d >= 1 and maxgrade >= 0"):
                scan(spec, d, maxgrade)
    assert len(current_basis_keys(spec, 1, 0)) == graded_dim(spec, 1, 0)


def test_generator_bracket_display():
    assert generator_bracket_display_check(direct_sum_C(1), 2, Fraction(0), 4) is None
    assert generator_bracket_display_check(direct_sum_C(2), 2, Fraction(0), 4) is None
    assert generator_bracket_display_check(direct_sum_C(2), 1, Fraction(1), 3) is None


def _inline_remainder(ctx, i, j, k, l, x, y, s):
    """The bracket remainder with the current bracket written out by its two deltas."""
    rem = ctx.commutator(ctx.t_elem(i, j, x, s), ctx.t_elem(k, l, y, s))
    if k == j:
        for w, c in odot_words(ctx.omega, x, y).items():
            rem = rem - ctx.t_elem(i, l, w, s).scale(c)
    if i == l:
        for w, c in odot_words(ctx.omega, y, x).items():
            rem = rem + ctx.t_elem(k, j, w, s).scale(c)
    return rem


@pytest.mark.parametrize("spec, max_total", [(direct_sum_C(2), 4), (matrix_algebra(2), 3)], ids=["C^2", "mat(2)"])
def test_bracket_remainder_subtracts_the_written_out_bracket(spec, max_total):
    # every index tuple with d <= 2, words of one and two letters (on mat(2) only
    # pairs of total length <= 3), at s = 0 and s = 5/2
    ctx = Enveloping.get(spec, 2)
    words = list(words_up_to(spec, 2))
    pairs = [(x, y) for x in words for y in words if len(x) + len(y) <= max_total]
    for s in (Fraction(0), Fraction(5, 2)):
        for (x, y), idx in itertools.product(pairs, itertools.product((1, 2), repeat=4)):
            assert cur._bracket_remainder(ctx, *idx, x, y, s) == _inline_remainder(ctx, *idx, x, y, s), (x, y, idx, s)


def test_t_expansion_recovers_single_generator():
    spec = direct_sum_C(1)
    ctx = Enveloping.get(spec, 3)
    s = Fraction(0)
    u = ctx.t_elem(1, 1, (0, 0), s)
    exp = t_expansion(ctx, u, 1, s)
    assert exp == [((t_gen(1, 1, (0, 0)),), Fraction(1))]
    assert shifted_degree((t_gen(1, 1, (0, 0)),)) == 1
    assert shifted_degree((t_gen(1, 1, (0,)), t_gen(1, 1, (0,)))) == 0


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


def test_degeneration_check_rejects_the_raw_commutator(monkeypatch):
    # with no current bracket subtracted, the remainder is [t_12(0 0), t_21(0)]
    # itself, of shifted degree 1 > len(x) + len(y) - 3 = 0, so the
    # certificate must reject it; a bound one too loose would accept it
    assert degeneration_check(direct_sum_C(1), 1, 2, 2, 1, (0, 0), (0,), 2, 0)
    monkeypatch.setattr(cur, "gl_current_bracket", lambda omega, a, b: {})
    assert not degeneration_check(direct_sum_C(1), 1, 2, 2, 1, (0, 0), (0,), 2, 0)


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


def _never(by_n):
    raise AssertionError("witness called although the sizes agree: %r" % (by_n,))


def test_stable_returns_the_shared_verdict_or_raises():
    spec = direct_sum_C(1)
    seen = []

    def verdict(ctx):
        seen.append(ctx)
        return True

    assert stable(spec, (4, 3), verdict, _never) is True
    # the verdict runs on the table's own context at each size, in the order given
    assert [ctx.n for ctx in seen] == [4, 3]
    assert all(ctx is Enveloping.get(spec, ctx.n) for ctx in seen)
    assert stable(spec, (3, 4, 5), lambda ctx: 5, _never) == 5
    dims = {3: 5, 4: 5, 5: 6}
    with pytest.raises(StabilizationError) as exc:
        stable(spec, (3, 4, 5), lambda ctx: dims[ctx.n], lambda by_n: "dims differ %r" % (by_n,))
    assert str(exc.value) == "dims differ {3: 5, 4: 5, 5: 6}"
