"""Acceptance criteria: one test per numbered requirement, exact equality.

Every check here is a frozen desk-scale instance of a structural statement
and must pass with zero tolerance.  Runtime-bounded criteria assert their
budgets explicitly so a regression in asymptotics fails loudly.
"""

import importlib.util
import pathlib
import random
import time
from fractions import Fraction

from glomega import Enveloping, UElement, direct_sum_C, matrix_algebra, nonassoc_witness, null_algebra
from glomega.current import (
    degeneration_check,
    generator_bracket_display_check,
    graded_basis,
    graded_dim,
    path_algebra_iso_check,
)
from glomega.doublepoisson import (
    check_double_jacobi,
    check_leibniz,
    check_letter_bracket,
    check_skew,
    pvdw_equivalence,
    symbol_match_smd,
    symbol_match_stc,
)
from glomega.suites import SuiteConfig, _random_table, run_suite
from glomega.words import basis_words, cyclic, words_up_to
from glomega.yangian import independence_check, pbw_suite, t_gen

S_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2))
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
GRID_TABLES = (direct_sum_C(1), direct_sum_C(2), null_algebra(2))


def _benchmark_expected():
    """``perfbench/expected.py`` as a module, read only and kept out of ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("perfbench_expected", PERFBENCH / "expected.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_01_projection_consistency_grid():
    start = time.monotonic()
    for spec in GRID_TABLES:
        for n in (2, 3, 4):
            ctx = Enveloping.get(spec, n)
            low = Enveloping.get(spec, n - 1)
            top = min(2, n - 1)  # the target context only has indices < n
            for s in S_VALUES:
                for i in range(1, top + 1):
                    for j in range(1, top + 1):
                        for w in words_up_to(spec, 3):
                            got = ctx.project_down(ctx.t_elem(i, j, w, s))
                            assert got == low.t_elem(i, j, w, s), (spec.name, n, s, i, j, w)
    assert time.monotonic() - start < 120


def test_criterion_02_reparametrization_grid():
    pairs = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1)), (Fraction(0), Fraction(5, 2)))
    for spec in GRID_TABLES:
        for n in (2, 3, 4):
            ctx = Enveloping.get(spec, n)
            for (s, s2) in pairs:
                for i in (1, 2):
                    for j in (1, 2):
                        for w in words_up_to(spec, 3):
                            assert ctx.reparametrize_check(i, j, w, s, s2), (spec.name, n, s, s2, i, j, w)


def test_criterion_03_hand_derived_anchor():
    spec = direct_sum_C(1)
    ctx = Enveloping.get(spec, 2)
    low = Enveloping.get(spec, 1)
    for s in S_VALUES:
        got = ctx.t_elem(1, 1, (0, 0), s)
        # E11^2 + E21 E12 + E11 - E22 + (-2-s) E11, PBW-sorted by hand
        expected = UElement(
            ctx,
            {
                ((1, 1, 0), (1, 1, 0)): 1,
                ((2, 1, 0), (1, 2, 0)): 1,
                ((1, 1, 0),): Fraction(1) + Fraction(-2) - s,
                ((2, 2, 0),): -1,
            }
        )
        assert got == expected
        proj = ctx.project_down(got)
        assert proj == UElement(low, {((1, 1, 0), (1, 1, 0)): 1, ((1, 1, 0),): Fraction(-1) - s})


def test_criterion_04_pbw_rank_equals_count():
    for d in (1, 2):
        assert pbw_suite(direct_sum_C(1), d, 3, 2, 4, Fraction(0))["full_rank"]
        assert pbw_suite(direct_sum_C(2), d, 2, 2, 4, Fraction(0))["full_rank"]
    rep = pbw_suite(direct_sum_C(1), 2, 3, 2, 4, Fraction(0))
    assert rep["count"] == 39 and rep["rank"] == 39
    rep = pbw_suite(direct_sum_C(2), 2, 2, 2, 4, Fraction(0))
    assert rep["count"] == 61 and rep["rank"] == 61
    g = t_gen(1, 1, (0,))
    status, vec = independence_check([(g,), (g,)], direct_sum_C(1), 4, Fraction(0))
    assert status == "dependent"
    assert vec == {0: Fraction(1), 1: Fraction(-1)}


def test_criterion_05_double_bracket_axioms_and_equivalence():
    for spec in (direct_sum_C(1), direct_sum_C(2), null_algebra(2)):
        assert check_skew(spec, 3) is None
        assert check_leibniz(spec, 3) is None
        assert check_double_jacobi(spec, 3) is None
    m = matrix_algebra(2)
    assert check_skew(m, 2) is None
    assert check_leibniz(m, 2) is None
    assert check_double_jacobi(m, 2) is None
    rng = random.Random(20240)
    tables = [_random_table(rng.randint(1, 3), rng) for _ in range(49)]
    # the draw is the one the benchmark replays to name its expected fuzz checks
    drawn = [(t.dim, tuple(sorted((ij, tuple(sorted(e.items()))) for ij, e in t.table.items()))) for t in tables]
    assert drawn == _benchmark_expected().fuzz_tables(20240)
    tables.append(nonassoc_witness())
    for tbl in tables:
        rep = pvdw_equivalence(tbl, 2)
        assert rep["equivalent"] is True, tbl.name
        # skew-symmetry and both Leibniz rules hold for any bilinear table
        maxlen = 2 if tbl.dim <= 2 else 1
        assert check_letter_bracket(tbl) is None, tbl.name
        assert check_skew(tbl, maxlen) is None, tbl.name
        assert check_leibniz(tbl, maxlen) is None, tbl.name
    witness_rep = pvdw_equivalence(nonassoc_witness(), 2)
    assert witness_rep["assoc_witness"] is not None
    assert witness_rep["jacobi_witness"] is not None


def test_criterion_06_symbol_match_linear_bracket():
    start = time.monotonic()
    for spec in (direct_sum_C(1), direct_sum_C(2)):
        for lx in (1, 2):
            for ly in (1, 2):
                if lx + ly > 3:
                    continue
                for x in basis_words(spec, lx):
                    for y in basis_words(spec, ly):
                        for i in (1, 2):
                            for j in (1, 2):
                                for k in (1, 2):
                                    for l in (1, 2):
                                        # a verdict that differs at N=5 raises
                                        assert symbol_match_smd(spec, i, j, k, l, x, y, 2, Fraction(0), 4) is True
    assert time.monotonic() - start < 300


def test_criterion_07_symbol_match_trace_bracket():
    for spec in (direct_sum_C(1), matrix_algebra(2)):
        reps = {
            ln: sorted({cyclic(w) for w in basis_words(spec, ln)}) for ln in (1, 2)
        }
        for lx in (1, 2):
            for ly in range(lx, 3):
                n = max(2, min(4, lx + ly))
                for x in reps[lx]:
                    for y in reps[ly]:
                        if lx == ly and y < x:
                            continue
                        assert symbol_match_stc(spec, x, y, n) is True, (spec.name, x, y)


def test_criterion_08_degeneration_to_current_bracket():
    s = Fraction(0)
    for spec in (direct_sum_C(1), direct_sum_C(2)):
        assert generator_bracket_display_check(spec, 2, s, 4) is None
        for lx in (1, 2):
            for ly in (1, 2):
                for x in basis_words(spec, lx):
                    for y in basis_words(spec, ly):
                        assert degeneration_check(spec, 1, 1, 1, 1, x, y, 1, s), (spec.name, x, y)
                        for i in (1, 2):
                            for j in (1, 2):
                                for k in (1, 2):
                                    for l in (1, 2):
                                        assert degeneration_check(
                                            spec, i, j, k, l, x, y, 2, s
                                        ), (spec.name, i, j, k, l, x, y)


def test_criterion_09_graded_dimension_formula():
    for L in (1, 2, 3):
        spec = direct_sum_C(L)
        for d in (1, 2, 3):
            for n in (0, 1, 2, 3):
                want = d * d * L ** (n + 1)
                assert graded_dim(spec, d, n) == want
                assert len(graded_basis(spec, d, n)) == want
        assert path_algebra_iso_check(L, 3)


def test_criterion_10_invariant_dimension_stabilization():
    for spec in (direct_sum_C(1), direct_sum_C(2)):
        for d in (0, 1):
            expected = 1 + spec.dim + d * d * spec.dim
            dims = [Enveloping.get(spec, n).invariant_dim(d, 1) for n in (3, 4, 5)]
            assert dims == [expected] * 3, (spec.name, d, dims)
    # degree-2 Casimir count over the one-letter table: classes of length
    # 1 and 2 give 1 + 1 + (2 at degree two: squared length-1 and length-2)
    dims = [Enveloping.get(direct_sum_C(1), n).invariant_dim(0, 2) for n in (3, 4, 5)]
    assert dims == [4, 4, 4]


def test_criterion_11_full_default_run(all_run, baseline_fingerprints):
    start = time.monotonic()
    rep = run_suite(SuiteConfig(suite="all"))
    elapsed = time.monotonic() - start
    assert rep.summary["fail"] == 0
    assert rep.summary["not-stabilized"] == 0
    assert rep.exit_code() == 0
    # an untraced run repeats the traced run of conftest.py
    assert rep.fingerprint() == all_run["fingerprint"]
    # the behaviour anchor: statuses, witnesses, configs and VERSION of the default run
    assert rep.fingerprint() == baseline_fingerprints["full-run"]
    assert elapsed < 900
