"""Ordered-monomial bases: ranks, dependencies, dimension probes."""

import itertools
from fractions import Fraction

import pytest

from glomega import Enveloping, StabilizationError, StructureError, direct_sum_C, matrix_algebra, null_algebra
from glomega import yangian
from glomega.current import (
    _bracket_remainder,
    bimodule_iso_check,
    check_odot_assoc,
    current_basis_keys,
    degeneration_check,
    find_noncommutative_pair,
    generator_bracket_display_check,
    graded_basis,
    graded_dim,
    path_algebra_iso_check,
)
from glomega.doublepoisson import check_skew, spoly_symbol_image, symbol_match_smd
from glomega.enveloping import stable
from glomega.linalg import SpanSolver, kernel_basis
from glomega.omega import AlgebraSpec, vec_add
from glomega.suites import SuiteConfig, _degeneration_tuples
from glomega.words import basis_words, coagulate, compositions, words_up_to
from glomega.yangian import (
    _symbol_column,
    _symbol_solver,
    euler_phi,
    evaluate,
    independence_check,
    necklace_count,
    pbw_monomials,
    pbw_suite,
    splitting_expected,
    splitting_probe,
    t_expansion,
    t_gen,
)

S0 = Fraction(0)


def test_pbw_monomial_counts():
    # one letter, d=2: 4 index pairs per word length 1..3 = 12 generators;
    # <= 2 factors, total length <= 3:
    #   empty(1) + singles(12) + len1*len1(10) + len1*len2(16) = 39
    monos = pbw_monomials(direct_sum_C(1), 2, 3, 2)
    assert len(monos) == 39
    # two letters, d=2: 4*(2 + 4) = 24 generators up to length 2;
    #   empty(1) + singles(24) + len1*len1 pairs C(8+1, 2)=36 = 61
    monos2 = pbw_monomials(direct_sum_C(2), 2, 2, 2)
    assert len(monos2) == 61
    # ordered: factors weakly increase under the generator key
    for mono in monos2:
        words = [(i, j, len(w), w) for i, j, w in mono]
        assert words == sorted(words)


def test_pbw_full_rank():
    rep = pbw_suite(direct_sum_C(1), 2, 3, 2, 4, S0)
    assert rep == {"count": 39, "rank": 39, "full_rank": True}
    rep2 = pbw_suite(direct_sum_C(2), 2, 2, 2, 4, S0)
    assert rep2 == {"count": 61, "rank": 61, "full_rank": True}


def test_planted_dependency_is_flagged():
    g = t_gen(1, 1, (0,))
    assert g == (1, 1, (0,))
    status, vec = independence_check([(g,), (g,)], direct_sum_C(1), 3, S0)
    assert status == "dependent"
    assert vec == {0: Fraction(1), 1: Fraction(-1)}


def test_independent_set_certified():
    g = t_gen(1, 1, (0,))
    h = t_gen(1, 2, (0,))
    status, vec = independence_check([(g,), (h,), (g, h)], direct_sum_C(1), 3, S0)
    assert (status, vec) == ("independent", None)


def test_pbw_collision_that_vanishes_one_size_up_raises():
    # the pbw.rank record of `omega run pbw --omega C --n-max 2`
    with pytest.raises(StabilizationError) as exc:
        pbw_suite(direct_sum_C(1), 2, 3, 2, 2, S0)
    assert str(exc.value) == (
        "count=39 rank=28 dependency={1: Fraction(2, 1), 2: Fraction(-1, 1), 10: Fraction(1, 1), 18: Fraction(-1, 1)}"
    )


def test_independence_check_raises_on_a_dependency_that_fails_at_n_plus_1():
    monos = pbw_monomials(direct_sum_C(1), 2, 3, 2)
    with pytest.raises(StabilizationError) as exc:
        independence_check(monos, direct_sum_C(1), 2, S0)
    assert str(exc.value) == (
        "dependency {1: Fraction(2, 1), 2: Fraction(-1, 1), 10: Fraction(1, 1), 18: Fraction(-1, 1)} at N=2 fails at N=3"
    )
    assert independence_check(monos, direct_sum_C(1), 4, S0) == ("independent", None)


def test_t_expansion_rejects_dependent_symbols():
    # at N=1 the symbols of t11(0) t11(0) and t11(0,0) are both E11^2, so
    # an expansion would not be canonical
    ctx = Enveloping.get(direct_sum_C(1), 1)
    with pytest.raises(StructureError):
        t_expansion(ctx, ctx.t_elem(1, 1, (0, 0), S0), 1, S0)


@pytest.mark.parametrize(
    "spec, ds, totals, sizes",
    (
        (direct_sum_C(1), (1, 2), (1, 2, 3), (4, 5)),
        (direct_sum_C(2), (1, 2), (1, 2, 3), (4, 5, 6)),
        (matrix_algebra(2), (1,), (1, 2), (3,)),
    ),
    ids=lambda v: getattr(v, "name", None),
)
def test_symbol_columns_read_in_s_are_the_top_parts_in_u(spec, ds, totals, sizes):
    # the weight classes partition the (d, total) column list, in list
    # order; each column, a product of e_top in S, equals the top part of
    # the e-symbol multiplied out in U, has its class's weight, and its
    # class's solver solves that top part to the column alone
    for n in sizes:
        ctx = Enveloping(spec, n)
        for d in ds:
            for total in totals:
                monos = _exact_length(spec, d, total)
                classes = {}
                for pos, mono in enumerate(monos):
                    weight = tuple(sum((i == a) - (j == a) for i, j, _w in mono) for a in range(1, d + 1))
                    classes.setdefault(weight, []).append(pos)
                seen = []
                for weight, want in classes.items():
                    solver, members = _symbol_solver(ctx, d, total, weight)
                    assert members == [(pos, monos[pos]) for pos in want], (n, d, total, weight)
                    seen += want
                    for idx, (_pos, mono) in enumerate(members):
                        top = spoly_symbol_image({mono: 1}, ctx).homogeneous(total).terms
                        assert _symbol_column(ctx, mono) == top, (n, d, mono)
                        assert all(ctx.mono_weight(m, a) == weight[a - 1] for m in top for a in range(1, d + 1))
                        assert solver.solve(top) == {idx: 1}, (n, d, mono)
                assert sorted(seen) == list(range(len(monos)))


def _exact_length(spec, d, total):
    return [m for m in pbw_monomials(spec, d, total, total) if sum(len(w) for _i, _j, w in m) == total]


def _reference_expansion(ctx, u, d, s, solvers):
    # the expansion solved against every column of a degree at once, with
    # one SpanSolver per (d, total), kept in ``solvers`` across calls
    out, rem, deg = [], dict(u.terms), u.degree()
    while rem:
        if deg == 0:
            out.append(((), rem[()]))
            break
        if (d, deg) not in solvers:
            monos = _exact_length(ctx.omega, d, deg)
            solver = SpanSolver()
            assert all(solver.add(_symbol_column(ctx, m)) is None for m in monos)
            solvers[d, deg] = (solver, monos)
        solver, monos = solvers[d, deg]
        combo = solver.solve({m: c for m, c in rem.items() if len(m) == deg})
        if combo is None:
            return None
        for idx, c in sorted(combo.items()):
            out.append((monos[idx], c))
            vec_add(rem, evaluate(monos[idx], ctx, s).terms, -c)
        top = max(map(len, rem), default=-1)
        if top >= deg:
            return None
        deg = top
    return out


@pytest.mark.parametrize("spec", (direct_sum_C(1), direct_sum_C(2)), ids=lambda spec: spec.name)
def test_t_expansion_matches_one_solver_over_every_column(spec):
    # every remainder of the degeneration grid (d <= 2, word lengths <= 2,
    # at N = d + lx + ly and N + 1) expands to the same list, in the same
    # order, as with one solver over all columns of each degree
    count = 0
    for d in (1, 2):
        for lx, ly in itertools.product((1, 2), repeat=2):
            for n in (d + lx + ly, d + lx + ly + 1):
                ctx, solvers = Enveloping(spec, n), {}
                for x, y, tup in itertools.product(basis_words(spec, lx), basis_words(spec, ly), _degeneration_tuples(d)):
                    rem = _bracket_remainder(ctx, *tup, x, y, S0)
                    got = t_expansion(ctx, rem, d, S0)
                    assert got is not None and got == _reference_expansion(ctx, rem, d, S0, solvers), (n, d, x, y, tup)
                    count += 1
    assert count == {1: 56, 2: 504}[spec.dim]


def test_t_expansion_rejects_a_layer_whose_top_does_not_drop(monkeypatch):
    # the solve is exact, so subtracting a peeled layer always clears its
    # degree; an evaluate whose first result carries one extra top-degree
    # monomial (E_12) leaves the degree where it was, and the expansion is None
    ctx = Enveloping(direct_sum_C(1), 2)
    u = ctx.t_elem(1, 1, (0,), S0)
    assert t_expansion(ctx, u, 2, S0) == [((t_gen(1, 1, (0,)),), 1)]
    real, calls = yangian.evaluate, []

    def faulty(mono, ctx, s):
        got = real(mono, ctx, s)
        calls.append(mono)
        return got + ctx.gen(1, 2) if len(calls) == 1 else got

    monkeypatch.setattr(yangian, "evaluate", faulty)
    assert t_expansion(ctx, u, 2, S0) is None
    assert calls == [(t_gen(1, 1, (0,)),)]


def test_necklace_and_phi():
    assert [euler_phi(k) for k in (1, 2, 3, 4, 6)] == [1, 1, 2, 2, 2]
    assert necklace_count(2, 1) == 2
    assert necklace_count(2, 2) == 3
    assert necklace_count(2, 3) == 4
    assert necklace_count(3, 2) == 6


def test_splitting_expected_small_values():
    # degree <= 1 dimension: 1 + #classes(1) + d^2 dim
    assert splitting_expected(1, 1, 1) == 3
    assert splitting_expected(2, 1, 1) == 5
    assert splitting_expected(2, 0, 1) == 3
    # degree <= 2, d=0, one letter: 1 + c1 + (c1 choose 2 with repeats) + c2
    assert splitting_expected(1, 0, 2) == 4


def test_splitting_probe_matches():
    rep = splitting_probe(direct_sum_C(1), 0, 2, (3, 4))
    assert rep["match"]
    assert rep["expected"] == 4
    rep2 = splitting_probe(direct_sum_C(2), 1, 1, (3, 4))
    assert rep2["match"] and rep2["expected"] == 5


_C = direct_sum_C(1)

# every exported count or enumeration refuses a cap or a matrix size below
# its range with StructureError, as compositions and current_basis_keys do;
# each case is a call of the bad value and the value, which is below the
# range (or above it, where the range has a top)
_NEGATIVE_CAPS = [
    ("splitting_expected", lambda v: splitting_expected(1, 1, v), -1),
    ("splitting_probe", lambda v: splitting_probe(_C, 0, v, (3, 4)), -1),
    ("necklace_count-0", lambda v: necklace_count(2, v), 0),
    ("necklace_count-neg", lambda v: necklace_count(2, v), -1),
    ("pbw_monomials-maxdeg", lambda v: pbw_monomials(_C, 1, 2, v), -1),
    ("pbw_monomials-maxlen", lambda v: pbw_monomials(_C, 1, v, 2), -1),
    ("pbw_suite", lambda v: pbw_suite(_C, 1, 2, v, 3, 0), -1),
    ("invariant_dim", lambda v: Enveloping.get(_C, 3).invariant_dim(0, v), -1),
    ("invariant_basis", lambda v: Enveloping.get(_C, 3).invariant_basis(0, v), -1),
    ("monomials", lambda v: Enveloping.get(_C, 3).monomials(v), -1),
    ("graded_basis-1", lambda v: graded_basis(direct_sum_C(2), 1, v), -1),
    ("graded_basis-2", lambda v: graded_basis(direct_sum_C(2), 1, v), -2),
    # a negative word length, refused when called rather than scanning no word
    ("basis_words", lambda v: basis_words(_C, v), -1),
    ("words_up_to", lambda v: words_up_to(_C, v), -1),
    # a matrix size below its range: d >= 1 for t-monomials and currents,
    # d >= 0 for the splitting count, where d = 0 is the whole gl(N)
    ("pbw_monomials-d0", lambda v: pbw_monomials(_C, v, 2, 2), 0),
    ("pbw_monomials-dneg", lambda v: pbw_monomials(_C, v, 2, 2), -1),
    ("pbw_suite-d0", lambda v: pbw_suite(_C, v, 2, 2, 3, 0), 0),
    ("graded_basis-d0", lambda v: graded_basis(_C, v, 1), 0),
    ("graded_basis-dneg", lambda v: graded_basis(_C, v, 1), -2),
    ("graded_dim-d0", lambda v: graded_dim(_C, v, 1), 0),
    ("graded_dim-dneg", lambda v: graded_dim(_C, v, 1), -1),
    ("splitting_expected-dneg", lambda v: splitting_expected(1, v, 1), -1),
    # a table has dimension >= 1, as AlgebraSpec demands
    ("necklace_count-dim0", lambda v: necklace_count(v, 2), 0),
    ("necklace_count-dimneg", lambda v: necklace_count(v, 2), -1),
    # the totient is defined for k >= 1 only
    ("euler_phi-0", lambda v: euler_phi(v), 0),
    ("euler_phi-neg", lambda v: euler_phi(v), -3),
    ("splitting_expected-dim0", lambda v: splitting_expected(v, 1, 2), 0),
    ("splitting_expected-dimneg", lambda v: splitting_expected(v, 1, 2), -2),
    ("splitting_expected-dimneg-deg0", lambda v: splitting_expected(v, 0, 0), -2),
    # a scan that visits nothing would read as a pass: no word pair to
    # compare, no index tuple to bracket, no ideal vector below degree 1
    ("find_noncommutative_pair-1", lambda v: find_noncommutative_pair(matrix_algebra(2), v), 1),
    ("find_noncommutative_pair-0", lambda v: find_noncommutative_pair(matrix_algebra(2), v), 0),
    ("generator_bracket_display_check-d0", lambda v: generator_bracket_display_check(_C, v, 0, 2), 0),
    ("ideal_intersection_check-C", lambda v: Enveloping.get(_C, 2).ideal_intersection_check(v), 0),
    ("ideal_intersection_check-mat2", lambda v: Enveloping.get(matrix_algebra(2), 2).ideal_intersection_check(v), 0),
    ("check_odot_assoc", lambda v: check_odot_assoc(_C, v), 2),
    ("check_skew", lambda v: check_skew(_C, v), 0),
    ("path_algebra_iso_check-L", lambda v: path_algebra_iso_check(v, 1), 0),
    ("path_algebra_iso_check-maxgrade", lambda v: path_algebra_iso_check(1, v), -1),
    ("bimodule_iso_check", lambda v: bimodule_iso_check(_C, v), 0),
    ("current_basis_keys", lambda v: current_basis_keys(_C, 1, v), -1),
    # sizes: of a table, of a composition, of gl(N)
    ("AlgebraSpec", lambda v: AlgebraSpec(v), 0),
    ("direct_sum_C", lambda v: direct_sum_C(v), 0),
    ("null_algebra", lambda v: null_algebra(v), 0),
    ("matrix_algebra", lambda v: matrix_algebra(v), 0),
    ("compositions", lambda v: compositions(v), 0),
    ("coagulate", lambda v: coagulate(_C, [{0: 1}, {0: 1}], (v, 2 - v)), 0),
    ("Enveloping", lambda v: Enveloping(_C, v), 0),
    # True once found the table's context of n = 1
    ("Enveloping.get", lambda v: (Enveloping.get(_C, 1), Enveloping.get(_C, v)), 0),
    ("is_in_centralizer-neg", lambda v: Enveloping.get(_C, 3).is_in_centralizer(Enveloping.get(_C, 3).one(), v), -1),
    ("is_in_centralizer-above", lambda v: Enveloping.get(_C, 3).is_in_centralizer(Enveloping.get(_C, 3).one(), v), 4),
    ("SuiteConfig-n_min", lambda v: SuiteConfig(suite="pbw", n_min=v), 0),
    ("SuiteConfig-n_max", lambda v: SuiteConfig(suite="pbw", n_min=1, n_max=v, d=1), 0),
    ("SuiteConfig-d", lambda v: SuiteConfig(suite="pbw", d=v), 0),
    ("SuiteConfig-max_len", lambda v: SuiteConfig(suite="pbw", max_len=v), 0),
    ("SuiteConfig-max_deg", lambda v: SuiteConfig(suite="pbw", max_deg=v), 0),
    # 1-based matrix indices, and the block d they lie in
    ("t_gen", lambda v: t_gen(v, 1, (0,)), 0),
    ("degeneration_check-d", lambda v: degeneration_check(_C, 1, 1, 1, 1, (0,), (0,), v, 0), 0),
    ("degeneration_check-index", lambda v: degeneration_check(_C, 1, v, 1, 1, (0,), (0,), 1, 0), 2),
    ("symbol_match_smd-d", lambda v: symbol_match_smd(_C, 1, 1, 1, 1, (0,), (0,), v, 0, 3), 0),
    ("symbol_match_smd-index", lambda v: symbol_match_smd(_C, 1, 1, v, 1, (0,), (0,), 1, 0, 3), 2),
    # the indices of a context's own elements, checked on every call: after
    # the memo of index 1 is filled, True and 1.0 would be read as 1
    ("gen-i", lambda v: Enveloping.get(_C, 2).gen(v, 1), 0),
    ("gen-j", lambda v: Enveloping.get(_C, 2).gen(1, v), 3),
    ("e_elem", lambda v: (Enveloping.get(_C, 2).e_elem(1, 2, (0,)), Enveloping.get(_C, 2).e_elem(v, 2, (0,))), 0),
    ("e_top", lambda v: (Enveloping.get(_C, 2).e_top(1, 2, (0,)), Enveloping.get(_C, 2).e_top(1, v, (0,))), 3),
    ("t_elem", lambda v: (Enveloping.get(_C, 2).t_elem(1, 2, (0,), 0), Enveloping.get(_C, 2).t_elem(v, 2, (0,), 0)), 0),
    ("mono_weight", lambda v: Enveloping.get(_C, 3).mono_weight(((1, 2, 0),), v), 0),
    ("t_expansion", lambda v: t_expansion(Enveloping.get(_C, 2), Enveloping.get(_C, 2).one(), v, 0), 0),
    ("kernel_basis", lambda v: kernel_basis([], v), -1),
]

# beside each case's own value: a float, and a bool, which is an int to Python
_NOT_INTS = (("float", 1.5), ("bool", True))


@pytest.mark.parametrize(
    "call, value",
    [(c[1], c[2]) for c in _NEGATIVE_CAPS] + [(c[1], v) for c in _NEGATIVE_CAPS for _kind, v in _NOT_INTS],
    ids=[c[0] for c in _NEGATIVE_CAPS] + ["%s-%s" % (c[0], kind) for c in _NEGATIVE_CAPS for kind, _v in _NOT_INTS],
)
def test_negative_caps_raise_structure_error(call, value):
    with pytest.raises(StructureError, match="must be an integer"):
        call(value)


def test_a_stable_verdict_needs_a_size():
    # no size would leave no verdict to agree on
    with pytest.raises(StructureError):
        stable(_C, (), lambda ctx: True, repr)
    with pytest.raises(StructureError):
        splitting_probe(direct_sum_C(1), 1, 1, ())


def _expand_product(ctx, a, b, d):
    return t_expansion(ctx, ctx.multiply(evaluate((a,), ctx, S0), evaluate((b,), ctx, S0)), d, S0)


def test_t_expansion_keeps_the_square():
    g = t_gen(1, 1, (0,))
    expansion = dict(_expand_product(Enveloping.get(direct_sum_C(1), 3), g, g, 1))
    assert expansion[(g, g)] == 1


def test_t_expansion_evaluates_to_the_product():
    spec = direct_sum_C(2)
    gens = [t_gen(1, 2, (0,)), t_gen(2, 1, (1,)), t_gen(1, 1, (0, 1))]
    for a in gens:
        for b in gens:
            for n in (4, 5):
                ctx = Enveloping.get(spec, n)
                expansion = _expand_product(ctx, a, b, 2)
                total = sum((evaluate(mono, ctx, S0).scale(c) for mono, c in expansion), ctx.zero())
                prod = ctx.multiply(evaluate((a,), ctx, S0), evaluate((b,), ctx, S0))
                assert total == prod, (a, b, n)
                assert expansion == _reference_expansion(ctx, prod, 2, S0, {}), (a, b, n)


def test_t_expansion_of_scalars_and_zero():
    ctx = Enveloping.get(direct_sum_C(1), 3)
    assert t_expansion(ctx, ctx.one().scale(6), 1, S0) == [((), 6)]
    assert t_expansion(ctx, ctx.zero(), 1, S0) == []


def test_t_expansion_rejects_an_element_of_another_context():
    # another table at the same size, and the same table at another size
    u = Enveloping.get(null_algebra(1), 3).t_elem(1, 2, (0, 0), S0)
    for ctx in (Enveloping.get(direct_sum_C(1), 3), Enveloping.get(u.owner.omega, 4)):
        with pytest.raises(StructureError, match="different enveloping context"):
            t_expansion(ctx, u, 2, S0)
