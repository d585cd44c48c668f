"""Ordered-monomial bases: ranks, dependencies, dimension probes."""

import itertools
from fractions import Fraction

import pytest

from glomega import Enveloping, StabilizationError, StructureError, direct_sum_C, matrix_algebra
from glomega import yangian
from glomega.current import (
    _bracket_remainder,
    find_noncommutative_pair,
    generator_bracket_display_check,
    graded_basis,
    graded_dim,
)
from glomega.enveloping import stable
from glomega.linalg import SpanSolver
from glomega.omega import vec_add
from glomega.suites import _degeneration_tuples
from glomega.words import basis_words
from glomega.yangian import (
    _symbol_column,
    _symbol_solver,
    euler_phi,
    evaluate,
    independence_check,
    necklace_count,
    pbw_monomials,
    pbw_suite,
    shift_automorphism_check,
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
                        top = ctx.e_symbol(mono).homogeneous(total).terms
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
# its range with StructureError, as compositions and current_basis_keys do
_NEGATIVE_CAPS = [
    ("splitting_expected", lambda: splitting_expected(1, 1, -1)),
    ("splitting_probe", lambda: splitting_probe(_C, 0, -1, (3, 4))),
    ("necklace_count-0", lambda: necklace_count(2, 0)),
    ("necklace_count-neg", lambda: necklace_count(2, -1)),
    ("pbw_monomials-maxdeg", lambda: pbw_monomials(_C, 1, 2, -1)),
    ("pbw_monomials-maxlen", lambda: pbw_monomials(_C, 1, -1, 2)),
    ("pbw_suite", lambda: pbw_suite(_C, 1, 2, -1, 3, 0)),
    ("invariant_dim", lambda: Enveloping.get(_C, 3).invariant_dim(0, -1)),
    ("invariant_basis", lambda: Enveloping.get(_C, 3).invariant_basis(0, -1)),
    ("graded_basis-1", lambda: graded_basis(direct_sum_C(2), 1, -1)),
    ("graded_basis-2", lambda: graded_basis(direct_sum_C(2), 1, -2)),
    # a matrix size below its range: d >= 1 for t-monomials and currents,
    # d >= 0 for the splitting count, where d = 0 is the whole gl(N)
    ("pbw_monomials-d0", lambda: pbw_monomials(_C, 0, 2, 2)),
    ("pbw_monomials-dneg", lambda: pbw_monomials(_C, -1, 2, 2)),
    ("pbw_suite-d0", lambda: pbw_suite(_C, 0, 2, 2, 3, 0)),
    ("graded_basis-d0", lambda: graded_basis(_C, 0, 1)),
    ("graded_basis-dneg", lambda: graded_basis(_C, -2, 1)),
    ("graded_dim-d0", lambda: graded_dim(_C, 0, 1)),
    ("graded_dim-dneg", lambda: graded_dim(_C, -1, 1)),
    ("splitting_expected-dneg", lambda: splitting_expected(1, -1, 1)),
    # a scan that visits nothing would read as a pass: no word pair to
    # compare, no index tuple to bracket
    ("find_noncommutative_pair-1", lambda: find_noncommutative_pair(matrix_algebra(2), 1)),
    ("find_noncommutative_pair-0", lambda: find_noncommutative_pair(matrix_algebra(2), 0)),
    ("generator_bracket_display_check-d0", lambda: generator_bracket_display_check(_C, 0, 0, 2)),
]


@pytest.mark.parametrize("call", [c[1] for c in _NEGATIVE_CAPS], ids=[c[0] for c in _NEGATIVE_CAPS])
def test_negative_caps_raise_structure_error(call):
    with pytest.raises(StructureError):
        call()


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


def test_shift_check_not_stabilized(monkeypatch):
    # the unshifted coordinates double at N+1 only, so the two verdicts disagree
    import glomega.yangian as yg

    t_expansion = yg.t_expansion

    def planted(ctx, u, d, s):
        got = t_expansion(ctx, u, d, s)
        return [(mono, 2 * c) for mono, c in got] if ctx.n == 4 and s == 0 else got

    monkeypatch.setattr(yg, "t_expansion", planted)
    g, h = t_gen(1, 2, (0,)), t_gen(2, 1, (0,))
    with pytest.raises(StabilizationError) as exc:
        shift_automorphism_check(g, h, S0, Fraction(1), direct_sum_C(1), 3)
    assert str(exc.value) == "shift by 1 differs at N=3 and N=4"


def test_shift_automorphism():
    g = t_gen(1, 2, (0,))
    h = t_gen(2, 1, (0,))
    assert shift_automorphism_check(g, h, S0, Fraction(1), direct_sum_C(1), 3) is True
    assert shift_automorphism_check(g, h, S0, Fraction(-3, 2), direct_sum_C(1), 3) is True
    g2, h2 = t_gen(1, 2, (0,)), t_gen(1, 1, (0, 1))
    assert shift_automorphism_check(g2, h2, S0, Fraction(5, 2), direct_sum_C(2), 3) is True
