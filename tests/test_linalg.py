"""Exact sparse linear algebra: spans, dependencies, kernels."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from glomega.linalg import (
    SpanSolver,
    coordinate_intersection,
    kernel_basis,
    primitive,
    rank,
    rref,
    subspace_equal,
    vec_add,
)


def _combine(cols, combo):
    acc = {}
    for ci, coef in combo.items():
        vec_add(acc, cols[ci], coef)
    return acc


def test_solver_solve_small_system():
    solver = SpanSolver()
    solver.add({0: Fraction(1), 1: Fraction(1)}, "a")
    solver.add({1: Fraction(1)}, "b")
    sol = solver.solve({0: Fraction(2), 1: Fraction(3)})
    assert sol == {"a": Fraction(2), "b": Fraction(1)}
    assert solver.solve({2: Fraction(1)}) is None
    assert solver.rank == 2


def test_solver_reports_dependency_combination():
    solver = SpanSolver()
    v0 = {0: Fraction(1), 1: Fraction(2)}
    v1 = {1: Fraction(1)}
    assert solver.add(dict(v0), 0) is None
    assert solver.add(dict(v1), 1) is None
    dep = solver.add({0: Fraction(3), 1: Fraction(4)}, 2)
    assert dep is not None
    assert _combine([v0, v1], dep) == {0: Fraction(3), 1: Fraction(4)}


def test_solver_combination_survives_back_substitution():
    # pivots arriving out of order force elimination into existing rows;
    # the tracked combinations must stay exact through that step
    cols = [
        {1: Fraction(1), 2: Fraction(1)},
        {0: Fraction(1), 1: Fraction(1)},
        {0: Fraction(1), 2: Fraction(2)},
    ]
    solver = SpanSolver()
    for ci, v in enumerate(cols):
        solver.add(dict(v), ci)
    rhs = {0: Fraction(4), 1: Fraction(1), 2: Fraction(3)}
    sol = solver.solve(dict(rhs))
    assert sol is not None
    assert _combine(cols, sol) == rhs


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_solver_randomized_consistency(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    cols = []
    solver = SpanSolver()
    for ci in range(rng.randint(2, 7)):
        v = {k: Fraction(rng.randint(-3, 3)) for k in range(n)}
        v = {k: c for k, c in v.items() if c}
        dep = solver.add(dict(v), ci)
        cols.append(v)
        if dep is not None:
            assert _combine(cols, dep) == v
    target = {}
    for ci, v in enumerate(cols):
        vec_add(target, v, Fraction(rng.randint(-2, 2)))
    sol = solver.solve(dict(target))
    assert sol is not None
    assert _combine(cols, sol) == target


def test_rank_and_rref_are_basis_independent():
    a = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
    b = [{0: Fraction(2), 1: Fraction(3)}, {0: Fraction(1), 1: Fraction(2)}]
    assert rank(a) == 2
    assert subspace_equal(a, b)
    assert rref(a) == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_kernel_basis_simple_relation():
    # single constraint x0 + x1 = 0 in two unknowns
    kern = kernel_basis([{0: Fraction(1), 1: Fraction(1)}], 2)
    assert len(kern) == 1
    (v,) = kern
    assert v == {1: Fraction(1), 0: Fraction(-1)}


def test_coordinate_intersection():
    vecs = [
        {0: Fraction(1), 2: Fraction(1)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    inside = lambda k: k != 0
    # coordinate 0 must vanish, leaving the single direction e1 + e2
    assert coordinate_intersection(vecs, inside) == [{1: Fraction(1), 2: Fraction(1)}]
    vecs.append({0: Fraction(1)})
    # now the span is everything, so the intersection is the full inside plane
    assert coordinate_intersection(vecs, inside) == [{1: Fraction(1)}, {2: Fraction(1)}]


def test_primitive_normalization():
    v = {0: Fraction(-2, 3), 1: Fraction(4, 3)}
    assert primitive(v) == {0: Fraction(1), 1: Fraction(-2)}
    assert primitive({}) == {}


def test_primitive_is_exact_on_large_ints():
    # int / int would round through a float: 2 * 3**40 / 2 is off by 33
    got = primitive({0: 2 * 3 ** 40, 1: 2})
    assert got == {0: 3 ** 40, 1: 1}
    assert all(type(v) is Fraction for v in got.values())
