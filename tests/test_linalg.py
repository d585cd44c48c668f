"""Exact sparse linear algebra: spans, dependencies, kernels."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glomega.enveloping import Enveloping, UElement
from glomega.linalg import (
    SpanSolver,
    kernel_basis,
    primitive,
    rank,
    rref,
    vec_add,
)
from glomega.omega import AlgebraSpec, direct_sum_C


def _combine(cols, combo):
    acc = {}
    for ci, coef in combo.items():
        vec_add(acc, cols[ci], coef)
    return acc


def test_solver_solve_small_system():
    solver = SpanSolver()
    solver.add({0: Fraction(1), 1: Fraction(1)})
    solver.add({1: Fraction(1)})
    sol = solver.solve({0: Fraction(2), 1: Fraction(3)})
    assert sol == {0: Fraction(2), 1: Fraction(1)}
    assert solver.solve({2: Fraction(1)}) is None
    assert solver.rank == 2


def test_solver_reports_dependency_combination():
    solver = SpanSolver()
    v0 = {0: Fraction(1), 1: Fraction(2)}
    v1 = {1: Fraction(1)}
    assert solver.add(dict(v0)) is None
    assert solver.add(dict(v1)) is None
    dep = solver.add({0: Fraction(3), 1: Fraction(4)})
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
    for v in cols:
        solver.add(dict(v))
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
    for _ in range(rng.randint(2, 7)):
        v = {k: Fraction(rng.randint(-3, 3)) for k in range(n)}
        v = {k: c for k, c in v.items() if c}
        dep = solver.add(dict(v))
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
    assert rref(a) == rref(b)
    assert rref(a) == [{0: Fraction(1)}, {1: Fraction(1)}]


def test_kernel_basis_simple_relation():
    # single constraint x0 + x1 = 0 in two unknowns
    kern = kernel_basis([{0: Fraction(1), 1: Fraction(1)}], 2)
    assert len(kern) == 1
    (v,) = kern
    assert v == {1: Fraction(1), 0: Fraction(-1)}


def test_primitive_normalization():
    v = {0: Fraction(-2, 3), 1: Fraction(4, 3)}
    assert primitive(v) == {0: Fraction(1), 1: Fraction(-2)}
    assert primitive({}) == {}


def test_primitive_is_exact_on_large_ints():
    # int / int would round through a float: 2 * 3**40 / 2 is off by 33
    got = primitive({0: 2 * 3 ** 40, 1: 2})
    assert got == {0: 3 ** 40, 1: 1}
    assert all(type(v) is Fraction for v in got.values())


def _solver_values(solver):
    return [c for row, combo in solver.rows.values() for c in (*row.values(), *combo.values())]


def test_unit_pivots_keep_integer_columns_integral():
    # every pivot is +-1, so no row, combination or solution leaves int; each
    # new pivot is eliminated from the rows before it
    cols = [{0: 1, 1: 2, 2: -3}, {1: -1, 2: 4, 3: 2}, {2: 1, 3: -5}, {3: -1}]
    solver = SpanSolver()
    for v in cols:
        assert solver.add(dict(v)) is None
    assert solver.rank == 4
    values = _solver_values(solver)
    assert values and all(type(v) is int for v in values)
    assert any(v not in (0, 1, -1) for v in values)
    combo = solver.add(_combine(cols, {0: 3, 1: -2, 3: 4}))
    assert combo == {0: 3, 1: -2, 3: 4} and all(type(v) is int for v in combo.values())
    rhs = _combine(cols, {0: 1, 1: 2, 2: -1, 3: 7})
    sol = solver.solve(rhs)
    assert sol == {0: 1, 1: 2, 2: -1, 3: 7} and all(type(v) is int for v in sol.values())
    assert all(type(v) is int for r in rref(cols) for v in r.values())


def test_pivot_of_two_gives_exact_halves():
    solver = SpanSolver()
    assert solver.add({0: 2, 1: 1}) is None
    assert solver.rows[0] == ({0: 1, 1: Fraction(1, 2)}, {0: Fraction(1, 2)})
    assert type(solver.rows[0][0][1]) is Fraction
    assert solver.add({1: -2}) is None
    assert solver.rows == {
        0: ({0: 1}, {0: Fraction(1, 2), 1: Fraction(1, 4)}),
        1: ({1: 1}, {1: Fraction(-1, 2)}),
    }
    assert solver.solve({0: 1, 1: 1}) == {0: Fraction(1, 2), 1: Fraction(-1, 4)}


def test_dependent_column_takes_a_number():
    # numbering by rank would give the third column the dependent column's 1,
    # and {0: 1, 1: 1} would solve as {0: 1, 1: 1}
    solver = SpanSolver()
    assert solver.add({0: 1}) is None
    assert solver.add({0: 2}) == {0: 2}
    assert solver.add({1: 1}) is None
    assert solver.solve({0: 1, 1: 1}) == {0: 1, 2: 1}


def _sparse_system(rng, nkeys):
    # a drawn zero is kept as an explicit entry, as public input may hold one
    vecs = []
    for _ in range(rng.randint(1, 8)):
        v = {}
        for k in range(nkeys):
            if rng.random() < 0.4:
                v[k] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        vecs.append(v)
    return vecs


def _int_system(rng, nkeys):
    # plain ints: pivots of +-1 keep a row integral, pivots of +-2 make it a Fraction row
    vecs = []
    for _ in range(rng.randint(1, 8)):
        v = {}
        for k in range(nkeys):
            if rng.random() < 0.4:
                v[k] = rng.choice((-2, -1, 0, 1, 2, 3))
        vecs.append(v)
    return vecs


def _nonzero(v):
    return {k: c for k, c in v.items() if c}


def test_span_solver_agrees_with_sympy_domain_matrix():
    # a second, independent exact solver: sympy's DomainMatrix over QQ
    matrices = pytest.importorskip("sympy.polys.matrices")
    from sympy import QQ

    def dm(vecs, keys):
        rows = [[QQ(v.get(k, 0).numerator, v.get(k, 0).denominator) for k in keys] for v in vecs]
        return matrices.DomainMatrix(rows, (len(rows), len(keys)), QQ)

    # Fraction draws, and plain int draws from their own generator, so that
    # int rows and Fraction rows mix in one solver
    rng, ints = random.Random(20240), random.Random(20241)
    mixed = 0
    for _ in range(150):
        nkeys = rng.randint(1, 7)
        for draws, draw in ((rng, _sparse_system), (ints, _int_system)):
            vecs = draw(draws, nkeys)
            keys = list(range(nkeys))
            assert rank(vecs) == dm(vecs, keys).rank() == len(rref(vecs))
            # one kernel vector per free column: 1 there, 0 at every other free column
            _reduced, pivots = dm(vecs, keys).rref()
            free = [k for k in keys if k not in pivots]
            kernel = kernel_basis(vecs, nkeys)
            assert len(kernel) == nkeys - dm(vecs, keys).rank() == len(free)
            for f, z in zip(free, kernel):
                assert {g: z.get(g, 0) for g in free} == {g: int(g == f) for g in free}
                assert all(sum(c * z.get(k, 0) for k, c in v.items()) == 0 for v in vecs)
            # pivots in key order, and in reversed order through the keys k -> -k
            for sign, cols in ((1, keys), (-1, keys[::-1])):
                reduced, _pivots = dm(vecs, cols).rref()
                want = [
                    {sign * k: Fraction(int(x.numerator), int(x.denominator)) for k, x in zip(cols, row) if x}
                    for row in reduced.to_list()
                ]
                assert rref([{sign * k: c for k, c in v.items()} for v in vecs]) == [r for r in want if r]
            solver = SpanSolver()
            for v in vecs:
                dep = solver.add(dict(v))
                if dep is not None:
                    assert _combine(vecs, dep) == _nonzero(v)
            mixed += set(map(type, _solver_values(solver))) == {int, Fraction}
            for rhs in (draw(draws, nkeys)[0], _combine(vecs, {0: Fraction(3, 2), len(vecs) - 1: -1})):
                sol = solver.solve(dict(rhs))
                solvable = dm(vecs + [rhs], keys).rank() == dm(vecs, keys).rank()
                assert (sol is not None) == solvable
                if sol is not None:
                    assert _combine(vecs, sol) == _nonzero(rhs)
    assert mixed >= 20


# explicit zeros in public input; at a fault these loop forever or divide by zero
_ZERO_CASES = [
    ("add-after-pivot", "s = SpanSolver(); s.add({0: 1}); r = (s.add({0: 0, 1: 1}), sorted(s.rows))", (None, [0, 1])),
    ("add-to-empty", "s = SpanSolver(); r = (s.add({0: 0, 1: 1}), sorted(s.rows))", (None, [1])),
    ("contains", "s = SpanSolver(); s.add({0: 1}); r = (s.contains({0: 0}), s.contains({0: 0, 1: 1}))", (True, False)),
    ("solve", "s = SpanSolver(); s.add({0: 1}); s.add({1: 1}); r = s.solve({0: 0, 1: 2})", {1: 2}),
    ("rank", "r = rank([{0: 1}, {0: 0, 1: 1}])", 2),
    ("rref", "r = rref([{0: 1}, {0: 0, 1: 1}])", [{0: 1}, {1: 1}]),
    ("kernel_basis", "r = kernel_basis([{0: 1}, {0: 0, 1: 1}], 3)", [{2: 1}]),
]


@pytest.mark.parametrize("code, expected", [c[1:] for c in _ZERO_CASES], ids=[c[0] for c in _ZERO_CASES])
def test_explicit_zeros_terminate(code, expected):
    # a separate interpreter, so a loop that never ends is cut by the time bound
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    script = "from glomega.linalg import SpanSolver, kernel_basis, rank, rref\n%s\nassert r == %r, r\n" % (code, expected)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr


def _element_terms(coeffs):
    """The terms of the PBW element sum_k c_k E_11(x_k) of U(gl(2, C^2))."""
    return UElement(Enveloping.get(direct_sum_C(2), 2), {((1, 1, k),): c for k, c in coeffs.items()}).terms


# an explicit zero reads as the absent key at every public entry point that takes a raw dict
_ABSENT_CASES = [
    ("primitive", lambda z: primitive({**z, 1: -2})),
    ("primitive-all-zero", lambda z: primitive(z)),
    ("rank", lambda z: rank([{**z, 1: 1}, {0: 1}])),
    ("rref", lambda z: rref([{**z, 1: 1}, {0: 1, 1: 1}])),
    ("kernel_basis", lambda z: kernel_basis([{**z, 1: 1}], 3)),
    ("table-entry", lambda z: AlgebraSpec(2, table={(0, 0): {**z, 1: 1}}).table),
    ("sparse-vector", lambda z: _element_terms({**z, 1: 3})),
]


@pytest.mark.parametrize("build", [c[1] for c in _ABSENT_CASES], ids=[c[0] for c in _ABSENT_CASES])
def test_explicit_zero_reads_as_absent_key(build):
    assert build({0: 0}) == build({})
