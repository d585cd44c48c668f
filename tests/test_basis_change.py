"""Basis change as a second oracle: a table and its copy in another basis are one algebra.

The copy has basis v_i = sum_a P[i][a] u_a for an invertible rational P, so
every suite must give each record the same status on both tables.
"""

from fractions import Fraction

import pytest

from glomega import AlgebraSpec, Enveloping, direct_sum_C, matrix_algebra, save_algebra
from glomega.current import graded_dim
from glomega.omega import _acc
from glomega.suites import SUITES, SuiteConfig, resolve_omega, run_suite

P2 = [[1, 2], [1, 3]]
# unitriangular: ones on the diagonal and the superdiagonal
P4 = [[1 if j in (i, i + 1) else 0 for j in range(4)] for i in range(4)]


def _inverse(p):
    """Gauss-Jordan inverse of an invertible rational matrix."""
    n = len(p)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _moved(spec, p):
    """The same algebra written in the basis v_i = sum_a p[i][a] u_a.

    v_i v_j = sum_{a,b} p[i][a] p[j][b] u_a u_b, and u_k = sum_l q[k][l] v_l
    with q the inverse of p.
    """
    q = _inverse(p)
    table = {}
    for i in range(spec.dim):
        for j in range(spec.dim):
            in_u = {}
            for a, pa in enumerate(p[i]):
                for b, pb in enumerate(p[j]):
                    for k, c in spec.product(a, b).items():
                        _acc(in_u, k, pa * pb * c)
            in_v = {}
            for k, c in in_u.items():
                for l, qkl in enumerate(q[k]):
                    _acc(in_v, l, c * qkl)
            table[(i, j)] = in_v
    return AlgebraSpec(spec.dim, table=table, name="moved(%s)" % spec.name)


def test_transport_is_a_basis_change():
    for spec, p in ((direct_sum_C(2), P2), (matrix_algebra(2), P4)):
        moved = _moved(spec, p)
        assert moved.table != spec.table
        assert _moved(moved, _inverse(p)).table == spec.table


def _statuses(rep, token):
    return {(r.name, r.config.replace("omega=" + token, "")): r.status for r in rep.records}


RUNS = [(suite, "C^2", {}) for suite in SUITES[:-1]] + [
    ("projection", "null(2)", {"n_max": 3}),
    ("double", "null(2)", {}),
    ("current", "null(2)", {}),
    ("double", "nonassoc", {}),
    ("projection", "mat(2)", {"n_max": 3}),
    ("double", "mat(2)", {}),
    ("current", "mat(2)", {}),
]


@pytest.fixture(scope="module")
def moved_tokens(tmp_path_factory):
    """Each table of RUNS next to the path of its moved copy."""
    folder = tmp_path_factory.mktemp("moved")
    tokens = {}
    for token in dict.fromkeys(t for _suite, t, _kw in RUNS):
        spec = resolve_omega(token)
        path = str(folder / ("%d.json" % len(tokens)))
        save_algebra(_moved(spec, P2 if spec.dim == 2 else P4), path)
        tokens[token] = path
    return tokens


@pytest.mark.parametrize("suite, token, kwargs", RUNS, ids=["%s-%s" % (s, t) for s, t, _kw in RUNS])
def test_moved_table_gives_the_same_statuses(suite, token, kwargs, moved_tokens):
    moved = moved_tokens[token]
    original = _statuses(run_suite(SuiteConfig(suite, omega=token, **kwargs)), token)
    transported = _statuses(run_suite(SuiteConfig(suite, omega=moved, **kwargs)), moved)
    assert original and transported == original
    if token == "nonassoc":
        assert "fail" in {status for (name, _c), status in original.items() if name == "double.jacobi"}


@pytest.mark.parametrize("token", ["C^2", "null(2)", "mat(2)"])
def test_moved_table_gives_the_same_dimensions(token, moved_tokens):
    spec, moved = resolve_omega(token), resolve_omega(moved_tokens[token])
    for d in (1, 2):
        for n in (0, 1, 2):
            assert graded_dim(moved, d, n) == graded_dim(spec, d, n)
    for d in range(4):
        assert Enveloping.get(moved, 3).invariant_dim(d, 1) == Enveloping.get(spec, 3).invariant_dim(d, 1)
