"""Double brackets on words, induced symbol brackets, symbol matches."""

import random
import sys
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glomega import (
    AlgebraSpec,
    StructureError,
    direct_sum_C,
    matrix_algebra,
    nonassoc_witness,
    null_algebra,
)
import glomega.doublepoisson as dp
from glomega.doublepoisson import (
    check_double_jacobi,
    check_leibniz,
    check_letter_bracket,
    check_skew,
    double_bracket,
    letter_bracket_expected,
    pgen_key,
    poisson_pgen,
    poisson_smd,
    poisson_stc,
    pvdw_equivalence,
    symbol_match_smd,
    symbol_match_stc,
    trace_bracket,
    triple_jacobi_sum,
)
from glomega.omega import _acc, vec_add
from glomega.suites import SuiteConfig, _random_table, run_suite
from glomega.words import cyclic, words_up_to

TABLES = (direct_sum_C(1), direct_sum_C(2), null_algebra(2), matrix_algebra(2))


# brackets are plain dicts; these helpers stand apart from the module's own loops


def _sum(*tensors):
    out = {}
    for t in tensors:
        vec_add(out, t)
    return out


def _neg(t):
    return {k: -c for k, c in t.items()}


def _moved(t, key):
    """The tensor with every key sent through ``key``, one slot per argument."""
    return {key(*k): c for k, c in t.items()}


def _flip(u, v):
    return (v, u)


def test_letter_bracket_shape():
    spec = direct_sum_C(2)
    # <<u1, u1>> = 1 (x) u1  minus  u1 (x) 1
    got = double_bracket(spec, (0,), (0,))
    assert got == {((), (0,)): Fraction(1), ((0,), ()): Fraction(-1)}
    # orthogonal letters bracket to zero
    assert double_bracket(spec, (0,), (1,)) == {}


def test_letter_bracket_matches_structure_constants():
    for spec in TABLES:
        assert check_letter_bracket(spec) is None


def test_skew_and_leibniz_exhaustive():
    for spec in TABLES:
        cap = 2 if spec.dim >= 4 else 3
        assert check_skew(spec, cap) is None
        assert check_leibniz(spec, cap) is None


def _triple_loop_leibniz(spec, maxlen):
    """check_leibniz as a plain triple loop that brackets afresh for every c."""
    bracket = dp.double_bracket
    heads = [()] + list(words_up_to(spec, maxlen))
    for a in heads:
        for b in heads:
            for c in heads:
                if len(b) + len(c) > maxlen:
                    continue
                # outer actions: (u (x) v) . c = u (x) vc and b . (u (x) v) = bu (x) v
                rhs = _sum(
                    _moved(bracket(spec, a, b), lambda u, v: (u, v + c)),
                    _moved(bracket(spec, a, c), lambda u, v: (b + u, v)),
                )
                if bracket(spec, a, b + c) != rhs:
                    return ("outer", a, b, c)
                # inner actions: b * (u (x) v) = u (x) bv and (u (x) v) * c = uc (x) v
                rhs2 = _sum(
                    _moved(bracket(spec, c, a), lambda u, v: (u, b + v)),
                    _moved(bracket(spec, b, a), lambda u, v: (u + c, v)),
                )
                if bracket(spec, b + c, a) != rhs2:
                    return ("inner", b, c, a)
    return None


def test_leibniz_witness_matches_the_triple_loop(monkeypatch):
    # a bracket that breaks Leibniz at one word pair only
    spec = direct_sum_C(2)
    honest = dp.double_bracket
    for planted in (((0,), (1,)), ((1,), (0,)), ((0, 1), (1,)), ((), (0,)), ((1,), ())):
        def bracket(spec, x, y, planted=planted):
            got = honest(spec, x, y)
            return _sum(got, {((0,), (1,)): 1}) if (tuple(x), tuple(y)) == planted else got

        monkeypatch.setattr(dp, "double_bracket", bracket)
        witness = _triple_loop_leibniz(spec, 2)
        assert witness is not None
        assert check_leibniz(spec, 2) == witness, planted


def _double_loop_skew(spec, maxlen):
    """check_skew as a plain double loop that brackets afresh for every pair."""
    bracket = dp.double_bracket
    heads = [()] + list(words_up_to(spec, maxlen))
    for a in heads:
        for b in heads:
            if bracket(spec, a, b) != _neg(_moved(bracket(spec, b, a), _flip)):
                return (a, b)
    return None


def test_skew_witness_matches_the_double_loop(monkeypatch):
    # a bracket that breaks skew-symmetry at a few word pairs only; a fault at
    # (x, y) also fails at (y, x), so two faults are needed to pin the order
    spec = direct_sum_C(2)
    honest = dp.double_bracket
    for planted in (
        {((0,), (1,))},
        {((1,), (0,))},
        {((1, 1), (1, 1))},
        {((), (0,))},
        {((0,), (1,)), ((0,), (1, 1))},
        {((0,), (1,)), ((1, 1), (0, 1))},
        {((1,), ()), ((0, 1), (0,))},
    ):
        def bracket(spec, x, y, planted=planted):
            got = honest(spec, x, y)
            return _sum(got, {((0,), (1,)): 1}) if (tuple(x), tuple(y)) in planted else got

        monkeypatch.setattr(dp, "double_bracket", bracket)
        witness = _double_loop_skew(spec, 2)
        assert witness is not None
        assert check_skew(spec, 2) == witness, planted


def test_double_jacobi_on_associative_tables():
    for spec in TABLES:
        cap = 2 if spec.dim >= 4 else 3
        assert check_double_jacobi(spec, cap) is None


def _full_jacobi_scan(spec, maxlen):
    """The first triple of the whole W^3 scan, in index order, with a nonzero sum."""
    words, bracket = list(words_up_to(spec, maxlen)), partial(double_bracket, spec)
    for a in words:
        for b in words:
            for c in words:
                if triple_jacobi_sum(bracket, a, b, c):
                    return (a, b, c)
    return None


# the fuzz draw _random_table(3, random.Random(16)), written out; its first
# witness starts at the second letter, after every triple of the first
_FUZZ_FAILING = AlgebraSpec(
    3,
    table={(1, 2): {2: -1, 0: -1}, (2, 1): {0: Fraction(1, 2)}, (2, 2): {0: 1, 1: 1}},
)
# a table whose first witness (i, j, k) has i < k < j
_SHUFFLED_FAILING = AlgebraSpec(3, table={(1, 2): {2: 1}, (2, 0): {1: 1}})


def test_orbit_scan_returns_the_full_scan_witness():
    cases = (
        (nonassoc_witness(), ((0,), (0,), (0,))),
        (_FUZZ_FAILING, ((1,), (1,), (2,))),
        (_SHUFFLED_FAILING, ((0,), (2,), (1,))),
        (matrix_algebra(2), None),
        (direct_sum_C(2), None),
        (null_algebra(2), None),
    )
    for spec, witness in cases:
        assert _full_jacobi_scan(spec, 2) == witness
        assert check_double_jacobi(spec, 2) == witness


def _outer_left(w, t):
    return _moved(t, lambda u1, u2, u3: (w + u1, u2, u3))


def _outer_right(t, w):
    return _moved(t, lambda u1, u2, u3: (u1, u2, u3 + w))


_LETTERS = st.lists(st.integers(0, 2), min_size=1, max_size=2)


def test_a_word_length_cap_below_one_raises():
    # a cap below 1 scans no word, so every check would pass by default
    spec = nonassoc_witness()
    for cap in (0, -1):
        for check in (check_skew, check_leibniz, check_double_jacobi, pvdw_equivalence):
            with pytest.raises(StructureError):
                check(spec, cap)


def test_double_bracket_rejects_letters_outside_the_table():
    spec = nonassoc_witness()
    for x, y in (((0,), (5,)), ((2,), (0,)), ((0,), (-1,)), ((-1, 0), (1,)), ((), (2,)), ((0, 1), (0, 3))):
        with pytest.raises(StructureError):
            double_bracket(spec, x, y)


def test_letter_formula_rejects_letters_outside_the_table():
    spec = direct_sum_C(1)
    for i, j in ((4, 4), (0, 1), (-1, 0)):
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.0"):
            letter_bracket_expected(spec, i, j)


def test_the_jacobi_memo_holds_each_scanned_pair_once(monkeypatch):
    # one memo for the whole scan: every pair is bracketed once, longer right
    # words from the first slot of an inner bracket included.  The scan made
    # 6,079 brackets when the memo was dropped per first word, and 2,996 when
    # those longer right words were bracketed afresh.
    honest = dp.double_bracket
    calls = {}

    def counted(spec, x, y):
        calls[x, y] = calls.get((x, y), 0) + 1
        return honest(spec, x, y)

    monkeypatch.setattr(dp, "double_bracket", counted)
    assert check_double_jacobi(matrix_algebra(2), 2) is None
    assert [pair for pair, n in calls.items() if n > 1] == []
    assert sum(calls.values()) == 1700


# double_bracket calls of one check: each pair at most once, as the eager
# table of every ordered pair of heads had it for skew and Leibniz; the Jacobi
# scans keep their longer right words too (C2 made 94 and 1,802 calls when
# those were bracketed afresh; null(2) has none, since its brackets vanish).
# mat(2)'s Jacobi scan is pinned by the test above.
_CHECK_CALLS = [
    (check_skew, "C2", direct_sum_C(2), 3, 225),
    (check_leibniz, "C2", direct_sum_C(2), 3, 225),
    (check_double_jacobi, "C2", direct_sum_C(2), 2, 90),
    (check_double_jacobi, "C2", direct_sum_C(2), 3, 882),
    (check_skew, "null2", null_algebra(2), 3, 225),
    (check_leibniz, "null2", null_algebra(2), 3, 225),
    (check_double_jacobi, "null2", null_algebra(2), 2, 36),
    (check_double_jacobi, "null2", null_algebra(2), 3, 196),
    (check_skew, "mat2", matrix_algebra(2), 2, 441),
    (check_leibniz, "mat2", matrix_algebra(2), 2, 441),
]


@pytest.mark.parametrize(
    "check, name, spec, cap, expected",
    _CHECK_CALLS,
    ids=["%s-%s-cap%d" % (c[0].__name__, c[1], c[3]) for c in _CHECK_CALLS],
)
def test_each_check_brackets_a_pair_of_heads_once(monkeypatch, check, name, spec, cap, expected):
    honest = dp.double_bracket
    calls = {}

    def counted(spec, x, y):
        calls[x, y] = calls.get((x, y), 0) + 1
        return honest(spec, x, y)

    monkeypatch.setattr(dp, "double_bracket", counted)
    assert check(spec, cap) is None
    assert sum(calls.values()) == expected
    assert [pair for pair, n in calls.items() if n > 1] == []


def _stored(bracket):
    """The memo dict held by a :func:`dp._brackets` closure."""
    cells = dict(zip(bracket.__code__.co_freevars, bracket.__closure__))
    return cells["memo"].cell_contents


@pytest.mark.parametrize(
    "spec",
    [nonassoc_witness(), _FUZZ_FAILING, _SHUFFLED_FAILING],
    ids=["nonassoc", "fuzz_failing", "shuffled_failing"],
)
def test_a_shared_memo_gives_the_witnesses_of_fresh_ones(spec):
    # the suite's order: skew and Leibniz fill the memo the Jacobi scan reads
    shared = dp._brackets(spec)
    for check, cap in ((check_skew, 3), (check_leibniz, 3), (check_double_jacobi, 2)):
        assert check(spec, cap, shared) == check(spec, cap), check.__name__
    assert check_double_jacobi(spec, 2) is not None


def test_a_memo_of_another_table_raises():
    # a memo hands out the brackets of the table it was built for, which
    # would give a check of another table a wrong verdict
    spec, other = nonassoc_witness(), direct_sum_C(2)
    for check in (check_skew, check_leibniz, check_double_jacobi):
        with pytest.raises(StructureError, match="the table it was built for"):
            check(spec, 2, dp._brackets(other))
        with pytest.raises(StructureError, match="the table it was built for"):
            check(spec, 2, partial(double_bracket, spec))


def test_shared_brackets_stay_as_computed_and_share_their_words():
    spec = matrix_algebra(2)
    shared = dp._brackets(spec)
    assert check_skew(spec, 2, shared) is None
    assert check_leibniz(spec, 2, shared) is None
    assert check_double_jacobi(spec, 2, shared) is None
    memo = _stored(shared)
    assert len(memo) == 1721
    objects = {}
    for (x, y), stored in memo.items():
        # no check mutated a bracket it was handed, and a hit hands it out again
        assert stored == double_bracket(spec, x, y), (x, y)
        assert shared(x, y) is stored
        # equal words, and equal slot pairs, are one object across the memo
        for t in (x, y) + tuple(stored) + tuple(w for pair in stored for w in pair):
            assert objects.setdefault(t, t) is t, t


def test_the_double_suite_brackets_each_pair_once_per_table(monkeypatch):
    # skew, Leibniz, Jacobi and pvdw of a table read one memo, whose misses
    # call the compute of _brackets; only the letters check, which tests
    # double_bracket itself, calls it directly
    honest = dp.double_bracket
    calls = {}

    def counted(spec, x, y):
        by_caller = calls.setdefault(sys._getframe(1).f_code.co_qualname, {})
        by_caller[x, y] = by_caller.get((x, y), 0) + 1
        return honest(spec, x, y)

    monkeypatch.setattr(dp, "double_bracket", counted)
    rep = run_suite(SuiteConfig("double", omega="mat(2)"))
    assert rep.exit_code() == 0
    assert {r.name for r in rep.records} >= {"double.skew", "double.leibniz", "double.jacobi", "double.pvdw"}
    assert sorted(calls) == ["_brackets.<locals>.compute", "check_letter_bracket"]
    assert [pair for pair, n in calls["_brackets.<locals>.compute"].items() if n > 1] == []
    assert sum(calls["_brackets.<locals>.compute"].values()) == 1721
    assert sum(calls["check_letter_bracket"].values()) == 16


def _reference_double_bracket(spec, x, y):
    """The defining double sum, slot by slot, one ``_acc`` per term."""
    x = tuple(x)
    y = tuple(y)
    out = {}
    for r in range(len(x)):
        for s in range(len(y)):
            for k, c in spec.product(x[r], y[s]).items():
                _acc(out, (y[:s] + x[r + 1 :], x[:r] + (k,) + y[s + 1 :]), c)
            for k, c in spec.product(y[s], x[r]).items():
                _acc(out, (y[:s] + (k,) + x[r + 1 :], x[:r] + y[s + 1 :]), -c)
    return out


# tables with an empty, associative, non-associative and Fraction-valued product
_REFERENCE_TABLES = (direct_sum_C(2), null_algebra(2), nonassoc_witness(), _FUZZ_FAILING, matrix_algebra(2))


def test_double_bracket_matches_the_defining_sum():
    for spec in _REFERENCE_TABLES:
        heads = [()] + list(words_up_to(spec, 2 if spec.dim >= 4 else 3))
        for x in heads:
            for y in heads:
                got = double_bracket(spec, x, y)
                assert got == _reference_double_bracket(spec, x, y), (spec, x, y)
                assert all(c != 0 for c in got.values())


def _reference_jacobi_sum(spec, a, b, c):
    """J(a, b, c) = <<a,<<b,c>>>>_L + rot <<b,<<c,a>>>>_L + rot^2 <<c,<<a,b>>>>_L, term by term."""
    ref = _reference_double_bracket
    return _sum(
        _into_first(spec, a, ref(spec, b, c), ref),
        _rot(_into_first(spec, b, ref(spec, c, a), ref)),
        _rot(_rot(_into_first(spec, c, ref(spec, a, b), ref))),
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_REFERENCE_TABLES), _LETTERS, _LETTERS, _LETTERS)
@example(nonassoc_witness(), [0], [0, 0], [1])  # every rotation's term is nonzero
def test_jacobi_sum_matches_the_reference_sum(spec, wa, wb, wc):
    a, b, c = (tuple(x % spec.dim for x in w) for w in (wa, wb, wc))
    got = triple_jacobi_sum(partial(double_bracket, spec), a, b, c)
    assert got == _reference_jacobi_sum(spec, a, b, c)
    assert all(x != 0 for x in got.values())


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.none(), st.integers(0, 2**32)), _LETTERS, _LETTERS, _LETTERS, _LETTERS)
@example(None, [0], [0], [0], [0])  # nonassoc's witness: both sides nonzero
def test_jacobi_sum_is_a_derivation_in_its_last_argument(seed, wa, wb, wc, wd):
    # Van den Bergh, Double Poisson algebras, Prop. 2.3.1, for the outer
    # bimodule structure: J(a, b, cd) = (c (x) 1 (x) 1) J(a, b, d) + J(a, b, c) (1 (x) 1 (x) d),
    # for any bilinear table; a table drawn by the fuzz suite, or nonassoc
    if seed is None:
        spec = nonassoc_witness()
    else:
        rng = random.Random(seed)
        spec = _random_table(rng.randint(1, 3), rng)
    a, b, c, d = (tuple(x % spec.dim for x in w) for w in (wa, wb, wc, wd))
    bracket = partial(double_bracket, spec)
    lhs = triple_jacobi_sum(bracket, a, b, c + d)
    rhs = _sum(_outer_left(c, triple_jacobi_sum(bracket, a, b, d)), _outer_right(triple_jacobi_sum(bracket, a, b, c), d))
    assert lhs == rhs


def _rot(t):
    """u1 (x) u2 (x) u3 -> u3 (x) u1 (x) u2."""
    return _moved(t, lambda u1, u2, u3: (u3, u1, u2))


def _into_first(spec, a, t, bracket=double_bracket):
    """<<a, ->>_L on a double tensor: bracket a into its first slot."""
    out = {}
    for (u, v), c in t.items():
        vec_add(out, _moved(bracket(spec, a, u), lambda p, q: (p, q, v)), c)
    return out


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.none(), st.integers(0, 2**32)), _LETTERS, _LETTERS, _LETTERS)
@example(None, [0], [0, 0], [1])  # nonassoc, three different words: every rotation shows
def test_brackets_are_zero_free_and_the_jacobi_sum_keeps_its_rotations(seed, wa, wb, wc):
    # dict equality is tensor equality only while no zero is stored
    if seed is None:
        spec = nonassoc_witness()
    else:
        rng = random.Random(seed)
        spec = _random_table(rng.randint(1, 3), rng)
    a, b, c = (tuple(x % spec.dim for x in w) for w in (wa, wb, wc))
    results = [double_bracket(spec, x, y) for x in (a, b, c) for y in (a, b, c)]
    results += [letter_bracket_expected(spec, i, j) for i in range(spec.dim) for j in range(spec.dim)]
    jacobi = triple_jacobi_sum(partial(double_bracket, spec), a, b, c)
    results.append(jacobi)
    assert all(x != 0 for t in results for x in t.values())
    expected = _sum(
        _into_first(spec, a, double_bracket(spec, b, c)),
        _rot(_into_first(spec, b, double_bracket(spec, c, a))),
        _rot(_rot(_into_first(spec, c, double_bracket(spec, a, b)))),
    )
    assert jacobi == expected


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=3),
    st.lists(st.integers(0, 1), min_size=1, max_size=3),
)
def test_skew_random_words(wx, wy):
    spec = direct_sum_C(2)
    x, y = tuple(wx), tuple(wy)
    # <<x, y>> = -flip(<<y, x>>)
    assert _sum(double_bracket(spec, x, y), _moved(double_bracket(spec, y, x), _flip)) == {}


def test_jacobi_fails_exactly_when_nonassociative():
    spec = nonassoc_witness()
    rep = pvdw_equivalence(spec, 2)
    assert rep["equivalent"] is True
    assert rep["assoc_witness"] is not None
    assert rep["jacobi_witness"] is not None
    # witness is an actual triple of words
    a, b, c = rep["jacobi_witness"]
    assert all(isinstance(w, tuple) for w in (a, b, c))


def test_pvdw_seeded_fuzz_small():
    rng = random.Random(99)
    coeffs = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
    for _ in range(10):
        dim = rng.randint(1, 3)
        table = {}
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.5:
                    continue
                table[(i, j)] = {rng.randrange(dim): rng.choice(coeffs)}
        spec = AlgebraSpec(dim, table=table)
        assert pvdw_equivalence(spec, 2)["equivalent"] is True


def _mul(f, g, key=None):
    """The commutative product of two polynomials {sorted monomial: c}, written here."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            vec_add(out, {tuple(sorted(m1 + m2, key=key)): c1 * c2})
    return out


def _sum(*polys):
    out = {}
    for p in polys:
        vec_add(out, p)
    return out


def _gen(p):
    return {(p,): 1}


def test_poisson_pgen_hand_oracle():
    # {p_11(u1 u2), p_11(u2 u1)} over the two-idempotent table
    spec = direct_sum_C(2)
    got = poisson_pgen(spec, (1, 1, (0, 1)), (1, 1, (1, 0)))
    expected = {
        ((1, 1, (0, 1, 0)),): 1,
        ((1, 1, (1, 0, 1)),): -1,
        ((1, 1, (0,)), (1, 1, (1, 1))): 1,
        ((1, 1, (1,)), (1, 1, (0, 0))): -1,
    }
    assert got == expected


def test_poisson_pgen_delta_gating():
    spec = direct_sum_C(1)
    # k != j and i != l kills every term with an empty slot
    got = poisson_pgen(spec, (1, 2, (0,)), (1, 2, (0,)))
    for mono in got:
        assert len(mono) == 2  # only purely quadratic terms survive
    # while matching deltas re-create the linear part
    lin = {m: c for m, c in poisson_pgen(spec, (1, 2, (0,)), (2, 1, (0,))).items() if len(m) == 1}
    assert lin


def test_poisson_pgen_rejects_matrix_indices_below_one():
    # on C, index 0 once read as an ordinary matrix index and gave the
    # bracket {((0, 0, (0,)),): 1, ((1, 1, (0,)),): -1}
    spec = direct_sum_C(1)
    for p, q in (
        ((0, 1, (0,)), (1, 0, (0,))),
        ((-3, 1, (0,)), (1, -3, (0,))),
        ((1, 1, (0,)), (1, 0, (0,))),
        # a float index gave the key (1.5, 1.5, (0,)); True read as 1
        ((1.5, 1, (0,)), (1, 1.5, (0,))),
        ((True, 1, (0,)), (1, 1, (0,))),
        ((1, 1, (0,)), (1, True, (0,))),
    ):
        with pytest.raises(StructureError, match="matrix index must be an integer >= 1"):
            poisson_pgen(spec, p, q)


def test_poisson_antisymmetry():
    spec = direct_sum_C(2)
    pgens = [(1, 1, (0, 1)), (2, 1, (1,)), (1, 2, (0,)), (2, 2, (1, 0))]
    for p in pgens:
        for q in pgens:
            assert poisson_pgen(spec, p, q) == {m: -c for m, c in poisson_pgen(spec, q, p).items()}


def test_poisson_smd_leibniz():
    spec = direct_sum_C(2)
    f = _gen((1, 1, (0,)))
    g = _gen((1, 2, (1,)))
    h = _gen((2, 1, (0, 1)))
    lhs = poisson_smd(spec, f, _mul(g, h, pgen_key))
    rhs = _sum(_mul(poisson_smd(spec, f, g), h, pgen_key), _mul(g, poisson_smd(spec, f, h), pgen_key))
    assert lhs and lhs == rhs


def test_poisson_jacobi_on_symbols():
    spec = direct_sum_C(2)
    for words in (((0,), (1,), (1,)), ((0, 1), (1,), (1, 0))):
        f, g, h = (_gen((i, j, w)) for (i, j), w in zip(((1, 1), (1, 2), (2, 1)), words))
        terms = [
            poisson_smd(spec, f, poisson_smd(spec, g, h)),
            poisson_smd(spec, g, poisson_smd(spec, h, f)),
            poisson_smd(spec, h, poisson_smd(spec, f, g)),
        ]
        assert _sum(*terms) == {}
    assert all(terms)  # on the longer words no term vanishes, so none can be dropped


def test_sorted_monomials_commute():
    p = _gen((2, 1, (0,)))
    q = _gen((1, 1, (0, 0)))
    assert _mul(p, q, pgen_key) == _mul(q, p, pgen_key)
    assert pgen_key((1, 1, (0,))) < pgen_key((1, 1, (0, 0)))
    # the bracket's monomials come out sorted by pgen_key
    spec = direct_sum_C(2)
    for x in words_up_to(spec, 2):
        for y in words_up_to(spec, 2):
            for mono in poisson_pgen(spec, (1, 2, x), (2, 1, y)):
                assert list(mono) == sorted(mono, key=pgen_key)


def test_trace_bracket_center_is_abelian():
    # one-letter table: every class is central, the bracket vanishes
    spec = direct_sum_C(1)
    assert trace_bracket(spec, (0,), (0, 0)) == {}
    assert trace_bracket(spec, (0, 0), (0, 0)) == {}


def test_trace_bracket_antisymmetry_and_grading():
    spec = matrix_algebra(2)
    words = [(0,), (1,), (1, 2), (2, 1)]
    for x in words:
        for y in words:
            b1 = trace_bracket(spec, x, y)
            b2 = trace_bracket(spec, y, x)
            assert {w: -c for w, c in b2.items()} == b1
            for w in b1:
                assert type(w) is tuple and w == cyclic(w)
                assert len(w) == len(x) + len(y) - 1


def test_trace_bracket_rejects_an_empty_word():
    # an empty word is no necklace class: words.cyclic(()) raises too
    spec = matrix_algebra(2)
    for a, b in (((), (0,)), ((0,), ()), ((), ())):
        with pytest.raises(StructureError, match="nonempty words"):
            trace_bracket(spec, a, b)
    with pytest.raises(StructureError, match="nonempty words"):
        poisson_stc(spec, {((),): 1}, {((0,),): 1})


def test_poisson_stc_leibniz():
    spec = matrix_algebra(2)
    f, g, h = ({(cyclic(w),): 1} for w in ((1,), (2,), (0,)))
    lhs = poisson_stc(spec, f, _mul(g, h))
    rhs = _sum(_mul(poisson_stc(spec, f, g), h), _mul(g, poisson_stc(spec, f, h)))
    assert lhs and lhs == rhs


def test_symbol_match_smd_smoke():
    # the verdict holds at N=3 and N=4; one that differed would raise
    assert symbol_match_smd(direct_sum_C(2), 1, 1, 1, 1, (0,), (1,), 2, Fraction(0), 3) is True


def test_symbol_match_smd_rejects_an_empty_word():
    # an empty word has no t-generator; it used to fail inside t_elem with a
    # message about compositions
    for x, y in (((), (0,)), ((0,), ())):
        with pytest.raises(StructureError, match="symbol matches need nonempty words"):
            symbol_match_smd(direct_sum_C(1), 1, 1, 1, 1, x, y, 1, 0, 2)


def test_symbol_match_stc_smoke():
    assert symbol_match_stc(direct_sum_C(1), (0,), (0, 0), 3) is True
