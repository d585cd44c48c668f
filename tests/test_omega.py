"""Coefficient tables: construction, builtin algebras, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glomega import (
    AlgebraSpec,
    Enveloping,
    StructureError,
    UElement,
    as_scalar,
    check_associativity,
    degeneration_check,
    detect_unit,
    direct_sum_C,
    from_dict,
    load_algebra,
    matrix_algebra,
    multiply,
    nonassoc_witness,
    null_algebra,
    save_algebra,
    symbol_match_smd,
    to_dict,
)
from glomega.current import odot_words
from glomega.doublepoisson import double_bracket
from glomega.omega import check_letters, pair_memo


def test_direct_sum_products():
    spec = direct_sum_C(3)
    assert spec.dim == 3
    for i in range(3):
        for j in range(3):
            want = {i: Fraction(1)} if i == j else {}
            assert dict(spec.product(i, j)) == want


def test_direct_sum_requires_positive_length():
    with pytest.raises(StructureError):
        direct_sum_C(0)


def test_null_algebra_multiplies_to_zero():
    spec = null_algebra(2)
    for i in range(2):
        for j in range(2):
            assert dict(spec.product(i, j)) == {}
    assert detect_unit(spec) is None
    assert check_associativity(spec) is None


def test_matrix_algebra_units():
    spec = matrix_algebra(2)
    assert spec.dim == 4
    assert spec.basis == ("e11", "e12", "e21", "e22")
    # e12 * e21 = e11, e21 * e12 = e22, e12 * e12 = 0
    assert dict(spec.product(1, 2)) == {0: Fraction(1)}
    assert dict(spec.product(2, 1)) == {3: Fraction(1)}
    assert dict(spec.product(1, 1)) == {}
    assert check_associativity(spec) is None
    assert detect_unit(spec) == {0: 1, 3: 1}


def test_unit_of_direct_sum_is_sum_of_idempotents():
    spec = direct_sum_C(2)
    assert detect_unit(spec) == {0: 1, 1: 1}


def test_nonassoc_witness_fails_associativity():
    spec = nonassoc_witness()
    triple = check_associativity(spec)
    assert triple is not None
    i, j, k = triple
    lhs = multiply(spec, multiply(spec, {i: 1}, {j: 1}), {k: 1})
    rhs = multiply(spec, {i: 1}, multiply(spec, {j: 1}, {k: 1}))
    assert lhs != rhs


def test_element_arithmetic():
    # table elements are {k: c} dicts, multiplied bilinearly through the table
    spec = direct_sum_C(2)
    a = {0: 1, 1: Fraction(1, 2)}
    b = {1: Fraction(1, 2)}
    # orthogonal idempotents: cross terms die
    assert multiply(spec, a, b) == {1: Fraction(1, 4)}
    assert multiply(spec, a, a) == {0: 1, 1: Fraction(1, 4)}
    assert multiply(spec, {0: 1}, {1: 5}) == {}
    assert a == {0: 1, 1: Fraction(1, 2)} and b == {1: Fraction(1, 2)}  # factors are left as they were
    # (e12 - e11)(e21 + e11) = e11 - e11: a sum that cancels stores no zero
    assert multiply(matrix_algebra(2), {1: 1, 0: -1}, {2: 1, 0: 1}) == {}


def test_multiply_rejects_letters_outside_the_table():
    spec = direct_sum_C(1)
    for a, b in (({5: 1}, {0: 1}), ({0: 1}, {-1: 2}), ({}, {1: 1})):
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.0"):
            multiply(spec, a, b)


def test_table_validation():
    with pytest.raises(StructureError):
        AlgebraSpec(0)
    with pytest.raises(StructureError):
        AlgebraSpec(2, table={(0, 5): {0: Fraction(1)}})
    with pytest.raises(StructureError):
        AlgebraSpec(2, table={(0, 0): {7: Fraction(1)}})
    with pytest.raises(StructureError):
        AlgebraSpec(2, basis=["a"])  # wrong label count
    with pytest.raises(StructureError):
        AlgebraSpec(True)  # a bool is not a dimension
    with pytest.raises(StructureError):
        AlgebraSpec(2, table={("0", 0): {0: 1}})
    # a float constant raised TypeError from as_scalar, a bad string ValueError
    # or ZeroDivisionError, and an entry that is not a mapping AttributeError
    for table in ({(0, 0): {0: 0.5}}, {(0, 0): {0: "x"}}, {(0, 0): {0: "1/0"}}, {(0, 0): [1]}, {(0, 0): 1}):
        with pytest.raises(StructureError):
            AlgebraSpec(1, table=table)
    assert AlgebraSpec(1, table={(0, 0): {0: "1/2"}}).table == {(0, 0): {0: Fraction(1, 2)}}


def test_serialization_roundtrip(tmp_path):
    spec = matrix_algebra(2)
    path = str(tmp_path / "mat2.json")
    save_algebra(spec, path)
    back = load_algebra(path)
    assert back.dim == spec.dim
    assert tuple(back.basis) == tuple(spec.basis)
    for i in range(spec.dim):
        for j in range(spec.dim):
            assert dict(back.product(i, j)) == dict(spec.product(i, j))


def test_from_dict_diagnostics():
    with pytest.raises(StructureError):
        from_dict({"dim": 2, "basis": ["a", "b"]})  # missing table
    bad_index = {
        "dim": 2,
        "basis": ["a", "b"],
        "table": [{"i": 0, "j": 0, "terms": [{"k": 9, "num": 1}]}],
    }
    with pytest.raises(StructureError):
        from_dict(bad_index)
    dup = {
        "dim": 1,
        "basis": ["a"],
        "table": [
            {"i": 0, "j": 0, "terms": [{"k": 0, "num": 1}]},
            {"i": 0, "j": 0, "terms": [{"k": 0, "num": 2}]},
        ],
    }
    with pytest.raises(StructureError):
        from_dict(dup)
    # [1, null] loaded as the labels 1 and None, and omega check exited 0
    for basis in ([1, None], ["a", 2], [["a"], "b"], [True, "b"]):
        with pytest.raises(StructureError, match="string labels"):
            from_dict({"dim": 2, "basis": basis, "table": []})


def test_sparse_convention_missing_rows_are_zero():
    data = {"dim": 2, "basis": ["a", "b"], "table": [{"i": 0, "j": 0, "terms": [{"k": 0, "num": 1}]}]}
    spec = from_dict(data)
    assert dict(spec.product(0, 1)) == {}
    assert dict(spec.product(0, 0)) == {0: Fraction(1)}


def test_load_algebra_missing_file():
    with pytest.raises(StructureError):
        load_algebra("/nonexistent/table.json")


def test_to_dict_uses_fraction_terms():
    spec = AlgebraSpec(1, table={(0, 0): {0: Fraction(1, 2)}})
    data = to_dict(spec)
    assert data["table"][0]["terms"] == [{"k": 0, "num": 1, "den": 2}]


@pytest.mark.parametrize(
    "value, want",
    [(5, 5), (Fraction(4, 2), 2), ("6/3", 2), ("-7", -7), (True, 1), (False, 0)],
)
def test_as_scalar_integral_values_are_ints(value, want):
    got = as_scalar(value)
    assert type(got) is int and got == want


@pytest.mark.parametrize("value", [Fraction(1, 2), "-7/2", Fraction(9, 6)])
def test_as_scalar_other_values_are_fractions(value):
    got = as_scalar(value)
    assert type(got) is Fraction and got == Fraction(value)


@pytest.mark.parametrize("value", [0.5, 2.0, None, [1], "abc", "1/0", "", "nan"])
def test_as_scalar_rejects_floats_and_non_numbers(value):
    with pytest.raises(StructureError, match="exact scalar expected"):
        as_scalar(value)


@pytest.mark.parametrize("value", ["1e5000", "-3e-5000", "1E100000000", " 1e+0_4301 ", "0e5000", "1e4300", "1e-4300"])
def test_as_scalar_refuses_strings_beyond_the_digit_limit(value):
    # an exponent beyond 4300 is refused before its power of ten is built,
    # so 1E100000000 costs no time, and so is a value with more than 4300
    # digits, which str() of the scalar would refuse later
    with pytest.raises(StructureError, match="exact scalar expected.*4300"):
        as_scalar(value)


@pytest.mark.parametrize("value", ["1e3", "2.5e-1", "1e4299", "-1e-4299"])
def test_as_scalar_parses_strings_within_the_digit_limit(value):
    assert as_scalar(value) == Fraction(value)


# every scalar from outside passes through as_scalar, so a bad one is a
# StructureError whichever public call it enters by
_BAD_SCALAR_CALLS = {
    "t_elem": lambda C, ctx: ctx.t_elem(1, 1, (0, 0), 0.5),
    "scale": lambda C, ctx: ctx.gen(1, 1).scale("x"),
    "UElement": lambda C, ctx: UElement(ctx, {((1, 1, 0),): "1/0"}),
    "degeneration_check": lambda C, ctx: degeneration_check(C, 1, 1, 1, 1, (0,), (0,), 1, 0.5),
    "symbol_match_smd": lambda C, ctx: symbol_match_smd(C, 1, 1, 1, 1, (0,), (0,), 1, "x", 3),
}


@pytest.mark.parametrize("call", list(_BAD_SCALAR_CALLS.values()), ids=list(_BAD_SCALAR_CALLS))
def test_a_bad_scalar_in_any_call_is_a_structure_error(call):
    C = direct_sum_C(1)
    with pytest.raises(StructureError, match="exact scalar expected"):
        call(C, Enveloping.get(C, 3))


def test_builtin_and_loaded_tables_hold_ints(tmp_path):
    path = str(tmp_path / "mat2.json")
    save_algebra(matrix_algebra(2), path)
    for spec in (direct_sum_C(2), matrix_algebra(2), nonassoc_witness(), load_algebra(path)):
        assert all(type(c) is int for entry in spec.table.values() for c in entry.values())
    # a table built from Fractions reads back as given
    spec = AlgebraSpec(1, table={(0, 0): {0: Fraction(2)}})
    assert type(spec.table[(0, 0)][0]) is Fraction


_JSON_LEAF = st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) | st.text(max_size=3)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _table_files(draw):
    """A valid table file, then maybe one field set to any JSON value."""
    dim = draw(st.integers(1, 2))
    index = st.integers(0, dim - 1)
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        terms = [
            {"k": draw(index), "num": draw(st.integers(-2, 2)), "den": draw(st.integers(1, 3))}
            for _ in range(draw(st.integers(0, 2)))
        ]
        rows.append({"i": draw(index), "j": draw(index), "terms": terms})
    data = {"dim": dim, "basis": ["x%d" % a for a in range(dim)], "table": rows}
    fields = [(data, key) for key in data]
    fields += [(row, key) for row in rows for key in row]
    fields += [(term, key) for row in rows for term in row["terms"] for key in term]
    holder, key = draw(st.sampled_from(fields))
    if draw(st.booleans()):
        holder[key] = draw(_JSON)
    return data


@settings(max_examples=300, deadline=None)
@given(_table_files() | _JSON)
def test_from_dict_any_json_gives_spec_or_structure_error(data):
    data = json.loads(json.dumps(data))  # exactly what a table file can hold
    try:
        spec = from_dict(data)
    except StructureError:
        return
    assert isinstance(spec, AlgebraSpec)
    assert spec.basis == tuple(data["basis"])
    assert from_dict(to_dict(spec)).table == spec.table


def test_letters_must_be_ints():
    # a float, a Fraction or a bool is no basis index, even when it equals one
    spec = direct_sum_C(2)
    for bad in (0.5, 1.0, Fraction(1), True, False, "0", None):
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.1"):
            check_letters(spec, (0, bad))
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.1"):
            double_bracket(spec, (bad,), (0,))
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.1"):
            odot_words(spec, (bad,), (0,))
        with pytest.raises(StructureError, match=r"letters must lie in 0\.\.1"):
            multiply(spec, {bad: 1}, {0: 1})
    check_letters(spec, (0, 1, 1, 0))
    check_letters(spec, ())


def _counted_memo(spec):
    """A ``pair_memo`` of ``spec`` whose compute records each pair and interns its result's key."""
    calls = []

    def compute(share, x, y):
        calls.append((x, y))
        return {share(x + y, x + y): 1}

    return pair_memo(spec, compute), calls


def _refused(share, x, y):
    raise AssertionError("a given memo computes nothing")


def test_pair_memo_computes_each_ordered_pair_once():
    spec = direct_sum_C(2)
    bracket, calls = _counted_memo(spec)
    first = bracket((0,), (1,))
    assert first == {(0, 1): 1}
    # a hit hands out the stored object, and the reversed pair is its own miss
    assert bracket((0,), (1,)) is first
    assert bracket((1,), (0,)) == {(1, 0): 1}
    assert bracket((1,), (0,)) is bracket((1,), (0,))
    assert calls == [((0,), (1,)), ((1,), (0,))]
    assert bracket.spec is spec


def test_pair_memo_keeps_one_object_per_equal_key():
    bracket, _calls = _counted_memo(direct_sum_C(2))
    x, y = (0,), (1,)
    bracket(x, y)
    x2, y2 = tuple([0]), tuple([1])
    assert x2 == x and x2 is not x and y2 == y and y2 is not y
    bracket(y2, x2)
    bracket(x + y, x2)  # its first key equals the stored result's key (0, 1)
    memo = dict(zip(bracket.__code__.co_freevars, bracket.__closure__))["memo"].cell_contents
    assert len(memo) == 3
    (key,) = [pair for pair in memo if pair == (y, x)]
    assert key[0] is y and key[1] is x
    seen = {}
    for pair, stored in memo.items():
        for word in pair + tuple(stored):
            assert seen.setdefault(word, word) is word, word


def test_pair_memo_refuses_the_memo_of_another_table():
    spec, other = direct_sum_C(2), direct_sum_C(2)  # equal content, another table
    given, _calls = _counted_memo(spec)
    assert pair_memo(spec, _refused, given) is given
    # a memo of the other table, and plain functions with no .spec
    for wrong in (_counted_memo(other)[0], lambda x, y: {}, len):
        with pytest.raises(StructureError, match="a bracket memo serves only the table it was built for"):
            pair_memo(spec, _refused, wrong)
