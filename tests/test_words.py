"""Words, compositions, coagulation, and cyclic classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glomega import Enveloping, StructureError, direct_sum_C, matrix_algebra
from glomega.words import (
    basis_words,
    coagulate_word,
    compositions,
    cyclic,
    words_up_to,
)


def test_compositions_lex_order():
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert compositions(1) == [(1,)]
    with pytest.raises(StructureError):
        compositions(0)


@given(st.integers(min_value=1, max_value=8))
def test_compositions_count(m):
    out = compositions(m)
    assert len(out) == 2 ** (m - 1)
    assert all(sum(nu) == m for nu in out)
    assert out == sorted(out)


def test_basis_words_enumeration():
    spec = direct_sum_C(2)
    assert list(basis_words(spec, 0)) == [()]
    assert list(basis_words(spec, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(words_up_to(spec, 2)) == [(0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    # pbw_monomials asks for maxlen 0, which scans no word
    assert list(words_up_to(spec, 0)) == []


def test_coagulate_word_merges_blocks():
    spec = direct_sum_C(2)
    # finest composition keeps the word
    assert coagulate_word(spec, (0, 1), (1, 1)) == {(0, 1): Fraction(1)}
    # merging orthogonal idempotents kills the term
    assert coagulate_word(spec, (0, 1), (2,)) == {}
    assert coagulate_word(spec, (0, 0), (2,)) == {(0,): Fraction(1)}


def test_coagulate_word_matrix_blocks():
    spec = matrix_algebra(2)
    # e12 * e21 = e11 under the (2,) merge
    assert coagulate_word(spec, (1, 2), (2,)) == {(0,): Fraction(1)}


def test_coagulate_word_rejects_bad_letters_and_keeps_nothing():
    # the letters are checked before the memo is read: (0.0, 0) and
    # (0, False) equal the memoized (0, 0), and would hit its result
    spec = direct_sum_C(1)
    ctx = Enveloping.get(spec, 2)
    ctx.t_elem(1, 1, (0, 0), 1)
    before = dict(spec.coagulations)
    assert ((0, 0), (1, 1)) in before
    with pytest.raises(StructureError):
        ctx.t_elem(1, 1, (0, 5), 1)
    assert spec.coagulations == before
    for word in ((0, 5), (-1,), (0.0, 0), (0, False)):
        with pytest.raises(StructureError, match="letters"):
            coagulate_word(spec, word, (1,) * len(word))
    assert spec.coagulations == before


def test_cyclic_word_canonical_rotation():
    assert cyclic((1, 0, 1)) == (0, 1, 1)
    assert cyclic([2, 0, 1]) == (0, 1, 2)
    assert type(cyclic((0,))) is tuple and cyclic((0,)) == (0,)
    with pytest.raises(StructureError):
        cyclic(())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5), st.integers(0, 4))
def test_cyclic_class_is_rotation_invariant(word, shift):
    w = tuple(word)
    k = shift % len(w)
    assert cyclic(w) == cyclic(w[k:] + w[:k])
