"""Words, compositions, coagulation, and cyclic classes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glomega import Enveloping, StructureError, direct_sum_C, matrix_algebra
from glomega.current import current_jacobi_sum, degeneration_check, gl_current_bracket, odot_words
from glomega.doublepoisson import symbol_match_smd, symbol_match_stc, trace_bracket, trace_elem
from glomega.words import (
    basis_words,
    coagulate,
    coagulate_word,
    compositions,
    cyclic,
    words_up_to,
)
from glomega.yangian import t_gen


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


def test_coagulate_keeps_no_zero_coefficient():
    # a one-factor block is never multiplied, so it once kept the zeros of
    # its factor while a longer block dropped them through multiply
    spec = direct_sum_C(2)
    assert coagulate(spec, [{0: 0}], (1,)) == [{}]
    assert coagulate(spec, [{0: 0}, {0: 1}], (2,)) == [{}]
    assert coagulate(spec, [{0: "0/3", 1: 2}, {1: 1}], (1, 1)) == [{1: 2}, {1: 1}]


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


_C = direct_sum_C(1)
_E = (1, 1, ())  # a gl(d) current key with the empty word
_K = (1, 1, (0,))

# each entry point that takes a word naming a generator, symbol, current or
# necklace, with the empty word in each of its word slots in turn
_EMPTY_WORD_SLOTS = [
    ("e_elem", lambda: Enveloping.get(_C, 2).e_elem(1, 1, ())),
    ("e_top", lambda: Enveloping.get(_C, 2).e_top(1, 1, ())),
    ("t_elem", lambda: Enveloping.get(_C, 2).t_elem(1, 1, (), 0)),
    ("reparametrize_check", lambda: Enveloping.get(_C, 2).reparametrize_check(1, 1, (), 0, 1)),
    ("trace_elem", lambda: trace_elem(Enveloping.get(_C, 2), ())),
    ("odot_words-x", lambda: odot_words(_C, (), (0,))),
    ("odot_words-y", lambda: odot_words(_C, (0,), ())),
    ("gl_current_bracket-a", lambda: gl_current_bracket(_C, {_E: 1}, {_K: 1})),
    ("gl_current_bracket-b", lambda: gl_current_bracket(_C, {_K: 1}, {_E: 1})),
    ("current_jacobi_sum-a", lambda: current_jacobi_sum(_C, {_E: 1}, {_K: 1}, {_K: 1})),
    ("current_jacobi_sum-b", lambda: current_jacobi_sum(_C, {_K: 1}, {_E: 1}, {_K: 1})),
    ("current_jacobi_sum-c", lambda: current_jacobi_sum(_C, {_K: 1}, {_K: 1}, {_E: 1})),
    ("degeneration_check-x", lambda: degeneration_check(_C, 1, 1, 1, 1, (), (0,), 1, 0)),
    ("degeneration_check-y", lambda: degeneration_check(_C, 1, 1, 1, 1, (0,), (), 1, 0)),
    ("trace_bracket-a", lambda: trace_bracket(_C, (), (0,))),
    ("trace_bracket-b", lambda: trace_bracket(_C, (0,), ())),
    ("symbol_match_smd-x", lambda: symbol_match_smd(_C, 1, 1, 1, 1, (), (0,), 1, 0, 2)),
    ("symbol_match_smd-y", lambda: symbol_match_smd(_C, 1, 1, 1, 1, (0,), (), 1, 0, 2)),
    ("symbol_match_stc-x", lambda: symbol_match_stc(_C, (), (0,), 2)),
    ("symbol_match_stc-y", lambda: symbol_match_stc(_C, (0,), (), 2)),
    ("cyclic", lambda: cyclic(())),
    ("t_gen", lambda: t_gen(1, 1, ())),
]


@pytest.mark.parametrize("call", [c[1] for c in _EMPTY_WORD_SLOTS], ids=[c[0] for c in _EMPTY_WORD_SLOTS])
def test_every_word_slot_refuses_the_empty_word(call):
    # one rule, words.nonempty, and so one message wherever the word is read
    with pytest.raises(StructureError, match=r"^words must be nonempty, got \(\)$"):
        call()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5), st.integers(0, 4))
def test_cyclic_class_is_rotation_invariant(word, shift):
    w = tuple(word)
    k = shift % len(w)
    assert cyclic(w) == cyclic(w[k:] + w[:k])
