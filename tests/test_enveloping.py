"""PBW normal forms, special elements, projection, invariants."""

import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glomega import Enveloping, StructureError, UElement, direct_sum_C, matrix_algebra, null_algebra
from glomega.doublepoisson import symbol_match_smd, symbol_match_stc, trace_elem
from glomega.linalg import rank
from glomega.omega import _acc
from glomega.suites import DEFAULT_S
from glomega.words import cyclic, words_up_to
from glomega.yangian import evaluate, t_gen

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "anchor.txt")

C1 = direct_sum_C(1)
C2 = direct_sum_C(2)

S_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2))


def test_generator_commutator_table():
    # [E_12(x), E_21(y)] = E_11(xy) - E_22(yx) over the 1-dim table
    ctx = Enveloping.get(C1, 2)
    got = ctx.commutator(ctx.gen(1, 2), ctx.gen(2, 1))
    assert got == ctx.gen(1, 1) - ctx.gen(2, 2)


def test_generator_commutator_respects_table():
    # orthogonal idempotents: E_12(u1) and E_21(u2) commute since u1*u2 = 0
    ctx = Enveloping.get(C2, 2)
    assert ctx.commutator(ctx.gen(1, 2, 0), ctx.gen(2, 1, 1)).is_zero()
    # matrix letters multiply through: [E_11(e12), E_11(e21)] = E_11(e11) - E_11(e22)
    m = Enveloping.get(matrix_algebra(2), 1)
    got = m.commutator(m.gen(1, 1, 1), m.gen(1, 1, 2))
    assert got == m.gen(1, 1, 0) - m.gen(1, 1, 3)


def test_generator_letter_must_be_an_int():
    # True and 1.0 equal the letter 1 as dict keys, so the lookup alone would take them
    ctx = Enveloping.get(C2, 2)
    for letter in (True, 1.0, 2):
        with pytest.raises(StructureError, match="letters must lie in 0..1"):
            ctx.gen(1, 1, letter)


@pytest.mark.parametrize("spec", (C1, C2, null_algebra(2), matrix_algebra(2)), ids=lambda spec: spec.name)
def test_commutator_terms_is_the_defining_bracket(spec):
    # [E_i1j1(x), E_i2j2(y)] = delta(j1, i2) E_i1j2(x y) - delta(i1, j2) E_i2j1(y x)
    # on every generator pair, and only pairs whose indices meet are memoized
    ctx = Enveloping(spec, 3)
    for g in ctx.gens:
        for h in ctx.gens:
            (i1, j1, x), (i2, j2, y) = g, h
            want = {}
            if j1 == i2:
                for k, c in spec.product(x, y).items():
                    _acc(want, (i1, j2, k), c)
            if i1 == j2:
                for k, c in spec.product(y, x).items():
                    _acc(want, (i2, j1, k), -c)
            assert dict(ctx.commutator_terms(g, h)) == want, (g, h)
    assert ctx._comm
    assert all(g[1] == h[0] or g[0] == h[1] for g, h in ctx._comm)


def test_sorted_words_get_a_fresh_normal_form():
    # a sorted word is its own normal form, handed out afresh on each call, so
    # a caller that mutates it changes nothing; the memo still holds one
    # entry per word met.  E_22 E_11 has a zero bracket, so its chain ends at
    # the sorted E_11 E_22 and memoizes the two words.
    ctx = Enveloping(C2, 3)
    g, h = (1, 1, 0), (2, 2, 0)
    assert ctx.normal_form((h, g)) == {(g, h): 1}
    assert len(ctx._nf) == 2
    for word in ((g, h), (g, h, (3, 3, 1)), ()):
        first = ctx.normal_form(word)
        assert first == {word: 1}
        first[word] = 5
        first[(g,)] = 1
        assert ctx.normal_form(word) == {word: 1}
    assert len(ctx._nf) == 4
    assert ctx.normal_form((h, g)) == {(g, h): 1}


def test_normal_form_sorts_and_is_idempotent():
    # at N=2 the E(*,N) class sorts last, so E12 E21 needs one rewrite
    ctx = Enveloping.get(C1, 2)
    seq = ((1, 2, 0), (2, 1, 0))
    nf = ctx.normal_form(seq)
    # E12 E21 = E21 E12 + E11 - E22
    assert nf == {
        ((2, 1, 0), (1, 2, 0)): Fraction(1),
        ((1, 1, 0),): Fraction(1),
        ((2, 2, 0),): Fraction(-1),
    }
    for mono in nf:
        assert ctx.normal_form(mono) == {mono: Fraction(1)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from((C2, matrix_algebra(2))))
def test_normal_form_confluence(seed, length, spec):
    # rewriting with randomized inversion choices must agree with the
    # deterministic leftmost strategy; Mat(2) brings noncommuting letters
    rng = random.Random(seed)
    ctx = Enveloping.get(spec, 3)
    gens = ctx.gens
    seq = tuple(rng.choice(gens) for _ in range(length))
    assert ctx.normal_form_random(seq, rng) == ctx.normal_form(seq)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 6), st.sampled_from((C2, matrix_algebra(2))))
def test_normal_form_matches_random_rewriting_at_n2(seed, length, spec):
    rng = random.Random(seed)
    ctx = Enveloping.get(spec, 2)
    seq = tuple(rng.choice(ctx.gens) for _ in range(length))
    assert ctx.normal_form_random(seq, rng) == ctx.normal_form(seq)


@pytest.mark.parametrize("spec", (C2, null_algebra(2), matrix_algebra(2)), ids=lambda spec: spec.name)
def test_normal_form_keeps_every_torus_weight(spec):
    # [E_ij(x), E_kl(y)] has the weight of E_ij plus that of E_kl, so every
    # monomial of a normal form has its word's ad E_aa weight, for each a
    rng = random.Random(20240)
    ctx = Enveloping.get(spec, 3)
    for _ in range(300):
        word = tuple(rng.choice(ctx.gens) for _ in range(rng.randint(0, 5)))
        for a in (1, 2, 3):
            weight = ctx.mono_weight(word, a)
            assert all(ctx.mono_weight(mono, a) == weight for mono in ctx.normal_form(word)), (word, a)


def test_mono_weight_refuses_an_index_outside_one_to_n():
    # E_aa exists for a in 1..N only, so no other a gives a weight
    ctx = Enveloping.get(direct_sum_C(1), 3)
    mono = ((1, 2, 0),)
    assert [ctx.mono_weight(mono, a) for a in (1, 2, 3)] == [1, -1, 0]
    assert ctx.mono_weight(mono) == 0
    for a in (0, 9, -1, 4):
        with pytest.raises(StructureError, match="1..3"):
            ctx.mono_weight(mono, a)
    # the range is tested once per call, so a monomial with no generator raises too
    with pytest.raises(StructureError, match="1..3"):
        ctx.mono_weight((), 0)


@pytest.mark.parametrize("seq", [((9, 9, 9),), ((1, 1, 0), (9, 9, 9)), ((9, 9, 9), (1, 1, 0)), ((1, 1, 1),)])
def test_random_rewriting_rejects_a_bad_generator(seq):
    # every generator of a word is looked up, so a word of one bad generator raises too
    ctx = Enveloping(C1, 2)
    with pytest.raises(StructureError):
        ctx.normal_form(seq)
    with pytest.raises(StructureError):
        ctx.normal_form_random(seq, random.Random(0))


def test_normal_form_long_word_has_no_recursion_limit():
    # E22^40 E11^40 needs 1600 swaps; a Python frame per swap overflowed
    ctx = Enveloping(C1, 2)
    k = 40
    seq = ((2, 2, 0),) * k + ((1, 1, 0),) * k
    assert ctx.normal_form(seq) == {((1, 1, 0),) * k + ((2, 2, 0),) * k: 1}


_COMM_SPECS = (C1, C2, null_algebra(2), matrix_algebra(2))


def _random_element(ctx, rng):
    gens = ctx.gens
    terms = {}
    for _ in range(rng.randint(0, 3)):
        mono = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        terms[mono] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return UElement(ctx, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(_COMM_SPECS), st.integers(1, 3))
def test_commutator_matches_product_difference(seed, spec, n):
    # multiply is the reference; monomials of degree 0 give constant terms
    rng = random.Random(seed)
    ctx = Enveloping.get(spec, n)
    u = _random_element(ctx, rng)
    v = _random_element(ctx, rng)
    for a, b in ((u, v), (u, ctx.zero()), (ctx.one(), v), (u + ctx.one(), v.scale(Fraction(1, 2)))):
        assert ctx.commutator(a, b) == ctx.multiply(a, b) - ctx.multiply(b, a)


@pytest.mark.parametrize("n", (4, 5))
@pytest.mark.parametrize("spec", (C2, matrix_algebra(2)), ids=lambda spec: spec.name)
def test_commutator_of_t_elements_with_diagonal_factors(spec, n):
    # a diagonal factor E_aa meets h by its row and by its column, and a pair
    # E_ab, E_ba meets both ways; each pair is bracketed once, so the
    # commutator is the product difference
    ctx = Enveloping.get(spec, n)
    words = list(words_up_to(spec, 2))
    elems = [ctx.t_elem(i, j, w, Fraction(1, 2)) for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)) for w in (words[0], words[-1])]
    elems.append(ctx.gen(1, 1) + ctx.gen(3, 3).scale(2) - ctx.gen(3, 1))
    assert any(i == j for u in elems for m in u.terms for i, j, _b in m)
    for u in elems:
        for v in elems:
            assert ctx.commutator(u, v) == ctx.multiply(u, v) - ctx.multiply(v, u), (u, v)


def test_symbol_match_builds_no_cancelling_top_degree(monkeypatch):
    # the symbol verdicts read top parts in gr U, so they never call commutator,
    # and the stc pair normal-forms no word longer than its inputs
    def no_commutator(self, u, v):
        raise AssertionError("commutator called")

    monkeypatch.setattr(Enveloping, "commutator", no_commutator)
    assert symbol_match_smd(matrix_algebra(2), 1, 2, 2, 1, (0, 1), (2,), 2, Fraction(1, 2), 3)
    longest = [0]
    normal_form = Enveloping.normal_form

    def spy(self, seq):
        longest[0] = max(longest[0], len(seq))
        return normal_form(self, seq)

    def no_multiply(self, u, v):
        raise AssertionError("multiply called")

    monkeypatch.setattr(Enveloping, "normal_form", spy)
    monkeypatch.setattr(Enveloping, "multiply", no_multiply)
    assert symbol_match_stc(matrix_algebra(2), (0, 1), (2, 3), 4)
    assert longest[0] == 2


# index tuples (i, j, k, l) of the pairs [x_ij, y_kl] in the top-part grid
_TOP_INDICES = ((1, 1, 1, 1), (1, 2, 2, 1), (1, 2, 1, 2), (2, 1, 1, 1))


@pytest.mark.parametrize("spec", _COMM_SPECS, ids=lambda spec: spec.name)
def test_top_commutator_is_the_top_part_of_commutator(spec):
    # the commutator's normal form is the reference; t-elements and the unit
    # plus a generator bring lower-degree monomials that must not count
    s = Fraction(1, 2)
    for n in (2, 3, 4):
        ctx = Enveloping.get(spec, n)
        words = list(words_up_to(spec, 2))
        pairs = [
            (make(i, j, x), make(k, l, y))
            for make in (ctx.e_elem, lambda i, j, w: ctx.t_elem(i, j, w, s))
            for i, j, k, l in _TOP_INDICES
            for x in words
            for y in words
        ]
        special = [ctx.zero(), ctx.one(), ctx.one().scale(-3), ctx.gen(2, 1) + ctx.one()]
        probes = special + [ctx.e_elem(1, 2, words[-1]), ctx.t_elem(2, 1, words[0], s)]
        pairs += [(a, b) for a in special for b in probes] + [(b, a) for a in special for b in probes]
        for u, v in pairs:
            deg = u.degree() + v.degree() - 1
            assert ctx.top_commutator(u, v) == ctx.commutator(u, v).homogeneous(deg), (u, v)


@pytest.mark.parametrize("spec", _COMM_SPECS, ids=lambda spec: spec.name)
def test_e_top_is_the_top_part_of_e_elem(spec):
    for n in (2, 3, 4):
        ctx = Enveloping.get(spec, n)
        for w in words_up_to(spec, 3 if spec.dim == 1 else 2):
            for i in (1, 2):
                for j in (1, 2):
                    assert ctx.e_top(i, j, w) == ctx.e_elem(i, j, w).homogeneous(len(w)).terms
        # bad input raises as in e_elem; an empty word must not reach itertools.product(repeat=-1)
        bad = ((1, 1, ()), (n + 1, 1, (0,)), (0, 1, (0,)), (1, 1, (spec.dim,)), (1, n + 1, (0, 0)), (1, 1, (0, spec.dim)))
        for i, j, word in bad:
            with pytest.raises(StructureError):
                ctx.e_top(i, j, word)


_SHARED_SPECS = (C2, matrix_algebra(2))


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_context_words_share_its_generator_objects(spec, n):
    # chain words, e_top keys, brackets and every memoized normal-form word are
    # built from the context's own generator objects, not from equal copies
    ctx = Enveloping(spec, n)
    own = {g: g for g in ctx.gens}

    def shared(word):
        return all(g is own[g] for g in word)

    for g in ctx.gens:
        for h in ctx.gens:
            assert all(gen is own[gen] for gen, _c in ctx.commutator_terms(g, h)), (g, h)
    for w in words_up_to(spec, 3 if spec.dim <= 2 else 2):
        for i, j in ((1, 1), (1, 2), (2, 1)):
            assert all(shared(word) for word in ctx._chain_words(i, j, w)), (i, j, w)
            assert all(shared(word) for word in ctx.e_top(i, j, w)), (i, j, w)
            ctx.e_elem(i, j, w)
    assert all(shared(word) and all(shared(m) for m in nf) for word, nf in ctx._nf.items())


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_memoized_top_parts_and_traces(spec, n):
    # a memo hit hands back the first result, which matches the top part of
    # e_elem and what a context that met the words in the other order gives
    ctx, fresh = Enveloping(spec, n), Enveloping(spec, n)
    words = list(words_up_to(spec, 2))
    cases = [(i, j, w) for w in words for i, j in ((1, 1), (1, 2), (2, 1), (n, 1))]
    expected = {case: fresh.e_top(*case) for case in reversed(cases)}
    for i, j, w in cases:
        top = ctx.e_top(i, j, w)
        assert ctx.e_top(i, j, list(w)) is top
        assert top == ctx.e_elem(i, j, w).homogeneous(len(w)).terms == expected[i, j, w]
    for w in words:
        trace = trace_elem(ctx, w)
        assert trace_elem(ctx, list(w)) is trace
        plain = ctx.zero()
        for a in range(1, n + 1):
            plain = plain + ctx.e_elem(a, a, w)
        assert trace == plain


@pytest.mark.parametrize("n", (3, 4))
@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_trace_top_commutator_is_the_top_part_of_commutator(spec, n):
    # the sums over a that the stc check brackets, against the commutator's
    # normal form; x runs outer, as in the check, so the slot is reused
    ctx = Enveloping(spec, n)
    reps = sorted({cyclic(w) for w in words_up_to(spec, 2)})
    for x in reps:
        u = trace_elem(ctx, x)
        for y in reps:
            v = trace_elem(ctx, y)
            deg = u.degree() + v.degree() - 1
            assert ctx.top_commutator(u, v) == ctx.commutator(u, v).homogeneous(deg), (x, y)
            assert ctx._field[0] is u


def _slot_elements(ctx):
    """Left and right arguments of several degrees, with lower-degree terms."""
    words = list(words_up_to(ctx.omega, 2))
    return [
        ctx.gen(1, 2),
        ctx.e_elem(1, 2, words[-1]),
        trace_elem(ctx, words[1]),
        ctx.t_elem(2, 1, words[-1], Fraction(1, 2)) + ctx.gen(3, 3).scale(2),
        ctx.multiply(ctx.gen(2, 1), ctx.gen(1, 3)) - ctx.one(),
    ]


def _top_reference(ctx, u, v):
    return ctx.commutator(u, v).homogeneous(u.degree() + v.degree() - 1)


@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_top_commutator_slot_follows_the_left_argument(spec):
    # left arguments that alternate and that repeat; a repeat keeps the held field
    ctx = Enveloping(spec, 3)
    els = _slot_elements(ctx)
    order = [0, 1, 0, 2, 2, 3, 1, 1, 4, 3, 0, 4]
    for step, a in enumerate(order):
        u = els[a]
        held = ctx._field
        for v in els:
            assert ctx.top_commutator(u, v) == _top_reference(ctx, u, v), (a, v)
        assert ctx._field[0] is u
        if step and order[step - 1] == a:
            assert ctx._field is held


@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_top_commutator_slot_is_kept_by_identity(spec):
    # an equal but distinct left argument gets a field of its own
    ctx = Enveloping(spec, 3)
    els = _slot_elements(ctx)
    u = els[3]
    twin = UElement._trusted(ctx, dict(u.terms))
    assert twin == u and twin is not u
    for v in els:
        ctx.top_commutator(u, v)
        held = ctx._field
        assert ctx.top_commutator(twin, v) == _top_reference(ctx, u, v)
        assert ctx._field is not held and ctx._field[0] is twin


@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_top_commutator_is_antisymmetric_whichever_side_holds_the_slot(spec):
    ctx = Enveloping(spec, 3)
    els = _slot_elements(ctx)
    for u in els:
        for v in els:
            for holder in (u, v):
                ctx.top_commutator(holder, ctx.gen(2, 2))
                assert ctx._field[0] is holder
                assert ctx.top_commutator(u, v) == ctx.top_commutator(v, u).scale(-1), (u, v)


@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_top_commutator_of_zero_and_constants(spec):
    ctx = Enveloping(spec, 3)
    els = _slot_elements(ctx)
    for c in (ctx.zero(), ctx.one(), ctx.one().scale(-3)):
        for v in els + [c]:
            assert ctx.top_commutator(c, v).is_zero()
            assert ctx._field[0] is c
            assert ctx.top_commutator(v, c).is_zero()
            assert ctx._field[0] is v


@pytest.mark.parametrize("spec", _SHARED_SPECS, ids=lambda spec: spec.name)
def test_top_commutator_holds_one_field_after_a_sweep(spec):
    # the slot is the context's only tuple-valued state, and after a sweep it
    # holds the last left argument with X_u(h) for each h it was asked for
    ctx, fresh = Enveloping(spec, 3), Enveloping(spec, 3)
    els = _slot_elements(ctx)
    for u in els:
        for v in els:
            ctx.top_commutator(u, v)
    assert [name for name, value in vars(ctx).items() if isinstance(value, tuple)] == ["_field"]
    last, partials, by_row, by_col, xs = ctx._field
    assert last is els[-1]
    assert sorted(g for row in by_row.values() for g in row) == sorted(partials)
    assert sorted(g for col in by_col.values() for g in col) == sorted(partials)
    asked = set()
    for v in els:
        for mono in v.homogeneous(v.degree()).terms:
            asked.update(mono)
    assert set(xs) == asked
    # each X_u(h) is the top part of [u, E_h]
    twin = UElement._trusted(fresh, last.terms)
    for h, xh in xs.items():
        assert UElement._trusted(fresh, xh) == _top_reference(fresh, twin, UElement._trusted(fresh, {(h,): 1})), h


def test_top_commutator_rejects_foreign_elements_and_keeps_its_slot():
    ctx, other = Enveloping(C2, 3), Enveloping(C2, 3)
    u, v = ctx.gen(1, 2), trace_elem(ctx, (0, 1))
    ctx.top_commutator(v, u)
    other.top_commutator(other.gen(2, 1), other.gen(1, 2))
    held, held_other = ctx._field, other._field
    for foreign in (other.gen(1, 2), trace_elem(other, (0, 1)), Enveloping(C2, 4).gen(1, 2), Enveloping(C1, 3).gen(1, 2)):
        for pair in ((foreign, u), (u, foreign), (foreign, v), (v, foreign)):
            with pytest.raises(StructureError):
                ctx.top_commutator(*pair)
            assert ctx._field is held and other._field is held_other


def test_commutator_rejects_foreign_context():
    a = Enveloping.get(C1, 2)
    b = Enveloping.get(C1, 3)
    with pytest.raises(StructureError):
        a.commutator(a.gen(1, 2), b.gen(1, 2))
    with pytest.raises(StructureError):
        a.commutator(a.gen(1, 2), Enveloping.get(C2, 2).gen(1, 2))


def test_multiply_associative_spot():
    ctx = Enveloping.get(C2, 2)
    a = ctx.gen(1, 2, 0) + ctx.gen(2, 2, 1)
    b = ctx.gen(2, 1, 0)
    c = ctx.gen(1, 1, 0) - ctx.one()
    assert ctx.multiply(ctx.multiply(a, b), c) == ctx.multiply(a, ctx.multiply(b, c))


def test_e_elem_chain_sum():
    ctx = Enveloping.get(C1, 2)
    got = ctx.e_elem(1, 1, (0, 0))
    expected = UElement(
        ctx,
        {
            ((1, 1, 0), (1, 1, 0)): 1,
            ((2, 1, 0), (1, 2, 0)): 1,
            ((1, 1, 0),): 1,
            ((2, 2, 0),): -1,
        }
    )
    assert got == expected
    with pytest.raises(StructureError):
        ctx.e_elem(1, 1, ())


def test_special_elements_reject_out_of_range_input():
    # one-letter words too: normal_form checks a word it has not met before, sorted or not
    for spec in (C1, C2):
        ctx = Enveloping.get(spec, 2)
        for i, j, word in (
            (3, 3, (0,)), (0, 1, (0,)), (1, 1, (5,)),
            (1, 3, (0, 0)), (0, 1, (0, 0)), (1, 1, (0, 5)), (1, 1, (5, 0)),
        ):
            with pytest.raises(StructureError):
                ctx.e_elem(i, j, word)
            with pytest.raises(StructureError):
                ctx.t_elem(i, j, word, 0)
            if i >= 1:  # t_gen itself rejects index 0
                with pytest.raises(StructureError):
                    evaluate((t_gen(i, j, word),), ctx, 0)


@pytest.mark.parametrize("spec", (C1, C2), ids=lambda spec: spec.name)
def test_one_range_check_memoizes_nothing(spec):
    # an out-of-range generator at each position of words of length 1-3, in
    # key order and out of it, raises before any word is memoized
    ctx = Enveloping(spec, 2)
    ctx.e_elem(1, 2, (0, 0))  # memos with words in them
    ctx.e_top(1, 2, (0, 0))
    trace_elem(ctx, (0, 0))
    n, dim = ctx.n, spec.dim
    bad_gens = ((0, 1, 0), (n + 1, 1, 0), (1, 0, 0), (1, n + 1, 0), (1, 1, dim), (1, 1, -1))
    fillers = (tuple(ctx.gens[:3]), tuple(reversed(ctx.gens[-3:])))
    before = (len(ctx._nf), dict(ctx._e_top), dict(ctx._trace))

    def raises(call, *args):
        with pytest.raises(StructureError):
            call(*args)
        assert (len(ctx._nf), ctx._e_top, ctx._trace) == before, (call, args)

    for length in (1, 2, 3):
        for filler in fillers:
            for pos in range(length):
                for bad in bad_gens:
                    word = filler[:pos] + (bad,) + filler[pos + 1 : length]
                    raises(ctx.normal_form, word)
                    raises(UElement, ctx, {word: 1})
    # e_ij(w; N): i, j and each letter of w out of range in turn, and the empty word;
    # the letters 0.0 and False equal 0, so at length 2 they would hit the (0, 0) memos
    cases = [(1, 1, ())]
    bad_letters = (dim, -1, 0.0, False)
    for length in (1, 2, 3):
        cases += [(i, j, (0,) * length) for i, j in ((0, 1), (n + 1, 1), (1, 0), (1, n + 1))]
        cases += [(1, 2, (0,) * pos + (b,) + (0,) * (length - pos - 1)) for pos in range(length) for b in bad_letters]
    for i, j, word in cases:
        raises(ctx.e_elem, i, j, word)
        raises(ctx.e_top, i, j, word)
        if (i, j) == (1, 2):  # the bad letters and the empty word
            raises(trace_elem, ctx, word)
        for s in (0, -n):
            raises(ctx.t_elem, i, j, word, s)
    # a float or bool part equals an int one as a dict key, so the memo of
    # normal_form would answer for it: the constructor checks each generator
    for word in (((1, 1, 0.0),), ((1.0, 2, 0), (2, 1, 0)), ((True, 2, 0),)):
        raises(UElement, ctx, {word: 1})
    product = ctx.multiply(ctx.gen(1, 2), ctx.gen(2, 1))
    assert {type(part) for mono in product.terms for g in mono for part in g} == {int}


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("spec", _COMM_SPECS, ids=lambda spec: spec.name)
def test_gens_are_every_generator_in_key_order(spec, n):
    # monomials builds sorted monomials as multisets of gens, so gens must be in key order
    ctx = Enveloping(spec, n)
    every = {(i, j, b) for i in range(1, n + 1) for j in range(1, n + 1) for b in range(spec.dim)}
    assert len(ctx.gens) == n * n * spec.dim == len(every) and set(ctx.gens) == every
    assert ctx.gens == sorted(ctx.gens, key=ctx.sort_key)
    for mono in ctx.monomials(2):
        assert ctx.normal_form(mono) == {mono: 1}


def test_t_elem_reduces_to_e_elem_at_minus_n():
    ctx = Enveloping.get(C2, 3)
    for w in ((0,), (0, 1), (1, 1, 0)):
        assert ctx.t_elem(1, 2, w, Fraction(-3)) == ctx.e_elem(1, 2, w)


def test_anchor_normal_form_against_golden():
    ctx = Enveloping.get(C1, 2)
    with open(GOLDEN) as fh:
        golden = [line.rstrip("\n") for line in fh if line.strip()]
    lines = []
    for s in S_VALUES:
        t = ctx.t_elem(1, 1, (0, 0), s)
        lines.append("s=%s normal_form: %s" % (s, t.canonical_str()))
        lines.append("s=%s projection: %s" % (s, ctx.project_down(t).canonical_str()))
    assert lines == golden


def test_anchor_exact_coefficients():
    ctx = Enveloping.get(C1, 2)
    for s in S_VALUES:
        got = ctx.t_elem(1, 1, (0, 0), s)
        expected = UElement(
            ctx,
            {
                ((1, 1, 0), (1, 1, 0)): 1,
                ((2, 1, 0), (1, 2, 0)): 1,
                ((1, 1, 0),): Fraction(-1) - s,
                ((2, 2, 0),): -1,
            }
        )
        assert got == expected


def test_projection_theorem_slice():
    spec = C2
    ctx = Enveloping.get(spec, 3)
    low = Enveloping.get(spec, 2)
    for s in (Fraction(0), Fraction(5, 2)):
        for i in (1, 2):
            for j in (1, 2):
                for w in words_up_to(spec, 2):
                    assert ctx.project_down(ctx.t_elem(i, j, w, s)) == low.t_elem(i, j, w, s)


def _project_down_three_passes(ctx, u):
    # the projection read off by three scans: weights, index N, an E(*, N) factor
    n = ctx.n
    if any(ctx.mono_weight(m) for m in u.terms):
        raise StructureError("project_down needs an E_NN-invariant element")
    target = Enveloping.get(ctx.omega, n - 1)
    acc = {}
    for mono, c in u.terms.items():
        if any(i == n or j == n for i, j, _b in mono):
            assert any(j == n for _i, j, _b in mono), mono
            continue
        _acc(acc, mono, c)
    return UElement(target, acc)


@pytest.mark.parametrize("n", (3, 4))
def test_project_down_matches_three_passes(n):
    # every projection.theorem cell of C^2 (d = 2, words up to length 3, the
    # configured s values) on a fresh table
    spec = direct_sum_C(2)
    ctx = Enveloping.get(spec, n)
    for s in DEFAULT_S:
        for i, j, w in itertools.product((1, 2), (1, 2), words_up_to(spec, 3)):
            t = ctx.t_elem(i, j, w, s)
            assert ctx.project_down(t) == _project_down_three_passes(ctx, t), (i, j, w, s)


def test_project_down_rejects_unbalanced_elements():
    ctx = Enveloping.get(C1, 3)
    with pytest.raises(StructureError):
        ctx.project_down(ctx.gen(1, 3))


@pytest.mark.parametrize("bad", [((1, 3, 0),), ((3, 1, 0), (3, 3, 0)), ((1, 3, 0), (2, 3, 0), (3, 2, 0))])
def test_project_down_checks_every_monomial_before_projecting(bad):
    # invariant monomials come first in the element, the unbalanced one last;
    # nothing is normal-formed in the target context before the raise
    spec = direct_sum_C(1)
    ctx, target = Enveloping.get(spec, 3), Enveloping.get(spec, 2)
    u = UElement._trusted(ctx, {((1, 1, 0), (2, 1, 0)): 1, ((2, 3, 0), (3, 1, 0)): 2, bad: 3})
    assert list(u.terms)[-1] == bad
    before = dict(target._nf)
    with pytest.raises(StructureError) as exc:
        ctx.project_down(u)
    assert str(exc.value) == "project_down needs an E_NN-invariant element"
    assert target._nf == before


def test_reparametrize_identity():
    ctx = Enveloping.get(C2, 3)
    for (s, s2) in ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(-1))):
        for w in ((0,), (1, 0), (0, 1, 1)):
            assert ctx.reparametrize_check(1, 2, w, s, s2)


def test_centralizer_membership_of_t_elements():
    spec = C2
    ctx = Enveloping.get(spec, 4)
    for i in (1, 2):
        for j in (1, 2):
            for w in ((0,), (1,), (0, 1)):
                assert ctx.is_in_centralizer(ctx.t_elem(i, j, w, Fraction(0)), 2)
    # E_13 is moved by gl_2 acting on indices 3, 4
    assert not ctx.is_in_centralizer(ctx.gen(1, 3), 2)


def test_weight_detects_imbalance():
    # E_11 has E_33-weight 0 and E_13 has -1: the sum is not E_NN-invariant
    ctx = Enveloping.get(C1, 3)
    with pytest.raises(StructureError):
        ctx.project_down(ctx.gen(1, 1) + ctx.gen(1, 3))


def test_invariant_dim_degree_one():
    # 1 (unit) + dim (traces) + d^2 dim (matrix part)
    for spec, expected_d1 in ((C1, 3), (C2, 5)):
        ctx = Enveloping.get(spec, 3)
        assert ctx.invariant_dim(0, 1) == 1 + spec.dim
        assert ctx.invariant_dim(1, 1) == expected_d1
        basis = ctx.invariant_basis(1, 1)
        assert len(basis) == expected_d1
        for u in basis:
            assert ctx.is_in_centralizer(u, 1)


def test_invariant_dim_null_table():
    ctx = Enveloping.get(null_algebra(2), 3)
    assert ctx.invariant_dim(1, 1) == 1 + 2 + 2


@pytest.mark.parametrize("d", [-1, 4])
def test_invariants_reject_d_out_of_range(d):
    ctx = Enveloping.get(C1, 3)
    for compute in (ctx.invariant_dim, ctx.invariant_basis):
        with pytest.raises(StructureError, match=r"^d must be an integer in 0\.\.3, got %d$" % d):
            compute(d, 1)


@pytest.mark.parametrize("spec", _COMM_SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("n", [3, 4])
def test_generator_constraints_cut_out_the_centralizer(spec, n):
    # the reference system: ad E_ij for every i != j of the acting block
    ctx = Enveloping.get(spec, n)
    for d in (0, 1, 2):
        cols = ctx._torus_zero_monomials(d, 2)
        rows = {}
        for ci, mono in enumerate(cols):
            for i in range(d + 1, n + 1):
                for j in range(d + 1, n + 1):
                    if i != j:
                        for m2, c in ctx._ad_mono(i, j, mono).items():
                            rows.setdefault((i, j, m2), {})[ci] = c
        assert ctx.invariant_dim(d, 2) == len(cols) - rank(rows.values())
        for u in ctx.invariant_basis(d, 2):
            assert ctx.is_in_centralizer(u, d)


def test_ideal_intersection_check():
    # the dimensions agree with intersecting each ideal's whole span with the
    # weight-zero coordinate subspace, so keeping weight-zero words misses none
    cases = (
        (C1, 2, 4), (C1, 3, 10), (C2, 2, 13), (C2, 3, 37),
        (null_algebra(2), 2, 13), (null_algebra(2), 3, 37),
        (matrix_algebra(2), 2, 46), (matrix_algebra(2), 3, 142),
    )
    for spec, n, dim in cases:
        rep = Enveloping.get(spec, n).ideal_intersection_check(2)
        assert rep == {
            "intersections_equal": True,
            "dim": dim,
            "direct_sum": True,
            "two_sided": True,
            "passed": True,
        }, (spec.name, n)
