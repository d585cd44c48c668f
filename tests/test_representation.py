"""U(gl(N, Omega)) against its action on tensors, a computation that shares no code with it.

If Omega is associative, gl(N, Omega) acts on V = (Omega^+)^N, where Omega^+
is Omega with a unit adjoined (so that null tables act too), by

    E_ij(x) e_l(w) = delta_jl e_i(x w),

and U(gl(N, Omega)) acts on each tensor power V^{(x)m} by derivations.  An
identity u = v in U must give equal operators; equal operators need not mean
u = v, so this oracle sits beside the exact checks and replaces none.  The
coefficients are exact, and generator pairs are enumerated, never drawn.
"""

import itertools
from fractions import Fraction

import pytest

from glomega import Enveloping, direct_sum_C, matrix_algebra, null_algebra
from glomega.words import words_up_to
from glomega.yangian import evaluate, tgen_key

SPECS = (direct_sum_C(1), direct_sum_C(2), null_algebra(2), matrix_algebra(2))
CELLS = [(spec, n) for spec in SPECS for n in (2, 3)]
_IDS = ["%s-N%d" % (spec.name, n) for spec, n in CELLS]

# A tensor factor e_l(w) is the pair (l, w), and the letter None is the
# adjoined unit; so the generator (a, b, None) is the matrix unit E_ab of
# gl(N, C), which acts on V by E_ab e_l(w) = delta_bl e_a(w).


def _basis(ctx, m):
    """Every basis tensor of V^{(x)m}, tagged with itself: {(source, tensor): 1}."""
    factors = [(l, w) for l in range(1, ctx.n + 1) for w in (None,) + tuple(range(ctx.omega.dim))]
    return {(t, t): 1 for t in itertools.product(factors, repeat=m)}


def _left(spec, x, w):
    """x w in Omega^+, as {letter: c}."""
    if x is None:
        return {w: 1}
    return {x: 1} if w is None else spec.product(x, w)


def _combine(*scaled):
    """sum of c * vec over the (c, vec) pairs, with no zero kept."""
    out = {}
    for c, vec in scaled:
        for key, v in vec.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def act(spec, terms, vec):
    """rho(u) vec for the terms {mono: c} of u: the last generator of a monomial acts first."""
    images = []
    for mono, c in terms.items():
        cur = vec
        for i, j, x in reversed(mono):
            nxt = {}
            for (src, t), c1 in cur.items():
                for p, (l, w) in enumerate(t):
                    if l == j:
                        for k, c2 in _left(spec, x, w).items():
                            key = (src, t[:p] + ((i, k),) + t[p + 1 :])
                            nxt[key] = nxt.get(key, 0) + c1 * c2
            cur = nxt
        images.append((c, cur))
    return _combine(*images)


@pytest.mark.parametrize("spec,n", CELLS, ids=_IDS)
def test_generator_pairs_act_as_their_products(spec, n):
    # V is faithful on gl(N, Omega), since E_ij(x) e_j(1) = e_i(x); every pair
    # whose indices meet is visited in both orders, so each bracket is met
    ctx = Enveloping.get(spec, n)
    probes = _basis(ctx, 1)
    single = {g: act(spec, {(g,): 1}, probes) for g in ctx.gens}
    pairs = [(g, h) for g in ctx.gens for h in ctx.gens if g[1] == h[0] or g[0] == h[1]]
    assert len(pairs) >= len(ctx.gens)
    for g, h in pairs:
        gh, hg = act(spec, {(g,): 1}, single[h]), act(spec, {(h,): 1}, single[g])
        assert act(spec, ctx.normal_form((g, h)), probes) == gh, (g, h)
        assert act(spec, ctx.commutator(ctx.gen(*g), ctx.gen(*h)).terms, probes) == _combine((1, gh), (-1, hg)), (g, h)


@pytest.mark.parametrize("spec,n", CELLS, ids=_IDS)
def test_products_and_brackets_of_elements_act_as_operators(spec, n):
    # elements with lower-degree terms, on tensors of degree 2
    ctx = Enveloping.get(spec, n)
    probes = _basis(ctx, 2)
    w = (0, spec.dim - 1)
    elements = [
        ctx.t_elem(1, 2, w, Fraction(5, 2)),
        ctx.e_elem(2, 1, w),
        ctx.e_elem(1, 1, w),
        ctx.gen(2, 1, spec.dim - 1) - ctx.one(),
    ]
    ops = [act(spec, u.terms, probes) for u in elements]
    for u, op_u in zip(elements, ops):
        for v, op_v in zip(elements, ops):
            uv, vu = act(spec, u.terms, op_v), act(spec, v.terms, op_u)
            assert act(spec, ctx.multiply(u, v).terms, probes) == uv, (u, v)
            assert act(spec, ctx.commutator(u, v).terms, probes) == _combine((1, uv), (-1, vu)), (u, v)


@pytest.mark.parametrize("spec,n", CELLS, ids=_IDS)
def test_t_elements_commute_with_the_acting_matrix_units(spec, n):
    # t_ij(w; N; s) with i, j <= d lies in the centralizer of gl(N - d, C), the
    # matrix units E_ab with a, b > d; E_1N is moved by them
    ctx = Enveloping.get(spec, n)
    probes = {**_basis(ctx, 1), **_basis(ctx, 2)}
    for d in range(1, n):
        acting = [((a, b, None),) for a in range(d + 1, n + 1) for b in range(d + 1, n + 1)]
        moved = {g: act(spec, {g: 1}, probes) for g in acting}

        def commutes(terms):
            op = act(spec, terms, probes)
            return all(act(spec, {g: 1}, op) == act(spec, terms, moved[g]) for g in acting)

        for i, j in itertools.product(range(1, d + 1), repeat=2):
            for w in words_up_to(spec, 2):
                for s in (Fraction(0), Fraction(5, 2)):
                    assert commutes(ctx.t_elem(i, j, w, s).terms), (d, i, j, w, s)
        assert not commutes(ctx.gen(1, n).terms)


@pytest.mark.parametrize("spec,n", CELLS, ids=_IDS)
def test_evaluated_monomials_act_as_their_factors_in_order(spec, n):
    # every ordered monomial of 1 to 3 factors over the labels with i, j <= 2 and
    # three words: its evaluation acts as its t-factors applied one after
    # another, the last factor first; (0, 0) coagulates to a nonzero letter on
    # every unital table, so its t-elements move with s
    ctx = Enveloping.get(spec, n)
    probes = _basis(ctx, 1)
    words = {(0,), (spec.dim - 1,), (0, 0)}
    labels = sorted(((i, j, w) for i, j in itertools.product((1, 2), repeat=2) for w in words), key=tgen_key)
    monomials = [m for k in (1, 2, 3) for m in itertools.combinations_with_replacement(labels, k)]
    for s in (Fraction(0), Fraction(5, 2)):
        for mono in monomials:
            want = probes
            for i, j, w in reversed(mono):
                want = act(spec, ctx.t_elem(i, j, w, s).terms, want)
            assert act(spec, evaluate(mono, ctx, s).terms, probes) == want, (mono, s)
