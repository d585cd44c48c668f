r"""Linear double Poisson brackets on the free tensor algebra of a table.

For a coefficient algebra :math:`\Omega` with product :math:`\mu`, the
bracket on single letters is

.. math::  \langle\!\langle x, y \rangle\!\rangle
           \;=\; 1 \boxtimes \mu(x, y) \;-\; \mu(y, x) \boxtimes 1,

and its Leibniz extension to arbitrary words :math:`x = x_1 \otimes \cdots
\otimes x_m`, :math:`y = y_1 \otimes \cdots \otimes y_n` is the double sum

.. math::  \sum_{r,s} (y^{<s} \otimes x^{>r}) \boxtimes
                      (x^{<r} \otimes x_r y_s \otimes y^{>s})
           \;-\; (y^{<s} \otimes y_s x_r \otimes x^{>r}) \boxtimes
                      (x^{<r} \otimes y^{>s}),

where :math:`x^{<r}` and :math:`x^{>r}` are the prefix before and the suffix
after the r-th letter.  The formula is defined for *any* bilinear
:math:`\mu`; skew-symmetry and both Leibniz rules hold identically, while
the double Jacobi identity holds precisely when :math:`\mu` is associative.
That equivalence is checked, not assumed (:func:`pvdw_equivalence`), and the
module deliberately accepts non-associative tables.  The law checks of one
table read their brackets through one memo (:func:`_brackets`, built by
:func:`~glomega.omega.pair_memo`), which the caller may share between them;
each check builds a fresh one if not given.

A double bracket is a plain dict ``{(u, v): c}`` from pairs of words to
scalars, a double Jacobi sum a dict ``{(u1, u2, u3): c}``, and a polynomial
in symbols or necklaces a dict from sorted monomials to scalars.  Every
term is added as ``_acc`` adds it, dropping a key whose sum is zero (the
two hot loops write that step inline: :func:`double_bracket` joins a slot
only for a nonzero letter product, and :func:`triple_jacobi_sum` has one
loop per rotation), so no zero is ever stored and two of them are equal
exactly when they are equal as dicts.

The bracket descends to two quotients, both realized here:

* the polynomial algebra on matrix-entry symbols ``p_ij(word)`` with the
  bracket :func:`poisson_smd` obtained by contracting Sweedler slots
  (``p_ab`` of the empty word is the scalar ``delta_ab``); a symbol is the
  plain label ``(i, j, word)`` (:data:`~glomega.words.Label`), the same
  label as the t-generator it is the symbol of, and a monomial is a tuple
  of labels sorted by :func:`pgen_key`, and
* cyclic coinvariants (necklaces) with the trace bracket
  :func:`trace_bracket`: bracket the lifts, multiply the two slots, project
  cyclically; a necklace class is its least rotation, a plain tuple built by
  :func:`~glomega.words.cyclic`, and :func:`poisson_stc` extends the bracket
  to polynomials whose monomials are sorted tuples of classes.

Both are matched against top filtration parts of commutators in
U(gl(N, Omega)) by :func:`symbol_match_smd` and :func:`symbol_match_stc`,
at two consecutive sizes N and N+1.  Those top parts are read in
gr U = S(gl(N, Omega)) by :meth:`~glomega.enveloping.Enveloping.top_commutator`,
and the necklace side by :meth:`~glomega.enveloping.Enveloping.e_top`.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .enveloping import Enveloping, UElement, stable
from .omega import (
    AlgebraSpec,
    Scalar,
    ScalarLike,
    StructureError,
    _acc,
    as_scalar,
    check_associativity,
    check_int,
    check_letters,
    pair_memo,
    vec_add,
)
from .words import Label, Word, cyclic, words_up_to


Double = Dict[Tuple[Word, Word], Scalar]  # u (x) v -> coefficient, no zero stored
Triple = Dict[Tuple[Word, Word, Word], Scalar]  # u1 (x) u2 (x) u3 -> coefficient, no zero stored


def double_bracket(spec: AlgebraSpec, x: Word, y: Word) -> Double:
    """The linear double bracket of two basis words (``{}`` if either is empty).

    Raises ``StructureError`` if a letter of ``x`` or ``y`` lies outside
    ``0..dim-1``.
    """
    x = tuple(x)
    y = tuple(y)
    check_letters(spec, x + y)
    product = spec.product
    out: Double = {}
    get = out.get
    # (y_s, y^{<s}, y^{>s}) for each s, sliced once per call; x^{<r} and
    # x^{>r} are sliced once per r
    cuts = [(y[s], y[:s], y[s + 1 :]) for s in range(len(y))]
    for r, xr in enumerate(x):
        before, after = x[:r], x[r + 1 :]
        for ys, below, above in cuts:
            terms = product(xr, ys)  # on mat(2) half the products are empty
            if terms:
                first = below + after
                for k, c in terms.items():
                    key = (first, before + (k,) + above)
                    total = get(key, 0) + c
                    if total:
                        out[key] = total
                    else:
                        out.pop(key, None)
            terms = product(ys, xr)
            if terms:
                second = before + above
                for k, c in terms.items():
                    key = (below + (k,) + after, second)
                    total = get(key, 0) - c
                    if total:
                        out[key] = total
                    else:
                        out.pop(key, None)
    return out


def letter_bracket_expected(spec: AlgebraSpec, i: int, j: int) -> Double:
    """1 (x) mu(x_i, x_j) - mu(x_j, x_i) (x) 1, the defining formula on letters."""
    check_letters(spec, (i, j))
    out: Double = {}
    for k, c in spec.product(i, j).items():
        _acc(out, ((), (k,)), c)
    for k, c in spec.product(j, i).items():
        _acc(out, ((k,), ()), -c)
    return out


def check_letter_bracket(spec: AlgebraSpec) -> Optional[Tuple[int, int]]:
    """First letter pair where the word formula disagrees with the letter formula."""
    for i in range(spec.dim):
        for j in range(spec.dim):
            if double_bracket(spec, (i,), (j,)) != letter_bracket_expected(spec, i, j):
                return (i, j)
    return None


Bracket = Callable[[Word, Word], Double]


def _brackets(spec: AlgebraSpec, given: Optional[Bracket] = None) -> Bracket:
    """``bracket(x, y)``: ``double_bracket(spec, x, y)``, memoized per pair by :func:`~glomega.omega.pair_memo`.

    ``given`` is returned if it is a memo of ``spec``.  The double suite
    hands one memo per table to skew, Leibniz and double Jacobi, so a pair
    is bracketed once per table.  Every word stored, in a key or a slot, and
    every slot pair ``(u, v)`` is one object per distinct value (``share``):
    mat(2)'s memo after the three checks holds 0.73 MB (tracemalloc), and
    1.50 MB with the brackets as computed.  A coefficient is stored as
    :func:`~glomega.omega.as_scalar` gives it, as ``UElement._trusted`` does, so
    a table of integral ``Fraction`` constants sums its laws in ``int`` arithmetic.
    """
    def compute(share: Callable, x: Word, y: Word) -> Double:
        return {
            share(p := (share(u, u), share(v, v)), p): as_scalar(c) for (u, v), c in double_bracket(spec, x, y).items()
        }

    return pair_memo(spec, compute, given)


def _scan(spec: AlgebraSpec, maxlen: int, bracket: Optional[Bracket]) -> Tuple[List[Word], Bracket]:
    """The words a law check scans, ``[()] + words_up_to(spec, maxlen)``, and its memo ``_brackets(spec, bracket)``."""
    check_int("maxlen", 1, maxlen)
    return [()] + list(words_up_to(spec, maxlen)), _brackets(spec, bracket)


def check_skew(spec: AlgebraSpec, maxlen: int, bracket: Optional[Bracket] = None) -> Optional[Tuple[Word, Word]]:
    """<<x, y>> must equal -flip(<<y, x>>), flip(u (x) v) = v (x) u; pairs with an empty word vanish.

    The law is symmetric in the pair, so each unordered pair of heads is
    visited once and the witness is the first failing ordered pair.
    ``bracket`` is read through :func:`_scan`.
    """
    heads, br = _scan(spec, maxlen, bracket)
    for ia, a in enumerate(heads):
        for b in heads[ia:]:
            if br(a, b) != {(v, u): -c for (u, v), c in br(b, a).items()}:
                return (a, b)
    return None


def check_leibniz(
    spec: AlgebraSpec, maxlen: int, bracket: Optional[Bracket] = None
) -> Optional[Tuple[str, Word, Word, Word]]:
    """Both Leibniz rules, with concatenation products, on the words of :func:`_scan`.

    Outer rule in the second argument, with the outer bimodule actions
    b . (u (x) v) = bu (x) v and (u (x) v) . c = u (x) vc:
        <<a, bc>> = <<a, b>> . c + b . <<a, c>>,
    inner rule in the first (equivalent via skew-symmetry), with the inner
    actions b * (u (x) v) = u (x) bv and (u (x) v) * c = uc (x) v:
        <<bc, a>> = b * <<c, a>> + <<b, a>> * c.
    Returns ("outer"|"inner", a, b, c) for the first failure.  ``bracket``
    is read through :func:`_scan`.
    """
    heads, br = _scan(spec, maxlen, bracket)
    for a in heads:
        for b in heads:
            ab, ba = br(a, b), br(b, a)
            for c in heads:
                if len(b) + len(c) > maxlen:
                    continue
                outer = {(u, v + c): x for (u, v), x in ab.items()}
                for (u, v), x in br(a, c).items():
                    _acc(outer, (b + u, v), x)
                if br(a, b + c) != outer:
                    return ("outer", a, b, c)
                inner = {(u, b + v): x for (u, v), x in br(c, a).items()}
                for (u, v), x in ba.items():
                    _acc(inner, (u + c, v), x)
                if br(b + c, a) != inner:
                    return ("inner", b, c, a)
    return None


def triple_jacobi_sum(bracket: Bracket, a: Word, b: Word, c: Word) -> Triple:
    """Cyclic sum <<a,<<b,c>>>>_L + rot <<b,<<c,a>>>>_L + rot^2 <<c,<<a,b>>>>_L.

    <<a, u (x) v>>_L = <<a, u>> (x) v brackets ``a`` into the first slot,
    and rot(u1 (x) u2 (x) u3) = u3 (x) u1 (x) u2.  All three terms are added
    into one dict, each rotation by its own loop.  ``bracket(x, y)`` computes
    the double bracket of two words: :func:`check_double_jacobi` passes a
    memo of :func:`_brackets`.
    """
    out: Triple = {}
    get = out.get
    for (u, v), c1 in bracket(b, c).items():
        for (p, q), c2 in bracket(a, u).items():
            t = (p, q, v)
            total = get(t, 0) + c1 * c2
            if total:
                out[t] = total
            else:
                out.pop(t, None)
    for (u, v), c1 in bracket(c, a).items():
        for (p, q), c2 in bracket(b, u).items():
            t = (v, p, q)
            total = get(t, 0) + c1 * c2
            if total:
                out[t] = total
            else:
                out.pop(t, None)
    for (u, v), c1 in bracket(a, b).items():
        for (p, q), c2 in bracket(c, u).items():
            t = (q, v, p)
            total = get(t, 0) + c1 * c2
            if total:
                out[t] = total
            else:
                out.pop(t, None)
    return out


def check_double_jacobi(
    spec: AlgebraSpec, maxlen: int, bracket: Optional[Bracket] = None
) -> Optional[Tuple[Word, Word, Word]]:
    """First word triple whose Jacobi sum is nonzero, or None.

    The letter-level sum carries exactly the associator values, so for a
    non-associative table a witness always exists already at length one.

    Triples are scanned in the order of their index triples (i, j, k) in the
    list of words, and one triple per cyclic orbit is checked.  The sum is
    t1 + rot t2 + rot^2 t3 for any bilinear table, so J(b, c, a) is
    rot^2 J(a, b, c): every rotation of a failing triple fails too.  The
    first failing triple of the full scan is therefore the least of its
    rotations, and the scan lists just the least rotations, in order: i <= j
    and i <= k, but not (i, j, i) with j > i, whose rotation (i, i, j) is
    smaller.  ``bracket`` is read through :func:`_scan`.
    """
    heads, br = _scan(spec, maxlen, bracket)
    words = heads[1:]
    n = len(words)
    for i in range(n):
        for j in range(i, n):
            for k in range(i if j == i else i + 1, n):
                if triple_jacobi_sum(br, words[i], words[j], words[k]):
                    return (words[i], words[j], words[k])
    return None


def pvdw_verdict(
    assoc: Optional[Tuple[int, int, int]], jacobi: Optional[Tuple[Word, Word, Word]]
) -> Dict[str, object]:
    """The equivalence report from an associator witness and a Jacobi witness."""
    return {
        "assoc_witness": assoc,
        "jacobi_witness": jacobi,
        "equivalent": (assoc is None) == (jacobi is None),
    }


def pvdw_equivalence(spec: AlgebraSpec, maxlen: int) -> Dict[str, object]:
    """Double Jacobi holds iff the table is associative; report both sides."""
    return pvdw_verdict(check_associativity(spec), check_double_jacobi(spec, maxlen))


# ---------------------------------------------------------------------------
# the bracket on matrix-entry symbols


def pgen_key(p: Label) -> Tuple[int, int, int, Word]:
    return (p[0], p[1], len(p[2]), p[2])


Poly = Dict[tuple, Scalar]  # commutative monomial (a sorted tuple) -> coefficient, no zero stored


def poisson_pgen(spec: AlgebraSpec, p: Label, q: Label) -> Poly:
    """{p_ij(x), p_kl(y)} = sum p_kj(first slot) p_il(second slot).

    Sweedler slots of the double bracket are contracted through the symbols;
    an empty slot contributes the scalar delta (p_ab of the empty word).
    A matrix index below 1 or not an int raises ``StructureError``.
    """
    (i, j, x), (k, l, y) = p, q
    check_int("matrix index", 1, i, j, k, l)
    out: Poly = {}
    for (u, v), c in double_bracket(spec, x, y).items():
        factors: List[Label] = []
        if u:
            factors.append((k, j, u))
        elif k != j:
            continue
        if v:
            factors.append((i, l, v))
        elif i != l:
            continue
        _acc(out, tuple(sorted(factors, key=pgen_key)), c)
    return out


def _leibniz(f: Poly, g: Poly, bracket: Callable, key: Optional[Callable]) -> Poly:
    """The Leibniz extension to two polynomials of a bracket of their generators.

    For every factor of a monomial of ``f`` and every factor of a monomial of
    ``g``, the other factors of both are multiplied by ``bracket(p, q)`` of
    the two (a dict from monomials to scalars) and sorted again by ``key``.
    """
    out: Poly = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            cc = c1 * c2
            for r in range(len(m1)):
                for t in range(len(m2)):
                    rest = m1[:r] + m1[r + 1 :] + m2[:t] + m2[t + 1 :]
                    for mb, cb in bracket(m1[r], m2[t]).items():
                        _acc(out, tuple(sorted(rest + mb, key=key)), cc * cb)
    return out


def poisson_smd(spec: AlgebraSpec, f: Poly, g: Poly) -> Poly:
    """Leibniz extension of poisson_pgen to polynomials in the symbols."""
    return _leibniz(f, g, lambda p, q: poisson_pgen(spec, p, q), pgen_key)


# ---------------------------------------------------------------------------
# the trace (necklace) bracket on cyclic coinvariants


def trace_bracket(spec: AlgebraSpec, a: Iterable[int], b: Iterable[int]) -> Dict[Word, Scalar]:
    """Bracket two cyclic classes: bracket lifts, multiply slots, project.

    The result is keyed by least rotations (:func:`~glomega.words.cyclic`).
    It does not depend on the chosen lifts; the tests rotate the inputs to
    confirm.  An empty word is no necklace class and raises.
    """
    a, b = tuple(a), tuple(b)
    if not a or not b:
        raise StructureError("the trace bracket needs nonempty words")
    out: Dict[Word, Scalar] = {}
    for (u, v), c in double_bracket(spec, a, b).items():
        _acc(out, cyclic(u + v), c)
    return out


def poisson_stc(spec: AlgebraSpec, f: Poly, g: Poly) -> Poly:
    """Leibniz extension of the trace bracket to necklace polynomials.

    A monomial of ``f``, ``g`` and the result is a sorted tuple of least
    rotations (:func:`~glomega.words.cyclic`).
    """
    bracket = lambda x, y: {(w,): c for w, c in trace_bracket(spec, x, y).items()}
    return _leibniz(f, g, bracket, None)


# ---------------------------------------------------------------------------
# symbol matches against top parts of commutators


def spoly_symbol_image(p: Poly, ctx: Enveloping) -> UElement:
    """Evaluate p through p_ab(w) -> e_ab(w; N) products (symbol level); the empty monomial is 1."""
    out: Dict = {}
    for mono, c in p.items():
        factors = [ctx.e_elem(i, j, word) for i, j, word in mono]
        vec_add(out, (reduce(ctx.multiply, factors) if factors else ctx.one()).terms, c)
    return UElement._trusted(ctx, out)


def symbol_match_smd(
    omega: AlgebraSpec,
    i: int,
    j: int,
    k: int,
    l: int,
    x: Word,
    y: Word,
    d: int,
    s: ScalarLike,
    n: int,
) -> bool:
    """Top part of [t_ij(x;N;s), t_kl(y;N;s)] vs the symbol bracket, at N and N+1.

    The top degree is len(x) + len(y) - 1.  Verdicts that differ raise
    ``StabilizationError`` through :func:`stable`.
    """
    x, y = tuple(x), tuple(y)
    if not x or not y:
        raise StructureError("symbol matches need nonempty words")
    check_int("d", 1, d)
    check_int("generator index", 1, i, j, k, l, most=d)
    if d > n - 1:
        raise StructureError("need d <= N-1 so the acting block is nontrivial")
    deg = len(x) + len(y) - 1
    p = poisson_pgen(omega, (i, j, x), (k, l, y))

    def verdict(ctx: Enveloping) -> bool:
        lhs = ctx.top_commutator(ctx.t_elem(i, j, x, s), ctx.t_elem(k, l, y, s))
        return lhs == spoly_symbol_image(p, ctx).homogeneous(deg)

    return stable(omega, (n, n + 1), verdict, lambda by_n: "smd match differs across %r" % by_n)


def trace_elem(ctx: Enveloping, word: Word) -> UElement:
    """Sum of e_aa(word; N) over a = 1..N; invariant under all of gl(N, C).

    Memoized per word in the context and shared by every caller, so its
    terms must not be mutated, as for ``Enveloping.normal_form``.
    """
    word = tuple(word)
    check_letters(ctx.omega, word)  # 1.0 and True would hit the memo of 1
    el = ctx._trace.get(word)
    if el is None:
        out: Dict = {}
        for a in range(1, ctx.n + 1):
            vec_add(out, ctx.e_elem(a, a, word).terms)
        el = ctx._trace[word] = UElement._trusted(ctx, out)
    return el


def symbol_match_stc(omega: AlgebraSpec, x: Word, y: Word, n: int) -> bool:
    """Top part of the full-trace commutator vs the necklace bracket, at N and N+1.

    Every class of the necklace bracket has length len(x) + len(y) - 1, so
    its side is the sum of c times the top part of its trace.  Verdicts that
    differ raise ``StabilizationError`` through :func:`stable`.
    """
    x, y = tuple(x), tuple(y)
    classes = trace_bracket(omega, x, y)

    def verdict(ctx: Enveloping) -> bool:
        lhs = ctx.top_commutator(trace_elem(ctx, x), trace_elem(ctx, y))
        rhs: Dict = {}
        for w, c in classes.items():
            for a in range(1, ctx.n + 1):
                vec_add(rhs, ctx.e_top(a, a, w), c)
        return lhs == UElement._trusted(ctx, rhs)

    return stable(omega, (n, n + 1), verdict, lambda by_n: "stc match differs across %r" % by_n)
