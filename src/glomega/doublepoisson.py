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
table read their brackets through one memo (:func:`_brackets`), which the
caller may share between them; each check builds a fresh one if not given.

A double bracket is a plain dict ``{(u, v): c}`` from pairs of words to
scalars, a double Jacobi sum a dict ``{(u1, u2, u3): c}``, and a polynomial
in symbols or necklaces a dict from sorted monomials to scalars.  Every
term is added as ``_acc`` adds it, dropping a key whose sum is zero (the
two hot loops, :func:`double_bracket` and :func:`triple_jacobi_sum`, write
that step inline), so no zero is ever stored and two of them are equal
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
from .omega import AlgebraSpec, Scalar, ScalarLike, StructureError, _acc, check_associativity, vec_add
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
    letters = x + y
    if letters and (min(letters) < 0 or max(letters) >= spec.dim):
        raise StructureError("letters must lie in 0..%d" % (spec.dim - 1))
    product = spec.product
    out: Double = {}
    get = out.get
    # (y_s, y^{<s}, y^{>s}) for each s, sliced once per call; x^{<r} and
    # x^{>r} are sliced once per r
    cuts = [(y[s], y[:s], y[s + 1 :]) for s in range(len(y))]
    for r, xr in enumerate(x):
        before, after = x[:r], x[r + 1 :]
        for ys, below, above in cuts:
            for k, c in product(xr, ys).items():
                key = (below + after, before + (k,) + above)
                total = get(key, 0) + c
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
            for k, c in product(ys, xr).items():
                key = (below + (k,) + after, before + above)
                total = get(key, 0) - c
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
    return out


def letter_bracket_expected(spec: AlgebraSpec, i: int, j: int) -> Double:
    """1 (x) mu(x_i, x_j) - mu(x_j, x_i) (x) 1, the defining formula on letters."""
    if not (0 <= i < spec.dim and 0 <= j < spec.dim):
        raise StructureError("letters must lie in 0..%d" % (spec.dim - 1))
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


def _heads(spec: AlgebraSpec, maxlen: int) -> List[Word]:
    """The words a law check scans: ``[()] + words_up_to(spec, maxlen)``."""
    if maxlen < 1:
        raise StructureError("the word-length cap must be >= 1, got %r" % (maxlen,))
    return [()] + list(words_up_to(spec, maxlen))


def _brackets(spec: AlgebraSpec) -> Bracket:
    """``bracket(x, y)``: ``double_bracket(spec, x, y)``, memoized for every pair it is asked for.

    One closure serves every law check of a table: the double suite builds
    one per table and hands it to skew, Leibniz and double Jacobi, so a pair
    is bracketed once per table and the memo is dropped with the table's
    checks.  Long right words, from the first slot of an inner Jacobi
    bracket, are kept as well.  Every word stored, in a key of the memo or
    in a slot of a stored bracket, is one tuple object per distinct word,
    and so is every slot pair ``(u, v)`` (``canon``).  mat(2)'s memo after
    skew, Leibniz and Jacobi then holds 0.73 MB (tracemalloc), against
    0.92 MB with the words alone shared and 1.50 MB for the brackets as
    computed.  The double-fuzz benchmark workload's peak memory rose by
    2.2% (20.87 -> 21.32 MB, median of 10 runs; 3.1% with the words alone
    shared) for 14% to 19% less run time.  A stored bracket is shared by
    every caller and must not be mutated.  The closure carries its table
    as ``bracket.spec``.
    """
    memo: Dict[Tuple[Word, Word], Double] = {}
    canon: Dict[tuple, tuple] = {}  # each distinct word and slot pair, once
    share = canon.setdefault

    def bracket(x: Word, y: Word) -> Double:
        hit = memo.get((x, y))
        if hit is None:
            hit = memo[share(x, x), share(y, y)] = {
                share(p := (share(u, u), share(v, v)), p): c for (u, v), c in double_bracket(spec, x, y).items()
            }
        return hit

    bracket.spec = spec  # type: ignore[attr-defined]
    return bracket


def _memo_of(spec: AlgebraSpec, bracket: Optional[Bracket]) -> Bracket:
    """``bracket`` if it is a :func:`_brackets` memo of ``spec``, a fresh memo if it is None.

    A memo of another table would hand out that table's brackets, so it raises.
    """
    if bracket is None:
        return _brackets(spec)
    if getattr(bracket, "spec", None) is not spec:
        raise StructureError("a bracket memo serves only the table it was built for")
    return bracket


def check_skew(spec: AlgebraSpec, maxlen: int, bracket: Optional[Bracket] = None) -> Optional[Tuple[Word, Word]]:
    """<<x, y>> must equal -flip(<<y, x>>), flip(u (x) v) = v (x) u; pairs with an empty word vanish.

    The law is symmetric in the pair, so each unordered pair of heads is
    visited once and the witness is the first failing ordered pair.
    ``bracket`` is a :func:`_brackets` memo of ``spec``, fresh if omitted;
    a memo of another table raises ``StructureError``.
    """
    heads = _heads(spec, maxlen)
    br = _memo_of(spec, bracket)
    for ia, a in enumerate(heads):
        for b in heads[ia:]:
            if br(a, b) != {(v, u): -c for (u, v), c in br(b, a).items()}:
                return (a, b)
    return None


def check_leibniz(
    spec: AlgebraSpec, maxlen: int, bracket: Optional[Bracket] = None
) -> Optional[Tuple[str, Word, Word, Word]]:
    """Both Leibniz rules, with concatenation products, on the words of :func:`_heads`.

    Outer rule in the second argument, with the outer bimodule actions
    b . (u (x) v) = bu (x) v and (u (x) v) . c = u (x) vc:
        <<a, bc>> = <<a, b>> . c + b . <<a, c>>,
    inner rule in the first (equivalent via skew-symmetry), with the inner
    actions b * (u (x) v) = u (x) bv and (u (x) v) * c = uc (x) v:
        <<bc, a>> = b * <<c, a>> + <<b, a>> * c.
    Returns ("outer"|"inner", a, b, c) for the first failure.  ``bracket``
    is a :func:`_brackets` memo of ``spec``, fresh if omitted; a memo of
    another table raises ``StructureError``.
    """
    heads = _heads(spec, maxlen)
    br = _memo_of(spec, bracket)
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
    into one dict.  ``bracket(x, y)`` computes the double bracket of two
    words: :func:`check_double_jacobi` passes a memo of :func:`_brackets`.
    """
    out: Triple = {}
    get = out.get
    for turns, (x, y, z) in enumerate(((a, b, c), (b, c, a), (c, a, b))):
        for (u, v), c1 in bracket(y, z).items():
            for (p, q), c2 in bracket(x, u).items():
                # rot^turns of p (x) q (x) v
                t = (p, q, v) if turns == 0 else (v, p, q) if turns == 1 else (q, v, p)
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
    rotations, and skipping each (i, j, k) that has a smaller rotation
    returns the same witness.

    ``bracket`` is a :func:`_brackets` memo of ``spec``, fresh if omitted;
    a memo of another table raises ``StructureError``.
    """
    words = _heads(spec, maxlen)[1:]
    br = _memo_of(spec, bracket)
    n = len(words)
    for i in range(n):
        # a least rotation has its least index first
        for j in range(i, n):
            for k in range(i, n):
                if (j, k, i) < (i, j, k) or (k, i, j) < (i, j, k):
                    continue
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
    """
    (i, j, x), (k, l, y) = p, q
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
    confirm.
    """
    out: Dict[Word, Scalar] = {}
    for (u, v), c in double_bracket(spec, tuple(a), tuple(b)).items():
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
    if max(i, j, k, l) > d:
        raise StructureError("generator indices must be <= d")
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
