"""The stable (large-N) algebra spanned by ordered monomials in t-generators.

A t-generator t_ij(x) is the plain label ``(i, j, x)`` (:data:`~glomega.words.Label`)
with 1 <= i, j <= d and x a nonempty word over the coefficient algebra.  The
algebra is generated by the t_ij(x; s) for one fixed rational parameter s,
so s belongs to the evaluation, not to the factors: :func:`evaluate` and
:func:`t_expansion` take it as an argument, and only ``Enveloping.t_elem``
memoizes by s.  Ordered monomials are weakly increasing tuples of labels under the order

    (i, j, len(word), word)  lexicographically.

These are formal objects; all actual multiplication happens through
evaluation into U(gl(N, Omega)) at finite N.  :func:`t_expansion` is the one
way back: it expands an element of U(gl(N, Omega)) in ordered t-monomials by
peeling top symbols, each torus weight against the symbols of its own weight
(one cached solver per weight, whose class is listed when it is first built).
``current.degeneration_check`` compares two such expansions, at (N, s) and
(N+1, s+1), so that one certificate sees a dependence on N or on s.  One
loop, ``_span``, row-reduces every span of monomial columns.
Linear independence claims are certified by rank at a single N; a linear
*dependence* found at N must also hold at N+1, which ``_certified_span``
confirms for both checks that span evaluations.  Dependencies and splitting
probes compare their per-size results through
:func:`~glomega.enveloping.stable`, which raises ``StabilizationError`` when
two sizes disagree.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .enveloping import Enveloping, Mono, UElement, stable
from .linalg import SpanSolver, primitive
from .omega import AlgebraSpec, Scalar, ScalarLike, StructureError, _acc, as_scalar, check_int, vec_add
from .words import Label, Word, nonempty, words_up_to


def t_gen(i: int, j: int, word: Iterable[int]) -> Label:
    """The label (i, j, word) of t_ij(word), validated but for its letters, which need a table."""
    check_int("matrix index", 1, i, j)
    return (i, j, nonempty(word))


def tgen_key(g: Label) -> Tuple[int, int, int, Word]:
    return (g[0], g[1], len(g[2]), g[2])


OrderedMonomial = Tuple[Label, ...]


def ordered_monomial(gens: Sequence[Label]) -> OrderedMonomial:
    """Each factor as :func:`t_gen` gives it, in weakly increasing order; return the tuple."""
    gens = tuple(t_gen(*g) for g in gens)
    for a in range(len(gens) - 1):
        if tgen_key(gens[a]) > tgen_key(gens[a + 1]):
            raise StructureError("monomial factors must be weakly increasing")
    return gens


def evaluate(mono: Sequence[Label], ctx: Enveloping, s: ScalarLike) -> UElement:
    """Evaluate an ordered monomial at parameter s in U(gl(N, Omega)): the product of
    its factors' :meth:`~Enveloping.t_elem` at s (the unit if empty), stored nowhere."""
    mono, s = ordered_monomial(mono), as_scalar(s)
    factors = [ctx.t_elem(i, j, word, s) for i, j, word in mono]
    return reduce(ctx.multiply, factors) if factors else ctx.one()


# ---------------------------------------------------------------------------
# enumeration and rank checks


def pbw_monomials(omega: AlgebraSpec, d: int, maxlen: int, maxdeg: int) -> List[OrderedMonomial]:
    """All ordered monomials with total word length <= maxlen, <= maxdeg factors."""
    check_int("d", 1, d)
    check_int("maxlen", 0, maxlen)
    check_int("maxdeg", 0, maxdeg)
    gens = [(i, j, w) for i in range(1, d + 1) for j in range(1, d + 1) for w in words_up_to(omega, maxlen)]
    gens.sort(key=tgen_key)
    out: List[OrderedMonomial] = []

    def rec(start: int, cur: List[Label], used: int) -> None:
        out.append(tuple(cur))
        if len(cur) == maxdeg:
            return
        for gi in range(start, len(gens)):
            g = gens[gi]
            if used + len(g[2]) > maxlen:
                continue
            cur.append(g)
            rec(gi, cur, used + len(g[2]))
            cur.pop()

    rec(0, [], 0)
    return out


def _span(columns: Iterable[Mapping]) -> Tuple[SpanSolver, Optional[Dict[int, Scalar]]]:
    """Row-reduce the columns in order; the solver numbers them 0, 1, ...

    Returns the solver and the first dependency as a primitive integer
    vector over column positions, or None when the columns are independent.
    """
    solver = SpanSolver()
    dep = None
    for idx, col in enumerate(columns):
        combo = solver.add(col)
        if combo is not None and dep is None:
            combo[idx] = -1
            dep = primitive(combo)
    return solver, dep


def _certified_span(
    monomials: Sequence[OrderedMonomial], omega: AlgebraSpec, n: int, s: ScalarLike, witness: Callable
) -> Tuple[SpanSolver, Optional[Dict[int, Scalar]]]:
    """:func:`_span` of the evaluations at N and s; their first dependency must also hold at N+1, compared
    through :func:`stable`, which raises ``StabilizationError(witness(rank at N, dependency))`` otherwise."""
    ctx = Enveloping.get(omega, n)
    solver, dep = _span(evaluate(mono, ctx, s).terms for mono in monomials)
    if dep is not None:
        def verdict(ctx: Enveloping) -> bool:
            return sum((evaluate(monomials[pos], ctx, s).scale(c) for pos, c in dep.items()), ctx.zero()).is_zero()

        stable(omega, (n, n + 1), verdict, lambda _: witness(solver.rank, dep))
    return solver, dep


def independence_check(
    monomials: Sequence[OrderedMonomial], omega: AlgebraSpec, n: int, s: ScalarLike
) -> Tuple[str, Optional[Dict[int, Scalar]]]:
    """Certify independence at N, or a dependency that holds at N and N+1, at parameter s.

    Returns ("independent", None) when the evaluations at N have full rank
    (which already proves independence in the stable algebra), or
    ("dependent", vector) with the first dependency at N as a primitive
    integer vector over the input positions.  A dependency that fails at N+1
    raises ``StabilizationError``.
    """
    _solver, dep = _certified_span(
        monomials, omega, n, s, lambda _rank, dep: "dependency %r at N=%d fails at N=%d" % (dep, n, n + 1)
    )
    return ("independent", None) if dep is None else ("dependent", dep)


def pbw_suite(
    omega: AlgebraSpec, d: int, maxlen: int, maxdeg: int, n: int, s: ScalarLike
) -> Dict[str, object]:
    """Rank-vs-count check for the ordered monomial basis at finite N.

    A short rank reports the first dependency, which must also hold at N+1;
    one that does not raises ``StabilizationError``.
    """
    monos = pbw_monomials(omega, d, maxlen, maxdeg)
    solver, dep = _certified_span(
        monos, omega, n, s, lambda rank, dep: "count=%d rank=%d dependency=%r" % (len(monos), rank, dep)
    )
    report: Dict[str, object] = {"count": len(monos), "rank": solver.rank, "full_rank": dep is None}
    if dep is not None:
        report["dependency"] = dep
    return report


# ---------------------------------------------------------------------------
# splitting probe: invariants vs the symmetric-algebra dimension count


def euler_phi(k: int) -> int:
    """Euler's totient; it is defined for k >= 1 only."""
    check_int("k", 1, k)
    return sum(1 for a in range(1, k + 1) if gcd(a, k) == 1)


def necklace_count(dim: int, m: int) -> int:
    """Words of length m over dim letters, up to rotation."""
    check_int("dim", 1, dim)
    check_int("m", 1, m)
    total = sum(euler_phi(r) * dim ** (m // r) for r in range(1, m + 1) if m % r == 0)
    return total // m


def splitting_expected(dim_omega: int, d: int, deg: int) -> int:
    """dim of the degree-<=deg part of S(Tc^+(Omega)) (x) S(M_d(Omega)).

    The cyclic space contributes necklace_count(dim, m) in degree m and the
    matrix part d^2 dim^m; symmetric-algebra dimensions come from the usual
    multiset generating series.
    """
    check_int("dim_omega", 1, dim_omega)
    check_int("d", 0, d)
    check_int("deg", 0, deg)
    coeffs = [0] * (deg + 1)
    coeffs[0] = 1
    for m in range(1, deg + 1):
        vm = necklace_count(dim_omega, m) + d * d * dim_omega ** m
        for _ in range(vm):
            for k in range(m, deg + 1):
                coeffs[k] += coeffs[k - m]
    return sum(coeffs)


def splitting_probe(omega: AlgebraSpec, d: int, deg: int, sizes: Sequence[int]) -> Dict[str, object]:
    """Compare the invariant dimension shared by every N in sizes with the stable prediction.

    Dimensions that differ across sizes raise ``StabilizationError``.
    """
    expected = splitting_expected(omega.dim, d, deg)
    dim = stable(
        omega, sizes, lambda ctx: ctx.invariant_dim(d, deg), lambda dims: "expected=%d dims=%r" % (expected, dims)
    )
    return {"expected": expected, "dims": dict.fromkeys(sizes, dim), "match": dim == expected}


# ---------------------------------------------------------------------------
# expansion in ordered t-monomials


def _symbol_column(ctx: Enveloping, mono: OrderedMonomial) -> Dict[Mono, Scalar]:
    """The top part of the product of the labels' e_ij(w; N), read in gr U = S(gl(N, Omega)).

    There it is the product of the labels' :meth:`~Enveloping.e_top`: each
    concatenation of their words, sorted by the PBW key.
    """
    col: Dict[Mono, Scalar] = {(): 1}
    for i, j, word in mono:
        top = ctx.e_top(i, j, word)
        prod = {}
        for m1, c1 in col.items():
            for m2, c2 in top.items():
                _acc(prod, ctx._sorted(m1 + m2), c1 * c2)
        col = prod
    return col


def _weight(ctx: Enveloping, mono: Sequence, d: int) -> Tuple[int, ...]:
    """The eigenvalues of ad E_aa, a = 1..d <= N (``t_expansion`` checks d), on a monomial the package built."""
    return tuple(ctx._mono_weight(mono, a) for a in range(1, d + 1))


def _symbol_solver(
    ctx: Enveloping, d: int, total: int, weight: Tuple[int, ...]
) -> Tuple[SpanSolver, List[Tuple[int, OrderedMonomial]]]:
    """Solver matching one torus weight of a top-degree part against the e-symbols of that weight.

    The e-symbol of an ordered t-monomial prod (i_r, j_r, w_r) has the torus
    weight sum(e_{i_r} - e_{j_r}), since the interior chain indices cancel,
    and normal forms keep torus weights, so each weight part of a top degree
    is solved against the columns of its weight alone (``weight`` is
    :func:`_weight`).  A class is listed on its solver's miss, in one pass
    over :func:`pbw_monomials` that keeps the monomials of total word length
    exactly ``total`` and weight ``weight``; each column is read in S by
    :func:`_symbol_column`, so no e-element is multiplied in U.  Returns the
    solver and the class's (position among the monomials of word length
    ``total``, monomial) pairs, in :func:`pbw_monomials` order.  The
    e-symbols do not depend on s, so every s shares the solvers.  Symbols
    that are dependent at the context's N would make the expansion
    non-canonical, so they raise ``StructureError``.
    """
    key = (d, total, weight)
    got = ctx._symbol_solvers.get(key)
    if got is None:
        monos = (m for m in pbw_monomials(ctx.omega, d, total, total) if sum(len(w) for _i, _j, w in m) == total)
        members = [(pos, m) for pos, m in enumerate(monos) if _weight(ctx, m, d) == weight]
        solver, dep = _span(_symbol_column(ctx, m) for _pos, m in members)
        if dep is not None:
            raise StructureError("t-monomial symbols of word length %d are dependent at N=%d" % (total, ctx.n))
        got = ctx._symbol_solvers[key] = (solver, members)
    return got


def t_expansion(
    ctx: Enveloping, u: UElement, d: int, s: ScalarLike
) -> Optional[List[Tuple[OrderedMonomial, Scalar]]]:
    """Canonical expansion over ordered t-monomials, or None if not expressible.

    Returns (monomial, coefficient) pairs, where each monomial is an ordered
    tuple of labels (i, j, word) with indices in 1..d, to be evaluated at
    parameter s, top filtration degree first, and within a degree in
    :func:`pbw_monomials` order.  Peels the top filtration degree: each
    torus-weight part of the top is matched against the e-symbols of
    ordered monomials of its weight (:func:`_symbol_solver`, checked
    independent), the solved combination of full t-monomials at s is
    subtracted, and the degree strictly drops.  Degree 0 takes the same
    path: its one class holds the empty monomial, with symbol ``{(): 1}``.
    """
    u._compat(ctx)
    check_int("d", 1, d, most=ctx.n)
    s = as_scalar(s)
    out: List[Tuple[OrderedMonomial, Scalar]] = []
    rem = dict(u.terms)
    deg = u.degree()
    while rem:
        parts: Dict[Tuple[int, ...], Dict] = {}
        for m, c in rem.items():
            if len(m) == deg:
                parts.setdefault(_weight(ctx, m, d), {})[m] = c
        layer = []
        for weight, part in parts.items():
            solver, members = _symbol_solver(ctx, d, deg, weight)
            combo = solver.solve(part)
            if combo is None:
                return None
            layer.extend((*members[idx], c) for idx, c in combo.items())
        for _pos, mono, c in sorted(layer, key=lambda entry: entry[0]):
            out.append((mono, c))
            vec_add(rem, evaluate(mono, ctx, s).terms, -c)
        top = max(map(len, rem), default=-1)
        if top >= deg:
            return None
        deg = top
    return out

