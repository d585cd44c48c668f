"""The stable (large-N) algebra spanned by ordered monomials in t-generators.

A TGen is a formal t_ij(x; s) with 1 <= i, j <= d, x a nonempty word over the
coefficient algebra and s a rational parameter.  Ordered monomials are weakly
increasing products of TGens under the order

    (i, j, len(word), word)  lexicographically.

These are formal objects; all actual multiplication happens through
evaluation into U(gl(N, Omega)) at finite N.  :func:`t_expansion` is the one
way back: it expands an element of U(gl(N, Omega)) in ordered t-monomials by
peeling top symbols, and :func:`shift_automorphism_check` compares two such
expansions.  One loop, ``_span``, row-reduces every span of monomial columns.
Linear independence claims are certified by rank at a single N; a linear
*dependence* found at N must also hold at N+1.  Shift checks, dependencies
and splitting probes compare their per-size results through
:func:`~glomega.omega.stable`, which raises ``StabilizationError`` when two
sizes disagree.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .enveloping import Enveloping, UElement
from .linalg import SpanSolver, primitive
from .omega import AlgebraSpec, Scalar, ScalarLike, StructureError, as_scalar, stable
from .words import Word, words_up_to


class TGen(NamedTuple):
    i: int
    j: int
    word: Word
    s: Scalar


def t_gen(i: int, j: int, word: Iterable[int], s: ScalarLike) -> TGen:
    word = tuple(word)
    if i < 1 or j < 1:
        raise StructureError("t-generator indices are 1-based")
    if not word:
        raise StructureError("t-generator words must be nonempty")
    return TGen(i, j, word, as_scalar(s))


def tgen_key(g: TGen) -> Tuple[int, int, int, Word]:
    return (g.i, g.j, len(g.word), g.word)


OrderedMonomial = Tuple[TGen, ...]


def ordered_monomial(gens: Sequence[TGen]) -> OrderedMonomial:
    """Validate weak increase and uniform parameter; return the tuple."""
    gens = tuple(gens)
    for a in range(len(gens) - 1):
        if tgen_key(gens[a]) > tgen_key(gens[a + 1]):
            raise StructureError("monomial factors must be weakly increasing")
        if gens[a].s != gens[a + 1].s:
            raise StructureError("monomial factors must share the parameter s")
    return gens


def mono_word_length(mono: OrderedMonomial) -> int:
    return sum(len(g.word) for g in mono)


def evaluate(mono: Sequence[TGen], ctx: Enveloping) -> UElement:
    """Evaluate an ordered monomial in U(gl(N, Omega))."""
    cache = ctx._y_eval_cache
    mono = ordered_monomial(mono)
    got = cache.get(mono)
    if got is None:
        factors = [ctx.t_elem(g.i, g.j, g.word, g.s) for g in mono]
        got = cache[mono] = reduce(ctx.multiply, factors) if factors else ctx.one()
    return got


# ---------------------------------------------------------------------------
# enumeration and rank checks


def pbw_monomials(
    omega: AlgebraSpec, d: int, maxlen: int, maxdeg: int, s: ScalarLike
) -> List[OrderedMonomial]:
    """All ordered monomials with total word length <= maxlen, <= maxdeg factors."""
    s = as_scalar(s)
    gens = [
        TGen(i, j, w, s)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        for w in words_up_to(omega, maxlen)
    ]
    gens.sort(key=tgen_key)
    out: List[OrderedMonomial] = []

    def rec(start: int, cur: List[TGen], used: int) -> None:
        out.append(tuple(cur))
        if len(cur) == maxdeg:
            return
        for gi in range(start, len(gens)):
            g = gens[gi]
            if used + len(g.word) > maxlen:
                continue
            cur.append(g)
            rec(gi, cur, used + len(g.word))
            cur.pop()

    rec(0, [], 0)
    return out


def _span(columns: Iterable[Mapping]) -> Tuple[SpanSolver, Optional[Dict[int, Scalar]]]:
    """Row-reduce the columns in order, with ids 0, 1, ...

    Returns the solver and the first dependency as a primitive integer
    vector over column positions, or None when the columns are independent.
    """
    solver = SpanSolver()
    dep = None
    for idx, col in enumerate(columns):
        combo = solver.add(col, idx)
        if combo is not None and dep is None:
            combo[idx] = -1
            dep = primitive(combo)
    return solver, dep


def _confirm(
    monomials: Sequence[OrderedMonomial], dep: Dict[int, Scalar], omega: AlgebraSpec, n: int, witness: str
) -> None:
    """The dependency found at N must hold at N and N+1, compared through :func:`stable`."""
    holds = {}
    for size in (n, n + 1):
        ctx = Enveloping.get(omega, size)
        holds[size] = sum((evaluate(monomials[pos], ctx).scale(c) for pos, c in dep.items()), ctx.zero()).is_zero()
    stable(holds, witness)


def independence_check(
    monomials: Sequence[OrderedMonomial], omega: AlgebraSpec, n: int
) -> Tuple[str, Optional[Dict[int, Scalar]]]:
    """Certify independence at N, or a dependency that holds at N and N+1.

    Returns ("independent", None) when the evaluations at N have full rank
    (which already proves independence in the stable algebra), or
    ("dependent", vector) with the first dependency at N as a primitive
    integer vector over the input positions.  A dependency that fails at N+1
    raises ``StabilizationError``.
    """
    ctx = Enveloping.get(omega, n)
    _solver, dep = _span(evaluate(mono, ctx).terms for mono in monomials)
    if dep is None:
        return ("independent", None)
    _confirm(monomials, dep, omega, n, "dependency %r at N=%d fails at N=%d" % (dep, n, n + 1))
    return ("dependent", dep)


def pbw_suite(
    omega: AlgebraSpec, d: int, maxlen: int, maxdeg: int, n: int, s: ScalarLike
) -> Dict[str, object]:
    """Rank-vs-count check for the ordered monomial basis at finite N.

    A short rank reports the first dependency, which must also hold at N+1;
    one that does not raises ``StabilizationError``.
    """
    monos = pbw_monomials(omega, d, maxlen, maxdeg, s)
    ctx = Enveloping.get(omega, n)
    solver, dep = _span(evaluate(mono, ctx).terms for mono in monos)
    report: Dict[str, object] = {"count": len(monos), "rank": solver.rank, "full_rank": dep is None}
    if dep is not None:
        _confirm(monos, dep, omega, n, "count=%d rank=%d dependency=%r" % (len(monos), solver.rank, dep))
        report["dependency"] = dep
    return report


# ---------------------------------------------------------------------------
# splitting probe: invariants vs the symmetric-algebra dimension count


def euler_phi(k: int) -> int:
    return sum(1 for a in range(1, k + 1) if gcd(a, k) == 1)


def necklace_count(dim: int, m: int) -> int:
    """Words of length m over dim letters, up to rotation."""
    total = sum(euler_phi(r) * dim ** (m // r) for r in range(1, m + 1) if m % r == 0)
    return total // m


def splitting_expected(dim_omega: int, d: int, deg: int) -> int:
    """dim of the degree-<=deg part of S(Tc^+(Omega)) (x) S(M_d(Omega)).

    The cyclic space contributes necklace_count(dim, m) in degree m and the
    matrix part d^2 dim^m; symmetric-algebra dimensions come from the usual
    multiset generating series.
    """
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
    dims = {n: Enveloping.get(omega, n).invariant_dim(d, deg) for n in sizes}
    expected = splitting_expected(omega.dim, d, deg)
    dim = stable(dims, "expected=%d dims=%r" % (expected, dims))
    return {"expected": expected, "dims": dims, "match": dim == expected}


# ---------------------------------------------------------------------------
# expansion in ordered t-monomials


def _symbol_solver(ctx: Enveloping, d: int, total: int, s: Scalar) -> Tuple[SpanSolver, List[OrderedMonomial]]:
    """Solver matching top-degree parts against the e-symbols of ordered t-monomials.

    The columns are the monomials of :func:`pbw_monomials` whose total word
    length is exactly ``total``, in its order; cached per (d, total, s).
    Symbols that are dependent at the context's N would make the expansion
    non-canonical, so they raise ``StructureError``.
    """
    cache = ctx._symbol_solvers
    key = (d, total, s)
    if key not in cache:
        monos = [m for m in pbw_monomials(ctx.omega, d, total, total, s) if mono_word_length(m) == total]
        factors = ([ctx.e_elem(g.i, g.j, g.word) for g in m] for m in monos)
        symbols = (reduce(ctx.multiply, f) if f else ctx.one() for f in factors)
        solver, dep = _span(sym.homogeneous(total).terms for sym in symbols)
        if dep is not None:
            raise StructureError("t-monomial symbols of word length %d are dependent at N=%d" % (total, ctx.n))
        cache[key] = (solver, monos)
    return cache[key]


def t_expansion(
    ctx: Enveloping, u: UElement, d: int, s: ScalarLike
) -> Optional[List[Tuple[OrderedMonomial, Scalar]]]:
    """Canonical expansion over ordered t-monomials, or None if not expressible.

    Returns (monomial, coefficient) pairs, where each monomial is a tuple of
    TGen factors with indices in 1..d at parameter s, top filtration degree
    first.  Peels the top filtration degree: the top part is matched against
    the e-symbols of ordered monomials (checked independent), the solved
    combination of full t-monomials is subtracted, and the degree strictly
    drops.
    """
    s = as_scalar(s)
    out: List[Tuple[OrderedMonomial, Scalar]] = []
    cur = u
    while not cur.is_zero():
        deg = cur.degree()
        if deg == 0:
            out.append(((), cur.terms[()]))
            break
        solver, monos = _symbol_solver(ctx, d, deg, s)
        combo = solver.solve(cur.homogeneous(deg).terms)
        if combo is None:
            return None
        removed = ctx.zero()
        for idx, c in sorted(combo.items()):
            out.append((monos[idx], c))
            removed = removed + evaluate(monos[idx], ctx).scale(c)
        cur = cur - removed
        if not cur.is_zero() and cur.degree() >= deg:
            return None
    return out


def shift_automorphism_check(
    g: TGen, h: TGen, c: ScalarLike, omega: AlgebraSpec, n: int
) -> Dict[str, object]:
    """Whether s -> s + c carries the expansion of g h at s to the one at s + c.

    At N and N+1, t(g) t(h) is expanded by :func:`t_expansion` at s and at
    s + c; the verdict at each size is whether the first expansion, with
    every factor's parameter moved by c, equals the second.  Verdicts that
    differ raise ``StabilizationError`` through :func:`stable`.
    """
    if g.s != h.s:
        raise StructureError("product factors must share the parameter s")
    c = as_scalar(c)
    d = max(g.i, g.j, h.i, h.j)

    def expand(ctx: Enveloping, s: Scalar) -> Optional[List[Tuple[OrderedMonomial, Scalar]]]:
        prod = ctx.multiply(ctx.t_elem(g.i, g.j, g.word, s), ctx.t_elem(h.i, h.j, h.word, s))
        return t_expansion(ctx, prod, d, s)

    matches = {}
    for size in (n, n + 1):
        ctx = Enveloping.get(omega, size)
        at_s, at_sc = expand(ctx, g.s), expand(ctx, g.s + c)
        matches[size] = at_s is not None and at_sc == [
            (tuple(f._replace(s=f.s + c) for f in mono), coeff) for mono, coeff in at_s
        ]
    return {"match": stable(matches, "shift by %s differs at N=%d and N=%d" % (c, n, n + 1))}
