"""The stable (large-N) algebra spanned by ordered monomials in t-generators.

A TGen is a formal t_ij(x; s) with 1 <= i, j <= d, x a nonempty word over the
coefficient algebra and s a rational parameter.  Ordered monomials are weakly
increasing products of TGens under the order

    (i, j, len(word), word)  lexicographically,

and YExpression is a sparse rational combination of ordered monomials.  These
are formal objects; all actual multiplication happens through evaluation into
U(gl(N, Omega)) at finite N, and products of expressions are re-expanded in
the ordered basis by exact linear solves at two consecutive N (the
"evaluation-faithful" product).  Linear independence claims are certified by
rank at a single N; linear *dependence* is only reported when the same
dependency vector is confirmed at N and N+1.  Products and splitting probes
compare their per-size results through :func:`~glomega.omega.stable`, which
raises ``StabilizationError`` when two sizes disagree.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .enveloping import Enveloping, UElement
from .linalg import SpanSolver, primitive
from .omega import AlgebraSpec, Scalar, ScalarLike, SparseVector, StructureError, _acc, as_scalar, stable, vec_add
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


class YExpression(SparseVector):
    """Sparse combination of ordered monomials (a vector, not yet a product)."""

    __slots__ = ()

    def __init__(self, terms: Mapping[Sequence[TGen], ScalarLike]):
        super().__init__(None, terms)

    def _key(self, mono: Sequence[TGen]) -> OrderedMonomial:
        return ordered_monomial(mono)

    @classmethod
    def generator(cls, g: TGen) -> "YExpression":
        return cls({(g,): 1})

    def __repr__(self) -> str:
        if not self.terms:
            return "<Y 0>"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), tuple(map(tgen_key, m)))):
            body = "".join(
                "t(%d,%d;%s;s=%s)" % (g.i, g.j, ",".join(map(str, g.word)), g.s)
                for g in mono
            )
            bits.append("%s*%s" % (self.terms[mono], body or "1"))
        return "<Y " + " + ".join(bits) + ">"


def shift(y: YExpression, c: ScalarLike) -> YExpression:
    """The substitution s -> s + c on every generator."""
    c = as_scalar(c)
    out: Dict[OrderedMonomial, Scalar] = {}
    for mono, coeff in y.terms.items():
        _acc(out, tuple(TGen(g.i, g.j, g.word, g.s + c) for g in mono), coeff)
    return YExpression(out)


def evaluate(y, ctx: Enveloping) -> UElement:
    """Evaluate an ordered monomial or expression in U(gl(N, Omega))."""
    cache = ctx._y_eval_cache
    if isinstance(y, YExpression):
        out = ctx.zero()
        for mono, c in y.terms.items():
            out = out + evaluate(mono, ctx).scale(c)
        return out
    mono = ordered_monomial(y)
    got = cache.get(mono)
    if got is None:
        got = ctx.one()
        for g in mono:
            got = ctx.multiply(got, ctx.t_elem(g.i, g.j, g.word, g.s))
        cache[mono] = got
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


def independence_check(
    monomials: Sequence[OrderedMonomial], omega: AlgebraSpec, n: int
) -> Tuple[str, Optional[Dict[int, Scalar]]]:
    """Certify independence at N, or a dependency vector stable at N and N+1.

    Returns ("independent", None) when the evaluations at N have full rank
    (which already proves independence in the stable algebra), or
    ("dependent", vector) with a primitive integer vector over the input
    positions confirmed at both N and N+1, or ("not-stabilized", vector)
    when the collision at N disappears one size up.
    """
    ctx = Enveloping.get(omega, n)
    solver = SpanSolver()
    dep: Optional[Tuple[int, Dict]] = None
    for idx, mono in enumerate(monomials):
        combo = solver.add(evaluate(mono, ctx).terms, idx)
        if combo is not None:
            dep = (idx, combo)
            break
    if dep is None:
        return ("independent", None)
    idx, combo = dep
    vec: Dict[int, Scalar] = {c: v for c, v in combo.items() if v}
    vec[idx] = -1
    ctx2 = Enveloping.get(omega, n + 1)
    acc: Dict = {}
    for pos, coeff in vec.items():
        vec_add(acc, evaluate(monomials[pos], ctx2).terms, coeff)
    vec = primitive(vec)
    if acc:
        return ("not-stabilized", vec)
    return ("dependent", vec)


def pbw_suite(
    omega: AlgebraSpec, d: int, maxlen: int, maxdeg: int, n: int, s: ScalarLike
) -> Dict[str, object]:
    """Rank-vs-count check for the ordered monomial basis at finite N."""
    monos = pbw_monomials(omega, d, maxlen, maxdeg, s)
    ctx = Enveloping.get(omega, n)
    solver = SpanSolver()
    for idx, mono in enumerate(monos):
        solver.add(evaluate(mono, ctx).terms, idx)
    report: Dict[str, object] = {
        "count": len(monos),
        "rank": solver.rank,
        "full_rank": solver.rank == len(monos),
    }
    if not report["full_rank"]:
        status, vec = independence_check(monos, omega, n)
        report["dependency_status"] = status
        report["dependency"] = vec
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
# evaluation-faithful products


def multiply_y(
    y1: YExpression, y2: YExpression, omega: AlgebraSpec, n: int
) -> Tuple[str, Optional[YExpression]]:
    """Product of two expressions, re-expanded in the ordered basis.

    The product is computed by evaluating into U(gl(N)) and U(gl(N+1)) and
    solving for ordered-monomial coordinates; identical coordinates at both
    sizes are required ("ok"), and coordinates that differ raise
    ``StabilizationError``.  Returns ("ambiguous", None) when the candidate
    monomials already collide at N, ("not-expressible", None) when a solve
    fails.
    """
    factors = [g for mono in list(y1.terms) + list(y2.terms) for g in mono]
    if not factors:
        return ("ok", YExpression({(): y_scalar(y1) * y_scalar(y2)}))
    d = max(max(g.i, g.j) for g in factors)
    s = factors[0].s
    if any(g.s != s for g in factors):
        raise StructureError("product factors must share the parameter s")
    maxlen = max(
        (mono_word_length(m1) + mono_word_length(m2))
        for m1 in y1.terms
        for m2 in y2.terms
    )
    maxdeg = max((len(m1) + len(m2)) for m1 in y1.terms for m2 in y2.terms)
    candidates = pbw_monomials(omega, d, maxlen, maxdeg, s)
    solutions = {}
    for size in (n, n + 1):
        ctx = Enveloping.get(omega, size)
        solver = SpanSolver()
        for idx, mono in enumerate(candidates):
            if solver.add(evaluate(mono, ctx).terms, idx) is not None:
                return ("ambiguous", None)
        target = ctx.multiply(evaluate(y1, ctx), evaluate(y2, ctx))
        combo = solver.solve(target.terms)
        if combo is None:
            return ("not-expressible", None)
        solutions[size] = combo
    combo = stable(solutions, "product coordinates differ at N=%d and N=%d" % (n, n + 1))
    return ("ok", YExpression({candidates[idx]: c for idx, c in combo.items()}))


def y_scalar(y: YExpression) -> Scalar:
    return y.terms.get((), 0)


def shift_automorphism_check(
    g: TGen, h: TGen, c: ScalarLike, omega: AlgebraSpec, n: int
) -> Dict[str, object]:
    """Structure constants at s match those at s+c after shifting the basis."""
    c = as_scalar(c)
    status1, prod = multiply_y(YExpression.generator(g), YExpression.generator(h), omega, n)
    gs = TGen(g.i, g.j, g.word, g.s + c)
    hs = TGen(h.i, h.j, h.word, h.s + c)
    status2, prod_shifted = multiply_y(
        YExpression.generator(gs), YExpression.generator(hs), omega, n
    )
    ok = (
        status1 == "ok"
        and status2 == "ok"
        and prod is not None
        and prod_shifted is not None
        and shift(prod, c) == prod_shifted
    )
    return {"status": (status1, status2), "match": ok}
