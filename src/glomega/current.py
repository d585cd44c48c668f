r"""The graded current algebra over a table and its matrix Lie algebra.

Grade n of the current algebra is the space of (n+1)-letter tensors; the
product merges the adjacent letters at the junction through the table:

    (x_1 .. x_m x_{m+1}) (.) (y_1 .. y_{n+1})
        = x_1 .. x_m (x_{m+1} y_1) y_2 .. y_{n+1}.

Grades add, grade 0 multiplies like the table itself, and the whole thing
is associative exactly when the table is.  gl(d) valued currents carry the
bracket [X(x)x, Y(x)y] = XY(x)(x(.)y) - YX(x)(y(.)x).

Both live inside one computation, so they are plain dicts, built through
``_acc`` and ``vec_add`` (the junction product copies the table's nonzero
entries) and never holding a zero: an element of
the current algebra is ``{word: c}`` (:func:`odot` multiplies two of them)
and a gl(d) current is ``{(i, j, word): c}`` (:func:`gl_current_bracket`
brackets two of them).

Structural checks implemented here:

* :func:`check_current_antisym` and :func:`check_current_jacobi` scan the
  gl(d) current bracket on basis keys up to a grade bound, each unordered
  pair and each triple i < j < k once (the current suite runs both),
* :func:`path_algebra_iso_check` identifies the current algebra of C^(+)L
  with the path algebra of the complete quiver on L vertices,
* :func:`bimodule_iso_check` identifies grade k with the k-fold balanced
  tensor power of Omega(x)Omega over Omega (unital tables only),
* :func:`degeneration_check` certifies that the commutator of two
  t-elements agrees with :func:`gl_current_bracket`, the bracket scanned
  above, read through t(s), up to terms of lower shifted degree.  The
  shifted degree of t_ij(x; s) is len(x) - 1 and is additive on products;
  the certificate expands the remainder in ordered
  t-monomials with :func:`glomega.yangian.t_expansion` (solve at the top
  symbol, subtract, repeat) and demands every extracted monomial stay
  below the bound.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from .enveloping import Enveloping, UElement, stable
from .linalg import SpanSolver, rank
from .omega import (
    AlgebraSpec,
    Scalar,
    ScalarLike,
    StructureError,
    _acc,
    detect_unit,
    direct_sum_C,
    vec_add,
)
from .words import Label, Word, basis_words, words_up_to
from .yangian import t_expansion


def odot_words(spec: AlgebraSpec, x: Word, y: Word) -> Dict[Word, Scalar]:
    """Merge two basis words at the junction, sparse over basis words; bad letters raise."""
    x, y = tuple(x), tuple(y)
    if not x or not y:
        raise StructureError("current-algebra words must be nonempty")
    letters = x + y
    if min(letters) < 0 or max(letters) >= spec.dim:
        raise StructureError("letters must lie in 0..%d" % (spec.dim - 1))
    return _junction(spec, x, y)


def _junction(spec: AlgebraSpec, x: Word, y: Word) -> Dict[Word, Scalar]:
    """x(.)y for nonempty words whose letters the caller has checked.

    The table stores no zero, and each merged letter gives its own word.
    """
    out: Dict[Word, Scalar] = {}
    for k, c in spec.product(x[-1], y[0]).items():
        out[x[:-1] + (k,) + y[1:]] = c
    return out


def odot(spec: AlgebraSpec, a: Dict[Word, Scalar], b: Dict[Word, Scalar]) -> Dict[Word, Scalar]:
    """The junction product of two ``{word: c}`` dicts, bilinear in both slots."""
    out: Dict[Word, Scalar] = {}
    for wx, cx in a.items():
        for wy, cy in b.items():
            vec_add(out, odot_words(spec, wx, wy), cx * cy)
    return out


def check_odot_assoc(spec: AlgebraSpec, max_total_len: int) -> Optional[Tuple[Word, Word, Word]]:
    """First basis-word triple where (x(.)y)(.)z differs from x(.)(y(.)z)."""
    if max_total_len < 3:
        raise StructureError("an associativity scan needs a total length of at least 3")
    for wx in words_up_to(spec, max_total_len - 2):
        for wy in words_up_to(spec, max_total_len - 1 - len(wx)):
            for wz in words_up_to(spec, max_total_len - len(wx) - len(wy)):
                x, y, z = {wx: 1}, {wy: 1}, {wz: 1}
                if odot(spec, odot(spec, x, y), z) != odot(spec, x, odot(spec, y, z)):
                    return (wx, wy, wz)
    return None


def find_noncommutative_pair(spec: AlgebraSpec, max_total_len: int) -> Optional[Tuple[Word, Word]]:
    """First basis-word pair with x(.)y != y(.)x, or None for commutative tables."""
    if max_total_len < 2:
        raise StructureError("a commutativity scan needs a total length of at least 2")
    for wx in words_up_to(spec, max_total_len - 1):
        for wy in words_up_to(spec, max_total_len - len(wx)):
            if odot_words(spec, wx, wy) != odot_words(spec, wy, wx):
                return (wx, wy)
    return None


def current_unit_check(spec: AlgebraSpec) -> Dict[str, object]:
    """The current algebra is unital iff the table is.

    Any unit would act grade-preservingly, so its grade-0 part must already
    be a unit of the table; the exhaustive grade-0 solve thus settles the
    negative direction.  For a unital table the promoted length-1 element is
    verified to act as a two-sided identity on all words of grade <= 2.
    """
    e = detect_unit(spec)
    if e is None:
        return {"omega_has_unit": False, "acts_as_unit": None, "passed": True}
    unit = {(i,): c for i, c in e.items()}
    ok = True
    for w in words_up_to(spec, 3):
        x = {w: 1}
        if odot(spec, unit, x) != x or odot(spec, x, unit) != x:
            ok = False
            break
    return {"omega_has_unit": True, "acts_as_unit": ok, "passed": ok}


# ---------------------------------------------------------------------------
# gl(d) valued currents


Current = Dict[Label, Scalar]  # (i, j, word) -> coefficient, no zero stored


def gl_current_bracket(spec: AlgebraSpec, a: Current, b: Current) -> Current:
    """[X(x)x, Y(x)y] = XY (x) (x(.)y) - YX (x) (y(.)x), bilinear in both slots.

    Every key of ``a`` and ``b`` is checked once, whether or not its pairs
    meet: a matrix index below 1, an empty word or a letter outside the
    table raises ``StructureError``.
    """
    dim = spec.dim
    for keys in (a, b):
        for i, j, w in keys:
            if i < 1 or j < 1 or not w or min(w) < 0 or max(w) >= dim:
                raise StructureError(
                    "bad key %r: matrix indices must be >= 1, the word nonempty,"
                    " and letters must lie in 0..%d" % ((i, j, w), dim - 1)
                )
    # the letters are checked above, so the junction products skip the
    # check odot_words would repeat for every meeting pair
    out: Current = {}
    for (i, j, x), cx in a.items():
        for (k, l, y), cy in b.items():
            cc = cx * cy
            if j == k:
                for w, c in _junction(spec, x, y).items():
                    _acc(out, (i, l, w), cc * c)
            if l == i:
                for w, c in _junction(spec, y, x).items():
                    _acc(out, (k, j, w), -cc * c)
    return out


def current_jacobi_sum(spec: AlgebraSpec, a: Current, b: Current, c: Current) -> Current:
    """[[a, b], c] + [[b, c], a] + [[c, a], b], added into one dict.

    A term whose inner bracket vanishes is skipped: the bracket is bilinear.
    """
    out: Current = {}
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        inner = gl_current_bracket(spec, x, y)
        if inner:
            vec_add(out, gl_current_bracket(spec, inner, z))
    return out


def check_current_antisym(spec: AlgebraSpec, d: int, maxgrade: int) -> Optional[Tuple[Label, Label]]:
    """First basis pair (a, b), a not after b, with [a, b] != -[b, a].

    The law is symmetric in the pair, so each unordered pair is visited once
    and the witness is the first failing ordered pair.
    """
    keys = current_basis_keys(spec, d, maxgrade)
    for ia, ka in enumerate(keys):
        for kb in keys[ia:]:
            ba = gl_current_bracket(spec, {kb: 1}, {ka: 1})
            if gl_current_bracket(spec, {ka: 1}, {kb: 1}) != {k: -c for k, c in ba.items()}:
                return (ka, kb)
    return None


def check_current_jacobi(spec: AlgebraSpec, d: int, maxgrade: int) -> Optional[Tuple[Label, Label, Label]]:
    """First basis triple i < j < k up to the grade bound with a nonzero Jacobi sum.

    The bracket is antisymmetric by its formula, so a triple with a repeated
    key sums to zero and every permutation of a failing triple fails too:
    the first i < j < k is the first failing ordered triple.
    """
    for ka, kb, kc in itertools.combinations(current_basis_keys(spec, d, maxgrade), 3):
        if current_jacobi_sum(spec, {ka: 1}, {kb: 1}, {kc: 1}):
            return (ka, kb, kc)
    return None


def current_basis_keys(spec: AlgebraSpec, d: int, maxgrade: int) -> List[Label]:
    """The graded bases of grades 0..maxgrade, concatenated in grade order."""
    if d < 1 or maxgrade < 0:
        raise StructureError("current scans need d >= 1 and maxgrade >= 0")
    return [key for n in range(maxgrade + 1) for key in graded_basis(spec, d, n)]


def graded_dim(spec: AlgebraSpec, d: int, n: int) -> int:
    """Dimension d^2 * (dim Omega)^(n+1) of the grade-n piece of gl(d) currents."""
    if d < 1 or n < 0:
        raise StructureError("graded dimensions need d >= 1 and a nonnegative grade")
    return d * d * spec.dim ** (n + 1)


def graded_basis(spec: AlgebraSpec, d: int, n: int) -> List[Label]:
    """Explicit basis of the grade-n piece; its length realizes graded_dim."""
    if d < 1 or n < 0:
        raise StructureError("graded bases need d >= 1 and a nonnegative grade")
    return [
        (i, j, w)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        for w in basis_words(spec, n + 1)
    ]


# ---------------------------------------------------------------------------
# path algebra of the complete quiver


def path_algebra_iso_check(L: int, maxgrade: int) -> bool:
    """Currents of C^(+)L match the path algebra of the full quiver on L vertices.

    A grade-n basis word (u_{v0}, ..., u_{vn}) is read as the path
    v0 -> v1 -> ... -> vn; paths compose by concatenation when the endpoint
    vertices agree and give zero otherwise, which is exactly what the
    junction product of orthogonal idempotents does.  The product loop
    enumerates paths itself, so the first loop stays to check that
    :func:`~glomega.words.basis_words` yields exactly the vertex sequences.
    """
    if L < 1 or maxgrade < 0:
        raise StructureError("need at least one vertex and maxgrade >= 0")
    spec = direct_sum_C(L)
    for n in range(maxgrade + 1):
        paths = set(itertools.product(range(L), repeat=n + 1))
        words = set(basis_words(spec, n + 1))
        if paths != words:
            return False
    for la in range(1, maxgrade + 2):
        for lb in range(1, maxgrade + 3 - la):
            for p in itertools.product(range(L), repeat=la):
                for q in itertools.product(range(L), repeat=lb):
                    expected = {p + q[1:]: 1} if p[-1] == q[0] else {}
                    if odot_words(spec, p, q) != expected:
                        return False
    return True


# ---------------------------------------------------------------------------
# balanced tensor powers of Omega (x) Omega over Omega


def _balancing_solver(spec: AlgebraSpec, k: int) -> SpanSolver:
    """Span of the balancing relations inside the 2k-letter word space.

    Slot pairs (x_t, y_t) carry the outer bimodule action a.(x(x)y).b =
    (ax)(x)(yb); at each junction t the relation moves a middle letter w
    across:  (x (x) y w) (x) (z (x) v)  =  (x (x) y) (x) (w z (x) v).
    At k = 1 there is no junction, so the span is zero.
    """
    solver = SpanSolver()
    letters = range(spec.dim)
    for t in range(k - 1):
        # positions: y_t at 2t+1, x_{t+1} at 2t+2 within the 2k-letter word
        for rest_left in basis_words(spec, 2 * t + 1):
            for y in letters:
                for w in letters:
                    for z in letters:
                        for rest_right in basis_words(spec, 2 * k - 2 * t - 3):
                            vec: Dict[Word, Scalar] = {}
                            for c, coeff in spec.product(y, w).items():
                                _acc(vec, rest_left + (c, z) + rest_right, coeff)
                            for c, coeff in spec.product(w, z).items():
                                _acc(vec, rest_left + (y, c) + rest_right, -coeff)
                            if vec:
                                solver.add(vec)
    return solver


def _phi(unit: Dict[int, Scalar], word: Word) -> Dict[Word, Scalar]:
    """Embed a (k+1)-letter current word as a 2k-letter balanced representative.

    phi(x_0, ..., x_k) = (x_0 (x) x_1) (x) (1 (x) x_2) (x) ... (x) (1 (x) x_k),
    with the unit ``{k: c}`` expanded over the basis; nothing else of the table is read.
    """
    k = len(word) - 1
    if k == 0:
        raise StructureError("phi is defined on grades >= 1")
    out: Dict[Word, Scalar] = {tuple(word[:2]): 1}
    for letter in word[2:]:
        nxt: Dict[Word, Scalar] = {}
        for w, c in out.items():
            for e_idx, e_c in unit.items():
                _acc(nxt, w + (e_idx, letter), c * e_c)
        out = nxt
    return out


def bimodule_iso_check(spec: AlgebraSpec, maxgrade: int) -> bool:
    """Grade k of the current algebra is the k-fold balanced power of Omega(x)Omega.

    Checks three things per grade up to the bound: the balanced quotient has
    dimension dim^(k+1); the embedding phi is injective modulo the relations
    (hence bijective, by the dimension count); and phi turns the junction
    product into concatenation of balanced factors, again modulo relations.
    Requires a unital table: the embedding pads interior slots with the unit.
    """
    if maxgrade < 1:
        raise StructureError("balanced tensor comparison needs maxgrade >= 1")
    unit = detect_unit(spec)
    if unit is None:
        raise StructureError("balanced tensor comparison needs a unital table")
    solvers: Dict[int, SpanSolver] = {}
    for k in range(1, maxgrade + 1):
        solver = solvers[k] = _balancing_solver(spec, k)
        if spec.dim ** (2 * k) - solver.rank != spec.dim ** (k + 1):
            return False
        relations = [row for row, _combo in solver.rows.values()]
        images = [_phi(unit, word) for word in basis_words(spec, k + 1)]
        if rank(relations + images) != solver.rank + spec.dim ** (k + 1):
            return False
    for ka in range(1, maxgrade):
        for kb in range(1, maxgrade + 1 - ka):
            solver = solvers[ka + kb]
            for wa in basis_words(spec, ka + 1):
                pa = _phi(unit, wa)
                for wb in basis_words(spec, kb + 1):
                    pb = _phi(unit, wb)
                    diff: Dict[Word, Scalar] = {}
                    for u, cu in pa.items():
                        for v, cv in pb.items():
                            _acc(diff, u + v, cu * cv)
                    for w, c in odot_words(spec, wa, wb).items():
                        vec_add(diff, _phi(unit, w), -c)
                    if diff and not solver.contains(diff):
                        return False
    return True


# ---------------------------------------------------------------------------
# the degeneration certificate


def _bracket_remainder(
    ctx: Enveloping, i: int, j: int, k: int, l: int, x: Word, y: Word, s: ScalarLike
) -> UElement:
    """[t_ij(x; s), t_kl(y; s)] - c t_ab(w; s) for each term c (a, b, w) of :func:`gl_current_bracket`."""
    rem = dict(ctx.commutator(ctx.t_elem(i, j, x, s), ctx.t_elem(k, l, y, s)).terms)
    for (a, b, w), c in gl_current_bracket(ctx.omega, {(i, j, x): 1}, {(k, l, y): 1}).items():
        vec_add(rem, ctx.t_elem(a, b, w, s).terms, -c)
    return UElement._trusted(ctx, rem)


def generator_bracket_display_check(
    omega: AlgebraSpec, d: int, s: ScalarLike, n: int
) -> Optional[Tuple[int, int, int, int, int, int]]:
    """On single letters the commutator IS the current bracket, exactly.

    The bracket remainder of two letters a, b is zero on the nose in
    U(gl(N, Omega)), since length-1 t-elements are plain generators:
    [t_ij(a; s), t_kl(b; s)] = delta_kj t_il(ab) - delta_il t_kj(ba).
    Returns the first (i, j, k, l, a, b) whose remainder is nonzero, or None.
    """
    if d < 1:
        raise StructureError("the letter check needs d >= 1")
    ctx = Enveloping.get(omega, n)
    for i, j, k, l in itertools.product(range(1, d + 1), repeat=4):
        for a, b in itertools.product(range(omega.dim), repeat=2):
            if not _bracket_remainder(ctx, i, j, k, l, (a,), (b,), s).is_zero():
                return i, j, k, l, a, b
    return None


def shifted_degree(mono: Sequence[Label]) -> int:
    return sum(len(word) - 1 for _i, _j, word in mono)


def degeneration_check(
    omega: AlgebraSpec,
    i: int,
    j: int,
    k: int,
    l: int,
    x: Word,
    y: Word,
    d: int,
    s: ScalarLike,
) -> bool:
    """Commutator of t-elements = current bracket + lower shifted degree.

    Computes R = [t_ij(x;N;s), t_kl(y;N;s)] minus their current bracket
    read through t(s) (:func:`_bracket_remainder`), expands R over ordered
    t-monomials and checks every surviving monomial has shifted degree at
    most len(x)+len(y)-3 (for single letters that forces R = 0 on the nose).
    Runs at N = d + len(x) + len(y), the least faithful size, and at N+1;
    verdicts that differ raise through :func:`stable`.
    """
    x, y = tuple(x), tuple(y)
    if not x or not y:
        raise StructureError("words must be nonempty")
    if d < 1 or max(i, j, k, l) > d or min(i, j, k, l) < 1:
        raise StructureError("matrix indices must lie in 1..d")
    n = d + len(x) + len(y)
    bound = len(x) + len(y) - 3

    def verdict(ctx: Enveloping) -> bool:
        expansion = t_expansion(ctx, _bracket_remainder(ctx, i, j, k, l, x, y, s), d, s)
        return expansion is not None and all(shifted_degree(m) <= bound for m, _c in expansion)

    return stable(omega, (n, n + 1), verdict, lambda _: "degeneration verdicts differ at N=%d and N=%d" % (n, n + 1))
