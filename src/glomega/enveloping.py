"""PBW machinery for U(gl(N, Omega)) and the centralizer construction.

gl(N, Omega) = gl(N, C) (x) Omega has basis E_ij(x_b) with bracket

    [E_ij(x), E_kl(y)] = delta_kj E_il(x y) - delta_il E_kj(y x),

products taken in the coefficient algebra Omega (which must be associative
here).  Monomials in the enveloping algebra are written in a fixed total
order on generators: the key of E_ij(x_b) is (class, i, j, b) where class is
0 for i, j < N, 1 for i = N > j, and 2 for j = N.  Class 2 generators sit at
the right end of every sorted monomial, which is what makes deleting
index-N monomials implement the projection U(gl(N))^{E_NN} ->
U(gl(N-1)): an E_NN-invariant monomial touching index N always ends in an
E(*, N) factor, hence lies in the two-sided piece L(N) that the projection
kills.

A context keys all n^2 dim generators once, when it is built, and holds one
tuple object per generator: the words it builds, and so every word its memos
hold, share these objects instead of carrying copies.

:class:`UElement` is the package's one element class, with its arithmetic
written once, in it, and one spelling per operation: build with
``UElement(ctx, terms)``, multiply and bracket with ``ctx.multiply(u, v)``
and ``ctx.commutator(u, v)``, scale with ``u.scale(c)``, and add, subtract
and compare with ``+``, ``-`` and ``==``.  Elements are not hashable.
Values that live inside one computation, table elements and the unit among
them, are plain dicts (see ``omega``).
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .linalg import SpanSolver, kernel_basis, rank, rref
from .omega import (
    AlgebraSpec,
    Scalar,
    ScalarLike,
    StabilizationError,
    StructureError,
    _acc,
    as_scalar,
    check_associativity,
    check_int,
    vec_add,
)
from .words import Word, check_label, compositions, coagulate_word

# generator E_ij(x_b) as a plain tuple (i, j, b); i, j are 1-based, b indexes
# the Omega basis
Gen = Tuple[int, int, int]
Mono = Tuple[Gen, ...]

# the normal-form memo's entry for a word that is already sorted: the word
# itself, with coefficient 1, is built afresh on each hit
_SORTED: Mapping = MappingProxyType({})


def stable(omega: AlgebraSpec, sizes: Iterable[int], verdict: Callable, witness: Callable[[Dict], str]):
    """The verdict shared by the table's own contexts (:meth:`Enveloping.get`) at every size in ``sizes``.

    A verdict is any value that compares with ``==``: a boolean, or an
    expansion whose N-independence is the claim.  A check at consecutive
    finite sizes stands in for the N -> infinity limit, so verdicts that
    differ raise ``StabilizationError(witness(by_n))``, with ``by_n`` the
    verdict at each size; they are never a failure.
    """
    by_n = {n: verdict(Enveloping.get(omega, n)) for n in sizes}
    if not by_n:
        raise StructureError("a stable verdict needs at least one size")
    first, *rest = by_n.values()
    if any(v != first for v in rest):
        raise StabilizationError(witness(by_n))
    return first


def _partials(u: "UElement") -> Dict[Gen, Dict[Mono, Scalar]]:
    """g -> d sigma(u) / d g: each top-degree monomial of u with one factor g removed."""
    top = u.degree()
    out: Dict[Gen, Dict[Mono, Scalar]] = {}
    for mono, c in u.terms.items():
        if len(mono) == top:
            for p, g in enumerate(mono):
                _acc(out.setdefault(g, {}), mono[:p] + mono[p + 1 :], c)
    return out


class Enveloping:
    """Computation context for U(gl(n, omega)) with a fixed PBW order."""

    def __init__(self, omega: AlgebraSpec, n: int):
        check_int("n", 1, n)
        witness = check_associativity(omega)
        if witness is not None:
            raise StructureError(
                "coefficient algebra is not associative (witness %r)" % (witness,)
            )
        self.omega = omega
        self.n = n
        # the PBW order, fixed here for every generator: the keys, and the
        # generators sorted by them
        self._keys: Dict[Gen, Tuple[int, int, int, int]] = {
            (i, j, b): (2 if j == n else (1 if i == n else 0), i, j, b)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            for b in range(omega.dim)
        }
        self.gens: List[Gen] = sorted(self._keys, key=self._keys.__getitem__)
        # the one tuple object of each generator: the words this context
        # builds are made of these, so the memoized words share them
        self._gen: Dict[Gen, Gen] = {g: g for g in self.gens}
        # the caches, from _nf to _field: every dict below and the _field
        # slot; each is filled on first use and emptied by empty_caches,
        # which suites.run_suite calls between the suites of one run
        self._nf: Dict[Mono, Mapping[Mono, Scalar]] = {}
        self._comm: Dict[Tuple[Gen, Gen], Tuple[Tuple[Gen, Scalar], ...]] = {}
        self._e: Dict = {}
        # sorted chain words of e_top, by (i, j, word)
        self._e_top: Dict[Tuple[int, int, Word], Dict[Mono, Scalar]] = {}
        # doublepoisson.trace_elem, by word
        self._trace: Dict[Word, "UElement"] = {}
        # t_elem, by (i, j, word, s): the one memo keyed by s
        self._t: Dict = {}
        # yangian.t_expansion's one cache: the solver of each torus-weight
        # class of ordered t-monomials, by (d, total word length, weight),
        # the class listed on the solver's miss; e-symbols carry no s, so
        # every s shares them
        self._symbol_solvers: Dict = {}
        # top_commutator's one slot: the last left argument and its
        # Hamiltonian field, (u, partials, by_row, by_col, {h: X_u(h)})
        self._field: Optional[Tuple] = None

    @classmethod
    def get(cls, omega: AlgebraSpec, n: int) -> "Enveloping":
        """The table's own context for size n, built on first use.

        It is kept in ``omega.contexts``, so every caller with the same table
        object shares it, and it is released with the table.  Its caches
        live until :meth:`empty_caches`: in a run of several suites, that is
        one suite.
        """
        check_int("n", 1, n)  # True would find the context of n = 1
        ctx = omega.contexts.get(n)
        if ctx is None:
            ctx = omega.contexts[n] = cls(omega, n)
        return ctx

    def empty_caches(self) -> None:
        """Empty every cache declared in ``__init__``, in place, and the top_commutator slot.

        The caches are the context's dicts but the PBW order ``_keys`` and
        ``_gen``, so none is named here.  The context stays usable and
        refills its caches on demand.  Emptying in place drops the cycles
        through the context that cached elements form (each names the
        context as its owner), so the memory is freed without waiting for
        the cyclic garbage collector.  Only
        :func:`glomega.suites.run_suite` calls it, between suites: emptied
        mid-computation, the shared work of one suite would be done again.
        """
        for name, value in vars(self).items():
            if isinstance(value, dict) and name not in ("_keys", "_gen"):
                value.clear()
        self._field = None

    # -- generator order ----------------------------------------------------

    def sort_key(self, g: Gen) -> Tuple[int, int, int, int]:
        """The key of a generator; one that is not a generator of this context raises."""
        try:
            key = self._keys.get(g)
        except TypeError:  # an unhashable generator, a list say, is none of this context's
            key = None
        # a float or bool part finds the key of the int generator it equals
        if key is None or not type(g[0]) is type(g[1]) is type(g[2]) is int:
            raise StructureError("generator %r out of range for n=%d, or not made of ints" % (g, self.n))
        return key

    def _sorted(self, word: Iterable[Gen]) -> Mono:
        """The context's own generators in PBW order, unchecked: a word it built from generators it holds."""
        return tuple(sorted(word, key=self._keys.__getitem__))

    def commutator_terms(self, g: Gen, h: Gen) -> Tuple[Tuple[Gen, Scalar], ...]:
        """[E_g, E_h] as a tuple of (generator, coefficient) pairs, read through :meth:`_bracket`.

        Both generators are checked first: a bool part would hit the memo of the int it equals.
        """
        self.sort_key(g)
        self.sort_key(h)
        return self._bracket(g, h)

    def _bracket(self, g: Gen, h: Gen) -> Tuple[Tuple[Gen, Scalar], ...]:
        """:meth:`commutator_terms` of two generators the context holds, unchecked.

        Memoized only for pairs whose indices meet (h's row is g's column or
        g's row is h's column); any other pair gives ``()`` with no memo entry.
        """
        if g[1] != h[0] and g[0] != h[1]:
            return ()
        key = (g, h)
        terms = self._comm.get(key)
        if terms is None:
            i1, j1, b1 = g
            i2, j2, b2 = h
            gen = self._gen
            out: Dict[Gen, Scalar] = {}
            if i2 == j1:
                for k, c in self.omega.product(b1, b2).items():
                    _acc(out, gen[i1, j2, k], c)
            if i1 == j2:
                for k, c in self.omega.product(b2, b1).items():
                    _acc(out, gen[i2, j1, k], -c)
            terms = tuple(out.items())
            self._comm[key] = terms
        return terms

    # -- normal form --------------------------------------------------------

    def normal_form(self, seq: Sequence[Gen]) -> Dict[Mono, Scalar]:
        """PBW expansion of a product of generators (memoized; do not mutate).

        A sorted word is memoized as the shared marker ``_SORTED`` and gets
        a fresh ``{word: 1}`` on every call; any other word's stored
        expansion is handed back as it is.  The leftmost inversion g h at position p is rewritten as
        h g + [g, h].  The swaps form a chain of words of the same length,
        walked in a loop until a sorted or memoized word; each later scan
        starts at p - 1, since nothing left of it changed.  Walking the chain
        back adds each bracket correction, the normal form of a word one
        generator shorter, and memoizes every word on the chain.  Only those
        shorter words recurse, so the recursion depth is at most len(seq).

        This is where the generators of a word are checked, once, on a memo
        miss: a memoized word was checked when it was first met, the chain
        words are permutations of a checked word, and the bracket words are
        built from checked generators, so the swaps read the unchecked
        :meth:`_bracket`.  The context's own generator objects, of which the
        words it builds are made, need no check; any other generator, an
        equal copy or one with a bool part, goes through :meth:`sort_key`.
        """
        seq = tuple(seq)
        memo = self._nf
        try:
            res = memo.get(seq)
        except TypeError:  # an unhashable generator, which sort_key refuses
            for g in seq:
                self.sort_key(g)
        if res is _SORTED:
            return {seq: 1}
        if res is not None:
            return res
        own = self._gen
        for g in seq:
            if own.get(g) is not g:
                self.sort_key(g)
        key = self._keys.__getitem__
        chain: List[Tuple[Mono, int]] = []
        cur = seq
        start = 0
        while True:
            p = -1
            for a in range(start, len(cur) - 1):
                if key(cur[a]) > key(cur[a + 1]):
                    p = a
                    break
            if p < 0:
                res = {cur: 1}
                memo[cur] = _SORTED
                break
            chain.append((cur, p))
            cur = cur[:p] + (cur[p + 1], cur[p]) + cur[p + 2 :]
            res = memo.get(cur)
            if res is _SORTED:
                res = {cur: 1}
            if res is not None:
                break
            start = max(p - 1, 0)
        for word, p in reversed(chain):
            res = dict(res)
            for gen, c2 in self._bracket(word[p], word[p + 1]):
                vec_add(res, self.normal_form(word[:p] + (gen,) + word[p + 2 :]), c2)
            memo[word] = res
        return res

    def normal_form_random(self, seq: Sequence[Gen], rng) -> Dict[Mono, Scalar]:
        """Normal form resolving a *random* inversion each step (no cache).

        Used to test confluence of the rewriting: any swap schedule must
        produce the same expansion as the leftmost-first strategy.  Each
        generator of a popped word is looked up, so a bad one always raises.
        """
        out: Dict[Mono, Scalar] = {}
        stack: List[Tuple[Mono, Scalar]] = [(tuple(seq), 1)]
        while stack:
            cur, coeff = stack.pop()
            keys = [self.sort_key(g) for g in cur]
            inversions = [a for a in range(len(cur) - 1) if keys[a] > keys[a + 1]]
            if not inversions:
                _acc(out, cur, coeff)
                continue
            p = rng.choice(inversions)
            g, h = cur[p], cur[p + 1]
            stack.append((cur[:p] + (h, g) + cur[p + 2 :], coeff))
            for gen, c2 in self.commutator_terms(g, h):
                stack.append((cur[:p] + (gen,) + cur[p + 2 :], coeff * c2))
        return out

    # -- elements -----------------------------------------------------------

    def zero(self) -> "UElement":
        return UElement(self, {})

    def one(self) -> "UElement":
        return UElement(self, {(): 1})

    def gen(self, i: int, j: int, b: int = 0) -> "UElement":
        # True and 1.0 would pass the generator lookup as 1
        check_label(self.omega, i, j, (b,), most=self.n)
        return UElement(self, {((i, j, b),): 1})

    def multiply(self, u: "UElement", v: "UElement") -> "UElement":
        u._compat(self)
        v._compat(self)
        out: Dict[Mono, Scalar] = {}
        for m1, c1 in u.terms.items():
            for m2, c2 in v.terms.items():
                vec_add(out, self.normal_form(m1 + m2), c1 * c2)
        return UElement._trusted(self, out)

    def commutator(self, u: "UElement", v: "UElement") -> "UElement":
        """[u, v] by the derivation rule of an associative algebra.

        For monomials m1 = g_1...g_l and m2 = h_1...h_k,
        [m1, m2] = sum over q, p of
        h_1...h_{q-1} g_1...g_{p-1} [g_p, h_q] g_{p+1}...g_l h_{q+1}...h_k,
        so only words of length l + k - 1 are normal-formed; the degree
        l + k part of u v - v u, which cancels, is never built.  [g, h]
        vanishes unless h's row is g's column or g's row is h's column, so
        u's factors are indexed by column and by row, as in
        :meth:`top_commutator`, and only the pairs that meet are visited,
        each once: a pair E_ab, E_ba (a diagonal pair among them) meets
        both ways, and is taken from the column index alone.
        """
        u._compat(self)
        v._compat(self)
        by_row: Dict[int, List[Tuple[Mono, Scalar, int, Gen]]] = {}
        by_col: Dict[int, List[Tuple[Mono, Scalar, int, Gen]]] = {}
        for m1, c1 in u.terms.items():
            for p, g in enumerate(m1):
                entry = (m1, c1, p, g)
                by_row.setdefault(g[0], []).append(entry)
                by_col.setdefault(g[1], []).append(entry)
        out: Dict[Mono, Scalar] = {}
        for m2, c2 in v.terms.items():
            for q, h in enumerate(m2):
                left, right = m2[:q], m2[q + 1 :]
                i2 = h[0]
                for m1, c1, p, g in by_col.get(i2, []) + [e for e in by_row.get(h[1], ()) if e[3][1] != i2]:
                    cc = c1 * c2
                    for gen, c3 in self._bracket(g, h):
                        word = left + m1[:p] + (gen,) + m1[p + 1 :] + right
                        vec_add(out, self.normal_form(word), cc * c3)
        return UElement._trusted(self, out)

    def top_commutator(self, u: "UElement", v: "UElement") -> "UElement":
        """The degree deg u + deg v - 1 part of [u, v], read in gr U = S(gl(N, Omega)).

        By the PBW theorem it is the Poisson bracket in S of the top parts,
        read as the sum over generators h of (d sigma(v) / d h) X_u(h), where
        X_u(h), the sum over g of (d sigma(u) / d g) [g, h], is u's
        Hamiltonian field; each product is a sorted word, since a word and
        its sorted rearrangement differ by shorter words.  [g, h] vanishes
        unless h's row is g's column or g's row is h's column, so u's
        generators are indexed by row and by column, and only the g that
        meet h are visited, each once.

        The field of the last left argument is kept in the context's one
        slot, ``(u, partials, by_row, by_col, {h: X_u(h)})``, each X_u(h)
        built on first use.  It is reused only while the next left argument
        is the same object, so a caller must not mutate an element it has
        bracketed, as for memoized results.
        """
        u._compat(self)
        v._compat(self)
        key = self._keys.__getitem__
        field = self._field
        if field is None or field[0] is not u:
            du = _partials(u)
            by_row: Dict[int, List[Gen]] = {}
            by_col: Dict[int, List[Gen]] = {}
            for g in du:
                by_row.setdefault(g[0], []).append(g)
                by_col.setdefault(g[1], []).append(g)
            field = self._field = (u, du, by_row, by_col, {})
        _u, du, by_row, by_col, xs = field
        # the memo is read directly: going through commutator_terms for every
        # pair cost the symbols benchmark 0.194 -> 0.201 s (5 of 6 pairs slower)
        comm = self._comm
        out: Dict[Mono, Scalar] = {}
        for h, fv in _partials(v).items():
            xh = xs.get(h)
            if xh is None:
                xh = xs[h] = {}
                i2, j2, _b2 = h
                for g in by_col.get(i2, []) + [g for g in by_row.get(j2, ()) if g[1] != i2]:
                    bracket = comm.get((g, h))
                    if bracket is None:
                        bracket = self._bracket(g, h)
                    for gen, c3 in bracket:
                        for r1, c1 in du[g].items():
                            _acc(xh, tuple(sorted(r1 + (gen,), key=key)), c1 * c3)
            for m1, c1 in xh.items():
                for r2, c2 in fv.items():
                    _acc(out, tuple(sorted(m1 + r2, key=key)), c1 * c2)
        return UElement._trusted(self, out)

    # -- gl(N, C) action ----------------------------------------------------

    def _ad_mono(self, i: int, j: int, mono: Mono) -> Dict[Mono, Scalar]:
        """[E_ij, mono] as a derivation, re-expanded to normal form."""
        out: Dict[Mono, Scalar] = {}
        for pos, (k, l, b) in enumerate(mono):
            repl: List[Tuple[Gen, int]] = []
            if k == j:
                repl.append(((i, l, b), 1))
            if l == i:
                repl.append(((k, j, b), -1))
            for gen, sign in repl:
                vec_add(out, self.normal_form(mono[:pos] + (gen,) + mono[pos + 1 :]), sign)
        return out

    def mono_weight(self, mono: Mono, a: Optional[int] = None) -> int:
        """Eigenvalue of ad E_aa on a monomial of generators or t-labels (default a = N); an index or ``a`` outside 1..N raises."""
        for i, j, _x in mono:
            check_int("monomial index", 1, i, j, most=self.n)
        if a is None:
            a = self.n
        else:
            check_int("the weight index", 1, a, most=self.n)
        return self._mono_weight(mono, a)

    def _mono_weight(self, mono: Mono, a: int) -> int:
        """:meth:`mono_weight` of a monomial the package built, with indices and ``a`` in 1..N, unchecked."""
        return sum((1 if i == a else 0) - (1 if j == a else 0) for (i, j, _b) in mono)

    def is_in_centralizer(self, u: "UElement", d: int) -> bool:
        """Does u commute with all E_ij, d+1 <= i, j <= N, of gl_d(N, C)?

        E_ij acts on U(gl(N, Omega)) by derivations, monomial by monomial.
        """
        u._compat(self)
        check_int("d", 0, d, most=self.n)
        for i in range(d + 1, self.n + 1):
            for j in range(d + 1, self.n + 1):
                out: Dict[Mono, Scalar] = {}
                for mono, c in u.terms.items():
                    vec_add(out, self._ad_mono(i, j, mono), c)
                if out:
                    return False
        return True

    # -- special elements ---------------------------------------------------

    def _chain_words(self, i: int, j: int, word: Word) -> Iterator[Mono]:
        """The words E_{i a_1}(x_1) ... E_{a_{m-1} j}(x_m), one per index chain a (the callers check i, j and word)."""
        gen = self._gen
        for chain in itertools.product(range(1, self.n + 1), repeat=len(word) - 1):
            idx = (i,) + chain + (j,)
            yield tuple(gen[g] for g in zip(idx, idx[1:], word))

    def e_elem(self, i: int, j: int, word: Word) -> "UElement":
        """e_ij(word; N), the sum of the chain words, each in normal form, read through :meth:`_e_elem`.

        The label is checked first, since True and 1.0 would hit the memo of 1.
        """
        return self._e_elem(i, j, check_label(self.omega, i, j, word, most=self.n))

    def _e_elem(self, i: int, j: int, word: Word) -> "UElement":
        """:meth:`e_elem` of a label the package built or checked, its word a tuple, unchecked (memoized)."""
        key = (i, j, word)
        cached = self._e.get(key)
        if cached is not None:
            return cached
        acc: Dict[Mono, Scalar] = {}
        for w in self._chain_words(i, j, word):
            vec_add(acc, self.normal_form(w))
        el = UElement._trusted(self, acc)
        self._e[key] = el
        return el

    def e_top(self, i: int, j: int, word: Word) -> Dict[Mono, Scalar]:
        """sigma(e_ij(word; N)), the degree len(word) part: each chain word, sorted, with coefficient 1.

        Memoized per (i, j, word) and shared by every caller, so it must not
        be mutated, as for :meth:`normal_form`.
        """
        word = check_label(self.omega, i, j, word, most=self.n)
        key = (i, j, word)
        out = self._e_top.get(key)
        if out is None:
            out = {}
            for w in self._chain_words(i, j, word):
                _acc(out, self._sorted(w), 1)
            self._e_top[key] = out
        return out

    def t_elem(self, i: int, j: int, word: Word, s: ScalarLike) -> "UElement":
        """Coagulation-corrected element, read through :meth:`_t_elem`; reduces to e_elem at s = -N.

        t_ij(x; N; s) = sum over compositions nu of len(x) of
        (-N - s)^(len(x) - len(nu)) e_ij(x * nu; N), with 0^0 = 1, so the
        s = -N specialization keeps only the finest composition.  The label
        and s are checked first, since True and 1.0 would hit the memo of 1.
        """
        return self._t_elem(i, j, check_label(self.omega, i, j, word, most=self.n), as_scalar(s))

    def _t_elem(self, i: int, j: int, word: Word, s: Scalar) -> "UElement":
        """:meth:`t_elem` of a label the package built or checked, its word a tuple, at ``as_scalar(s)``, unchecked (memoized)."""
        key = (i, j, word, s)
        cached = self._t.get(key)
        if cached is not None:
            return cached
        # the coagulated words are the table's
        el = self._coagulation_sum(word, -self.n - s, lambda w: self._e_elem(i, j, w))
        self._t[key] = el
        return el

    def reparametrize_check(self, i: int, j: int, word: Word, s: ScalarLike, s2: ScalarLike) -> bool:
        """t_ij(x; N; s) == sum_nu (s2 - s)^(len(x)-len(nu)) t_ij(x*nu; N; s2), the label and both s checked once."""
        word = check_label(self.omega, i, j, word, most=self.n)
        s = as_scalar(s)
        s2 = as_scalar(s2)
        rhs = self._coagulation_sum(word, s2 - s, lambda w: self._t_elem(i, j, w, s2))
        return self._t_elem(i, j, word, s) == rhs

    def _coagulation_sum(self, word: Word, base: Scalar, image: Callable[[Word], "UElement"]) -> "UElement":
        """Sum over compositions nu of len(word) of base^(len(word) - len(nu)) image(word * nu).

        0^0 = 1, so base = 0 keeps only the finest composition.
        """
        m = len(word)
        acc: Dict[Mono, Scalar] = {}
        for nu in compositions(m):
            coeff = base ** (m - len(nu))
            if not coeff:
                continue
            for w2, c2 in coagulate_word(self.omega, word, nu).items():
                vec_add(acc, image(w2).terms, coeff * c2)
        return UElement._trusted(self, acc)

    # -- projection ---------------------------------------------------------

    def project_down(self, u: "UElement") -> "UElement":
        """Delete index-N monomials and re-express in U(gl(N-1, Omega)).

        Requires ad E_NN u = 0.  One pass per monomial counts its factors
        with row N and with column N; they must be equal, as weight zero
        says, and every monomial is checked before any is re-sorted.
        Deletion is justified monomial by monomial: a weight-zero monomial
        containing index N has an E(*, N) factor, so it lies in L(N) = ker
        of the projection.  Surviving monomials, those with no factor in
        row or column N, are re-sorted in the table's own context one size
        down (:meth:`get`), whose PBW order differs.
        """
        u._compat(self)
        n = self.n
        if n < 2:
            raise StructureError("cannot project below n = 1")
        kept = []
        for mono, c in u.terms.items():
            rows = cols = 0
            for i, j, _b in mono:
                rows += i == n
                cols += j == n
            if rows != cols:
                raise StructureError("project_down needs an E_NN-invariant element")
            if not cols:
                kept.append((mono, c))
        target = Enveloping.get(self.omega, n - 1)
        acc: Dict[Mono, Scalar] = {}
        for mono, c in kept:
            vec_add(acc, target.normal_form(mono), c)
        return UElement._trusted(target, acc)

    # -- enumeration and invariants ------------------------------------------

    def monomials(self, maxdeg: int) -> Iterator[Mono]:
        """All PBW monomials of degree <= maxdeg, degree by degree."""
        check_int("maxdeg", 0, maxdeg)
        return itertools.chain.from_iterable(
            itertools.combinations_with_replacement(self.gens, deg) for deg in range(maxdeg + 1)
        )

    def _torus_zero_monomials(self, d: int, maxdeg: int) -> List[Mono]:
        check_int("d", 0, d, most=self.n)
        out = []
        acting = range(d + 1, self.n + 1)
        for mono in self.monomials(maxdeg):
            if all(self._mono_weight(mono, a) == 0 for a in acting):
                out.append(mono)
        return out

    def _invariant_constraints(self, d: int, cols: Sequence[Mono]) -> List[Dict]:
        """Rows of the ad-constraint system on the weight-zero monomial span.

        ad is a Lie algebra map, so what a generating set kills, all of
        gl_d(N, C) kills.  The column filter imposes the torus E_aa, d < a <= N;
        with it the simple root vectors E_{a,a+1} and E_{a+1,a}, d < a < N,
        generate, so the rows come from these 2(N - d - 1) operators alone.
        """
        rows: Dict = {}
        for ci, mono in enumerate(cols):
            for a in range(d + 1, self.n):
                for i, j in ((a, a + 1), (a + 1, a)):
                    for m2, c in self._ad_mono(i, j, mono).items():
                        _acc(rows.setdefault((i, j, m2), {}), ci, c)
        return [row for row in rows.values() if row]

    def invariant_dim(self, d: int, maxdeg: int) -> int:
        """Dimension of the gl_d(N, C)-invariants of filtration degree <= maxdeg."""
        cols = self._torus_zero_monomials(d, maxdeg)
        return len(cols) - rank(self._invariant_constraints(d, cols))

    def invariant_basis(self, d: int, maxdeg: int) -> List["UElement"]:
        cols = self._torus_zero_monomials(d, maxdeg)
        kern = kernel_basis(self._invariant_constraints(d, cols), len(cols))
        return [
            UElement._trusted(self, {cols[ci]: c for ci, c in vec.items()}) for vec in kern
        ]

    # -- the two ideals -----------------------------------------------------

    def ideal_intersection_check(self, maxdeg: int) -> Dict[str, object]:
        """Desk verification that the left and right ideal intersections agree.

        Spans u E(i,N)(x) and E(N,j)(x) u up to filtration degree maxdeg,
        keeps each ideal's E_NN-invariant part (the span of its weight-zero
        spanning vectors), and reports whether the two agree, whether the
        invariant space splits as (index-N free part) + (intersection), and
        whether the intersection is stable under invariant degree-1
        multipliers on both sides.  maxdeg = 0 spans no ideal vector, so it
        raises rather than pass on empty spans.
        """
        check_int("maxdeg", 1, maxdeg)
        n = self.n
        right_gens = [(i, n, b) for i in range(1, n + 1) for b in range(self.omega.dim)]
        left_gens = [(n, j, b) for j in range(1, n + 1) for b in range(self.omega.dim)]
        lower = list(self.monomials(maxdeg - 1))
        # [E_ij(x), E_kl(y)] has the weight of E_ij plus that of E_kl, so a normal
        # form has its word's weight, and a span of weight vectors meets weight 0
        # in the span of its weight-0 members; rref gives both a canonical basis
        right = (m + (g,) for m in lower for g in right_gens)
        left = ((g,) + m for m in lower for g in left_gens)
        plus = rref(self.normal_form(w) for w in right if self._mono_weight(w, n) == 0)
        minus = rref(self.normal_form(w) for w in left if self._mono_weight(w, n) == 0)
        equal = plus == minus

        # direct sum with the index-N free monomials inside the invariants
        wz = self._torus_zero_monomials(n - 1, maxdeg)  # E_NN-invariant monomials
        free = {m for m in wz if not any(i == n or j == n for (i, j, _b) in m)}
        # the free monomials are coordinates: plus meets their span only in zero
        # iff its rows stay independent with those coordinates deleted, and then
        # the two span the invariants iff their dimensions add up to len(wz)
        direct = rank({m: c for m, c in row.items() if m not in free} for row in plus) == len(plus)
        spans = len(free) + len(plus) == len(wz)

        # two-sidedness inside the truncation
        membership = SpanSolver()
        for row in plus:
            membership.add(row)
        wz_gens = [g for g in self.gens if self._mono_weight((g,), n) == 0]
        two_sided = True
        small = [UElement(self, r) for r in plus if all(len(m) < maxdeg for m in r)]
        for v in small:
            for g in wz_gens:
                gu = UElement(self, {(g,): 1})
                for prod in (self.multiply(gu, v), self.multiply(v, gu)):
                    if not membership.contains(prod.terms):
                        two_sided = False
        return {
            "intersections_equal": equal,
            "dim": len(plus),
            "direct_sum": direct and spans,
            "two_sided": two_sided,
            "passed": equal and direct and spans and two_sided,
        }


class UElement:
    """Sparse element of U(gl(n, omega)) in PBW coordinates.

    ``terms`` maps sorted monomials to nonzero scalars, and ``owner`` is the
    enveloping context the element belongs to.  Owners compare by identity:
    combining elements of different contexts raises :class:`StructureError`,
    and such elements are never equal.  There are two constructors:

    * the public one, ``UElement(ctx, terms)``, reads every key as a product
      of generators: each generator is checked against the context (a part
      out of range or not an ``int`` raises :class:`StructureError`), and the
      product is added in its PBW normal form, so keys in any order spell
      the element they name; coefficients pass through :func:`as_scalar`,
      and zeros are dropped;
    * the trusted one, ``UElement._trusted(ctx, terms)``, is for dicts that
      the context's own arithmetic built: keys are sorted monomials already
      and are taken as they are, every coefficient that is no ``int`` still
      passes through :func:`as_scalar`, which makes a whole ``Fraction`` an
      ``int``, and zeros are dropped.
    """

    __slots__ = ("owner", "terms")

    def __init__(self, owner: Enveloping, terms: Mapping):
        self.owner = owner
        out: Dict[Mono, Scalar] = {}
        for mono, c in terms.items():
            # a memo hit in normal_form would pass a float or bool part unchecked
            for g in mono:
                owner.sort_key(g)
            vec_add(out, owner.normal_form(mono), as_scalar(c))
        self.terms = out

    @classmethod
    def _trusted(cls, owner: Enveloping, terms: Mapping) -> "UElement":
        out = {}
        for mono, c in terms.items():
            if type(c) is not int:  # the package's arithmetic makes ints and Fractions
                c = as_scalar(c)
            if c:
                out[mono] = c
        new = cls.__new__(cls)
        new.owner = owner
        new.terms = out
        return new

    def _compat(self, ctx: Enveloping) -> None:
        if self.owner is not ctx:
            raise StructureError("element belongs to a different enveloping context")

    def __add__(self, other):
        if type(other) is not UElement:
            return NotImplemented
        other._compat(self.owner)
        out = dict(self.terms)
        vec_add(out, other.terms)
        return UElement._trusted(self.owner, out)

    def __sub__(self, other):
        if type(other) is not UElement:
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c: ScalarLike) -> "UElement":
        c = as_scalar(c)
        return UElement._trusted(self.owner, {m: c * v for m, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return type(other) is UElement and self.owner is other.owner and self.terms == other.terms

    def degree(self) -> int:
        """Filtration degree; -1 for the zero element."""
        return max((len(m) for m in self.terms), default=-1)

    def homogeneous(self, k: int) -> "UElement":
        """The degree-k part; k is an int, and a negative k, the degree of zero among them, gives zero."""
        check_int("degree", None, k)
        return UElement._trusted(self.owner, {m: c for m, c in self.terms.items() if len(m) == k})

    def canonical_str(self) -> str:
        """Deterministic text form: terms sorted by (degree, monomial)."""
        if not self.terms:
            return "0"
        labels = self.owner.omega.basis
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            body = "".join("E(%d,%d,%s)" % (i, j, labels[b]) for (i, j, b) in mono)
            bits.append("%s * %s" % (self.terms[mono], body or "1"))
        return " + ".join(bits)

    def __repr__(self) -> str:
        return "<U(gl(%d)) %s>" % (self.owner.n, self.canonical_str())
