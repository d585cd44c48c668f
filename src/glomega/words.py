"""Words, compositions, coagulation, and cyclic words.

A word is a tuple of basis indices of some AlgebraSpec; the empty tuple is
the unit of the tensor algebra, and :func:`nonempty` is the one place that
refuses it where a word indexes a generator, symbol, current or necklace.  A
matrix-entry label ``(i, j, word)``, :data:`Label`, names both a t-generator
t_ij(x) and a matrix symbol p_ij(x), and :func:`check_label` is the one place
that checks one against a table.  A cyclic word (a necklace class) is stored
as its least rotation, a plain tuple built by :func:`cyclic`.
Compositions of m are enumerated lexicographically, e.g. for m = 3:

    (1, 1, 1), (1, 2), (2, 1), (3)

Coagulation contracts a word along a composition by multiplying each block
inside the coefficient algebra; blocks of length >= 3 associate to the left
(immaterial for the associative algebras fed to the enveloping layer).  The
coagulations of basis words are kept per table, in ``spec.coagulations``.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .omega import AlgebraSpec, Scalar, StructureError, _acc, as_scalar, check_int, check_letters, multiply

Word = Tuple[int, ...]
Composition = Tuple[int, ...]
# (i, j, word): the label of t_ij(word) and of p_ij(word); i, j are 1-based
Label = Tuple[int, int, Word]


def nonempty(word: Iterable[int]) -> Word:
    """The word as a tuple; the empty word raises, for it indexes no generator, symbol, current or necklace."""
    word = tuple(word)
    if not word:
        raise StructureError("words must be nonempty, got ()")
    return word


def check_label(spec: AlgebraSpec, i: int, j: int, word: Iterable[int], most: Optional[int] = None) -> Word:
    """The word of the label ``(i, j, word)`` as a tuple: i, j ints in 1..most, the word nonempty, its letters in ``spec``."""
    check_int("matrix index", 1, i, j, most=most)
    word = nonempty(word)
    check_letters(spec, word)
    return word


def compositions(m: int) -> List[Composition]:
    """All 2^(m-1) compositions of m in lexicographic order."""
    check_int("m", 1, m)
    out: List[Composition] = []

    def build(prefix: Tuple[int, ...], rest: int) -> None:
        if rest == 0:
            out.append(prefix)
            return
        for first in range(1, rest + 1):
            build(prefix + (first,), rest - first)

    build((), m)
    return out


def basis_words(spec: AlgebraSpec, length: int) -> Iterator[Word]:
    """All words of exactly the given length, lexicographic order."""
    check_int("word length", 0, length)
    return itertools.product(range(spec.dim), repeat=length)


def words_up_to(spec: AlgebraSpec, maxlen: int) -> Iterator[Word]:
    """All nonempty words of length <= maxlen, ordered by (length, word).

    maxlen 0 gives no word; a negative maxlen raises when called.
    """
    check_int("maximal word length", 0, maxlen)
    return itertools.chain.from_iterable(basis_words(spec, n) for n in range(1, maxlen + 1))


def coagulate(
    spec: AlgebraSpec, factors: Sequence[Mapping[int, Scalar]], nu: Composition
) -> List[Dict[int, Scalar]]:
    """Block products of a list of table elements ``{k: c}`` along a composition.

    The list has length m = sum(nu); block r collects nu[r] consecutive
    factors and multiplies them left to right inside the algebra.  A block
    holds no zero coefficient, a one-factor block included.
    """
    check_int("composition parts", 1, *nu)
    if sum(nu) != len(factors):
        raise StructureError("composition %r does not fit %d factors" % (nu, len(factors)))
    # checked and cleared of zeros before any block: a one-factor block is never multiplied
    check_letters(spec, [k for f in factors for k in f])
    factors = [{k: exact for k, c in f.items() if (exact := as_scalar(c))} for f in factors]
    blocks = zip(nu, itertools.accumulate(nu))
    return [reduce(lambda u, v: multiply(spec, u, v), factors[end - part : end]) for part, end in blocks]


def coagulate_word(spec: AlgebraSpec, word: Word, nu: Composition) -> Dict[Word, Scalar]:
    """Coagulate a basis word, expanding block products through the table.

    Returns ``{word: coefficient}`` over words of length len(nu), with no
    zero coefficients; it is ``{}`` when some block multiplies to zero.  Each
    (word, nu) is computed once per table: the result is kept in
    ``spec.coagulations`` and shared by every caller, so callers must not
    mutate it; a word with a letter outside 0..dim-1, or a composition with
    a part that is no int >= 1, raises before the memo is read, since 1.0
    and True would hit the memo of 1.
    """
    key = (tuple(word), tuple(nu))
    check_letters(spec, key[0])
    check_int("composition parts", 1, *key[1])
    memo = spec.coagulations
    if key in memo:
        return memo[key]
    out: Dict[Word, Scalar] = {(): 1}
    for block in coagulate(spec, [{i: 1} for i in word], nu):
        nxt: Dict[Word, Scalar] = {}
        for w, c in out.items():
            for k, ck in block.items():
                _acc(nxt, w + (k,), c * ck)
        out = nxt
    memo[key] = out
    return out


def cyclic(word: Sequence[int]) -> Word:
    """A word up to rotation: its lexicographically least rotation."""
    w = nonempty(word)
    return min(w[r:] + w[:r] for r in range(len(w)))
