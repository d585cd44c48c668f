"""Words, tensor elements, compositions, coagulation, and cyclic words.

A word is a tuple of basis indices of some AlgebraSpec; the empty tuple is
the unit of the tensor algebra.  TensorElement is a sparse rational linear
combination of words with concatenation as product.  Compositions of m are
enumerated lexicographically, e.g. for m = 3:

    (1, 1, 1), (1, 2), (2, 1), (3)

Coagulation contracts a word along a composition by multiplying each block
inside the coefficient algebra; blocks of length >= 3 associate to the left
(immaterial for the associative algebras fed to the enveloping layer).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .omega import AlgebraSpec, OmegaElement, Scalar, SparseVector, StructureError, _acc, multiply

Word = Tuple[int, ...]
Composition = Tuple[int, ...]


def compositions(m: int) -> List[Composition]:
    """All 2^(m-1) compositions of m in lexicographic order."""
    if m < 1:
        raise StructureError("compositions need m >= 1")
    out: List[Composition] = []

    def build(prefix: Tuple[int, ...], rest: int) -> None:
        if rest == 0:
            out.append(prefix)
            return
        for first in range(1, rest + 1):
            build(prefix + (first,), rest - first)

    build((), m)
    return out


class TensorElement(SparseVector):
    """Sparse element of the tensor algebra T(Omega) over the basis words."""

    __slots__ = ()
    _mixed = "tensor elements over different algebras"

    def _key(self, w: Iterable[int]) -> Word:
        w = tuple(w)
        for letter in w:
            if not (0 <= letter < self.owner.dim):
                raise StructureError("letter %r out of range" % (letter,))
        return w

    def _product(self, other: "TensorElement") -> "TensorElement":
        return concat(self, other)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            label = "#".join(self.owner.basis[i] for i in w) if w else "1"
            bits.append("%s*%s" % (self.terms[w], label))
        return " + ".join(bits)


def tensor_word(spec: AlgebraSpec, word: Iterable[int]) -> TensorElement:
    return TensorElement(spec, {tuple(word): 1})


def concat(a: TensorElement, b: TensorElement) -> TensorElement:
    """Concatenation product on T(Omega)."""
    a._check(b)
    out: Dict[Word, Scalar] = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            _acc(out, wa + wb, ca * cb)
    return TensorElement._trusted(a.owner, out)


def basis_words(spec: AlgebraSpec, length: int) -> Iterator[Word]:
    """All words of exactly the given length, lexicographic order."""
    return itertools.product(range(spec.dim), repeat=length)


def words_up_to(spec: AlgebraSpec, maxlen: int) -> Iterator[Word]:
    """All nonempty words of length <= maxlen, ordered by (length, word)."""
    for n in range(1, maxlen + 1):
        for w in basis_words(spec, n):
            yield w


def coagulate(factors: Sequence[OmegaElement], nu: Composition) -> List[OmegaElement]:
    """Block products of a list of algebra elements along a composition.

    The list has length m = sum(nu); block r collects nu[r] consecutive
    factors and multiplies them left to right inside the algebra.
    """
    if sum(nu) != len(factors) or any(p < 1 for p in nu):
        raise StructureError("composition %r does not fit %d factors" % (nu, len(factors)))
    out: List[OmegaElement] = []
    pos = 0
    for part in nu:
        block = factors[pos]
        for q in range(pos + 1, pos + part):
            block = multiply(block, factors[q])
        out.append(block)
        pos += part
    return out


def coagulate_word(spec: AlgebraSpec, word: Word, nu: Composition) -> TensorElement:
    """Coagulate a basis word, expanding block products through the table.

    The result is a combination of words of length len(nu); it can vanish
    when some block multiplies to zero.
    """
    factors = [spec.basis_element(i) for i in word]
    blocks = coagulate(factors, nu)
    out: Dict[Word, Scalar] = {(): 1}
    for block in blocks:
        if block.is_zero():
            return TensorElement(spec, {})
        nxt: Dict[Word, Scalar] = {}
        for w, c in out.items():
            for k, ck in block.terms.items():
                _acc(nxt, w + (k,), c * ck)
        out = nxt
    return TensorElement._trusted(spec, out)


class CyclicWord(tuple):
    """A word up to rotation, stored as its lexicographically least rotation."""

    def __new__(cls, word: Iterable[int]):
        w = tuple(word)
        if not w:
            raise StructureError("cyclic words must be nonempty")
        least = min(w[r:] + w[:r] for r in range(len(w)))
        return super().__new__(cls, least)

    def __repr__(self) -> str:
        return "Cyc" + super().__repr__()


def cyclic_canonical(word: Iterable[int]) -> CyclicWord:
    return CyclicWord(word)


def project_cyclic(t: TensorElement) -> Dict[CyclicWord, Scalar]:
    """Push a tensor element to the cyclic coinvariants T(Omega)/[rotation].

    Words of length 0 have no cyclic class here; the projection is only
    applied to elements supported in positive length.
    """
    out: Dict[CyclicWord, Scalar] = {}
    for w, c in t.terms.items():
        if not w:
            raise StructureError("cannot project the empty word cyclically")
        _acc(out, CyclicWord(w), c)
    return out
