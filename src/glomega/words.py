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
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .omega import AlgebraSpec, OmegaElement, Scalar, ScalarLike, StructureError, as_scalar, multiply

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


class TensorElement:
    """Sparse element of the tensor algebra T(Omega) over the basis words."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: AlgebraSpec, terms: Mapping[Word, ScalarLike]):
        self.spec = spec
        cleaned: Dict[Word, Scalar] = {}
        for w, c in terms.items():
            w = tuple(w)
            for letter in w:
                if not (0 <= letter < spec.dim):
                    raise StructureError("letter %r out of range" % (letter,))
            c = as_scalar(c)
            if c:
                cleaned[w] = c
        self.terms = cleaned

    def _check(self, other: "TensorElement") -> None:
        if self.spec is not other.spec:
            raise StructureError("tensor elements over different algebras")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return TensorElement(self.spec, out)

    def __neg__(self) -> "TensorElement":
        return TensorElement(self.spec, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + (-other)

    def scale(self, c: ScalarLike) -> "TensorElement":
        c = as_scalar(c)
        return TensorElement(self.spec, {w: c * v for w, v in self.terms.items()})

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, TensorElement):
            return concat(self, other)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorElement)
            and self.spec is other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.spec), tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            label = "#".join(self.spec.basis[i] for i in w) if w else "1"
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
            w = wa + wb
            s = out.get(w, 0) + ca * cb
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return TensorElement(a.spec, out)


def basis_words(spec: AlgebraSpec, length: int) -> Iterator[Word]:
    """All words of exactly the given length, lexicographic order."""
    return itertools.product(range(spec.dim), repeat=length)


def words_up_to(spec: AlgebraSpec, maxlen: int, minlen: int = 1) -> Iterator[Word]:
    for n in range(minlen, maxlen + 1):
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
            for k, ck in block.coeffs.items():
                nw = w + (k,)
                s = nxt.get(nw, 0) + c * ck
                if s:
                    nxt[nw] = s
        out = nxt
    return TensorElement(spec, out)


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
        key = CyclicWord(w)
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out
