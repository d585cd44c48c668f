"""Finite-dimensional algebras presented by exact rational multiplication tables.

An :class:`AlgebraSpec` fixes a basis ``x_0, ..., x_{dim-1}`` and structure
constants ``c[i][j][k]`` so that ``x_i * x_j = sum_k c[i][j][k] x_k``.  Tables
are stored sparsely: a pair ``(i, j)`` absent from the table multiplies to
zero.  Nothing here assumes associativity or a unit; both are decidable
properties of a finite table, computed on first demand and then kept on the
table (:func:`check_associativity`, :func:`detect_unit`).

Scalars are exact rationals in one of two types: an integral value is a
Python ``int`` and any other value is a ``fractions.Fraction``.
:func:`as_scalar` is the one place that normalises a value to that form, and
every element constructor in the package calls it.  An ``int`` and the equal
``Fraction`` compare and hash alike, so results do not depend on which type an
intermediate sum happens to have.  A table keeps a ``Fraction`` structure
constant as it was given, so it reads back unchanged; the builtin tables and
tables loaded from JSON hold ``int`` constants wherever they are integral.
Nothing divides two ints with ``/``, which would give a float: exact division
goes through ``Fraction``, or ``//`` when the quotient is known to be integral.

The package's two element classes, ``OmegaElement`` and ``UElement``, are
:class:`SparseVector` subclasses: an ``owner`` and a dict ``terms`` from
keys to nonzero scalars, with addition, subtraction, negation, scaling,
equality and hashing written once here.  A subclass adds only its key hook,
its product, its text form and its own methods.  There are two
constructors:

* the public one, ``Cls(owner, terms)``, runs the subclass's key hook on
  every key (validation and canonical form), normalises every coefficient
  with :func:`as_scalar`, sums keys that collide and drops zeros;
* the trusted one, ``Cls._trusted(owner, terms)``, is for dicts that the
  package's own arithmetic built: it skips the key hook, but still passes
  every coefficient through :func:`as_scalar` and drops zeros.

The owner is what ties elements together: the table for ``OmegaElement``
and the enveloping context for ``UElement``.  Values that live inside one
computation (words, double brackets, coagulations, current-algebra elements,
gl(d) currents, symbol and necklace polynomials) are plain
``{key: scalar}`` dicts, not elements.  Owners compare by identity alone.
Combining elements of different owners raises :class:`StructureError`, and
elements of different owners are never equal.  Two tables with equal
content are still two owners, each holding its own enveloping contexts and
computed facts (see :class:`AlgebraSpec`).  An enveloping element belongs
to its context object: ``Enveloping.get`` keeps one context per table and
size, so all of its callers share owners, while a context built directly
with ``Enveloping(omega, n)`` is an owner of its own.
All accumulation goes through :func:`vec_add` (a whole dict) and
:func:`_acc` (one key), which drop a key as soon as its sum is zero.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

ScalarLike = Union[int, Fraction, str]


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce ints, strings like '-7/2', or Fractions to an exact Scalar.

    Integral values come back as ``int`` (``bool`` as plain ``0``/``1``), all
    others as ``Fraction``.  The exact-type tests come first: this runs once
    per stored coefficient, and ``isinstance`` against ``Fraction`` goes
    through the ABC machinery.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is not Fraction:
        if not isinstance(value, (int, str, Fraction)):
            raise TypeError("exact scalar expected, got %r (floats are not allowed)" % (value,))
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _is_int(value) -> bool:
    """An int that is not a bool: the type of dimensions, indices, numerators, denominators."""
    return isinstance(value, int) and not isinstance(value, bool)


class StructureError(ValueError):
    """A malformed table, or elements of distinct algebras being mixed."""


class StabilizationError(StructureError):
    """A two-size certificate disagreed between N and N+1.

    Kept apart from plain failures: a headroom shortfall is not a
    counterexample, and reports track it under its own status.
    """


def stable(by_n: Mapping[int, object], witness: str):
    """The verdict shared by every size N in ``by_n``.

    A check at consecutive finite sizes stands in for the N -> infinity
    limit, so verdicts that differ across sizes raise
    ``StabilizationError(witness)``; they are never a failure.
    """
    first, *rest = by_n.values()
    if any(v != first for v in rest):
        raise StabilizationError(witness)
    return first


def _acc(d: Dict, key, value: Scalar) -> None:
    """d[key] += value, dropping the key when the sum is zero."""
    s = d.get(key, 0) + value
    if s:
        d[key] = s
    else:
        d.pop(key, None)


def vec_add(target: Dict, src: Mapping, scale: Scalar = 1) -> None:
    """target += scale * src, pruning zeros in place."""
    if not scale:
        return
    one = scale == 1
    get = target.get
    for k, v in src.items():
        s = get(k, 0) + (v if one else scale * v)
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _nonzero(terms: Mapping) -> Dict:
    """The terms of a trusted dict with every coefficient through as_scalar, zeros dropped."""
    out = {}
    for k, c in terms.items():
        c = as_scalar(c)
        if c:
            out[k] = c
    return out


class SparseVector:
    """A sparse exact linear combination: ``terms`` maps keys to nonzero scalars.

    ``owner`` is what ties elements together (a table or an enveloping
    context); it is set here, copied by ``_trusted`` and ``_like``, and
    compared here, by identity.  A subclass declares ``__slots__ = ()`` and
    may override ``_key`` (the key hook), ``_product`` (the product of two
    elements) and ``_mixed`` (the message for mixed owners).
    """

    __slots__ = ("owner", "terms")
    _mixed = "elements of different owners"

    def __init__(self, owner, terms: Mapping):
        """Key hook on every key, as_scalar on every coefficient; collisions summed, zeros dropped."""
        self.owner = owner
        key = self._key
        out: Dict[Hashable, Scalar] = {}
        for k, c in terms.items():
            _acc(out, key(k), as_scalar(c))
        self.terms = out

    @classmethod
    def _trusted(cls, owner, terms: Mapping):
        """Build from a dict with canonical keys; only the coefficients are normalised."""
        new = cls.__new__(cls)
        new.owner = owner
        new.terms = _nonzero(terms)
        return new

    def _like(self, terms: Mapping) -> "SparseVector":
        """A trusted element with the same owner."""
        cls = type(self)
        new = cls.__new__(cls)
        new.owner = self.owner
        new.terms = _nonzero(terms)
        return new

    def _key(self, key):
        return key

    def _check(self, other: "SparseVector") -> None:
        if self.owner is not other.owner:
            raise StructureError(self._mixed)

    def _product(self, other):
        return NotImplemented

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        vec_add(out, other.terms)
        return self._like(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        vec_add(out, other.terms, -1)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c: ScalarLike):
        c = as_scalar(c)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is type(self):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.owner is other.owner
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.owner, frozenset(self.terms.items())))


class AlgebraSpec:
    """A finite-dimensional algebra over Q, not assumed associative or unital.

    The table maps ``(i, j)`` to a sparse ``{k: coefficient}`` dict.  Identity
    of the spec object is what ties elements together: operations refuse to
    combine elements whose owners are different tables.

    A spec is not modified after construction, so it owns what is derived
    from it, for exactly its own lifetime: ``contexts`` (size n -> enveloping
    context, filled by ``Enveloping.get``) and ``facts`` (the associator
    witness and the unit, kept by :func:`check_associativity` and
    :func:`detect_unit`).
    """

    __slots__ = ("dim", "basis", "table", "name", "contexts", "facts")

    def __init__(
        self,
        dim: int,
        basis: Optional[Sequence[str]] = None,
        table: Optional[Mapping[Tuple[int, int], Mapping[int, ScalarLike]]] = None,
        name: str = "",
    ):
        if not _is_int(dim) or dim < 1:
            raise StructureError("dim must be a positive integer")
        if basis is None:
            basis = tuple("u%d" % (i + 1) for i in range(dim))
        basis = tuple(str(b) for b in basis)
        if len(basis) != dim:
            raise StructureError("expected %d basis labels, got %d" % (dim, len(basis)))
        if len(set(basis)) != dim:
            raise StructureError("basis labels must be distinct")
        clean: dict = {}
        for (i, j), terms in (table or {}).items():
            if not (_is_int(i) and _is_int(j) and 0 <= i < dim and 0 <= j < dim):
                raise StructureError("table index (%r, %r) out of range" % (i, j))
            entry = {}
            for k, c in terms.items():
                if not (_is_int(k) and 0 <= k < dim):
                    raise StructureError("table target index %r out of range" % (k,))
                exact = as_scalar(c)
                if exact:
                    # a Fraction is kept as given, so the table reads back as it was built
                    entry[k] = c if type(c) is Fraction else exact
            if entry:
                clean[(i, j)] = entry
        self.dim = dim
        self.basis = basis
        self.table = clean
        self.name = name or ("algebra(dim=%d)" % dim)
        self.contexts: dict = {}
        self.facts: dict = {}

    def product(self, i: int, j: int) -> Mapping[int, Scalar]:
        """Structure constants of x_i * x_j as a sparse dict."""
        return self.table.get((i, j), {})

    def element(self, coeffs: Mapping[int, ScalarLike]) -> "OmegaElement":
        return OmegaElement(self, coeffs)

    def basis_element(self, i: int) -> "OmegaElement":
        return OmegaElement(self, {i: 1})

    def zero(self) -> "OmegaElement":
        return OmegaElement(self, {})

    def __repr__(self) -> str:
        return "<AlgebraSpec %s>" % self.name


class OmegaElement(SparseVector):
    """A sparse vector in an AlgebraSpec, with the table-induced product."""

    __slots__ = ()
    _mixed = "elements belong to different algebras"

    def _key(self, k: int) -> int:
        if not (0 <= k < self.owner.dim):
            raise StructureError("coefficient index %r out of range" % (k,))
        return k

    def _product(self, other: "OmegaElement") -> "OmegaElement":
        return multiply(self, other)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [
            "%s*%s" % (c, self.owner.basis[k]) for k, c in sorted(self.terms.items())
        ]
        return " + ".join(parts)


def multiply(a: OmegaElement, b: OmegaElement) -> OmegaElement:
    """Bilinear product through the structure table."""
    a._check(b)
    out: dict = {}
    for i, ca in a.terms.items():
        for j, cb in b.terms.items():
            vec_add(out, a.owner.product(i, j), ca * cb)
    return OmegaElement._trusted(a.owner, out)


def check_associativity(spec: AlgebraSpec) -> Optional[Tuple[int, int, int]]:
    """Return None if the table is associative, else the first bad triple.

    Triples (i, j, k) of basis indices are scanned in lexicographic order and
    the first one with (x_i x_j) x_k != x_i (x_j x_k) is returned.  The scan
    runs once per table; its result is kept in ``spec.facts``.
    """
    if "associator" not in spec.facts:
        spec.facts["associator"] = _first_associator(spec)
    return spec.facts["associator"]


def _first_associator(spec: AlgebraSpec) -> Optional[Tuple[int, int, int]]:
    basis = [spec.basis_element(i) for i in range(spec.dim)]
    for i in range(spec.dim):
        for j in range(spec.dim):
            ij = multiply(basis[i], basis[j])
            for k in range(spec.dim):
                left = multiply(ij, basis[k])
                right = multiply(basis[i], multiply(basis[j], basis[k]))
                if left != right:
                    return (i, j, k)
    return None


def detect_unit(spec: AlgebraSpec) -> Optional[OmegaElement]:
    """Solve for a two-sided unit; None when the linear system has no solution.

    A unit e = sum_i e_i x_i must satisfy e * x_j = x_j = x_j * e for every j,
    which is a linear system in the e_i.  The system is solved once per table;
    its result is kept in ``spec.facts``.
    """
    if "unit" not in spec.facts:
        spec.facts["unit"] = _solve_unit(spec)
    return spec.facts["unit"]


def _solve_unit(spec: AlgebraSpec) -> Optional[OmegaElement]:
    from .linalg import SpanSolver

    solver = SpanSolver()
    for i in range(spec.dim):
        col: dict = {}
        for j in range(spec.dim):
            for k, c in spec.product(i, j).items():
                _acc(col, ("L", j, k), c)
            for k, c in spec.product(j, i).items():
                _acc(col, ("R", j, k), c)
        solver.add(col, i)
    rhs: dict = {}
    for j in range(spec.dim):
        rhs[("L", j, j)] = 1
        rhs[("R", j, j)] = 1
    combo = solver.solve(rhs)
    if combo is None:
        return None
    unit = OmegaElement(spec, combo)
    # defensive: confirm the solution really is a two-sided unit
    for j in range(spec.dim):
        bj = spec.basis_element(j)
        if multiply(unit, bj) != bj or multiply(bj, unit) != bj:
            return None
    return unit


# ---------------------------------------------------------------------------
# builtin tables


def direct_sum_C(L: int) -> AlgebraSpec:
    """C^(+L): L orthogonal idempotents u1, ..., uL (ui*ui = ui, ui*uj = 0)."""
    if L < 1:
        raise StructureError("L must be >= 1")
    table = {(i, i): {i: 1} for i in range(L)}
    return AlgebraSpec(L, ["u%d" % (i + 1) for i in range(L)], table, name="C^+%d" % L)


def null_algebra(n: int) -> AlgebraSpec:
    """Zero multiplication on an n-dimensional space."""
    if n < 1:
        raise StructureError("n must be >= 1")
    return AlgebraSpec(n, ["z%d" % (i + 1) for i in range(n)], {}, name="null(%d)" % n)


def matrix_algebra(k: int) -> AlgebraSpec:
    """Full matrix algebra Mat(k) on matrix units e_{ab}, row-major order."""
    if k < 1:
        raise StructureError("k must be >= 1")
    labels = ["e%d%d" % (a + 1, b + 1) for a in range(k) for b in range(k)]
    idx = lambda a, b: a * k + b
    table = {}
    for a in range(k):
        for b in range(k):
            for c in range(k):
                # e_{ab} e_{bc} = e_{ac}
                table[(idx(a, b), idx(b, c))] = {idx(a, c): 1}
    return AlgebraSpec(k * k, labels, table, name="Mat(%d)" % k)


def nonassoc_witness() -> AlgebraSpec:
    """The standard 2-dim non-associative table: x*x = y, x*y = x, rest 0.

    (x x) x = y x = 0 while x (x x) = x y = x, so (0, 0, 0) witnesses the
    failure of associativity.
    """
    table = {(0, 0): {1: 1}, (0, 1): {0: 1}}
    return AlgebraSpec(2, ["x", "y"], table, name="nonassoc-witness")


# ---------------------------------------------------------------------------
# JSON serialization
#
# {"dim": n, "basis": [...], "table": [{"i": i, "j": j,
#   "terms": [{"k": k, "num": p, "den": q}]}]}
# Indices are 0-based; omitted (i, j) entries are zero products.


def to_dict(spec: AlgebraSpec) -> dict:
    rows = []
    for (i, j) in sorted(spec.table):
        terms = [
            {"k": k, "num": c.numerator, "den": c.denominator}
            for k, c in sorted(spec.table[(i, j)].items())
        ]
        rows.append({"i": i, "j": j, "terms": terms})
    return {"dim": spec.dim, "basis": list(spec.basis), "table": rows}


def from_dict(data: Mapping, name: str = "") -> AlgebraSpec:
    if not isinstance(data, Mapping):
        raise StructureError("algebra file must contain a JSON object")
    for field in ("dim", "basis", "table"):
        if field not in data:
            raise StructureError("missing required field %r" % field)
    dim = data["dim"]
    basis = data["basis"]
    if not isinstance(basis, list):
        raise StructureError("'basis' must be a list of labels")
    table: dict = {}
    if not isinstance(data["table"], list):
        raise StructureError("'table' must be a list of {i, j, terms} rows")
    for row in data["table"]:
        if not isinstance(row, Mapping) or not {"i", "j", "terms"} <= set(row):
            raise StructureError("table rows must have fields i, j, terms")
        i, j = row["i"], row["j"]
        if not (_is_int(i) and _is_int(j)):
            raise StructureError("table row indices must be integers, got (%r, %r)" % (i, j))
        if (i, j) in table:
            raise StructureError("duplicate table entry for (%r, %r)" % (i, j))
        if not isinstance(row["terms"], list):
            raise StructureError("'terms' must be a list of {k, num[, den]} objects")
        entry: dict = {}
        for term in row["terms"]:
            if not isinstance(term, Mapping) or "k" not in term or "num" not in term:
                raise StructureError("terms must have fields k, num[, den]")
            k, num, den = term["k"], term["num"], term.get("den", 1)
            if not (_is_int(k) and _is_int(num) and _is_int(den)):
                raise StructureError("term fields k, num and den must be integers, got %r" % (term,))
            if den == 0:
                raise StructureError("zero denominator in table term")
            if k in entry:
                raise StructureError("duplicate term index %r in table entry" % (k,))
            entry[k] = as_scalar(Fraction(num, den))
        table[(i, j)] = entry
    return AlgebraSpec(dim, basis, table, name=name or str(data.get("name", "")))


def load_algebra(path: str) -> AlgebraSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StructureError("cannot read %s: %s" % (path, exc))
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and oversized
        # int literals; RecursionError comes from arrays nested too deep
        raise StructureError("invalid JSON in %s: %s" % (path, exc))
    return from_dict(data, name=path)


def save_algebra(spec: AlgebraSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(spec), fh, indent=1, sort_keys=True)
        fh.write("\n")
