"""Finite-dimensional algebras presented by exact rational multiplication tables.

An :class:`AlgebraSpec` fixes a basis ``x_0, ..., x_{dim-1}`` and structure
constants ``c[i][j][k]`` so that ``x_i * x_j = sum_k c[i][j][k] x_k``.  Tables
are stored sparsely: a pair ``(i, j)`` absent from the table multiplies to
zero.  Nothing here assumes associativity or a unit; both are decidable
properties of a finite table, computed on each call (:func:`check_associativity`,
:func:`detect_unit`).  A letter is an ``int`` basis index ``0..dim-1``, and
:func:`check_letters` is the one place that checks it, as :func:`check_int` is
the one place that decides an integer argument (a size, cap, grade or index),
``words.nonempty`` the one that refuses an empty word and ``words.check_label``
the one that checks a label ``(i, j, word)``.  :func:`pair_memo`
is the one builder of the per-table bracket memos of the double and the
current suites, and the one place that refuses a memo of another table.

Scalars are exact rationals in one of two types: an integral value is a
Python ``int`` and any other value is a ``fractions.Fraction``.
:func:`as_scalar` is the one place that normalises a value to that form, and
the one rule for scalars from outside: anything that is not an exact rational
raises :class:`StructureError` there.  Both constructors of the element class
call it.  An ``int`` and the equal ``Fraction`` compare and hash alike, so
results do not depend on which type an intermediate sum happens to have.  A
table keeps a ``Fraction`` structure constant as it was given, so it reads
back unchanged; the builtin tables and tables loaded from JSON hold ``int``
constants wherever they are integral.
Nothing divides two ints with ``/``, which would give a float: exact division
goes through ``Fraction``, or ``//`` when the quotient is known to be integral.

The package has one element class, ``enveloping.UElement``: an element of
U(gl(N, Omega)) that belongs to its enveloping context (its ``owner``).
Values that live inside one computation are plain ``{key: scalar}`` dicts
with no zero coefficient: a table element is ``{k: c}`` over basis indices,
multiplied by :func:`multiply` under the letter and the scalar rule, and words,
double brackets, coagulations, current-algebra elements, gl(d) currents,
symbol and necklace polynomials are dicts too.  The coagulations of basis words
(``words.coagulate_word``) are kept in ``spec.coagulations`` and shared by
every caller, so they must not be mutated.  Two tables with equal content
are still two tables, each holding its own enveloping contexts and
coagulations (see :class:`AlgebraSpec`).
All accumulation goes through :func:`vec_add` (a whole dict) and
:func:`_acc` (one key), which drop a key as soon as its sum is zero.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

ScalarLike = Union[int, Fraction, str]

# a scalar prints in at most 4300 digits, CPython's int-string limit
_SCALAR_LIMIT = 10**4300


def as_scalar(value: ScalarLike) -> Scalar:
    """Coerce ints, strings like '-7/2', or Fractions to an exact Scalar.

    Integral values come back as ``int`` (``bool`` as plain ``0``/``1``), all
    others as ``Fraction``.  Anything else, a float, ``None``, a string that
    is no rational or one with a zero denominator, raises ``StructureError``.
    So does a string with an exponent beyond +-4300, read before anything is
    built, or a parsed value of more than 4300 digits, CPython's int-string limit.
    The exact-type tests come first: this runs once per stored coefficient,
    and ``isinstance`` against ``Fraction`` goes through the ABC machinery.
    """
    kind = type(value)
    if kind is int:
        return value
    if kind is not Fraction:
        if not isinstance(value, (int, str, Fraction)):
            raise StructureError("exact scalar expected, got %r (floats are not allowed)" % (value,))
        if isinstance(value, str):
            exponent = value.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
            if exponent.isdecimal() and int(exponent[:5]) > 4300:  # five digits exceed 4300
                raise StructureError("exact scalar expected, got %r (exponent beyond 4300)" % (value,))
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise StructureError("exact scalar expected, got %r (not a rational number)" % (value,)) from None
        if max(abs(value.numerator), value.denominator) >= _SCALAR_LIMIT:
            raise StructureError("exact scalar expected, got a value of more than 4300 digits")
    return value.numerator if value.denominator == 1 else value


class StructureError(ValueError):
    """A malformed table, or elements of distinct algebras being mixed."""


class StabilizationError(StructureError):
    """A two-size certificate disagreed between N and N+1.

    Kept apart from plain failures: a headroom shortfall is not a
    counterexample, and reports track it under its own status.
    """


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


class AlgebraSpec:
    """A finite-dimensional algebra over Q, not assumed associative or unital.

    The table maps ``(i, j)`` to a sparse ``{k: coefficient}`` dict.  Specs
    compare by identity: equal tables are still two tables.

    A spec is not modified after construction, so it owns what is derived
    from it, for exactly its own lifetime: ``contexts`` (size n -> enveloping
    context, filled by ``Enveloping.get``) and ``coagulations`` (the memo of
    ``words.coagulate_word``, whose shared dicts must not be mutated).  The
    contexts live as long as the spec, but their caches may be emptied
    sooner: a run of several suites empties them between suites.
    """

    __slots__ = ("dim", "basis", "table", "name", "contexts", "coagulations")

    def __init__(
        self,
        dim: int,
        basis: Optional[Sequence[str]] = None,
        table: Optional[Mapping[Tuple[int, int], Mapping[int, ScalarLike]]] = None,
        name: str = "",
    ):
        check_int("dim", 1, dim)
        if basis is None:
            basis = tuple("u%d" % (i + 1) for i in range(dim))
        basis = tuple(str(b) for b in basis)
        if len(basis) != dim:
            raise StructureError("expected %d basis labels, got %d" % (dim, len(basis)))
        if len(set(basis)) != dim:
            raise StructureError("basis labels must be distinct")
        clean: dict = {}
        for (i, j), terms in (table or {}).items():
            check_int("table index", 0, i, j, most=dim - 1)
            if not isinstance(terms, Mapping):
                raise StructureError("table entry (%r, %r) must map target indices to scalars" % (i, j))
            entry = {}
            for k, c in terms.items():
                check_int("table target index", 0, k, most=dim - 1)
                try:
                    exact = as_scalar(c)
                except StructureError as exc:
                    raise StructureError("structure constant %r of (%r, %r): %s" % (c, i, j, exc)) from None
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
        self.coagulations: dict = {}

    def product(self, i: int, j: int) -> Mapping[int, Scalar]:
        """Structure constants of x_i * x_j as a sparse dict."""
        return self.table.get((i, j), {})

    def __repr__(self) -> str:
        return "<AlgebraSpec %s>" % self.name


def check_letters(spec: AlgebraSpec, letters: Sequence[int]) -> None:
    """Raise ``StructureError`` unless every letter is an ``int`` (not a ``bool``) in ``0..dim-1``."""
    dim = spec.dim
    for letter in letters:
        if type(letter) is not int or not 0 <= letter < dim:
            raise StructureError("letters must lie in 0..%d" % (dim - 1))


def check_int(what: str, least: Optional[int], *values, most: Optional[int] = None) -> None:
    """Raise ``StructureError`` unless each value is an ``int`` (a bool is none) in ``least..most`` (``None``: no end)."""
    for v in values:
        if type(v) is not int or least is not None and v < least or most is not None and v > most:
            bound = "" if least is None else " >= %d" % least if most is None else " in %d..%d" % (least, most)
            raise StructureError("%s must be an integer%s, got %r" % (what, bound, v))


def pair_memo(spec: AlgebraSpec, compute: Callable, given: Optional[Callable] = None) -> Callable:
    """``bracket(x, y)``: ``compute(share, x, y)`` of the table ``spec``, memoized per ordered pair.

    ``share``, the ``setdefault`` of one dict per memo, interns the keys of a
    miss and whatever ``compute`` passes through it.  A stored result must not
    be mutated.  The closure carries ``bracket.spec``; a ``given`` memo of
    ``spec`` is returned as it is, and one of another table raises.
    """
    if given is not None:
        if getattr(given, "spec", None) is not spec:
            raise StructureError("a bracket memo serves only the table it was built for")
        return given
    memo: dict = {}
    share = {}.setdefault

    def bracket(x, y):
        hit = memo.get((x, y))
        if hit is None:
            hit = memo[share(x, x), share(y, y)] = compute(share, x, y)
        return hit

    bracket.spec = spec  # type: ignore[attr-defined]
    return bracket


def multiply(spec: AlgebraSpec, a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    """Bilinear product of two table elements ``{k: c}`` through the structure table; bad letters or scalars raise."""
    check_letters(spec, (*a, *b))
    a, b = {k: as_scalar(c) for k, c in a.items()}, {k: as_scalar(c) for k, c in b.items()}
    out: Dict[int, Scalar] = {}
    for i, ca in a.items():
        for j, cb in b.items():
            vec_add(out, spec.product(i, j), ca * cb)
    return out


def check_associativity(spec: AlgebraSpec) -> Optional[Tuple[int, int, int]]:
    """Return None if the table is associative, else the first bad triple.

    Triples (i, j, k) of basis indices are scanned in lexicographic order and
    the first one with (x_i x_j) x_k != x_i (x_j x_k) is returned.
    """
    for i in range(spec.dim):
        for j in range(spec.dim):
            ij = spec.product(i, j)
            for k in range(spec.dim):
                if multiply(spec, ij, {k: 1}) != multiply(spec, {i: 1}, spec.product(j, k)):
                    return (i, j, k)
    return None


def detect_unit(spec: AlgebraSpec) -> Optional[Dict[int, Scalar]]:
    """Solve for a two-sided unit ``{k: c}``; None when the linear system has no solution.

    A unit e = sum_i e_i x_i must satisfy e * x_j = x_j = x_j * e for every j,
    which is a linear system in the e_i.
    """
    from .linalg import SpanSolver

    solver = SpanSolver()
    for i in range(spec.dim):
        col: dict = {}
        for j in range(spec.dim):
            for k, c in spec.product(i, j).items():
                _acc(col, ("L", j, k), c)
            for k, c in spec.product(j, i).items():
                _acc(col, ("R", j, k), c)
        solver.add(col)
    rhs: dict = {}
    for j in range(spec.dim):
        rhs[("L", j, j)] = 1
        rhs[("R", j, j)] = 1
    combo = solver.solve(rhs)
    if combo is None:
        return None
    unit = {k: as_scalar(c) for k, c in combo.items()}
    # defensive: confirm the solution really is a two-sided unit
    for j in range(spec.dim):
        bj = {j: 1}
        if multiply(spec, unit, bj) != bj or multiply(spec, bj, unit) != bj:
            return None
    return unit


# ---------------------------------------------------------------------------
# builtin tables


def direct_sum_C(L: int) -> AlgebraSpec:
    """C^(+L): L orthogonal idempotents u1, ..., uL (ui*ui = ui, ui*uj = 0)."""
    check_int("L", 1, L)
    table = {(i, i): {i: 1} for i in range(L)}
    return AlgebraSpec(L, ["u%d" % (i + 1) for i in range(L)], table, name="C^+%d" % L)


def null_algebra(n: int) -> AlgebraSpec:
    """Zero multiplication on an n-dimensional space."""
    check_int("n", 1, n)
    return AlgebraSpec(n, ["z%d" % (i + 1) for i in range(n)], {}, name="null(%d)" % n)


def matrix_algebra(k: int) -> AlgebraSpec:
    """Full matrix algebra Mat(k) on matrix units e_{ab}, row-major order."""
    check_int("k", 1, k)
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
    if not (isinstance(basis, list) and all(isinstance(b, str) for b in basis)):
        raise StructureError("'basis' must be a list of string labels")
    table: dict = {}
    if not isinstance(data["table"], list):
        raise StructureError("'table' must be a list of {i, j, terms} rows")
    for row in data["table"]:
        if not isinstance(row, Mapping) or not {"i", "j", "terms"} <= set(row):
            raise StructureError("table rows must have fields i, j, terms")
        i, j = row["i"], row["j"]
        check_int("table row index", None, i, j)
        if (i, j) in table:
            raise StructureError("duplicate table entry for (%r, %r)" % (i, j))
        if not isinstance(row["terms"], list):
            raise StructureError("'terms' must be a list of {k, num[, den]} objects")
        entry: dict = {}
        for term in row["terms"]:
            if not isinstance(term, Mapping) or "k" not in term or "num" not in term:
                raise StructureError("terms must have fields k, num[, den]")
            k, num, den = term["k"], term["num"], term.get("den", 1)
            check_int("term field k, num or den", None, k, num, den)
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
