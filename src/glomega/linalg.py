"""Sparse exact linear algebra over Q.

Vectors are dicts mapping hashable, mutually comparable keys to nonzero exact
scalars, ``int`` or ``fractions.Fraction`` mixed freely (see
:mod:`glomega.omega`).  Pivots are inverted through ``Fraction``, never with
``/`` between two ints, so every result stays exact; ``as_scalar`` turns the
inverse of a +-1 pivot back into an ``int``, so integral columns keep
integral rows and combinations, and their elimination is ``int`` arithmetic.
This is all the package needs: incremental row reduction with dependency
tracking over numbered columns (:class:`SpanSolver`, the one elimination
loop), and, read off its reduced rows, ranks, canonical reduced bases
(:func:`rref`) and kernels of sparse constraint systems (:func:`kernel_basis`).
Everything is deterministic: pivots are always the smallest key.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .omega import Scalar, as_scalar, check_int, vec_add

Vec = Dict[Hashable, Scalar]


class SpanSolver:
    """Incremental Gaussian elimination over Q with combination tracking.

    Columns are added one at a time; the solver keeps a row-reduced basis of
    their span.  ``solve(rhs)`` expresses rhs in the added columns when
    possible, and ``add`` reports an exact linear dependency the moment one
    appears.  Columns are numbered 0, 1, ... in the order they are added,
    dependent columns included, and every combination is keyed by these
    numbers.
    """

    def __init__(self):
        # pivot key -> (reduced vector with 1 at pivot, combination over column numbers)
        self.rows: Dict[Hashable, Tuple[Vec, Vec]] = {}
        self._columns = 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: Vec) -> Tuple[Vec, Vec]:
        """Return (residual, combo) with residual = vec - sum combo[c] * col_c.

        Explicit zeros in vec are dropped here, where every public input
        enters, so a zero never counts as a pivot to clear.  ``add`` keeps
        every row fully reduced (1 at its pivot, 0 at every other pivot), so
        clearing one pivot leaves the others' entries as they were: the
        pivots to clear are those present in vec, in any order, once each.
        """
        residual = {k: v for k, v in vec.items() if v}
        combo: Vec = {}
        for k in [k for k in residual if k in self.rows]:
            row, row_combo = self.rows[k]
            c = residual[k]
            vec_add(residual, row, -c)
            vec_add(combo, row_combo, c)
        return residual, combo

    def add(self, vec: Vec) -> Optional[Vec]:
        """Add the next column; return a dependency combo if it is already spanned.

        The column takes the next number whatever the outcome.  The returned
        dict gives coefficients over the numbers of earlier columns such that
        ``vec == sum combo[c] * col_c``; None means the column was independent
        and has been incorporated.
        """
        col = self._columns
        self._columns += 1
        residual, combo = self._reduce(vec)
        if not residual:
            return combo
        pivot = min(residual)
        inv = as_scalar(Fraction(1) / residual[pivot])
        row = {k: v * inv for k, v in residual.items()}
        row_combo: Vec = {c: -v * inv for c, v in combo.items()}
        row_combo[col] = inv
        # keep fully reduced form: eliminate the new pivot from existing rows
        for k, (other, other_combo) in list(self.rows.items()):
            c = other.get(pivot)
            if c:
                vec_add(other, row, -c)
                vec_add(other_combo, row_combo, -c)
        self.rows[pivot] = (row, row_combo)
        return None

    def contains(self, vec: Vec) -> bool:
        residual, _ = self._reduce(vec)
        return not residual

    def solve(self, rhs: Vec) -> Optional[Vec]:
        """Coefficients over column numbers reproducing rhs, or None."""
        residual, combo = self._reduce(rhs)
        if residual:
            return None
        return combo


def _reduced_rows(vectors: Iterable[Vec]) -> Dict[Hashable, Vec]:
    """The fully reduced rows of span(vectors), keyed by pivot, from one ``SpanSolver``."""
    solver = SpanSolver()
    for v in vectors:
        solver.add(v)
    return {k: row for k, (row, _combo) in solver.rows.items()}


def rank(vectors: Iterable[Vec]) -> int:
    return len(_reduced_rows(vectors))


def rref(vectors: Iterable[Vec]) -> List[Vec]:
    """Canonical fully-reduced basis of the span, sorted by pivot key.

    Two spanning sets generate the same subspace iff their rref lists are
    equal.
    """
    rows = _reduced_rows(vectors)
    return [rows[k] for k in sorted(rows)]


def kernel_basis(rows: Iterable[Vec], ncols: int) -> List[Vec]:
    """Kernel of a constraint system; unknowns are column indices 0..ncols-1.

    Each row is a sparse linear functional on the unknowns; the result is a
    list of sparse kernel vectors (free-variable form, deterministic order).
    """
    check_int("ncols", 0, ncols)
    pivots = _reduced_rows(rows)
    return [
        {f: 1, **{p: -row[f] for p, row in pivots.items() if f in row}}
        for f in range(ncols)
        if f not in pivots
    ]


def primitive(vec: Vec) -> Vec:
    """Scale to coprime integers with positive leading coefficient.

    The entries are returned as ``Fraction`` values: the pbw suite prints this
    vector with ``%r`` in its witnesses, and that text is part of a report's
    fingerprint.  Explicit zeros are dropped first, so they never lead.
    """
    vec = {k: v for k, v in vec.items() if v}
    if not vec:
        return {}
    keys = sorted(vec)
    denom = lcm(*(vec[k].denominator for k in keys))
    ints = {k: int(vec[k] * denom) for k in keys}
    # g divides every entry, and its sign makes the leading entry positive;
    # ``/`` on two ints would round through a float
    g = gcd(*ints.values())
    if ints[keys[0]] < 0:
        g = -g
    return {k: Fraction(v // g) for k, v in ints.items()}
