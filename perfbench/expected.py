"""Expected verdicts, written from the suites' budget rules and the mathematics.

Every identity the suites check holds on an associative table, so every
check on a builtin table passes unless a budget rule records it as skipped.
The double-Poisson / associativity equivalence holds on every table, the
non-associative witness included, so every fuzz check passes too.  Only the
fuzz checks' names depend on the seed, through the dimensions of the drawn
tables; ``fuzz_tables`` replays the suite's documented draw to get them.

``expected(workload, seed)`` maps (check name, config) to status.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

Verdicts = Dict[Tuple[str, str], str]

S_VALUES = ("0", "1", "-1", "5/2")
S_PAIRS = (("0", "1"), ("1", "-1"), ("-1", "5/2"), ("0", "5/2"))
DIMS = {"C": 1, "C^2": 2, "null(2)": 2, "mat(2)": 4}
UNITAL = {"C": True, "C^2": True, "null(2)": False, "mat(2)": True}
FUZZ_TABLES = 50
NONASSOC_DIM = 2


def fuzz_tables(seed: int) -> List[Tuple[int, tuple]]:
    """(dim, structure constants) of the 49 random fuzz tables for ``seed``.

    The draw order is the suite's: a dimension in 1..3, then for each (i, j)
    a coin that leaves the entry empty with probability 1/2, else 1 or 2
    terms with a random target and a coefficient from (1, -1, 1/2, 2).
    """
    coeffs = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
    rng = random.Random(seed)
    tables = []
    for _ in range(FUZZ_TABLES - 1):
        dim = rng.randint(1, 3)
        table = {}
        for i in range(dim):
            for j in range(dim):
                if rng.random() < 0.5:
                    continue
                entry = {}
                for _ in range(rng.randint(1, 2)):
                    entry[rng.randrange(dim)] = rng.choice(coeffs)
                table[(i, j)] = entry
        tables.append((dim, tuple(sorted((ij, tuple(sorted(e.items()))) for ij, e in table.items()))))
    return tables


def _projection(out: Verdicts, n_max: int) -> None:
    for tok in ("C", "C^2", "null(2)", "mat(2)"):
        if DIMS[tok] >= 4:
            out[("projection.theorem", "omega=%s len>2" % tok)] = "skipped"
        for n in range(2, n_max + 1):
            for s in S_VALUES:
                out[("projection.theorem", "omega=%s N=%d s=%s" % (tok, n, s))] = "pass"
            for a, b in S_PAIRS:
                out[("projection.reparametrize", "omega=%s N=%d s=%s s2=%s" % (tok, n, a, b))] = "pass"
        if DIMS[tok] == 1:
            for s in S_VALUES:
                out[("projection.anchor", "omega=%s s=%s" % (tok, s))] = "pass"


def _pbw(out: Verdicts, n_max: int) -> None:
    for tok in ("C", "C^2"):
        cap = 3 if DIMS[tok] == 1 else 2
        if cap < 3:
            out[("pbw.rank", "omega=%s len>%d" % (tok, cap))] = "skipped"
        for d in (1, 2):
            out[("pbw.rank", "omega=%s d=%d maxlen=%d maxdeg=2 N=%d" % (tok, d, cap, n_max))] = "pass"
        out[("pbw.planted_dependency", "omega=%s N=%d" % (tok, n_max))] = "pass"


def _splitting(out: Verdicts, n_max: int) -> None:
    sizes = "[%d, %d, %d]" % (max(2, n_max - 1), n_max, n_max + 1)
    for tok in ("C", "C^2"):
        for d in (0, 1):
            out[("splitting.degree1", "omega=%s d=%d N=%s" % (tok, d, sizes))] = "pass"
        if DIMS[tok] == 1:
            out[("splitting.degree2", "omega=%s d=0 N=%s" % (tok, sizes))] = "pass"


def _double(out: Verdicts, seed: int) -> None:
    for tok in ("C", "C^2", "null(2)", "mat(2)"):
        maxlen = 2 if DIMS[tok] >= 4 else 3
        if maxlen < 3:
            out[("double.axioms", "omega=%s len>%d" % (tok, maxlen))] = "skipped"
        for name in ("letters", "skew", "leibniz"):
            out[("double." + name, "omega=%s maxlen=%d" % (tok, maxlen))] = "pass"
        out[("double.assoc", "omega=%s" % tok)] = "pass"
        out[("double.jacobi", "omega=%s maxlen=2" % tok)] = "pass"
        out[("double.pvdw", "omega=%s" % tok)] = "pass"
    dims = [dim for dim, _table in fuzz_tables(seed)] + [NONASSOC_DIM]
    for idx, dim in enumerate(dims):
        out[("double.pvdw_fuzz", "index=%02d dim=%d" % (idx, dim))] = "pass"


def _symbols(out: Verdicts, n_max: int) -> None:
    for tok in ("C", "C^2"):
        for lx, ly in ((1, 1), (1, 2), (2, 1)):
            out[("symbols.smd", "omega=%s lx=%d ly=%d N=%d d=2" % (tok, lx, ly, n_max))] = "pass"
    for tok in ("C", "mat(2)"):
        for lx, ly in ((1, 1), (1, 2), (2, 2)):
            out[("symbols.stc", "omega=%s lx=%d ly=%d" % (tok, lx, ly))] = "pass"


def _degeneration(out: Verdicts) -> None:
    for tok in ("C", "C^2"):
        out[("degeneration.letters", "omega=%s d=2 N=4" % tok)] = "pass"
        for d in (1, 2):
            for lx in (1, 2):
                for ly in (1, 2):
                    out[("degeneration.grid", "omega=%s d=%d lx=%d ly=%d" % (tok, d, lx, ly))] = "pass"


def _current(out: Verdicts) -> None:
    for tok in ("C", "C^2", "null(2)", "mat(2)"):
        dim = DIMS[tok]
        out[("current.odot_assoc", "omega=%s total_len=%d" % (tok, 5 if dim <= 2 else 4))] = "pass"
        out[("current.grade0", "omega=%s" % tok)] = "pass"
        out[("current.unit", "omega=%s" % tok)] = "pass"
        if dim >= 2 and UNITAL[tok]:
            out[("current.noncommutative", "omega=%s" % tok)] = "pass"
        out[("current.antisym", "omega=%s d=2 grade<=%d" % (tok, 2 if dim == 1 else 1))] = "pass"
        out[("current.jacobi_sampled", "omega=%s d=2" % tok)] = "pass"
        out[("current.graded_dim", "omega=%s" % tok)] = "pass"
        if UNITAL[tok]:
            grade = 3 if dim == 1 else (2 if dim <= 3 else 1)
            out[("current.bimodule", "omega=%s maxgrade=%d" % (tok, grade))] = "pass"
        else:
            out[("current.bimodule", "omega=%s" % tok)] = "skipped"
    for L in (1, 2, 3):
        out[("current.path_iso", "L=%d maxgrade=3" % L)] = "pass"
        out[("current.dim_formula", "L=%d d<=3 n<=3" % L)] = "pass"


def expected(workload: str, seed: int) -> Verdicts:
    out: Verdicts = {}
    if workload == "symbols":
        _symbols(out, 4)
    elif workload == "double-fuzz":
        _double(out, seed)
    elif workload == "splitting-tower":
        _splitting(out, 10)
    elif workload == "full-run":
        _projection(out, 4)
        _pbw(out, 4)
        _splitting(out, 4)
        _double(out, seed)
        _symbols(out, 4)
        _degeneration(out)
        _current(out)
    else:
        raise KeyError(workload)
    return out
