"""Named verification suites with budgets and machine-readable reports.

Each suite walks a deterministic grid of checks over one or more coefficient
tables and returns a :class:`Report`.  A check that would exceed the
configured size caps is recorded as ``skipped`` rather than aborting the run.
A certificate checked at several sizes N gets its verdict from
:func:`glomega.enveloping.stable`, which raises :class:`StabilizationError`
when two sizes disagree; the runner records that, and only that, as
``not-stabilized`` (a headroom problem, never merged with ``fail``).
A check that raises any other exception, a violated precondition included,
is recorded as ``error`` with the exception's type and message, and the run
goes on; ``fail`` is kept for counterexamples.  The summary carries an
``error`` count only when it is nonzero, so clean reports keep their keys.

Each ``_suite_*`` is a generator of checks ``(name, config, thunk)``; a
thunk takes no arguments and returns ``(status, witness)``.  :func:`run_suite`
runs every thunk through one timed runner the moment its suite yields it, so
a suite never gets ahead of its checks: a thunk may read the suite's loop
variables late, and checks that share state (the Jacobi witness that
``double.pvdw`` reuses) see it in order.  The seed reaches only the double
suite's fuzz tables.
A grid check scans its cases through one loop, ``_search``, which fails at
the first case its predicate refuses and names that case in the witness.

Reports are plain JSON-compatible dicts.  The fingerprint hashes everything
except wall times and tracebacks, so identical configs and seeds produce
identical fingerprints across runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import time
import traceback
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from . import current as cur
from . import doublepoisson as dp
from . import yangian as yg
from .enveloping import Enveloping, UElement
from .omega import (
    AlgebraSpec,
    StabilizationError,
    StructureError,
    as_scalar,
    check_associativity,
    detect_unit,
    direct_sum_C,
    load_algebra,
    matrix_algebra,
    nonassoc_witness,
    null_algebra,
)
from .words import basis_words, cyclic, words_up_to

VERSION = "0.1.0"

DEFAULT_S = (Fraction(0), Fraction(1), Fraction(-1), Fraction(5, 2))

_FUZZ_TABLES = 50

# the (token, table) pairs one suite runs on
Tables = Sequence[Tuple[str, AlgebraSpec]]

# A check is (name, config, thunk) and its thunk returns (status, witness).
# run_suite runs each thunk before the suite that yielded it resumes, so a
# thunk may read the suite's loop variables late, and needs no default
# arguments to bind them.
Thunk = Callable[[], Tuple[str, str]]
Checks = Iterator[Tuple[str, str, Thunk]]


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    omega: str = ""
    n_min: int = 2
    n_max: int = 4
    d: int = 2
    max_len: int = 3
    max_deg: int = 2
    s_values: Tuple[Fraction, ...] = DEFAULT_S
    seed: int = 20240

    def __post_init__(self):
        if self.suite not in SUITES:
            raise StructureError("unknown suite %r; choose from %s" % (self.suite, ", ".join(SUITES)))
        if self.n_min < 1 or self.n_max < self.n_min:
            raise StructureError("need 1 <= n_min <= n_max")
        if self.d < 1:
            raise StructureError("d must be positive")
        if self.n_max < self.d:
            raise StructureError("need n_max >= d so the centralizer context exists")
        if self.max_len < 1 or self.max_deg < 1:
            raise StructureError("word length and degree caps must be positive")
        if not self.s_values:
            raise StructureError("need at least one s value")
        try:
            # as_scalar refuses floats, which Fraction would take as given
            s_values = tuple(Fraction(as_scalar(s)) for s in self.s_values)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise StructureError("s values must be exact rationals: %s" % exc)
        if len(set(s_values)) != len(s_values):
            # a repeated value would repeat every record that names it
            raise StructureError("s values must be distinct, got %s" % ", ".join(map(str, s_values)))
        object.__setattr__(self, "s_values", s_values)


@dataclass
class CheckRecord:
    name: str
    config: str
    status: str  # pass | fail | skipped | not-stabilized | error
    witness: str = ""
    seconds: float = 0.0
    traceback: str = ""  # error records only; kept out of the fingerprint

    def key(self) -> Tuple[str, str]:
        return (self.name, self.config)


class Report:
    def __init__(self, cfg: SuiteConfig, records: Sequence[CheckRecord]):
        self.cfg = cfg
        self.records = sorted(records, key=CheckRecord.key)
        self.summary = dict.fromkeys(("pass", "fail", "skipped", "not-stabilized", "error"), 0)
        for r in self.records:
            if r.status not in self.summary:
                raise StructureError("unknown record status %r" % r.status)
            self.summary[r.status] += 1
        if not self.summary["error"]:
            del self.summary["error"]

    def exit_code(self) -> int:
        return 1 if any(self.summary.get(k) for k in ("fail", "not-stabilized", "error")) else 0

    def _stable_payload(self) -> dict:
        return {
            "version": VERSION,
            "suite": self.cfg.suite,
            "config": self.config_dict(),
            "records": [
                {"name": r.name, "config": r.config, "status": r.status, "witness": r.witness}
                for r in self.records
            ],
            "summary": self.summary,
        }

    def config_dict(self) -> dict:
        """Every SuiteConfig field but the suite, with s values as strings."""
        out = asdict(self.cfg)
        del out["suite"]
        out["s_values"] = [str(s) for s in self.cfg.s_values]
        return out

    def fingerprint(self) -> str:
        blob = json.dumps(self._stable_payload(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        payload = self._stable_payload()
        payload["fingerprint"] = self.fingerprint()
        for rec, r in zip(payload["records"], self.records):
            rec["seconds"] = round(r.seconds, 6)
            if r.traceback:
                rec["traceback"] = r.traceback
        return payload

    def human_summary(self) -> str:
        lines = []
        for r in self.records:
            if r.status != "pass":
                lines.append("[%s] %s %s  %s" % (r.status, r.name, r.config, r.witness))
        counts = " ".join("%s=%d" % item for item in self.summary.items())
        lines.append("suite=%s checks=%d %s" % (self.cfg.suite, len(self.records), counts))
        lines.append("fingerprint=" + self.fingerprint())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# table resolution


_CPOW = re.compile(r"^[cC]\^?(\d+)$")
_NULL = re.compile(r"^null\((\d+)\)$")
_MAT = re.compile(r"^mat\((\d+)\)$")


def resolve_omega(token: str) -> AlgebraSpec:
    """Builtin table names (C, C^k, null(k), mat(k), nonassoc) or a JSON path."""
    t = token.strip()
    if t in ("C", "c"):
        return direct_sum_C(1)
    m = _CPOW.match(t)
    if m:
        return direct_sum_C(int(m.group(1)))
    m = _NULL.match(t)
    if m:
        return null_algebra(int(m.group(1)))
    m = _MAT.match(t)
    if m:
        return matrix_algebra(int(m.group(1)))
    if t == "nonassoc":
        return nonassoc_witness()
    return load_algebra(t)


def _word_cap(spec: AlgebraSpec, cfg: SuiteConfig) -> int:
    """Budget rule: tables of dimension >= 4 are capped at length-2 words."""
    return min(cfg.max_len, 2) if spec.dim >= 4 else cfg.max_len


def _run(name: str, config: str, thunk: Thunk) -> CheckRecord:
    """Run one check, timed; a raise becomes not-stabilized or error, never fail."""
    start = time.perf_counter()
    trace = ""
    try:
        status, witness = thunk()
    except StabilizationError as exc:
        status, witness = "not-stabilized", str(exc)
    except Exception as exc:
        # one check that raised is not a counterexample and must not end the run
        status, witness = "error", "error: %s: %s" % (type(exc).__name__, exc)
        trace = traceback.format_exc()
    return CheckRecord(name, config, status, witness, time.perf_counter() - start, trace)


def _skipped(why: str) -> Thunk:
    return lambda: ("skipped", why)


def _budget(
    name: str, token: str, spec: AlgebraSpec, cap: int, cfg: SuiteConfig, what: str = "word"
) -> Checks:
    """The skipped check for the words a table's budget cap leaves out, if any."""
    if cap < cfg.max_len:
        why = "budget: dim-%d table capped at %s length %d" % (spec.dim, what, cap)
        yield name, "omega=%s len>%d" % (token, cap), _skipped(why)


def _search(cases: Iterable[tuple], holds: Callable[..., bool], witness: str) -> Tuple[str, str]:
    """Fail with ``witness % case`` at the first case where ``holds(*case)`` is false."""
    for case in cases:
        if not holds(*case):
            return "fail", witness % case
    return "pass", ""


def _ok(flag: bool, witness: str = "") -> Tuple[str, str]:
    return ("pass", "") if flag else ("fail", witness)


def _none_ok(counterexample) -> Tuple[str, str]:
    """Pass when a search found no counterexample; else report it."""
    return _ok(counterexample is None, repr(counterexample))


def _pvdw_status(rep: Dict[str, object]) -> Tuple[str, str]:
    """Pass when associativity and double Jacobi hold or fail together."""
    return _ok(
        bool(rep["equivalent"]),
        "assoc=%r jacobi=%r" % (rep["assoc_witness"], rep["jacobi_witness"]),
    )


# ---------------------------------------------------------------------------
# projection suite


def _s_pairs(s_values: Sequence[Fraction]) -> List[Tuple[Fraction, Fraction]]:
    """Adjacent pairs, then (first, last); the values are distinct, so no pair repeats."""
    pairs = [(s_values[i], s_values[i + 1]) for i in range(len(s_values) - 1)]
    if len(s_values) > 2:
        pairs.append((s_values[0], s_values[-1]))
    return pairs


def _suite_projection(cfg: SuiteConfig, specs: Tables) -> Checks:
    for token, spec in specs:
        cap = _word_cap(spec, cfg)
        yield from _budget("projection.theorem", token, spec, cap, cfg)
        for n in range(max(cfg.n_min, 2), cfg.n_max + 1):
            dd = min(cfg.d, n - 1)
            cells = list(itertools.product(range(1, dd + 1), range(1, dd + 1), words_up_to(spec, cap)))
            for s in cfg.s_values:
                yield "projection.theorem", "omega=%s N=%d s=%s" % (token, n, s), lambda: _search(
                    cells, _projection_commutes(spec, n, s), "i=%d j=%d w=%r"
                )
            for s_a, s_b in _s_pairs(cfg.s_values):
                yield "projection.reparametrize", "omega=%s N=%d s=%s s2=%s" % (token, n, s_a, s_b), lambda: _search(
                    cells, lambda i, j, w: Enveloping.get(spec, n).reparametrize_check(i, j, w, s_a, s_b), "i=%d j=%d w=%r"
                )
        if spec.dim == 1 and cfg.n_max >= 2 and cap >= 2:
            for s in cfg.s_values:
                yield "projection.anchor", "omega=%s s=%s" % (token, s), lambda: _anchor_check(spec, s)


def _projection_commutes(spec: AlgebraSpec, n: int, s: Fraction) -> Callable[..., bool]:
    """The projection theorem at one cell: pi(t_ij(w; n; s)) == t_ij(w; n - 1; s)."""
    ctx, low = Enveloping.get(spec, n), Enveloping.get(spec, n - 1)
    return lambda i, j, w: ctx.project_down(ctx.t_elem(i, j, w, s)) == low.t_elem(i, j, w, s)


def _anchor_check(spec: AlgebraSpec, s: Fraction) -> Tuple[str, str]:
    """Hand-derived normal form of t_11((x,x); 2; s) and its projection.

    On a 1-dim table with x x = c x the normal form is
    E11 E11 + E21 E12 + c(-1 - s) E11 - c E22, and its projection is
    E11 E11 + c(-1 - s) E11.
    """
    c = spec.product(0, 0).get(0, 0)
    ctx = Enveloping.get(spec, 2)
    low = Enveloping.get(spec, 1)
    got = ctx.t_elem(1, 1, (0, 0), s)
    expected = UElement(
        ctx,
        {
            ((1, 1, 0), (1, 1, 0)): 1,
            ((2, 1, 0), (1, 2, 0)): 1,
            ((1, 1, 0),): c * (-1 - s),
            ((2, 2, 0),): -c,
        }
    )
    if got != expected:
        return "fail", "normal form: %s" % got.canonical_str()
    proj = ctx.project_down(got)
    expected_low = UElement(low, {((1, 1, 0), (1, 1, 0)): 1, ((1, 1, 0),): c * (-1 - s)})
    if proj != expected_low:
        return "fail", "projection: %s" % proj.canonical_str()
    return "pass", ""


# ---------------------------------------------------------------------------
# pbw suite


def _suite_pbw(cfg: SuiteConfig, specs: Tables) -> Checks:
    s0 = cfg.s_values[0]
    for token, spec in specs:
        total_cap = cfg.max_len if spec.dim == 1 else min(cfg.max_len, 2)
        yield from _budget("pbw.rank", token, spec, total_cap, cfg, "total")
        for d in range(1, cfg.d + 1):

            def point():
                rep = yg.pbw_suite(spec, d, total_cap, cfg.max_deg, cfg.n_max, s0)
                if rep["full_rank"]:
                    return "pass", "count=%d" % rep["count"]
                # pbw_suite raises when the dependency does not hold at N+1
                return "fail", "count=%d rank=%d dependency=%r" % (rep["count"], rep["rank"], rep["dependency"])

            config = "omega=%s d=%d maxlen=%d maxdeg=%d N=%d" % (token, d, total_cap, cfg.max_deg, cfg.n_max)
            yield "pbw.rank", config, point

        def planted():
            g = yg.t_gen(1, 1, (0,))
            status, vec = yg.independence_check([(g,), (g,)], spec, cfg.n_max, s0)
            expected = {0: Fraction(1), 1: Fraction(-1)}
            if status == "dependent" and vec == expected:
                return "pass", ""
            return "fail", "status=%s vec=%r" % (status, vec)

        yield "pbw.planted_dependency", "omega=%s N=%d" % (token, cfg.n_max), planted


# ---------------------------------------------------------------------------
# splitting suite


def _suite_splitting(cfg: SuiteConfig, specs: Tables) -> Checks:
    sizes = tuple(range(max(cfg.n_min, cfg.n_max - 1), cfg.n_max + 2))
    for token, spec in specs:
        rows = [("splitting.degree1", d, 1) for d in range(0, min(cfg.d, 1) + 1)]
        if spec.dim == 1 and cfg.max_deg >= 2:
            rows.append(("splitting.degree2", 0, 2))
        for name, d, deg in rows:

            def invariants():
                rep = yg.splitting_probe(spec, d, deg, sizes)
                if rep["match"]:
                    return "pass", "dim=%d" % rep["expected"]
                return "fail", "expected=%d dims=%r" % (rep["expected"], rep["dims"])

            yield name, "omega=%s d=%d N=%s" % (token, d, list(sizes)), invariants
        if spec.dim == 1 and cfg.max_deg < 2:
            yield "splitting.degree2", "omega=%s" % token, _skipped("budget: max_deg < 2")


# ---------------------------------------------------------------------------
# double bracket suite


def _random_table(dim: int, rng: random.Random) -> AlgebraSpec:
    coeffs = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.5:
                continue
            entry: Dict[int, Fraction] = {}
            for _ in range(rng.randint(1, 2)):
                entry[rng.randrange(dim)] = rng.choice(coeffs)
            table[(i, j)] = entry
    return AlgebraSpec(dim, table=table, name="fuzz(dim=%d)" % dim)


def _suite_double(cfg: SuiteConfig, specs: Tables) -> Checks:
    for token, spec in specs:
        maxlen = _word_cap(spec, cfg)
        yield from _budget("double.axioms", token, spec, maxlen, cfg)
        base = "omega=%s maxlen=%d" % (token, maxlen)
        # one bracket memo for the table's law checks, dropped with the table
        br = dp._brackets(spec)
        yield "double.letters", base, lambda: _none_ok(dp.check_letter_bracket(spec))
        yield "double.skew", base, lambda: _none_ok(dp.check_skew(spec, maxlen, br))
        yield "double.leibniz", base, lambda: _none_ok(dp.check_leibniz(spec, maxlen, br))
        assoc = check_associativity(spec)
        yield "double.assoc", "omega=%s" % token, lambda: _ok(assoc is None, "associator at %r" % (assoc,))
        jac_len = min(maxlen, 2)
        found: list = []  # the Jacobi witness, shared by double.jacobi and double.pvdw

        def jacobi():
            found.append(dp.check_double_jacobi(spec, jac_len, br))
            return _ok(found[0] is None, "jacobi witness %r" % (found[0],))

        yield "double.jacobi", "omega=%s maxlen=%d" % (token, jac_len), jacobi

        def pvdw():
            # a Jacobi check that raised is run again, so pvdw reports the same error
            witness = found[0] if found else dp.check_double_jacobi(spec, jac_len, br)
            return _pvdw_status(dp.pvdw_verdict(assoc, witness))

        yield "double.pvdw", "omega=%s" % token, pvdw
    if not cfg.omega:
        rng = random.Random(cfg.seed)
        tables = [_random_table(rng.randint(1, 3), rng) for _ in range(_FUZZ_TABLES - 1)]
        tables.append(nonassoc_witness())
        for idx, tbl in enumerate(tables):
            yield "double.pvdw_fuzz", "index=%02d dim=%d" % (idx, tbl.dim), lambda: _pvdw_status(
                dp.pvdw_equivalence(tbl, 2)
            )


# ---------------------------------------------------------------------------
# symbols suite


def _suite_symbols(cfg: SuiteConfig, specs: Tables) -> Checks:
    s0 = cfg.s_values[0]
    indices = list(itertools.product(range(1, cfg.d + 1), repeat=4))
    for token, spec in specs:
        if spec.dim >= 4 or cfg.max_len < 2:
            continue  # matrix tables are covered by the trace grid below; one-letter caps leave no pair
        if cfg.n_max < cfg.d + 1:
            why = "needs N >= d + 1 so the acting block is nontrivial"
            yield "symbols.smd", "omega=%s N=%d d=%d" % (token, cfg.n_max, cfg.d), _skipped(why)
            continue
        for lx in range(1, cfg.max_len):
            for ly in range(1, cfg.max_len - lx + 1):
                config = "omega=%s lx=%d ly=%d N=%d d=%d" % (token, lx, ly, cfg.n_max, cfg.d)
                yield "symbols.smd", config, lambda: _search(
                    itertools.product(basis_words(spec, lx), basis_words(spec, ly), indices),
                    lambda x, y, idx: dp.symbol_match_smd(spec, *idx, x, y, cfg.d, s0, cfg.n_max),
                    "x=%r y=%r idx=%r",
                )
    for token, spec in specs:
        if spec.dim == 2:
            continue  # trace grid runs on the 1-dim and matrix tables
        cap = min(cfg.max_len, 2)
        reps_by_len = {
            ln: sorted({cyclic(w) for w in basis_words(spec, ln)})
            for ln in range(1, cap + 1)
        }
        for lx in range(1, cap + 1):
            for ly in range(lx, cap + 1):
                base_n = max(2, min(cfg.n_max, lx + ly))
                yield "symbols.stc", "omega=%s lx=%d ly=%d" % (token, lx, ly), lambda: _search(
                    ((x, y) for x in reps_by_len[lx] for y in reps_by_len[ly] if lx < ly or x <= y),
                    lambda x, y: dp.symbol_match_stc(spec, x, y, base_n),
                    "x=%r y=%r",
                )


# ---------------------------------------------------------------------------
# degeneration suite


def _degeneration_tuples(d: int) -> List[Tuple[int, int, int, int]]:
    if d == 1:
        return [(1, 1, 1, 1)]
    return [(1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2), (1, 2, 1, 2), (1, 1, 2, 2), (2, 2, 2, 2)]


def _suite_degeneration(cfg: SuiteConfig, specs: Tables) -> Checks:
    s0 = cfg.s_values[0]
    d_letters = min(cfg.d, 2)
    cap = min(cfg.max_len, 2)
    for token, spec in specs:
        yield "degeneration.letters", "omega=%s d=%d N=%d" % (token, d_letters, d_letters + 2), lambda: _none_ok(
            cur.generator_bracket_display_check(spec, d_letters, s0, d_letters + 2)
        )
        for d, lx, ly in itertools.product(range(1, cfg.d + 1), range(1, cap + 1), range(1, cap + 1)):
            yield "degeneration.grid", "omega=%s d=%d lx=%d ly=%d" % (token, d, lx, ly), lambda: _search(
                itertools.product(basis_words(spec, lx), basis_words(spec, ly), _degeneration_tuples(d)),
                lambda x, y, tup: cur.degeneration_check(spec, *tup, x, y, d, s0),
                "x=%r y=%r idx=%r",
            )


# ---------------------------------------------------------------------------
# current-algebra suite


def _suite_current(cfg: SuiteConfig, specs: Tables) -> Checks:
    d2 = min(cfg.d, 2)
    for token, spec in specs:
        total_len = 5 if spec.dim <= 2 else 4
        unital = detect_unit(spec) is not None
        yield "current.odot_assoc", "omega=%s total_len=%d" % (token, total_len), lambda: _none_ok(
            cur.check_odot_assoc(spec, total_len)
        )
        yield "current.grade0", "omega=%s" % token, lambda: _search(
            itertools.product(range(spec.dim), repeat=2),
            lambda a, b: cur.odot_words(spec, (a,), (b,)) == {(k,): c for k, c in spec.product(a, b).items()},
            "letters (%d, %d)",
        )

        def unit():
            rep = cur.current_unit_check(spec)
            return _ok(bool(rep["passed"]), repr(rep))

        yield "current.unit", "omega=%s" % token, unit
        if spec.dim >= 2 and unital:
            # any unital table of dim >= 2 has a junction-order witness:
            # (a) (.) (1,1) = (a,1) differs from (1,1) (.) (a) = (1,a)
            yield "current.noncommutative", "omega=%s" % token, lambda: _ok(
                cur.find_noncommutative_pair(spec, 3) is not None, "no witness found"
            )
        grade_cap = 1 if spec.dim > 1 else 2
        yield "current.antisym", "omega=%s d=%d grade<=%d" % (token, d2, grade_cap), lambda: _none_ok(
            cur.check_current_antisym(spec, d2, grade_cap)
        )
        # grade 0 from dim 4 on: mat(2) at grade <= 1 has 82,160 triples, about 1 s
        jacobi_cap = grade_cap if spec.dim < 4 else 0
        yield "current.jacobi_sampled", "omega=%s d=%d" % (token, d2), lambda: _none_ok(
            cur.check_current_jacobi(spec, d2, jacobi_cap)
        )
        yield "current.graded_dim", "omega=%s" % token, lambda: _search(
            itertools.product(range(1, min(cfg.d, 3) + 1), range(0, 3)),
            lambda d, n: cur.graded_dim(spec, d, n) == len(cur.graded_basis(spec, d, n)),
            "d=%d n=%d",
        )
        if not unital:
            yield "current.bimodule", "omega=%s" % token, _skipped("non-unital table")
        else:
            bi_grade = 3 if spec.dim == 1 else (2 if spec.dim <= 3 else 1)
            yield "current.bimodule", "omega=%s maxgrade=%d" % (token, bi_grade), lambda: _ok(
                cur.bimodule_iso_check(spec, bi_grade)
            )
    if not cfg.omega:
        for L in range(1, 4):
            yield "current.path_iso", "L=%d maxgrade=3" % L, lambda: _ok(cur.path_algebra_iso_check(L, 3))

            def dims_formula():
                # at each (d, n), the closed formula first, then the enumeration
                spec = direct_sum_C(L)
                return _search(
                    ((kind, L, d, n) for d in range(1, 4) for n in range(0, 4) for kind in ("", "enumeration ")),
                    lambda kind, L, d, n: cur.graded_dim(spec, d, n)
                    == (len(cur.graded_basis(spec, d, n)) if kind else d * d * L ** (n + 1)),
                    "%sL=%d d=%d n=%d",
                )

            yield "current.dim_formula", "L=%d d<=3 n<=3" % L, dims_formula


# ---------------------------------------------------------------------------
# dispatch


# suite -> (check generator, default table roster), in the order `all` runs
# them; big tables are capped at shorter words by _word_cap
_SUITES: Dict[str, Tuple[Callable[[SuiteConfig, Tables], Checks], Tuple[str, ...]]] = {
    "projection": (_suite_projection, ("C", "C^2", "null(2)", "mat(2)")),
    "pbw": (_suite_pbw, ("C", "C^2")),
    "splitting": (_suite_splitting, ("C", "C^2")),
    "double": (_suite_double, ("C", "C^2", "null(2)", "mat(2)")),
    "symbols": (_suite_symbols, ("C", "C^2", "mat(2)")),
    "degeneration": (_suite_degeneration, ("C", "C^2")),
    "current": (_suite_current, ("C", "C^2", "null(2)", "mat(2)")),
}

SUITES = (*_SUITES, "all")


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute one named suite (or all of them) and assemble the report.

    Each table token is resolved once per run, so every suite shares its
    table object, and with it the table's contexts and facts.  A
    configuration that yields no check, or only skipped ones, raises
    :class:`StructureError`: a run that checked nothing must not pass.
    """
    names = tuple(_SUITES) if cfg.suite == "all" else (cfg.suite,)
    rosters = {name: (cfg.omega,) if cfg.omega else _SUITES[name][1] for name in names}
    tables = {tok: resolve_omega(tok) for tok in dict.fromkeys(t for r in rosters.values() for t in r)}
    if cfg.omega and cfg.suite != "double":
        witness = check_associativity(tables[cfg.omega])
        if witness is not None:
            raise StructureError(
                "table %s is not associative (witness %r); only the double suite accepts it"
                % (cfg.omega, witness)
            )
    suites = (_SUITES[name][0](cfg, [(tok, tables[tok]) for tok in rosters[name]]) for name in names)
    records = [_run(*check) for checks in suites for check in checks]
    if all(r.status == "skipped" for r in records):
        raise StructureError("suite %s has no checks for this configuration" % cfg.suite)
    return Report(cfg, records)
