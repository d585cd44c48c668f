"""Suite plumbing: configs, reports, determinism, budgets, exit codes."""

import json
from fractions import Fraction

import pytest

from glomega import AlgebraSpec, StructureError, save_algebra, direct_sum_C
from glomega.suites import (
    SUITES,
    CheckRecord,
    Report,
    SuiteConfig,
    resolve_omega,
    run_suite,
)


def test_resolve_omega_builtins():
    assert resolve_omega("C").dim == 1
    assert resolve_omega("c").dim == 1
    assert resolve_omega("C^3").dim == 3
    assert resolve_omega("C2").dim == 2
    assert resolve_omega("null(2)").dim == 2
    assert resolve_omega("mat(2)").dim == 4
    assert resolve_omega("nonassoc").dim == 2


def test_resolve_omega_file(tmp_path):
    path = str(tmp_path / "table.json")
    save_algebra(direct_sum_C(2), path)
    assert resolve_omega(path).dim == 2
    with pytest.raises(StructureError):
        resolve_omega(str(tmp_path / "missing.json"))


def test_config_validation():
    with pytest.raises(StructureError):
        SuiteConfig(suite="bogus")
    with pytest.raises(StructureError):
        SuiteConfig(suite="pbw", n_min=3, n_max=2)
    with pytest.raises(StructureError):
        SuiteConfig(suite="pbw", d=5, n_max=4)
    with pytest.raises(StructureError):
        SuiteConfig(suite="pbw", s_values=())
    cfg = SuiteConfig(suite="pbw", s_values=(0, 1))
    assert all(hasattr(s, "denominator") for s in cfg.s_values)


def test_config_refuses_float_s_values():
    # a float is never a scalar: Fraction(0.1) would keep its binary expansion
    for bad in ((0.1,), (0, 1.0), ("x",), ("1/0",)):
        with pytest.raises(StructureError):
            SuiteConfig(suite="pbw", s_values=bad)
    cfg = SuiteConfig(suite="pbw", s_values=(2, Fraction(-3, 2), "1/3"))
    assert cfg.s_values == (Fraction(2), Fraction(-3, 2), Fraction(1, 3))
    assert all(type(s) is Fraction for s in cfg.s_values)


def test_config_refuses_repeated_s_values():
    # equal after normalisation: each would give the same records twice
    for bad in ((1, 1), (1, Fraction(1)), ("1", "2/2"), (0, "1/2", Fraction(1, 2))):
        with pytest.raises(StructureError):
            SuiteConfig(suite="projection", s_values=bad)
    assert SuiteConfig(suite="projection", s_values=(1, -1)).s_values == (Fraction(1), Fraction(-1))


def test_report_summary_and_exit_codes():
    cfg = SuiteConfig(suite="pbw")
    ok = Report(cfg, [CheckRecord("a", "x", "pass"), CheckRecord("b", "y", "skipped")])
    assert ok.summary == {"pass": 1, "fail": 0, "skipped": 1, "not-stabilized": 0}
    assert ok.exit_code() == 0
    bad = Report(cfg, [CheckRecord("a", "x", "fail", "w")])
    assert bad.exit_code() == 1
    unstable = Report(cfg, [CheckRecord("a", "x", "not-stabilized")])
    assert unstable.exit_code() == 1
    with pytest.raises(StructureError):
        Report(cfg, [CheckRecord("a", "x", "wat")])


def test_report_records_sorted_and_serializable():
    cfg = SuiteConfig(suite="pbw")
    rep = Report(cfg, [CheckRecord("b", "y", "pass", seconds=0.5), CheckRecord("a", "z", "pass")])
    assert [r.name for r in rep.records] == ["a", "b"]
    data = rep.to_dict()
    json.dumps(data)  # JSON-compatible
    assert data["version"]
    assert data["suite"] == "pbw"
    assert len(data["fingerprint"]) == 64
    assert all("seconds" in r for r in data["records"])


def test_fingerprint_ignores_wall_times():
    cfg = SuiteConfig(suite="pbw")
    r1 = Report(cfg, [CheckRecord("a", "x", "pass", seconds=0.1)])
    r2 = Report(cfg, [CheckRecord("a", "x", "pass", seconds=9.9)])
    assert r1.fingerprint() == r2.fingerprint()
    r3 = Report(cfg, [CheckRecord("a", "x", "fail", "w")])
    assert r3.fingerprint() != r1.fingerprint()


def test_run_suite_deterministic():
    cfg = SuiteConfig(suite="current", n_max=3, max_len=2)
    rep1 = run_suite(cfg)
    rep2 = run_suite(cfg)
    assert rep1.fingerprint() == rep2.fingerprint()
    assert rep1.exit_code() == 0


def test_run_suite_rejects_nonassociative_table_outside_double():
    with pytest.raises(StructureError):
        run_suite(SuiteConfig(suite="projection", omega="nonassoc", n_max=3))


def test_double_suite_accepts_nonassociative_witness():
    rep = run_suite(SuiteConfig(suite="double", omega="nonassoc", n_max=3, max_len=2))
    by_name = {}
    for r in rep.records:
        by_name.setdefault(r.name, []).append(r.status)
    assert "fail" in by_name["double.assoc"]
    assert "fail" in by_name["double.jacobi"]
    assert by_name["double.pvdw"] == ["pass"]
    # skew and both Leibniz rules hold for any bilinear table
    assert by_name["double.skew"] == ["pass"]
    assert by_name["double.leibniz"] == ["pass"]
    assert rep.exit_code() == 1


def test_budget_exhaustion_recorded_as_skip():
    rep = run_suite(SuiteConfig(suite="projection", omega="mat(2)", n_max=3))
    skips = [r for r in rep.records if r.status == "skipped"]
    assert skips and all("budget" in r.witness for r in skips)
    assert rep.summary["fail"] == 0


@pytest.mark.parametrize("table", ["C", "null(1)", "xx=2x"])
def test_projection_anchor_runs_for_dim_one(table, tmp_path):
    # the anchor reads c from x x = c x: 1 for C, 0 for null(1), 2 for the file table
    if table == "xx=2x":
        table = str(tmp_path / "two.json")
        save_algebra(AlgebraSpec(1, ["x"], {(0, 0): {0: 2}}), table)
    rep = run_suite(SuiteConfig(suite="projection", omega=table, n_max=2, d=1))
    assert [r.status for r in rep.records if r.name == "projection.anchor"] == ["pass"] * len(rep.cfg.s_values)
    assert rep.summary["fail"] == 0 and rep.summary["not-stabilized"] == 0


def test_all_is_last_suite_token():
    assert SUITES[-1] == "all"
    assert set(SUITES) > {"projection", "pbw", "double", "current"}


def test_human_summary_mentions_counts():
    rep = run_suite(SuiteConfig(suite="pbw", omega="C", n_max=3, max_len=2))
    text = rep.human_summary()
    assert "suite=pbw" in text
    assert "fingerprint=" in text


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def _records(rep, name):
    return sum(1 for r in rep.records if r.name == name)


def test_double_suite_runs_each_check_once(monkeypatch):
    from glomega import doublepoisson as dp

    counts = _count_calls(
        monkeypatch,
        dp,
        ("check_letter_bracket", "check_skew", "check_leibniz", "check_double_jacobi"),
    )
    rep = run_suite(SuiteConfig(suite="double"))
    assert counts["check_letter_bracket"] == _records(rep, "double.letters") == 4
    assert counts["check_skew"] == _records(rep, "double.skew") == 4
    assert counts["check_leibniz"] == _records(rep, "double.leibniz") == 4
    # double.pvdw reuses the double.jacobi witness; each fuzz table runs Jacobi once
    jacobi_records = _records(rep, "double.jacobi") + _records(rep, "double.pvdw_fuzz")
    assert counts["check_double_jacobi"] == jacobi_records == 54
    assert rep.exit_code() == 0


def test_current_suite_runs_each_check_once(monkeypatch):
    from glomega import current as cur
    from glomega import suites

    counts = _count_calls(monkeypatch, cur, ("check_odot_assoc", "current_unit_check"))
    units = _count_calls(monkeypatch, suites, ("detect_unit",))
    rep = run_suite(SuiteConfig(suite="current"))
    assert counts["check_odot_assoc"] == _records(rep, "current.odot_assoc") == 4
    assert counts["current_unit_check"] == _records(rep, "current.unit") == 4
    assert units["detect_unit"] == 4  # once per table
    assert rep.exit_code() == 0


def test_nonassoc_double_report_is_pinned():
    # the witnesses and the fingerprint of `omega run double --omega nonassoc`
    rep = run_suite(SuiteConfig(suite="double", omega="nonassoc"))
    got = {r.name: (r.status, r.witness) for r in rep.records}
    assert got["double.jacobi"] == ("fail", "jacobi witness ((0,), (0,), (0,))")
    assert got["double.pvdw"] == ("pass", "")
    assert got["double.assoc"] == ("fail", "associator at (0, 0, 0)")
    assert rep.fingerprint() == "7cc8f7a032992de1579a99882e6d8db1b103fa07d2c63b2dd5cdacc33cc45c92"


def test_pbw_dependency_witness_is_pinned():
    # at N=2 the ordered monomials collide, and the collision disappears at
    # N=3, so the check did not stabilize; the witness prints the primitive
    # dependency vector, and its text is part of the fingerprint
    rep = run_suite(SuiteConfig(suite="pbw", omega="C", n_max=2))
    got = {r.config: (r.status, r.witness) for r in rep.records if r.name == "pbw.rank"}
    assert got["omega=C d=2 maxlen=3 maxdeg=2 N=2"] == (
        "not-stabilized",
        "count=39 rank=28 dependency={1: Fraction(2, 1), 2: Fraction(-1, 1), 10: Fraction(1, 1), 18: Fraction(-1, 1)}",
    )
    assert rep.exit_code() == 1


def test_symbol_match_smd_not_stabilized_record(monkeypatch):
    # the symbol side is zero at N+1 only, so the top parts match at N alone
    from glomega import doublepoisson as dp

    image = dp.spoly_symbol_image
    monkeypatch.setattr(dp, "spoly_symbol_image", lambda p, ctx: ctx.zero() if ctx.n == 4 else image(p, ctx))
    rep = run_suite(SuiteConfig(suite="symbols", omega="C", n_max=3, max_len=2))
    got = {r.key(): (r.status, r.witness) for r in rep.records}
    assert got[("symbols.smd", "omega=C lx=1 ly=1 N=3 d=2")] == (
        "not-stabilized",
        "smd match differs across {3: True, 4: False}",
    )
    assert rep.exit_code() == 1


def test_symbol_match_smd_needs_room_for_the_acting_block():
    # N >= d + 1 fails at n_max = 2, d = 2: one skipped record per table, not six errors
    rep = run_suite(SuiteConfig(suite="symbols", n_max=2))
    assert rep.exit_code() == 0
    assert "error" not in rep.summary
    got = {r.key(): (r.status, r.witness) for r in rep.records if r.name == "symbols.smd"}
    why = "needs N >= d + 1 so the acting block is nontrivial"
    assert got == {
        ("symbols.smd", "omega=C N=2 d=2"): ("skipped", why),
        ("symbols.smd", "omega=C^2 N=2 d=2"): ("skipped", why),
    }


def test_current_antisym_names_the_failing_pair(monkeypatch):
    from glomega import current as cur

    ka, kb = cur.current_basis_keys(direct_sum_C(1), 2, 2)[:2]
    bracket = cur.gl_current_bracket

    def planted(spec, a, b):
        # no true bracket has index 9, so [ka, kb] and -[kb, ka] differ
        out = bracket(spec, a, b)
        return {**out, (9, 9, (0,)): 1} if (a, b) == ({ka: 1}, {kb: 1}) else out

    monkeypatch.setattr(cur, "gl_current_bracket", planted)
    rep = run_suite(SuiteConfig(suite="current", omega="C"))
    got = {r.key(): (r.status, r.witness) for r in rep.records if r.name == "current.antisym"}
    assert got == {("current.antisym", "omega=C d=2 grade<=2"): ("fail", repr((ka, kb)))}


def test_symbol_match_stc_not_stabilized_record(monkeypatch):
    # the trace of the letter (1,) is zero at N+1 only
    from glomega import doublepoisson as dp

    trace = dp.trace_elem
    monkeypatch.setattr(
        dp, "trace_elem", lambda ctx, w: ctx.zero() if ctx.n == 3 and w == (1,) else trace(ctx, w)
    )
    rep = run_suite(SuiteConfig(suite="symbols", omega="mat(2)", n_max=3, max_len=1))
    got = {r.key(): (r.status, r.witness) for r in rep.records}
    assert got == {("symbols.stc", "omega=mat(2) lx=1 ly=1"): (
        "not-stabilized",
        "stc match differs across {2: True, 3: False}",
    )}
    assert rep.exit_code() == 1


def test_degeneration_not_stabilized_record(monkeypatch):
    # the remainder has no t-expansion at N+1 only
    from glomega import current as cur

    expand = cur.t_expansion
    monkeypatch.setattr(cur, "t_expansion", lambda ctx, r, d, s: None if ctx.n == 4 else expand(ctx, r, d, s))
    rep = run_suite(SuiteConfig(suite="degeneration", omega="C", d=1, max_len=1))
    got = {r.key(): (r.status, r.witness) for r in rep.records}
    assert got[("degeneration.grid", "omega=C d=1 lx=1 ly=1")] == (
        "not-stabilized",
        "degeneration verdicts differ at N=3 and N=4",
    )
    assert rep.summary == {"pass": 1, "fail": 0, "skipped": 0, "not-stabilized": 1}


def test_splitting_not_stabilized_record(monkeypatch):
    # the invariant dimension grows with N, so no two sizes agree
    from glomega import Enveloping

    monkeypatch.setattr(Enveloping, "invariant_dim", lambda ctx, d, deg: ctx.n)
    rep = run_suite(SuiteConfig(suite="splitting", omega="C", n_max=3, max_deg=1))
    got = {r.key(): (r.status, r.witness) for r in rep.records if r.name == "splitting.degree1"}
    assert got == {
        ("splitting.degree1", "omega=C d=0 N=[2, 3, 4]"): ("not-stabilized", "expected=2 dims={2: 2, 3: 3, 4: 4}"),
        ("splitting.degree1", "omega=C d=1 N=[2, 3, 4]"): ("not-stabilized", "expected=3 dims={2: 2, 3: 3, 4: 4}"),
    }


def test_splitting_visits_each_size_once(monkeypatch):
    # with n_min = n_max the sizes are N and N + 1, each computed once per check
    from glomega import Enveloping

    calls = []
    invariant_dim = Enveloping.invariant_dim

    def spy(ctx, d, deg):
        calls.append((ctx.omega.name, d, deg, ctx.n))
        return invariant_dim(ctx, d, deg)

    monkeypatch.setattr(Enveloping, "invariant_dim", spy)
    rep = run_suite(SuiteConfig(suite="splitting", n_min=4, n_max=4))
    configs = [r.config for r in rep.records if r.name.startswith("splitting.")]
    assert configs and all(c.endswith(" N=[4, 5]") for c in configs)
    checks = {call[:3] for call in calls}
    assert sorted(calls) == sorted(check + (n,) for check in checks for n in (4, 5))
    assert len(checks) == len(configs)


def test_no_product_is_seeded_with_the_unit(monkeypatch):
    # a product starts from its first factor; the unit stands only for the empty monomial
    from glomega import Enveloping

    unit_factors = []
    multiply = Enveloping.multiply

    def spy(ctx, u, v):
        unit_factors.extend(f for f in (u, v) if f == ctx.one())
        return multiply(ctx, u, v)

    monkeypatch.setattr(Enveloping, "multiply", spy)
    rep = run_suite(SuiteConfig("symbols", omega="C", n_max=3, max_len=2))
    assert rep.summary["pass"] > 0
    assert unit_factors == []


def test_pbw_dependency_confirmed_at_both_sizes_is_a_failure(monkeypatch):
    from glomega import yangian as yg

    def dependent(omega, d, maxlen, maxdeg, n, s):
        return {"count": 3, "rank": 2, "full_rank": False, "dependency": {0: 1, 2: -1}}

    monkeypatch.setattr(yg, "pbw_suite", dependent)
    rep = run_suite(SuiteConfig(suite="pbw", omega="C", n_max=2, d=1))
    got = {r.config: (r.status, r.witness) for r in rep.records if r.name == "pbw.rank"}
    assert got == {"omega=C d=1 maxlen=3 maxdeg=2 N=2": ("fail", "count=3 rank=2 dependency={0: 1, 2: -1}")}


def test_check_that_raises_is_an_error_record(tmp_path, monkeypatch, capsys):
    from glomega import doublepoisson as dp
    from glomega.cli import main

    def broken(spec, maxlen, bracket=None):
        raise RuntimeError("boom")

    monkeypatch.setattr(dp, "check_skew", broken)
    out = tmp_path / "report.json"
    assert main(["run", "double", "--omega", "C", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    by_name = {r["name"]: r for r in data["records"]}
    skew = by_name.pop("double.skew")
    assert (skew["status"], skew["witness"]) == ("error", "error: RuntimeError: boom")
    assert "RuntimeError: boom" in skew["traceback"]
    # the run went on: every other check still ran and passed
    assert {r["status"] for r in by_name.values()} == {"pass"}
    assert len(by_name) == 5
    assert data["summary"] == {"pass": 5, "fail": 0, "skipped": 0, "not-stabilized": 0, "error": 1}
    assert "[error] double.skew" in capsys.readouterr().out


def test_precondition_is_an_error_not_a_fail(monkeypatch):
    # symbol_match_smd needs d <= N-1, and the symbols suite skips its grid
    # when n_max < d + 1 (test_symbol_match_smd_needs_room_for_the_acting_block);
    # here each call is made at N = d, so every smd check breaks the precondition
    from glomega import doublepoisson as dp

    smd = dp.symbol_match_smd
    monkeypatch.setattr(dp, "symbol_match_smd", lambda *args: smd(*args[:-1], args[-3]))
    rep = run_suite(SuiteConfig(suite="symbols", n_max=3))
    errors = [r for r in rep.records if r.status == "error"]
    assert len(errors) == 6 and all(r.name == "symbols.smd" for r in errors)
    assert all(
        r.witness == "error: StructureError: need d <= N-1 so the acting block is nontrivial"
        for r in errors
    )
    assert rep.summary == {"pass": 6, "fail": 0, "skipped": 0, "not-stabilized": 0, "error": 6}
    assert "error=6" in rep.human_summary()
    assert rep.exit_code() == 1
    assert rep.fingerprint() == "47ad26a0edd5bde00c6e7076c3bb7d23033cd6a4798404ecdc436a1c1867e698"


# `omega run` configs under 1.6 s each: exit code and fingerprint, unchanged
# since these reports were first checked by hand
_PINNED = [
    ("double --omega nonassoc --seed 7", dict(suite="double", omega="nonassoc", seed=7), 1,
     "1c23f8185fd1160df20b333d9de2355f9cb0430cc33111567cd94564bd8e095e"),
    ("degeneration --omega mat(2) --d 1", dict(suite="degeneration", omega="mat(2)", d=1), 0,
     "45658af4a70dc1665bda6492c3b2c42c94ee2d4657c57ee78b7277d8fde0b557"),
    ("projection --omega mat(2) --n-max 3", dict(suite="projection", omega="mat(2)", n_max=3), 0,
     "9af62d8134c7c5640bfddea1fbb5e3ed764d7cc3fcdb18027e84c3defd788810"),
    ("symbols --omega null(2)", dict(suite="symbols", omega="null(2)"), 0,
     "dc58875615a3af28f8573ad785e6444d925ffecdfda2cacc0b74940a356a19be"),
    ("symbols --omega C --max-len 4", dict(suite="symbols", omega="C", max_len=4), 0,
     "3650d007e001e83cb9e56c2e3947ae07d95fcaf1393379fd17b524098d80e247"),
    ("pbw --omega C --n-max 2", dict(suite="pbw", omega="C", n_max=2), 1,
     "51493da12c851cdced1e6a93e0385c926125a1d5751b5da5d0dcd22f7608c42d"),
    ("splitting --n-max 5", dict(suite="splitting", n_max=5), 0,
     "ca37b62b483567dca013aae5b07908e3522e3a44d9634c9b5e75ce58d2453ab4"),
    ("current --omega C^3 --d 3 --n-max 3", dict(suite="current", omega="C^3", d=3, n_max=3), 0,
     "1fe5ae24d51b078883c13d2ba1af6d7be015af81bc1e8ac12301fbdb70914ac6"),
    ("all --n-min 1 --n-max 1 --d 1 --max-len 1 --max-deg 1",
     dict(suite="all", n_min=1, n_max=1, d=1, max_len=1, max_deg=1), 1,
     "b24b2025d3242d80adf09f017caac7d141cdd5e85c81bb5943a9a37ec6a46a16"),
    ("double --seed 99", dict(suite="double", seed=99), 0,
     "cc529901853c1e6b8ffa5e4745babbedbad100e8085ce1aa77ac760be6e402ef"),
]


@pytest.mark.parametrize("kwargs, code, fingerprint", [c[1:] for c in _PINNED], ids=[c[0] for c in _PINNED])
def test_report_is_pinned(kwargs, code, fingerprint):
    rep = run_suite(SuiteConfig(**kwargs))
    assert (rep.exit_code(), rep.fingerprint()) == (code, fingerprint)


def _planted(original, bad, corrupt):
    """``original``, except that its result goes through ``corrupt`` wherever ``bad(*args)`` holds."""

    def planted(*args):
        out = original(*args)
        return corrupt(out) if bad(*args) else out

    return planted


def _false(out):
    return False


def _doubled(out):
    return {k: 2 * c for k, c in out.items()}


_LENGTHS = ((1, 1), (1, 2), (2, 1), (2, 2))
_C_PROJECTION = dict(suite="projection", omega="C", n_max=3, max_len=2, s_values=(0, 1))
_C_ANCHOR = dict(suite="projection", omega="C", n_max=2, max_len=2, s_values=(0,))
# a grade-1 triple a < b < c of gl(2) currents over C^2, and [a, b]: a two-term
# bracket, so no antisym call brackets it, and only the Jacobi sum of a, b, c does
_JACOBI_TRIPLE = ((1, 2, (0, 1)), (2, 1, (1, 0)), (2, 2, (1, 0)))
_JACOBI_INNER = {(1, 1, (0, 1, 0)): 1, (2, 2, (1, 0, 1)): -1}

# (id, module or class, attribute, where the fault sits, what it does, config, the records of
# the checks it reaches): each grid fault makes one grid predicate wrong at one case, and the
# record names the first failing case of the grid, as the grid is scanned; the last four reach
# the fail branches of the anchor, the planted dependency and the splitting probe; the
# current Jacobi fault gives the same record whatever the seed
_FAULTS = [
    (
        "projection.theorem",
        "Enveloping", "project_down",
        # t_21(x) is the only cell of weight -1 under ad E_11
        lambda ctx, u: ctx.n == 3 and any(ctx.mono_weight(m, 1) == -1 for m in u.terms),
        lambda out: out.scale(2),
        _C_PROJECTION,
        {
            ("projection.theorem", "omega=C N=2 s=0"): ("pass", ""),
            ("projection.theorem", "omega=C N=2 s=1"): ("pass", ""),
            ("projection.theorem", "omega=C N=3 s=0"): ("fail", "i=2 j=1 w=(0,)"),
            ("projection.theorem", "omega=C N=3 s=1"): ("fail", "i=2 j=1 w=(0,)"),
        },
    ),
    (
        "projection.reparametrize",
        "Enveloping", "reparametrize_check",
        lambda ctx, i, j, w, s, s2: (i, j, w) == (1, 2, (0, 0)),
        _false,
        _C_PROJECTION,
        {
            # at N = 2 the grid has i = j = 1 only
            ("projection.reparametrize", "omega=C N=2 s=0 s2=1"): ("pass", ""),
            ("projection.reparametrize", "omega=C N=3 s=0 s2=1"): ("fail", "i=1 j=2 w=(0, 0)"),
        },
    ),
    (
        "symbols.smd",
        "dp", "symbol_match_smd",
        lambda spec, i, j, k, l, *rest: (i, j, k, l) == (1, 2, 2, 1),
        _false,
        dict(suite="symbols", omega="C", max_len=2),
        {("symbols.smd", "omega=C lx=1 ly=1 N=4 d=2"): ("fail", "x=(0,) y=(0,) idx=(1, 2, 2, 1)")},
    ),
    (
        "symbols.stc",
        "dp", "symbol_match_stc",
        lambda spec, x, y, n: y == (1,),
        _false,
        dict(suite="symbols", omega="mat(2)", max_len=1),
        {("symbols.stc", "omega=mat(2) lx=1 ly=1"): ("fail", "x=(0,) y=(1,)")},
    ),
    (
        "degeneration.grid",
        "cur", "degeneration_check",
        lambda spec, i, j, k, l, x, y, d, s: x == (1,) and (i, j, k, l) == (1, 2, 2, 1),
        _false,
        dict(suite="degeneration", omega="C^2", max_len=1),
        {
            # d = 1 has the one index tuple (1, 1, 1, 1)
            ("degeneration.grid", "omega=C^2 d=1 lx=1 ly=1"): ("pass", ""),
            ("degeneration.grid", "omega=C^2 d=2 lx=1 ly=1"): ("fail", "x=(1,) y=(0,) idx=(1, 2, 2, 1)"),
        },
    ),
    (
        "current.grade0",
        "cur", "odot_words",
        # e12 e21 = e11, so the empty product is wrong
        lambda spec, x, y: (x, y) == ((1,), (2,)),
        lambda out: {},
        dict(suite="current", omega="mat(2)"),
        {("current.grade0", "omega=mat(2)"): ("fail", "letters (1, 2)")},
    ),
    (
        "current.graded_basis",
        "cur", "graded_basis",
        lambda spec, d, n: (d, n) == (2, 1),
        lambda out: out[:-1],
        dict(suite="current"),
        {
            **{("current.graded_dim", "omega=%s" % t): ("fail", "d=2 n=1") for t in ("C", "C^2", "null(2)", "mat(2)")},
            **{
                ("current.dim_formula", "L=%d d<=3 n<=3" % L): ("fail", "enumeration L=%d d=2 n=1" % L)
                for L in (1, 2, 3)
            },
        },
    ),
    (
        "current.graded_dim",
        "cur", "graded_dim",
        lambda spec, d, n: (d, n) == (2, 1),
        lambda out: out + 1,
        dict(suite="current"),
        {
            **{("current.graded_dim", "omega=%s" % t): ("fail", "d=2 n=1") for t in ("C", "C^2", "null(2)", "mat(2)")},
            **{("current.dim_formula", "L=%d d<=3 n<=3" % L): ("fail", "L=%d d=2 n=1" % L) for L in (1, 2, 3)},
        },
    ),
    (
        "projection.anchor.normal_form",
        "Enveloping", "t_elem",
        lambda ctx, i, j, w, s: ctx.n == 2 and (i, j, w) == (1, 1, (0, 0)),
        lambda out: out + out.owner.gen(2, 2),
        _C_ANCHOR,
        {("projection.anchor", "omega=C s=0"): (
            "fail",
            "normal form: -1 * E(1,1,u1) + 1 * E(1,1,u1)E(1,1,u1) + 1 * E(2,1,u1)E(1,2,u1)",
        )},
    ),
    (
        "projection.anchor.projection",
        "Enveloping", "project_down",
        lambda ctx, u: ctx.n == 2,
        # the result lives one size down, at N = 1
        lambda out: out + out.owner.gen(1, 1),
        _C_ANCHOR,
        {("projection.anchor", "omega=C s=0"): ("fail", "projection: 1 * E(1,1,u1)E(1,1,u1)")},
    ),
    (
        "pbw.planted_dependency",
        "yg", "independence_check",
        lambda *args: True,
        lambda out: ("independent", None),
        dict(suite="pbw", omega="C"),
        {("pbw.planted_dependency", "omega=C N=4"): ("fail", "status=independent vec=None")},
    ),
    (
        "splitting.invariants",
        "yg", "splitting_expected",
        lambda *args: True,
        lambda out: out + 1,
        dict(suite="splitting", omega="C"),
        {
            ("splitting.degree1", "omega=C d=0 N=[3, 4, 5]"): ("fail", "expected=3 dims={3: 2, 4: 2, 5: 2}"),
            ("splitting.degree1", "omega=C d=1 N=[3, 4, 5]"): ("fail", "expected=4 dims={3: 3, 4: 3, 5: 3}"),
            ("splitting.degree2", "omega=C d=0 N=[3, 4, 5]"): ("fail", "expected=5 dims={3: 4, 4: 4, 5: 4}"),
        },
    ),
    *[
        (
            "current.jacobi seed=%d" % seed,
            "cur", "gl_current_bracket",
            lambda spec, a, b: (a, b) == (_JACOBI_INNER, {_JACOBI_TRIPLE[2]: 1}),
            _doubled,
            dict(suite="current", omega="C^2", seed=seed),
            {("current.jacobi_sampled", "omega=C^2 d=2"): ("fail", repr(_JACOBI_TRIPLE))},
        )
        for seed in (20240, 1)
    ],
    (
        # 2 [,] is antisymmetric and satisfies Jacobi, so only the degeneration
        # certificate, which subtracts gl_current_bracket itself, sees it
        "degeneration.doubled_bracket",
        "cur", "gl_current_bracket",
        lambda *args: True,
        _doubled,
        dict(suite="degeneration"),
        {
            # [E_11, E_12] = E_12 is the first nonzero bracket, (i, j, k, l, a, b)
            ("degeneration.letters", "omega=C d=2 N=4"): ("fail", "(1, 1, 1, 2, 0, 0)"),
            ("degeneration.letters", "omega=C^2 d=2 N=4"): ("fail", "(1, 1, 1, 2, 0, 0)"),
            # over C, d = 1 brackets commuting letters, and 2 * 0 = 0
            **{("degeneration.grid", "omega=C d=1 lx=%d ly=%d" % lens): ("pass", "") for lens in _LENGTHS},
            ("degeneration.grid", "omega=C^2 d=1 lx=1 ly=1"): ("pass", ""),
            ("degeneration.grid", "omega=C^2 d=1 lx=1 ly=2"): ("fail", "x=(0,) y=(0, 1) idx=(1, 1, 1, 1)"),
            ("degeneration.grid", "omega=C^2 d=1 lx=2 ly=1"): ("fail", "x=(0, 1) y=(0,) idx=(1, 1, 1, 1)"),
            ("degeneration.grid", "omega=C^2 d=1 lx=2 ly=2"): ("fail", "x=(0, 0) y=(0, 1) idx=(1, 1, 1, 1)"),
            **{
                ("degeneration.grid", "omega=%s d=2 lx=%d ly=%d" % (token, lx, ly)): (
                    "fail", "x=%r y=%r idx=(1, 2, 2, 1)" % ((0,) * lx, (0,) * ly)
                )
                for token in ("C", "C^2")
                for lx, ly in _LENGTHS
            },
        },
    ),
]


@pytest.mark.parametrize("owner, attr, bad, corrupt, kwargs, expected", [f[1:] for f in _FAULTS], ids=[f[0] for f in _FAULTS])
def test_planted_fault_gives_the_first_counterexample(monkeypatch, owner, attr, bad, corrupt, kwargs, expected):
    from glomega import Enveloping
    from glomega import current as cur
    from glomega import doublepoisson as dp
    from glomega import yangian as yg

    target = {"Enveloping": Enveloping, "cur": cur, "dp": dp, "yg": yg}[owner]
    monkeypatch.setattr(target, attr, _planted(getattr(target, attr), bad, corrupt))
    rep = run_suite(SuiteConfig(**kwargs))
    names = {name for name, _config in expected}
    got = {r.key(): (r.status, r.witness) for r in rep.records if r.name in names}
    assert got == expected


def test_doubled_current_bracket_passes_the_current_suite(monkeypatch):
    # the gap the degeneration.doubled_bracket fault closes: the current suite
    # checks gl_current_bracket through antisymmetry and Jacobi alone
    from glomega import current as cur

    monkeypatch.setattr(cur, "gl_current_bracket", _planted(cur.gl_current_bracket, lambda *args: True, _doubled))
    rep = run_suite(SuiteConfig(suite="current"))
    assert {r.status for r in rep.records} == {"pass", "skipped"}
    assert [r.key() for r in rep.records if r.status == "skipped"] == [("current.bimodule", "omega=null(2)")]


def test_degeneration_work_stays_within_its_counts(monkeypatch):
    # a cold degeneration run solves each weight part against the symbol
    # columns of its own weight (372 columns; 798 with one solver over every
    # column of a degree), and commutator brackets only generator pairs
    # whose indices meet; a regression fails here rather than as noise
    import sys

    from glomega.enveloping import Enveloping
    from glomega.linalg import SpanSolver

    add, terms = SpanSolver.add, Enveloping.commutator_terms
    commutator_code = Enveloping.commutator.__code__
    columns, met = [0], []

    def counted_add(self, vec):
        columns[0] += 1
        return add(self, vec)

    def watched_terms(self, g, h):
        if sys._getframe(1).f_code is commutator_code:
            met.append(g[1] == h[0] or g[0] == h[1])
        return terms(self, g, h)

    monkeypatch.setattr(SpanSolver, "add", counted_add)
    monkeypatch.setattr(Enveloping, "commutator_terms", watched_terms)
    report = run_suite(SuiteConfig("degeneration"))
    assert {r.status for r in report.records} == {"pass"}
    assert 0 < columns[0] <= 400, columns[0]
    assert met and all(met), (len(met), met.count(False))
