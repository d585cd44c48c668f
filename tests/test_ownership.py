"""A table owns what is derived from it: its enveloping contexts and its facts.

Its facts are the associator witness, the unit and the memo of coagulated
words.
"""

import ast
import gc
import pathlib
import weakref

import pytest

from glomega import (
    AlgebraSpec,
    Enveloping,
    bimodule_iso_check,
    check_associativity,
    detect_unit,
    direct_sum_C,
    matrix_algebra,
    save_algebra,
)
from glomega import cli, omega, suites, words
from glomega.current import current_unit_check
from glomega.suites import SuiteConfig, run_suite
from glomega.words import coagulate_word

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glomega"

ALL_FINGERPRINT = "78d6324ea6e60429e4568e2f3490dcb3bad168a7a69a136c856cefffe2cb1959"


@pytest.fixture(scope="module")
def all_run():
    """One default ``all`` run, counting contexts built and table facts computed."""
    seen = {"contexts": [], "alive": [], "outside_records": [], "associators": 0, "units": 0}
    init, run = Enveloping.__init__, suites._run
    first_associator, solve_unit = omega._first_associator, omega._solve_unit
    current = []  # the record being run, if any

    def counted_init(self, spec, n):
        seen["contexts"].append((spec.name, n))  # the name only: no reference to the table
        seen["alive"].append(weakref.ref(self))
        if not current:
            seen["outside_records"].append((spec.name, n))
        init(self, spec, n)

    def recorded_run(name, config, thunk):
        current.append(name)
        try:
            return run(name, config, thunk)
        finally:
            current.pop()

    def counted_associator(spec):
        seen["associators"] += 1
        return first_associator(spec)

    def counted_unit(spec):
        seen["units"] += 1
        return solve_unit(spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Enveloping, "__init__", counted_init)
        mp.setattr(suites, "_run", recorded_run)
        mp.setattr(omega, "_first_associator", counted_associator)
        mp.setattr(omega, "_solve_unit", counted_unit)
        seen["fingerprint"] = run_suite(SuiteConfig("all")).fingerprint()
    gc.collect()
    return seen


def test_all_run_builds_one_context_per_table_and_size(all_run):
    assert all_run["fingerprint"] == ALL_FINGERPRINT
    assert len(all_run["contexts"]) == len(set(all_run["contexts"])) == 23


def test_all_run_builds_every_context_inside_a_record(all_run):
    # a context's cost, its key table included, lands in the time of the record that needs it
    assert all_run["outside_records"] == []


def test_all_run_computes_each_table_fact_once(all_run):
    # 4 builtin tables and the double suite's 50 fuzz tables; only the
    # current suite's 4 tables need a unit
    assert all_run["associators"] == 54
    assert all_run["units"] == 4


def test_finished_run_leaves_no_context_alive(all_run):
    assert [ref for ref in all_run["alive"] if ref() is not None] == []


def test_finished_symbols_run_leaves_no_context_alive(monkeypatch):
    # each context's top_commutator slot holds an element whose owner is the
    # context, a cycle that gc still reclaims once the run's tables are gone
    holding = []
    top = Enveloping.top_commutator

    def recorded_top(self, u, v):
        out = top(self, u, v)
        assert self._field[0] is u and u.owner is self
        holding.append(weakref.ref(self))
        return out

    monkeypatch.setattr(Enveloping, "top_commutator", recorded_top)
    assert run_suite(SuiteConfig("symbols")).exit_code() == 0
    gc.collect()
    assert len(holding) > 0
    assert [ref for ref in holding if ref() is not None] == []


def test_table_facts_are_computed_once_per_table_object(monkeypatch):
    calls = []
    first_associator, solve_unit = omega._first_associator, omega._solve_unit
    monkeypatch.setattr(omega, "_first_associator", lambda spec: calls.append("assoc") or first_associator(spec))
    monkeypatch.setattr(omega, "_solve_unit", lambda spec: calls.append("unit") or solve_unit(spec))
    spec, twin = direct_sum_C(2), direct_sum_C(2)
    for _ in range(3):
        assert check_associativity(spec) is None
        assert detect_unit(spec) == {0: 1, 1: 1}
    assert calls == ["assoc", "unit"]
    # an equal table is a different owner with facts of its own
    assert detect_unit(twin) is not detect_unit(spec)
    assert calls == ["assoc", "unit", "unit"]


def test_coagulations_are_computed_once_per_table_object(monkeypatch):
    calls = []
    coagulate = words.coagulate
    monkeypatch.setattr(words, "coagulate", lambda spec, factors, nu: calls.append(nu) or coagulate(spec, factors, nu))
    spec, twin = direct_sum_C(2), direct_sum_C(2)
    first = coagulate_word(spec, (0, 0, 1), (2, 1))
    for _ in range(3):
        assert coagulate_word(spec, (0, 0, 1), (2, 1)) is first
        assert coagulate_word(spec, (0, 1), (2,)) == {}
    assert first == {(0, 1): 1}
    assert calls == [(2, 1), (2,)]
    # an equal table is a different owner with a memo of its own
    again = coagulate_word(twin, (0, 0, 1), (2, 1))
    assert again == first and again is not first
    assert calls == [(2, 1), (2,), (2, 1)]


def test_shared_coagulations_are_left_as_they_were(monkeypatch):
    # every coagulation a projection run kept equals a fresh one on a twin table
    tables = []
    resolve = suites.resolve_omega
    monkeypatch.setattr(suites, "resolve_omega", lambda token: tables.append((token, resolve(token))) or tables[-1][1])
    assert run_suite(SuiteConfig("projection")).exit_code() == 0
    kept = 0
    for token, spec in tables:
        twin = resolve(token)
        for (word, nu), out in spec.facts.get("coagulations", {}).items():
            assert out == coagulate_word(twin, word, nu), (token, word, nu)
            kept += 1
    assert kept >= 100


def test_coagulation_memo_belongs_to_its_table_and_dies_with_it():
    spec = matrix_algebra(2)
    out = coagulate_word(spec, (1, 2), (2,))
    assert out == {(0,): 1}
    memo = spec.facts["coagulations"]
    # the memo and what it holds are reached only through the table ...
    assert gc.get_referrers(out) == [memo]
    assert gc.get_referrers(memo) == [spec.facts]
    assert gc.get_referrers(spec.facts) == [spec]
    # ... and nothing keeps the table alive: its context dies with it
    ref = weakref.ref(Enveloping.get(spec, 2))
    del spec, memo, out
    gc.collect()
    assert ref() is None


def test_shared_unit_is_left_as_it_was(tmp_path, monkeypatch, capsys):
    # detect_unit hands every caller the one dict kept in the table's facts
    spec = matrix_algebra(2)
    unit = detect_unit(spec)
    path = str(tmp_path / "mat2.json")
    save_algebra(spec, path)
    monkeypatch.setattr(cli, "load_algebra", lambda p: spec)  # so the command reads the same table object
    assert current_unit_check(spec)["passed"]
    assert bimodule_iso_check(spec, 1)
    assert cli.main(["check", path]) == 0
    assert "unit: 1*e11 + 1*e22" in capsys.readouterr().out
    assert detect_unit(spec) is unit
    assert unit == {0: 1, 3: 1}


def test_context_belongs_to_its_table_and_dies_with_it():
    spec = direct_sum_C(1)
    ctx = Enveloping.get(spec, 2)
    assert Enveloping.get(spec, 2) is ctx is spec.contexts[2]
    assert Enveloping.get(direct_sum_C(1), 2) is not ctx
    ref = weakref.ref(ctx)
    del spec, ctx
    gc.collect()
    assert ref() is None


def test_all_with_a_table_file_reads_it_once(tmp_path, monkeypatch):
    path = str(tmp_path / "c1.json")
    save_algebra(direct_sum_C(1), path)
    loads = []
    load = suites.load_algebra
    monkeypatch.setattr(suites, "load_algebra", lambda p: loads.append(p) or load(p))
    cfg = SuiteConfig("all", omega=path, n_max=2, d=1, max_len=2, max_deg=1, s_values=(0,))
    assert run_suite(cfg).exit_code() == 0
    assert loads == [path]


def test_no_identity_keyed_state():
    # tables compare by identity, but nothing is keyed by id(): state hangs off its owner
    calls = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert calls == []
    assert [name for name, value in vars(Enveloping).items() if isinstance(value, dict)] == []
    assert AlgebraSpec.__eq__ is object.__eq__ and AlgebraSpec.__hash__ is object.__hash__
