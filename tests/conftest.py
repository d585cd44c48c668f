"""What several test modules share: the benchmark's pinned fingerprints, and one traced default ``all`` run.

The fingerprint of each benchmark workload is written once, in
``perfbench/run.py::BASELINE_FINGERPRINTS``; the tests read it from there
and never keep a copy.  Every other pinned ``omega run`` report is a row of
``tests/test_suites.py::_PINNED``.
"""

import ast
import gc
import pathlib
import tracemalloc
import weakref

import pytest

from glomega import Enveloping, suites
from glomega.suites import SuiteConfig, run_suite

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _baseline_fingerprints():
    """``perfbench/run.py::BASELINE_FINGERPRINTS``, read from its source, so nothing of ``perfbench`` is imported."""
    for node in ast.parse((ROOT / "perfbench" / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["BASELINE_FINGERPRINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no BASELINE_FINGERPRINTS")


def pytest_generate_tests(metafunc):
    # a test that takes ``workload`` runs once for each benchmark workload
    if "workload" in metafunc.fixturenames:
        metafunc.parametrize("workload", sorted(_baseline_fingerprints()))


@pytest.fixture(scope="session")
def baseline_fingerprints():
    """The fingerprint of each benchmark workload at the benchmark's seed; ``full-run`` is the default ``all``."""
    return _baseline_fingerprints()


def _held(ctx):
    """The names of a context's caches that hold something: its dicts other than the PBW order, and the slot."""
    fixed = ("_keys", "_gen")
    held = [name for name, value in vars(ctx).items() if isinstance(value, dict) and value and name not in fixed]
    return held + ["_field"] * (ctx._field is not None)


@pytest.fixture(scope="session")
def all_run():
    """One default ``all`` run, traced by tracemalloc, counting contexts built.

    As each suite starts, it records the traced memory (current, peak) in
    bytes and resets the peak, so each entry holds the peak of the stretch
    before it; the run's end adds one more entry.  It also records what
    every context of the run's tables still holds (names only: no reference
    to a table or context), and the report's fingerprint.
    """
    seen = {"contexts": [], "alive": [], "outside_records": [], "at_start": [], "traced": []}
    init, run, resolve = Enveloping.__init__, suites._run, suites.resolve_omega
    current = []  # the record being run, if any
    tables = []  # the run's tables, dropped before the run's end is checked

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

    def resolved(token):
        tables.append(resolve(token))
        return tables[-1]

    def starting(name, suite):
        def started(cfg, specs):
            seen["traced"].append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            held = [(spec.name, n, _held(ctx)) for spec in tables for n, ctx in spec.contexts.items()]
            seen["at_start"].append((name, held))
            return suite(cfg, specs)

        return started

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Enveloping, "__init__", counted_init)
        mp.setattr(suites, "_run", recorded_run)
        mp.setattr(suites, "resolve_omega", resolved)
        for name, (suite, roster) in suites._SUITES.items():
            mp.setitem(suites._SUITES, name, (starting(name, suite), roster))
        gc.collect()
        tracemalloc.start()
        try:
            report = run_suite(SuiteConfig("all"))
            seen["traced"].append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        seen["fingerprint"] = report.fingerprint()
    del tables[:], report
    gc.collect()
    return seen
