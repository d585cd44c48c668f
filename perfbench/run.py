"""glomega benchmark: cold ``omega run`` workloads, verdict-checked.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of symbols, double-fuzz, splitting-tower, full-run, or ``all``
to run the four in turn.  Every invocation is a fresh interpreter
(``perfbench/child.py``), as every ``omega run`` is: the enveloping registry
never releases a context, so repeats inside one process would stop being
cold.  Load model: closed loop, one caller, one process at a time.

``--trace 0`` times untraced runs.  It resolves the tables in a warm-up
process, then makes a fixed number of invocations of the workload, set by
``--seconds`` and the workload's ``invocation_s`` (the cost of one invocation
on the reference host, ``perfbench/workloads.py``), so that the number of
samples does not depend on the speed of the code under test.  SETUP_PROBES
set-up-only processes are spread between the invocations.  The host's speed
drifts by up to 2x, so both times are rescaled to the reference host by the
calibration chunks that run in the same process (``perfbench/calibrate.py``).
It reports:

- ``run_s``: the ``run_suite`` call, minus the calibration chunks run inside
  it, rescaled to the reference host; the median over the invocations.
- ``setup_s``: the time to import glomega and resolve the tables, rescaled to
  the reference host by the chunks run right after it; the median over every
  set-up sample of the run (the probes and each invocation's own set-up).
- ``peak_rss_mb``: the median of the invocations' ``ru_maxrss``.

The raw wall times are printed next to them.

``--trace 1`` runs the workload once untraced and twice with the boundary
tracer (``perfbench/tracer.py``), plus, for double-fuzz, once untraced at
seed + 1.  It reports the per-layer metrics and runs three self-tests:
coverage (every wrapped entry point is called on the workload meant to
exercise it, and the predicted zeros hold), trace neutrality (same statuses
and fingerprint as untraced, every wrapper removed afterwards) and
determinism (every count repeats exactly; a second seed changes the fuzz
tables and still passes).  Spans go to ``perfbench/out/``.

Metric names and units, and the default of ``--seconds``, come from
``BENCHMARK.json``.  Every invocation's check statuses are compared with the
hand-written verdicts in ``perfbench/expected.py``.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from expected import expected, fuzz_tables  # noqa: E402
from calibrate import REF_CHUNK_S  # noqa: E402
from tracer import ENTRY_POINTS, LAYERS, counter_name  # noqa: E402
from workloads import BASELINE_SEED, WORKLOADS, omega_run  # noqa: E402

BENCH = os.path.join(ROOT, "BENCHMARK.json")
SETUP_PROBES = 6
MIN_INVOCATIONS = 2
CHILD_TIMEOUT_S = 150

# Fingerprints of each workload at BASELINE_SEED; printed, not gated, so that a
# deliberate change of report schema still benchmarks.
BASELINE_FINGERPRINTS = {
    "symbols": "9be0f2685b1e43ffca328200798f60ca01c9604e97a8f48d7d6999a2d21dd6b4",
    "double-fuzz": "975cd4e8131fc9ee92c509111e0b3579aeadb7dc63e8647cd91663642139e95c",
    "splitting-tower": "f8cd38f360dfc74f92a4ef287cc453d3f94b3c97eb6aba96cdd156ed60ae88d4",
    "full-run": "78d6324ea6e60429e4568e2f3490dcb3bad168a7a69a136c856cefffe2cb1959",
}

# counters that must stay zero on a workload: it never enters that code
PREDICTED_ZEROS = {
    "double-fuzz": (
        "enveloping.init",
        "enveloping.normal_form",
        "enveloping.multiply",
        "linalg.span_init",
        "linalg.span_add",
    ),
    "splitting-tower": (
        "doublepoisson.double_bracket",
        "doublepoisson.jacobi_sums",
        "suites.repeat_check_calls",
    ),
    "symbols": ("suites.repeat_check_calls",),
}


def load_metric_units():
    """Metric names and units, end-to-end and per-layer, from BENCHMARK.json."""
    with open(BENCH) as fh:
        bench = json.load(fh)
    units = [{m["name"]: m["unit"] for m in bench[kind]} for kind in ("end_to_end", "per_layer")]
    return units[0], units[1], bench["run_seconds"]


class ChildFailed(RuntimeError):
    pass


def child(mode: str, workload: str, seed: int, spans: Optional[str] = None) -> dict:
    cmd = [sys.executable, CHILD, mode, workload, str(seed)] + ([spans] if spans else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed("%s %s seed=%d timed out after %d s" % (mode, workload, seed, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed("%s %s seed=%d exited %d: %s" % (mode, workload, seed, proc.returncode, tail[0]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("%s %s seed=%d printed no result" % (mode, workload, seed))
    return json.loads(lines[-1])


def verdict_failures(workload: str, seed: int, records) -> int:
    """Expected checks whose status differs or is missing, plus unexpected checks."""
    want = expected(workload, seed)
    got = {(name, config): status for name, config, status in records}
    wrong = sum(1 for key, status in want.items() if got.get(key) != status)
    return wrong + len(set(got) - set(want))


class Tally:
    """Checks attempted and failed over every invocation of a benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def add(self, seed: int, result: Optional[dict]) -> None:
        n = len(expected(self.workload, seed))
        self.attempted += n
        self.failed += n if result is None else verdict_failures(self.workload, seed, result["records"])

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def invoke(mode: str, workload: str, seed: int, tally: Tally, spans: Optional[str] = None) -> Optional[dict]:
    """One workload process; a crash counts every expected check as failed."""
    try:
        result = child(mode, workload, seed, spans)
    except ChildFailed as exc:
        print("crash: %s" % exc)
        result = None
    tally.add(seed, result)
    return result


def fingerprint_line(workload: str, seed: int, results: List[dict]) -> bool:
    prints = sorted({r["fingerprint"] for r in results})
    note = ""
    if seed == BASELINE_SEED:
        note = " (baseline %s)" % ("match" if prints == [BASELINE_FINGERPRINTS[workload]] else "differs")
    print("fingerprint=%s%s" % (",".join(prints), note))
    return len(prints) == 1


def run_s(result: dict) -> float:
    """The run without its calibration chunks, at reference-host speed."""
    return (result["wall_s"] - result["pacer_s"]) * REF_CHUNK_S / result["chunk_s"]


def setup_s(result: dict) -> float:
    return result["setup_s"] * REF_CHUNK_S / result["setup_chunk_s"]


def run_untraced(workload: str, seed: int, seconds: float, units: Dict[str, str]) -> Optional[dict]:
    child("setup", workload, seed)  # warm-up: compiles bytecode, fills the page cache
    invocations = max(MIN_INVOCATIONS, round(seconds / WORKLOADS[workload]["invocation_s"]))
    tally = Tally(workload)
    results = []
    setups = []
    for idx in range(invocations):
        probes = SETUP_PROBES * (idx + 1) // invocations - SETUP_PROBES * idx // invocations
        setups += [child("setup", workload, seed) for _ in range(probes)]
        result = invoke("run", workload, seed, tally)
        if result is not None:
            results.append(result)
            setups.append(result)
    if not results:
        print("workload=%s failed_ratio=1 (every invocation crashed)" % workload)
        return None
    metrics = {
        "run_s": statistics.median([run_s(r) for r in results]),
        "setup_s": statistics.median([setup_s(r) for r in setups]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in results]),
    }
    steady = fingerprint_line(workload, seed, results)
    print(
        "workload=%s invocations=%d setup_samples=%d failed_ratio=%.4g"
        % (workload, len(results), len(setups), tally.ratio)
    )
    for label, values in (
        ("run_s", [run_s(r) for r in results]),
        ("raw wall_s", [r["wall_s"] for r in results]),
        ("chunk_s", [r["chunk_s"] for r in results]),
        ("raw setup_s", [r["setup_s"] for r in setups]),
    ):
        print("  %-11s of each sample: %s" % (label, " ".join("%.5g" % v for v in values)))
    for name, value in metrics.items():
        print("  %-12s %12.4f %s" % (name, value, units[name]))
    return {
        "correct": tally.failed == 0 and steady,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def per_layer(untraced: dict, traced: List[dict], names) -> Dict[str, float]:
    counts = traced[0]["counts"]

    def calls(name: str) -> int:
        return counts.get(name, 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    nf, brackets, adds, inits = (
        calls("enveloping.normal_form"),
        calls("doublepoisson.double_bracket"),
        calls("linalg.span_add"),
        calls("enveloping.init"),
    )
    out = {"%s.self_s" % layer: statistics.median([t["self_s"][layer] for t in traced]) for layer in LAYERS}
    out.update(
        {
            "enveloping.normal_form.calls": nf,
            "enveloping.normal_form.hit_ratio": share(calls("enveloping.normal_form.repeats"), nf),
            "enveloping.multiply.calls": calls("enveloping.multiply"),
            "enveloping.multiply.terms_out": calls("enveloping.multiply.terms_out"),
            "enveloping.contexts": inits,
            "enveloping.context_pairs": inits - calls("enveloping.init.repeats"),
            "doublepoisson.double_bracket.calls": brackets,
            "doublepoisson.double_bracket.distinct_ratio": share(
                brackets - calls("doublepoisson.double_bracket.repeats"), brackets
            ),
            "doublepoisson.jacobi_sums": calls("doublepoisson.jacobi_sums"),
            "omega.product.calls": calls("omega.product"),
            "linalg.span_add.calls": adds,
            "linalg.rank_yield": share(calls("linalg.span_add.rank_raised"), adds),
            "suites.checks": len(traced[0]["records"]),
            "suites.repeat_check_calls": calls("suites.repeat_check_calls"),
            "words.coagulate_word.calls": calls("words.coagulate_word"),
            "current.gl_current_bracket.calls": calls("current.gl_current_bracket"),
            "current.odot_words.calls": calls("current.odot_words"),
            "yangian.evaluate.calls": calls("yangian.evaluate"),
            "trace.spans": traced[0]["spans"],
            "trace.overhead_ratio": statistics.median([t["wall_s"] for t in traced])
            / (untraced["wall_s"] - untraced["pacer_s"]),
        }
    )
    return {name: out[name] for name in names}


def selftest_coverage(workload: str, counts: Dict[str, int]) -> List[str]:
    problems = []
    for layer, target, meant_for in ENTRY_POINTS:
        name = counter_name(layer, target)
        if meant_for == workload and not counts.get(name):
            problems.append("%s never called" % name)
    for name in PREDICTED_ZEROS.get(workload, ()):
        if counts.get(name):
            problems.append("%s=%d, predicted 0" % (name, counts[name]))
    return problems


def selftest_neutrality(untraced: dict, traced: List[dict]) -> List[str]:
    problems = []
    for idx, t in enumerate(traced):
        if t["records"] != untraced["records"]:
            problems.append("traced run %d statuses differ from untraced" % idx)
        if t["fingerprint"] != untraced["fingerprint"]:
            problems.append("traced run %d fingerprint differs from untraced" % idx)
        problems += ["still wrapped after run %d: %s" % (idx, b) for b in t["left_wrapped"]]
    return problems


def selftest_determinism(workload: str, seed: int, traced: List[dict], tally: Tally) -> List[str]:
    problems = []
    first, second = traced
    for name in sorted(set(first["counts"]) | set(second["counts"])):
        if first["counts"].get(name) != second["counts"].get(name):
            problems.append("%s: %s vs %s" % (name, first["counts"].get(name), second["counts"].get(name)))
    if first["spans"] != second["spans"]:
        problems.append("trace.spans: %d vs %d" % (first["spans"], second["spans"]))
    if workload == "double-fuzz":
        drawn = [repr(t) for t in fuzz_tables(seed)]
        if first["fuzz_tables"] != drawn:
            problems.append("the suite's fuzz tables differ from the documented draw")
        if fuzz_tables(seed + 1) == fuzz_tables(seed):
            problems.append("seed %d draws the same fuzz tables as seed %d" % (seed + 1, seed))
        failed_before = tally.failed
        if invoke("run", workload, seed + 1, tally) is None or tally.failed > failed_before:
            problems.append("seed %d: failed_ratio > 0" % (seed + 1))
    return problems


def run_traced(workload: str, seed: int, units: Dict[str, str]) -> Optional[dict]:
    os.makedirs(OUT, exist_ok=True)
    tally = Tally(workload)
    untraced = invoke("run", workload, seed, tally)
    traced = [
        invoke("trace", workload, seed, tally, os.path.join(OUT, "spans-%s-seed%d-%d.json" % (workload, seed, k)))
        for k in range(2)
    ]
    if untraced is None or None in traced:
        print("workload=%s failed_ratio=%.4g (a traced or untraced invocation crashed)" % (workload, tally.ratio))
        return None
    fingerprint_line(workload, seed, [untraced] + traced)
    tests = {
        "coverage": selftest_coverage(workload, traced[0]["counts"]),
        "neutrality": selftest_neutrality(untraced, traced),
        "determinism": selftest_determinism(workload, seed, traced, tally),
    }
    for test, problems in tests.items():
        print("selftest %s: %s" % (test, "ok" if not problems else "FAIL"))
        for p in problems:
            print("  " + p)
    metrics = per_layer(untraced, traced, units)
    print("workload=%s failed_ratio=%.4g" % (workload, tally.ratio))
    for name, value in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, units[name]))
    return {
        "correct": tally.failed == 0 and not any(tests.values()),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    end_to_end, per_layer_units, run_seconds = load_metric_units()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "glomega", "__init__.py")):
        print("error: no glomega sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            print("== %s  (%s, seed %d)" % (name, omega_run(name), args.seed))
            if args.trace:
                results[name] = run_traced(name, args.seed, per_layer_units)
            else:
                results[name] = run_untraced(name, args.seed, args.seconds, end_to_end)
    except ChildFailed as exc:  # set-up itself failed: nothing was measured
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if any(r is None for r in results.values()):
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    "%s.%s" % (name, metric): value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
