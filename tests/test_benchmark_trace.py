"""The benchmark's traced run stays correct on the current code.

``perfbench/run.py --trace 1`` self-tests its boundary tracer: every entry
point meant for a workload is called on it, a traced run gives the statuses
and fingerprint of an untraced one, and every wrapper is removed afterwards.
A traced run of ``perfbench/child.py`` is checked here the same way, with the
self-test and verdict functions of ``perfbench/run.py``, against the
fingerprints of the untraced runs at the benchmark's seed.  Those
fingerprints are ``perfbench/run.py::BASELINE_FINGERPRINTS`` and the seed is
``perfbench/workloads.py::BASELINE_SEED``, the one place each is written;
``conftest.py`` reads the fingerprints, and runs the test once for each
workload named there.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, with ``sys.path`` and ``sys.modules`` left as found."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
                del sys.modules[name]
    return module


def test_traced_run_is_covered_neutral_and_correct(bench, baseline_fingerprints, workload, tmp_path):
    seed = bench.BASELINE_SEED
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # child.py loads glomega from src/ itself
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", workload, str(seed), str(tmp_path / "spans.json")],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert bench.selftest_coverage(workload, result["counts"]) == []
    assert result["left_wrapped"] == []
    assert result["fingerprint"] == baseline_fingerprints[workload]
    assert bench.verdict_failures(workload, seed, result["records"]) == 0
