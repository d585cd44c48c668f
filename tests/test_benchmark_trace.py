"""The benchmark's traced run stays correct on the current code.

``perfbench/run.py --trace 1`` self-tests its boundary tracer: every entry
point meant for a workload is called on it, a traced run gives the statuses
and fingerprint of an untraced one, and every wrapper is removed afterwards.
A traced run of ``perfbench/child.py`` is checked here the same way, with the
self-test and verdict functions of ``perfbench/run.py``, against the
fingerprints of the untraced runs at the benchmark's seed.
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
SEED = 20240

UNTRACED_FINGERPRINTS = {
    "double-fuzz": "975cd4e8131fc9ee92c509111e0b3579aeadb7dc63e8647cd91663642139e95c",
    "full-run": "78d6324ea6e60429e4568e2f3490dcb3bad168a7a69a136c856cefffe2cb1959",
    "splitting-tower": "f8cd38f360dfc74f92a4ef287cc453d3f94b3c97eb6aba96cdd156ed60ae88d4",
    "symbols": "9be0f2685b1e43ffca328200798f60ca01c9604e97a8f48d7d6999a2d21dd6b4",
}


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


@pytest.mark.parametrize("workload", sorted(UNTRACED_FINGERPRINTS))
def test_traced_run_is_covered_neutral_and_correct(bench, workload, tmp_path):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # child.py loads glomega from src/ itself
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "trace", workload, str(SEED), str(tmp_path / "spans.json")],
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
    assert result["fingerprint"] == UNTRACED_FINGERPRINTS[workload]
    assert bench.verdict_failures(workload, SEED, result["records"]) == 0
