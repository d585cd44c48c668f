"""The benchmark's workloads: each is one cold ``omega run`` invocation.

``config`` holds the ``SuiteConfig`` fields the workload fixes; the seed is
added by the caller.  ``tokens`` are the tables the suite resolves, which the
set-up phase resolves once before the run starts.  ``invocation_s`` is what
one untraced invocation costs, from process start to exit and with its
calibration chunks, on the reference host (2 vCPU Xeon VM, CPython 3.11): the
untraced run makes ``--seconds / invocation_s`` of them, a count that stays
fixed when the code under test gets faster or slower.

Why each workload was chosen is in the ``why`` of its entry in
``BENCHMARK.json``.  splitting-tower is not listed there: it is about 89%
``SpanSolver`` elimination (invariant dimensions at N=9,10,11), with little
normal-form work and no double brackets; full-run measures the same layer.
"""

from __future__ import annotations

ALL_TOKENS = ("C", "C^2", "null(2)", "mat(2)")

WORKLOADS = {
    "symbols": {
        "config": {"suite": "symbols"},
        "tokens": ("C", "C^2", "mat(2)"),
        "invocation_s": 5.0,
    },
    "double-fuzz": {
        "config": {"suite": "double"},
        "tokens": ALL_TOKENS,
        "invocation_s": 7.7,
    },
    "splitting-tower": {
        "config": {"suite": "splitting", "n_max": 10},
        "tokens": ("C", "C^2"),
        "invocation_s": 3.5,
    },
    "full-run": {
        "config": {"suite": "all"},
        "tokens": ALL_TOKENS,
        "invocation_s": 13.5,
    },
}

BASELINE_SEED = 20240


def omega_run(workload: str) -> str:
    """The ``omega run`` command line the workload stands for."""
    config = WORKLOADS[workload]["config"]
    flags = " --n-max %d" % config["n_max"] if "n_max" in config else ""
    return "omega run %s%s --seed S" % (config["suite"], flags)
