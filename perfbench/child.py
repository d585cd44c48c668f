"""One cold ``omega run`` in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/child.py MODE WORKLOAD SEED [SPANS_PATH]

MODE is ``setup`` (import glomega and resolve the tables, then time the
calibration chunks of ``calibrate.py`` and stop), ``run`` (set up, then run
the suite untraced with the calibration ``Pacer``) or ``trace`` (set up, then
run the suite with the boundary tracer installed and no pacer; spans go to
SPANS_PATH).  The glomega package
is loaded from ``src/`` of the checkout that holds this file, never from an
installed copy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import glomega
    from glomega import suites

    for token in spec["tokens"]:
        suites.resolve_omega(token)
    setup_s = time.perf_counter() - start
    if not os.path.abspath(glomega.__file__).startswith(SRC + os.sep):
        print("glomega was imported from %s, not %s" % (glomega.__file__, SRC), file=sys.stderr)
        return 2
    from calibrate import Pacer, chunk_s

    result = {"setup_s": setup_s, "setup_chunk_s": chunk_s()}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    cfg = suites.SuiteConfig(seed=seed, **spec["config"])
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        report = suites.run_suite(cfg)  # looked up now, so a traced run enters the wrapper
        result["wall_s"] = time.perf_counter() - start
    else:
        with Pacer() as pacer:
            start = time.perf_counter()
            report = suites.run_suite(cfg)
            result["wall_s"] = time.perf_counter() - start
        result["pacer_s"] = sum(pacer.samples)
        result["chunk_s"] = sum(pacer.samples) / len(pacer.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["fingerprint"] = report.fingerprint()
    result["records"] = [[r.name, r.config, r.status] for r in report.records]
    if tracer is not None:
        result["left_wrapped"] = tracer.restore()
        result["counts"] = dict(tracer.counts)
        result["self_s"] = tracer.self_times()
        result["spans"] = len(tracer.spans)
        result["fuzz_tables"] = [repr(t) for t in tracer.fuzz_tables]
        tracer.write_spans(argv[3], "%s-seed%d-pid%d" % (workload, seed, os.getpid()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # skip freeing the normal-form memo (about 0.3 s on symbols): the result is out
    os._exit(code)
