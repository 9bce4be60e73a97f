"""One benchmark job in a fresh interpreter.

    python3 benchmarks/job.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (import and build the inputs, then stop), ``run`` (also
run and check the workload) or ``trace`` (run it with the layer tracer
installed and write the spans to SPANS_PATH).  The job imports youngconv
from the ``src`` directory next to the benchmark and prints one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, Checks, load_reference

SRC = Path(__file__).resolve().parent.parent / "src"


def _peak_rss_mb():
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv):
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    build, check = WORKLOADS[workload]
    if not (SRC / "youngconv" / "__init__.py").is_file():
        print(f"youngconv sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import youngconv
    import youngconv.verify  # noqa: F401  (loaded first, so the tracer patches it too)

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    job = build(youngconv, seed)
    setup_s = time.perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    checks = Checks()
    gap = None
    t1 = time.perf_counter()
    try:
        reference = load_reference(workload) if seed == REFERENCE_SEED else None
        gap = check(job(), checks, reference)
    except Exception:  # a failing library call is a failed check, not a crash
        traceback.print_exc()
        checks.add("workload raised", False)
    wall_s = time.perf_counter() - t1

    record = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failed_checks": [label for label, ok in checks.results if not ok],
        "bound_gap": gap,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.save(argv[4])
        record["run_id"] = tracer.run_id
        record["absent"] = tracer.absent
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
