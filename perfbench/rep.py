"""One repetition of a workload, in a fresh process started by ``run.py``.

Each repetition gets its own process, so that none inherits the memory the
allocator kept from an earlier one: glibc serves later large ``calloc``s
(the GMRES basis) from retained heap, which it must zero, instead of fresh
pages, and that changes both time and resident size. Within a repetition
the program runs as long-lived as the workload makes it.

Writes one JSON object to ``--out``: CPU and wall times, peak resident
size at the end of the timed part, the checked cases, computed counts, and with ``--trace 1``
the per-layer times and every span.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from boot import openblas, use_checkout


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--direct", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from tracing import ROOT, Tracer, layer_times
    from workloads import WORKLOADS, Calls, amg_counts, check

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.load()
    tracer = Tracer() if args.trace else None
    calls = Calls(tracer)
    with calls.inside():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is None:
            cases = workload.run(calls)
        else:
            with tracer.span(ROOT) as root:
                cases = workload.run(calls)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(cases, with_direct=bool(args.direct))  # untimed
    out = {"traced": bool(args.trace), "cpu_s": cpu, "wall_s": wall, "solve_s": calls.solve_s,
           "setup_s": cpu - calls.solve_s, "peak_rss_mb": peak,
           "assembly.nnz": calls.nnz, "counts": amg_counts(cases),
           "cases": [c.record() for c in cases], "openblas": openblas()}
    if tracer is not None:
        out["layers"], out["problems"] = layer_times(tracer.spans, root)
        out["spans"] = tracer.spans
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
