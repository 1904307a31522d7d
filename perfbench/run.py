"""mdsolve benchmark: one workload, serial closed loop, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_2d --seed 1 --seconds 42 --trace 0

The workload's inputs are prepared once (untimed). Then repetitions run one
after another, each in a fresh process (``rep.py``), until one more, as
long as the last, would end past ``--seconds``. Inside a repetition the
cases run serially: one caller, each case starts when the previous one
returns. Times are process CPU seconds: on a shared virtual machine the
host can take the CPU from the process, and wall time then measures the
host. Wall time is reported beside them. Times and resident sizes are
medians over repetitions; counts must repeat exactly. Every solve is checked (``workloads.check``). With
``--trace 0`` the last line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics, from traced
repetitions that alternate with untraced ones. The details of the run go to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from boot import BLAS_THREADS, ROOT, environment, use_checkout

HERE = Path(__file__).resolve().parent
LIMIT_S = 170  # a run must end within 180 s


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, workdir):
    """Run repetitions in child processes; a traced run alternates untraced
    and traced ones, at least one of each. The first compares its smallest
    cases with a direct solve."""
    reps = []
    start = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        out = workdir / f"rep{len(reps)}.json"
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "rep.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", str(workdir), "--trace", str(int(traced)),
             "--direct", str(int(not reps)), "--out", str(out)],
            check=True, timeout=max(LIMIT_S - (t0 - start), 1),
        )
        last = time.perf_counter() - t0
        reps.append(json.loads(out.read_text()))
        if args.trace and len(reps) < 2:
            continue
        if time.perf_counter() - start + last > args.seconds:
            return reps


def consistency(reps):
    """Problems that make the run incorrect: a failed check, counts that
    differ between repetitions, a trace that does not add up, or BLAS not
    running at the pinned thread count."""
    def fingerprint(rep):
        return [(c["label"], c["dofs"], c["status"], c["error"], c["iterations"],
                 json.dumps(c["amg"], sort_keys=True)) for c in rep["cases"]]

    problems = [f"{c['label']}: {c['check']}" for r in reps for c in r["cases"] if c["check"]]
    first = fingerprint(reps[0])
    for i, rep in enumerate(reps[1:], start=2):
        if fingerprint(rep) != first:
            problems.append(f"repetition {i} differs from repetition 1 in iterations, "
                            f"status or AMG stats")
        problems.extend(rep.get("problems", ()))
    for i, rep in enumerate(reps, start=1):
        threads = {lib: info["threads"] for lib, info in rep["openblas"].items()}
        if any(t != BLAS_THREADS for t in threads.values()):
            problems.append(f"repetition {i} ran OpenBLAS at {threads} threads")
    return problems


def end_to_end(reps):
    def one(rep):
        cases = rep["cases"]
        ok = [c for c in cases if c["status"] == "ok"]
        return {
            "cpu_s": rep["cpu_s"], "setup_s": rep["setup_s"], "solve_s": rep["solve_s"],
            "peak_rss_mb": rep["peak_rss_mb"],
            "mdof_per_s": sum(c["dofs"] for c in ok) / rep["cpu_s"] / 1e6,
            "iters_total": sum(c["iterations"] for c in cases),
            "solved_frac": len(ok) / len(cases),
        }

    per_rep = [one(r) for r in reps]
    out = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    out.update(iters_total=per_rep[0]["iters_total"], solved_frac=per_rep[0]["solved_frac"])
    return out


def per_layer(reps, prep):
    """Medians over the traced repetitions for times, counts from the first
    traced one (they repeat exactly), the tracing overhead, and the wall
    time of the untraced ones."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out.update(traced[0]["counts"])
    out["assembly.nnz"] = traced[0]["assembly.nnz"]
    out["krylov.iterations"] = sum(c["iterations"] for c in traced[0]["cases"])
    out["krylov.iterations_max"] = max(c["iterations"] for c in traced[0]["cases"])
    out.update(prep)
    out["trace.overhead_s"] = out["trace.total_s"] - statistics.median(r["cpu_s"] for r in untraced)
    out["bench.wall_s"] = statistics.median(r["wall_s"] for r in untraced)
    out["bench.cpu_per_wall"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in untraced)
    return out


def report_lines(name, env, reps, metrics, problems):
    lines = [f"# mdsolve benchmark: workload {name}, seed {env['seed']} ({env['seed_use']})",
             "# env: " + json.dumps(env, sort_keys=True)]
    for i, rep in enumerate(reps, start=1):
        lines.append(f"# rep {i} ({'traced' if rep['traced'] else 'untraced'}): "
                     f"cpu {rep['cpu_s']:.3f} s (setup {rep['setup_s']:.3f} s, "
                     f"solve {rep['solve_s']:.3f} s), wall {rep['wall_s']:.3f} s, "
                     f"peak rss {rep['peak_rss_mb']:.1f} MiB")
    lines.append("# cases (first repetition): status, dofs, iterations, true residual, "
                 "1-norm error vs direct solve, estimated cond_1")
    for c in reps[0]["cases"]:
        lines.append(f"#   {c['label']:<34} {c['status']:<11} {c['dofs']:>7} {c['iterations']:>4} "
                     f"{c['residual']:.2e} {c['direct_error']:.2e} {c['cond']:.1e} "
                     f"{c['error'] or c['check']}")
    lines.append("# computed (first repetition), per block: mode, levels, coarsest n, "
                 "operator/grid complexity, coarse dense LU MiB (8 n_c^2)")
    for c in reps[0]["cases"]:
        for block, s in c["amg"].items():
            n_c = s["levels"][-1]["n"] if s["mode"] == "multilevel" else 0
            lines.append(f"#   {c['label']:<34} {block:<9} {s['mode']:<10} {len(s['levels']):>2} "
                         f"{n_c:>6} {s['operator_complexity']:.3f} {s['grid_complexity']:.3f} "
                         f"{8 * n_c**2 / 2**20:.2f}")
    counts = reps[0]["counts"]
    lines.append(f"# computed: gmres basis MiB allocated (restart=None) "
                 f"{counts['krylov.basis_mb_alloc']:.2f}, touched "
                 f"{counts['krylov.basis_mb_touched']:.2f} (largest solve)")
    traced = sum(r["traced"] for r in reps)
    lines.append(f"# times and resident sizes are medians of {len(reps)} repetitions"
                 + (f", layer times of the {traced} traced ones" if traced else "")
                 + "; counts are computed and repeat exactly")
    for name, entry in metrics.items():
        lines.append(f"# {name} = {entry['value']!r} {entry['unit']}")
    lines.extend(f"# CHECK FAILED: {p}" for p in problems)
    return lines


def main(argv=None):
    args = parse(argv)
    error = use_checkout()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from tracing import Tracer, prep_times
    from workloads import WORKLOADS, Calls

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        t0 = time.perf_counter()
        workload.prepare(Calls(tracer))
        prep_s = time.perf_counter() - t0
        reps = measure(args, Path(workdir))
    env = dict(environment(), seed=args.seed, seed_use=workload.seed_use,
               loop="serial closed loop, one caller; one process per repetition")

    problems = consistency(reps)
    if args.trace:
        values = per_layer(reps, prep_times(tracer.spans))
    else:
        values = end_to_end(reps)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics {missing} are not measured", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not problems,
        "attempted": sum(len(r["cases"]) for r in reps),
        "failed": sum(c["status"] != "ok" for r in reps for c in r["cases"]),
        "metrics": metrics,
    }
    detail = {"args": vars(args), "env": env, "prep_s": prep_s, "result": result,
              "problems": problems, "reps": reps}
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail) + "\n")
    print("\n".join(report_lines(workload.name, env, reps, metrics, problems)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
