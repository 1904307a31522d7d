"""Spans around the public mdsolve calls the benchmark makes, and the
per-layer metrics derived from them.

Every span is recorded by code in this directory. A public call the
benchmark makes itself goes through a wrapped function; a public call that
mdsolve makes internally (``approx_schur``, ``amg_setup`` and
``apply_preconditioner_vcycle`` inside ``precond``; the grid builder,
``assemble``, ``monolithic``, ``build_preconditioner`` and ``gmres`` inside
``bench.run_sweep``) is traced by replacing the module attribute the caller
looks up, for the duration of one repetition. The operator and the
preconditioner handed to ``gmres`` become timing callables, which yields the
matvec and preconditioner-apply spans. Spans are timed in process CPU
seconds, like the end-to-end times, stay in memory and are written out when
the benchmark ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

NAME, START, END, PARENT, FAILED = range(5)

# span name -> (time metric, count metric, self-time metric); None = not reported
SPAN_METRICS = {
    "grids.build": ("grids.build_s", "grids.builds", None),
    "assembly.assemble": ("assembly.assemble_s", "assembly.calls", None),
    "assembly.monolithic": ("assembly.assemble_s", None, None),
    "sysio.import": ("sysio.import_s", None, None),
    "precond.setup": ("precond.setup_s", "precond.setups", None),
    "precond.schur": ("precond.schur_s", None, None),
    "precond.apply": ("precond.apply_s", "precond.applies", "precond.coupling_s"),
    "amg.setup": ("amg.setup_s", "amg.setups", None),
    "amg.vcycle": ("amg.vcycle_s", "amg.vcycles", None),
    "krylov.gmres": ("krylov.gmres_s", None, "krylov.ortho_s"),
    "krylov.matvec": ("krylov.matvec_s", "krylov.matvecs", None),
    "bench.sweep": ("bench.sweep_s", None, "bench.self_s"),
}
PREP_METRICS = {"sysio.export": "sysio.export_s"}
ROOT = "rep"


class Tracer:
    """In-memory span recorder for one benchmark process (single thread).

    A span is ``[name, start, end, parent index, failed]``; the parent is
    the innermost span open when it started, -1 for none.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        """Record a span around the body; yields its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.process_time(), None, parent, False])
        self._open.append(index)
        try:
            yield index
        except Exception:
            self.spans[index][FAILED] = True
            raise
        finally:
            self.spans[index][END] = time.process_time()
            self._open.pop()

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


@contextmanager
def patched(replacements):
    """Temporarily set ``module.attr = value`` for each (module, attr, value)."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def layer_times(spans, root_index):
    """Per-layer time and count metrics of one repetition, and its consistency.

    Returns ``(metrics, check)``. ``metrics`` holds every time/count metric
    of :data:`SPAN_METRICS` (0 for a layer the repetition did not enter),
    ``amg.setup_failures``, ``krylov.prec_s`` (preconditioner time seen from
    gmres) and the unattributed remainder. ``check`` lists every violated
    invariant: a child outside its parent, a negative self time, or layer
    self times plus the remainder not summing to the repetition's duration.
    """
    metrics = {}
    for time_name, count_name, self_name in SPAN_METRICS.values():
        for name in (time_name, count_name, self_name):
            if name:
                metrics[name] = 0.0 if name.endswith("_s") else 0
    metrics["amg.setup_failures"] = 0
    metrics["krylov.prec_s"] = 0.0

    members = {root_index}
    child_time = {}
    problems = []
    for i in range(root_index + 1, len(spans)):
        name, start, end, parent, failed = spans[i]
        if parent not in members:
            continue
        members.add(i)
        p = spans[parent]
        if start < p[START] or end > p[END]:
            problems.append(f"span {name} lies outside its parent {p[NAME]}")
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    total = spans[root_index][END] - spans[root_index][START]
    self_sum = 0.0
    for i in sorted(members):
        name, start, end, parent, failed = spans[i]
        duration = end - start
        own = duration - child_time.get(i, 0.0)
        if own < -1e-9:
            problems.append(f"span {name} has negative self time {own:.3e} s")
        self_sum += own
        if i == root_index:
            metrics["trace.unattributed_s"] = own
            continue
        time_name, count_name, self_name = SPAN_METRICS[name]
        metrics[time_name] += duration
        if count_name:
            metrics[count_name] += 1
        if self_name:
            metrics[self_name] += own
        if name == "amg.setup" and failed:
            metrics["amg.setup_failures"] += 1
        if name == "precond.apply" and spans[parent][NAME] == "krylov.gmres":
            metrics["krylov.prec_s"] += duration
    if abs(self_sum - total) > 1e-9 * max(total, 1.0) + 1e-9:
        problems.append(f"self times sum to {self_sum!r} s, repetition took {total!r} s")
    metrics["trace.total_s"] = total
    metrics["trace.unattributed_frac"] = metrics["trace.unattributed_s"] / total
    return metrics, problems


def prep_times(spans):
    """Time metrics of spans recorded outside any repetition (preparation)."""
    out = {name: 0.0 for name in PREP_METRICS.values()}
    for name, start, end, parent, _ in spans:
        if parent == -1 and name in PREP_METRICS:
            out[PREP_METRICS[name]] += end - start
    return out
