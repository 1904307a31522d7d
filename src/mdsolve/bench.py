"""Parameter sweep harness.

Runs the geometry / mesh-size / permeability / preconditioner grid the way
the robustness studies in the literature tabulate GMRES iteration counts:
one row per parameter tuple, grids cached per mesh size, one preconditioner
set-up per assembled system shared by its kinds, every solve with a zero
initial guess and a relative residual stopping criterion. Individual tuple
failures are recorded in their row and do not abort the sweep.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .assembly import PhysicalParams, assemble, monolithic
from .grids import build_cross_2d, build_random_network_2d, build_regular_network_3d
from .krylov import SolveConfig, check_count, gmres
from .precond import KINDS, build_preconditioner
from .sysio import import_system

__all__ = [
    "GEOMETRIES", "TABLE_FORMATS", "SweepSpec", "SweepRow", "SweepResult", "build_grid",
    "sweep_systems", "run_sweep", "emit_table",
]

GEOMETRIES = ("cross_2d", "random_2d", "regular_3d", "imported")
TABLE_FORMATS = ("csv", "aligned-text", "markdown")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the cartesian product of mesh sizes, tangential and normal
    fracture permeabilities, and preconditioner kinds.

    ``mesh_sizes`` is the mesh refinement knob (cells per direction); on the
    matching grids this package builds it refines fractures and matrix
    together, so it doubles as the fracture-refinement parameter. For
    ``geometry="imported"`` set ``import_path``, a single placeholder mesh
    size and a single ``(K_par, kappa)`` pair: the imported system is fixed,
    so more values would only label identical solves differently.
    """

    geometry: str = "cross_2d"
    mesh_sizes: tuple = (16,)
    k_parallel_values: tuple = (1.0,)
    kappa_values: tuple = (1.0,)
    precond_kinds: tuple = ("ml",)
    matrix_permeability: float = 1.0
    num_fractures: int = 4
    num_planes: int = 3
    seed: int = 0
    import_path: str | None = None
    solver: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}, expected one of {GEOMETRIES}")
        for name in ("mesh_sizes", "k_parallel_values", "kappa_values", "precond_kinds"):
            if not len(getattr(self, name)):
                raise ValueError(f"{name} must be nonempty")
        for n in self.mesh_sizes:
            check_count("mesh_sizes", n)
        for name in ("num_fractures", "num_planes", "seed"):
            check_count(name, getattr(self, name))
        if any(n < 2 for n in self.mesh_sizes) and self.geometry != "imported":
            raise ValueError("mesh sizes must be at least 2")
        for name in ("k_parallel_values", "kappa_values", "matrix_permeability"):
            for v in np.ravel(getattr(self, name)):
                if not (np.isfinite(v) and v > 0):
                    raise ValueError(f"{name} must be positive and finite, got {float(v)}")
        unknown = [k for k in self.precond_kinds if k not in KINDS + ("none",)]
        if unknown:
            raise ValueError(f"unknown preconditioner kind {unknown[0]!r} in precond_kinds")
        if self.geometry == "imported":
            if not self.import_path:
                raise ValueError("geometry 'imported' has no grid and needs import_path")
            for name in ("mesh_sizes", "k_parallel_values", "kappa_values"):
                if len(getattr(self, name)) > 1:
                    raise ValueError(
                        f"geometry 'imported' takes a single {name} entry, the imported "
                        f"system does not depend on it"
                    )


@dataclass(kw_only=True)
class SweepRow:
    """One solve of a sweep, built by keyword in :func:`run_sweep`; the
    outcome fields keep their defaults until the set-up or solve fills them.

    ``setup_seconds`` is the preconditioner set-up time on the row that built
    it and 0.0 on rows that reused it: set-up is shared across the kinds of
    one ``(n, K_par, kappa)`` system. ``error`` holds the exception text of a
    failed set-up or solve, and is empty otherwise. ``history`` is the
    solve's residual history; ``FIELDS``, the table columns, are the others.
    """

    geometry: str
    n: int
    k_parallel: float
    kappa: float
    kind: str
    iterations: int = 0
    converged: bool = False
    residual: float = np.nan
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    n_omega: int
    n_gamma: int
    error: str = ""
    history: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def as_tuple(self):
        return tuple(getattr(self, f) for f in self.FIELDS)


SweepRow.FIELDS = tuple(f.name for f in fields(SweepRow) if f.name != "history")


@dataclass
class SweepResult:
    spec: SweepSpec
    rows: list


def build_grid(geometry: str, n: int, num_fractures: int, num_planes: int, seed: int):
    """The grid of a grid-backed geometry at mesh size ``n``.

    ``num_fractures`` and ``seed`` apply to ``random_2d``, ``num_planes`` to
    ``regular_3d``.
    """
    if geometry == "cross_2d":
        return build_cross_2d(n)
    if geometry == "random_2d":
        return build_random_network_2d(n, num_fractures, seed)
    if geometry == "regular_3d":
        return build_regular_network_3d(n, num_planes)
    raise ValueError(f"geometry {geometry!r} has no grid; an imported system works with "
                     f"assemble, solve, sweep, export and amg-stats, not generate")


def sweep_systems(spec: SweepSpec):
    """Yield ``(n, k_parallel, kappa, system)`` for each system of the sweep.

    The order is the sweep's: mesh size first, then K_par, then kappa. Each
    grid is built once per mesh size, and an imported system is read once
    (its spec holds a single tuple).
    """
    if spec.geometry == "imported":
        yield (spec.mesh_sizes[0], spec.k_parallel_values[0], spec.kappa_values[0],
               import_system(spec.import_path))
        return
    grids = {}
    for n in spec.mesh_sizes:
        if n not in grids:
            grids[n] = build_grid(spec.geometry, n, spec.num_fractures, spec.num_planes,
                                  spec.seed)
        for k_par in spec.k_parallel_values:
            for kappa in spec.kappa_values:
                params = PhysicalParams(
                    matrix_permeability=spec.matrix_permeability,
                    k_parallel=k_par,
                    kappa=kappa,
                )
                yield n, k_par, kappa, assemble(grids[n], params)


def _error_text(exc: Exception) -> str:
    """``<ExceptionType>: <message>``; any lack of memory reads ``MemoryError``."""
    kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return f"{kind}: {exc}"


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Execute the sweep; deterministic for identical specs and seeds.

    The preconditioner set-up (Schur complement and inner solves) is built
    once for each ``(n, K_par, kappa)`` system of :func:`sweep_systems`, at
    its first kind other than ``none``; every kind of that system solves with
    a view of it (:meth:`~mdsolve.precond.BlockPreconditioner.with_kind`). If
    that set-up raises, every preconditioned row of the system records the
    error and ``none`` rows still solve.
    """
    rows = []
    for n, k_par, kappa, system in sweep_systems(spec):
        operator, rhs = monolithic(system), system.rhs  # rhs is a new array on every read
        shared = None  # this system's preconditioner, or its set-up error text
        for kind in spec.precond_kinds:
            row = SweepRow(geometry=spec.geometry, n=n, k_parallel=k_par, kappa=kappa,
                           kind=kind, n_omega=system.n_omega, n_gamma=system.n_gamma)
            if kind != "none" and shared is None:
                t0 = time.perf_counter()
                try:
                    shared = build_preconditioner(system, kind=kind)
                    row.setup_seconds = time.perf_counter() - t0
                except Exception as exc:  # fails every preconditioned kind alike
                    shared = _error_text(exc)
            if kind != "none" and isinstance(shared, str):
                row.error = shared
            else:
                try:
                    prec = None if kind == "none" else shared.with_kind(kind)
                    report = gmres(operator, rhs, prec, spec.solver)
                    row.iterations = report.iterations
                    row.converged = report.converged
                    row.residual = report.true_residual
                    row.solve_seconds = report.solve_seconds
                    row.history = report.residual_history
                except Exception as exc:  # keep sweeping, record the failure
                    row.error = _error_text(exc)
            rows.append(row)
    return SweepResult(spec=spec, rows=rows)


def _format_value(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if np.isnan(v):
            return "nan"
        return f"{v:.3e}" if (abs(v) < 1e-3 or abs(v) >= 1e4) and v != 0 else f"{v:.4g}"
    return str(v)


def emit_table(result: SweepResult, fmt: str = "aligned-text") -> str:
    """Render a sweep as csv, aligned-text, or markdown.

    The first two dump every row, one column per :attr:`SweepRow.FIELDS`
    entry. csv is lossless: a float cell, numpy floats included, is the
    ``repr`` of the Python float, so ``float()`` reads it back exactly.
    aligned-text rounds floats to 4 significant digits and pads each column
    to its widest cell, header included. Markdown pivots iteration counts
    into one column per mesh size, one row per parameter pair and
    preconditioner kind, the way robustness tables are usually typeset;
    unconverged entries are starred and failed ones read ``fail``.
    """
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(SweepRow.FIELDS)
        writer.writerows([repr(float(v)) if isinstance(v, float) else _format_value(v)
                          for v in row.as_tuple()] for row in result.rows)
        return out.getvalue()
    if fmt == "aligned-text":
        table = [SweepRow.FIELDS, *([_format_value(v) for v in row.as_tuple()]
                                    for row in result.rows)]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n"
                       for r in table)
    if fmt == "markdown":
        return _emit_markdown(result)
    raise ValueError(f"unknown table format {fmt!r}, expected one of {TABLE_FORMATS}")


def _emit_markdown(result: SweepResult) -> str:
    sizes = list(dict.fromkeys(row.n for row in result.rows))
    cells = {}  # (K_par, kappa, kind) -> {n: mark}, in first-seen order
    for row in result.rows:
        mark = str(row.iterations) if row.converged else (
            "fail" if row.error else f"{row.iterations}*"
        )
        cells.setdefault((row.k_parallel, row.kappa, row.kind), {})[row.n] = mark
    header = ["K_par", "kappa", "precond"] + [f"n={n}" for n in sizes]
    body = [[_format_value(k_par), _format_value(kappa), kind] + [marks.get(n, "") for n in sizes]
            for (k_par, kappa, kind), marks in cells.items()]
    return "".join("| " + " | ".join(r) + " |\n" for r in [header, ["---"] * len(header), *body])
