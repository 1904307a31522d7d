"""The benchmark's workloads and the correctness checks on their solves.

Each workload is a fixed list of solve cases generated from the seed.
``prepare`` runs once per benchmark run and writes what the repetitions
read; ``load`` reads it before a repetition's timed part; ``run`` is the
timed part. It runs every case once, serially, through :class:`Calls`,
which holds the public mdsolve functions (wrapped in spans when traced) and
keeps what each ``gmres`` call returned, so the cases can be checked after
the timed part. A case that raises, does not converge or fails a check
counts as failed; nothing is skipped or retried.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

import mdsolve as md
import mdsolve.bench
import mdsolve.precond

from tracing import patched

SOLVER = md.SolveConfig()  # rel_tol 1e-6, full GMRES (restart=None), max_iters 500
# The true residual may exceed GMRES's recurrence estimate by rounding.
RESIDUAL_FACTOR = 10.0
# Slack on the residual-implied error bound against a direct solve, for the
# condition number estimate and rounding in the direct solve.
DIRECT_FACTOR = 10.0
DECADES = (1e-4, 1.0, 1e4)


@dataclass
class Solve:
    """One ``gmres`` call: its inputs, report and the preconditioner's AMG stats."""

    operator: md.CsrMatrix
    rhs: np.ndarray
    cfg: md.SolveConfig
    report: md.SolveReport
    amg: dict  # block name -> AmgHierarchy.stats()


@dataclass
class Case:
    label: str
    dofs: int = 0
    direct: bool = False  # also compared with a direct solve (first repetition)
    error: str = ""  # exception raised by the program
    solve: Solve | None = None
    residual: float = float("nan")  # true relative residual, recomputed here
    direct_error: float = float("nan")  # 1-norm relative error vs the direct solve
    cond: float = float("nan")  # estimated 1-norm condition number of the operator
    check: str = ""  # a failed correctness check

    @property
    def status(self) -> str:
        if self.error:
            return "error"
        if self.check:
            return "wrong"
        if not self.solve.report.converged:
            return "unconverged"
        return "ok"

    @property
    def iterations(self) -> int:
        return self.solve.report.iterations if self.solve else 0

    def record(self) -> dict:
        return {"label": self.label, "status": self.status, "dofs": self.dofs,
                "iterations": self.iterations, "residual": self.residual,
                "direct_error": self.direct_error, "cond": self.cond, "error": self.error,
                "check": self.check, "amg": self.solve.amg if self.solve else {}}


class Calls:
    """The public mdsolve calls of one repetition (or of the preparation).

    With a tracer each call is wrapped in a span, and the module attributes
    that ``mdsolve.bench.run_sweep`` and ``mdsolve.precond`` look up are
    replaced inside :meth:`inside`. Without one only ``gmres`` and
    ``monolithic`` are wrapped, to time the solves (CPU seconds) and keep
    their results and operator sizes.
    """

    def __init__(self, tracer=None):
        wrap = tracer.wrap if tracer is not None else (lambda _name, fn: fn)
        self._wrap = wrap
        self.traced = tracer is not None
        self.build_random_network_2d = wrap("grids.build", md.build_random_network_2d)
        self.build_regular_network_3d = wrap("grids.build", md.build_regular_network_3d)
        self.assemble = wrap("assembly.assemble", md.assemble)
        self._monolithic = wrap("assembly.monolithic", md.monolithic)
        self.export_system = wrap("sysio.export", md.export_system)
        self.import_system = wrap("sysio.import", md.import_system)
        self.build_preconditioner = wrap("precond.setup", md.build_preconditioner)
        self.run_sweep = wrap("bench.sweep", md.run_sweep)
        self._gmres = wrap("krylov.gmres", md.gmres)
        self.solves = []
        self.solve_s = 0.0
        self.nnz = 0
        self._internal = [
            (mdsolve.bench, "build_random_network_2d", self.build_random_network_2d),
            (mdsolve.bench, "assemble", self.assemble),
            (mdsolve.bench, "monolithic", self.monolithic),
            (mdsolve.bench, "build_preconditioner", self.build_preconditioner),
            (mdsolve.bench, "gmres", self.gmres),
        ]
        if self.traced:
            self._internal += [
                (mdsolve.precond, "approx_schur", wrap("precond.schur", md.approx_schur)),
                (mdsolve.precond, "amg_setup", wrap("amg.setup", md.amg_setup)),
                (mdsolve.precond, "apply_preconditioner_vcycle",
                 wrap("amg.vcycle", md.apply_preconditioner_vcycle)),
            ]

    def inside(self):
        """Route mdsolve's own calls to the public functions through these."""
        return patched(self._internal)

    def monolithic(self, system):
        operator = self._monolithic(system)
        self.nnz += operator.nnz
        return operator

    def gmres(self, a, b, m=None, cfg=None):
        op, prec = a, m
        if self.traced:
            mat = a.to_scipy()
            op = self._wrap("krylov.matvec", lambda v: mat @ v)
            prec = self._wrap("precond.apply", m.apply)
        t0 = time.process_time()
        report = self._gmres(op, b, prec, cfg)
        self.solve_s += time.process_time() - t0
        amg = {name: h.stats() for name, h in m.hierarchies().items()}
        self.solves.append(Solve(a, b, cfg or md.SolveConfig(), report, amg))
        return report


class Workload:
    seed_use = ""

    def __init__(self, seed, workdir):
        self.seed, self.workdir = seed, workdir

    def prepare(self, calls):
        """Once per benchmark run, untimed: write the repetitions' inputs."""

    def load(self):
        """In each repetition's process, untimed: read the prepared inputs."""

    def run(self, calls) -> list:
        raise NotImplementedError


class Sweep2d(Workload):
    """The robustness table through ``run_sweep``: 81 solves, set-up heavy.

    The networks are fixed, for the reason given at :class:`ManyRhs2d`:
    over network seeds 1-10 the iteration total of the sweep at n = 32, 64
    and 128 ranged from 965 to 1412, so a seeded network would make the
    run-to-run spread measure the network.
    The seed drives a random Omega-block source added to the right-hand
    side of each of the 27 assembled systems. The mesh sizes keep a
    repetition near 5 CPU seconds, so that a run takes the median of several.
    """

    name = "sweep_2d"
    seed_use = ("seed drives the sources added to the 27 right-hand sides; "
                "the random_2d networks are fixed (network seed 0)")
    NETWORK_SEED = 0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.spec = md.SweepSpec(
            geometry="random_2d", mesh_sizes=(16, 32, 64),
            k_parallel_values=DECADES, kappa_values=DECADES,
            precond_kinds=("ml", "bu", "bd"), num_fractures=20, seed=self.NETWORK_SEED,
            solver=SOLVER,
        )

    def run(self, calls):
        rng = np.random.default_rng(self.seed)

        def assemble_with_source(grid, params):
            system = calls.assemble(grid, params)
            source = rng.standard_normal(system.n_omega)
            return dataclasses.replace(system, rhs_omega=system.rhs_omega + source)

        with patched([(mdsolve.bench, "assemble", assemble_with_source)]):
            result = calls.run_sweep(self.spec)
        # a row without an error is exactly a gmres call that returned
        solves = iter(calls.solves)
        smallest = min(self.spec.mesh_sizes)
        return [
            Case(f"n={r.n} K_par={r.k_parallel:g} kappa={r.kappa:g} {r.kind}",
                 dofs=r.n_omega + r.n_gamma, direct=r.n == smallest, error=r.error,
                 solve=None if r.error else next(solves))
            for r in result.rows
        ]


class ManyRhs2d(Workload):
    """One imported system, one ``ml`` set-up, 30 solves: apply heavy.

    The network is fixed. At (K_par, kappa) = (1e4, 1e-4) the iteration
    count of one solve depends on the network in two modes (6 against 9-14
    per solve over network seeds 0-15), and all 30 solves share one
    network, so a seeded network would make the run-to-run spread measure
    the network rather than the program. The seed drives the sources.
    """

    name = "many_rhs_2d"
    seed_use = "seed drives the 30 sources; the random_2d network is fixed (network seed 0)"
    N, FRACTURES, NETWORK_SEED, SOLVES = 256, 40, 0, 30

    def prepare(self, calls):
        grid = calls.build_random_network_2d(self.N, self.FRACTURES, self.NETWORK_SEED)
        system = calls.assemble(grid, md.PhysicalParams(k_parallel=1e4, kappa=1e-4))
        calls.export_system(system, self.workdir / "system")
        rng = np.random.default_rng(self.seed)
        rhs = np.tile(system.rhs, (self.SOLVES, 1))
        rhs[:, : system.n_omega] += rng.standard_normal((self.SOLVES, system.n_omega))
        np.save(self.workdir / "rhs.npy", rhs)

    def load(self):
        self.rhs = np.load(self.workdir / "rhs.npy")

    def run(self, calls):
        dofs = self.rhs.shape[1]
        cases = [Case(f"rhs {k}", dofs=dofs, direct=k == 0) for k in range(self.SOLVES)]
        try:
            system = calls.import_system(self.workdir / "system")
            operator = calls.monolithic(system)
            prec = calls.build_preconditioner(system, kind="ml")
        except Exception as exc:  # every solve of this repetition fails with it
            for case in cases:
                case.error = f"{type(exc).__name__}: {exc}"
            return cases
        for case, b in zip(cases, self.rhs):
            try:
                calls.gmres(operator, b, prec, SOLVER)
                case.solve = calls.solves[-1]
            except Exception as exc:
                case.error = f"{type(exc).__name__}: {exc}"
        return cases


class Solve3d(Workload):
    """regular_3d, 3 planes, one grid per case: grid, assembly and AMG at scale.

    n = 28 and 36 at (1e4, 1e-4) raise SingularMatrixError in amg_setup. The
    sizes keep a repetition near 8 CPU seconds.
    """

    name = "solve_3d"
    seed_use = "solve_3d does not depend on the seed: regular_3d has no random input"
    CASES = tuple((n, kp, ka) for n in (20, 28, 36) for kp, ka in ((1.0, 1.0), (1e4, 1e-4)))

    def run(self, calls):
        return [self._case(calls, n, kp, ka) for n, kp, ka in self.CASES]

    @staticmethod
    def _case(calls, n, k_par, kappa):
        # one function per case, so its system and preconditioner are freed
        # before the next case builds its own
        case = Case(f"n={n} K_par={k_par:g} kappa={kappa:g} ml", direct=n == 20)
        try:
            grid = calls.build_regular_network_3d(n, 3)
            system = calls.assemble(grid, md.PhysicalParams(k_parallel=k_par, kappa=kappa))
            case.dofs = system.n_total
            operator = calls.monolithic(system)
            prec = calls.build_preconditioner(system, kind="ml")
            calls.gmres(operator, system.rhs, prec, SOLVER)
            case.solve = calls.solves[-1]
        except Exception as exc:
            case.error = f"{type(exc).__name__}: {exc}"
        return case


WORKLOADS = {w.name: w for w in (Sweep2d, ManyRhs2d, Solve3d)}


def check(cases, with_direct):
    """Recompute every returned solve's true residual; on request also
    compare the cases marked ``direct`` with a direct sparse solve.

    The direct comparison allows what the residual guarantees: in the 1-norm
    the relative error is at most cond(A) times the relative residual, with
    ``||A^-1||`` estimated from the LU factors, times ``DIRECT_FACTOR``.
    """
    factors = {}  # operators shared by several cases are factored once
    for case in cases:
        if case.solve is None:
            continue
        s = case.solve
        a = s.operator.to_scipy()
        x = s.report.solution
        case.residual = float(np.linalg.norm(s.rhs - a @ x) / np.linalg.norm(s.rhs))
        limit = s.cfg.rel_tol * RESIDUAL_FACTOR
        if s.report.converged and not case.residual <= limit:
            case.check = f"true residual {case.residual:.3e} above {limit:.1e}"
        if not (with_direct and case.direct and s.report.converged):
            continue
        if id(s.operator) not in factors:
            # monolithic(system) is symmetric quasi-definite (A_oo positive,
            # A_gg negative definite), so symmetric-mode LU needs no pivoting
            lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
            inverse = spla.LinearOperator(a.shape, matvec=lu.solve,
                                          rmatvec=lambda v, lu=lu: lu.solve(v, trans="T"),
                                          dtype=float)
            np.random.seed(0)  # onenormest draws random sign vectors
            cond = abs(a).sum(axis=0).max() * spla.onenormest(inverse)
            factors[id(s.operator)] = (lu, cond)
        lu, case.cond = factors[id(s.operator)]
        exact = lu.solve(s.rhs)
        case.direct_error = float(np.linalg.norm(x - exact, 1) / np.linalg.norm(exact, 1))
        residual_1 = np.linalg.norm(s.rhs - a @ x, 1) / np.linalg.norm(s.rhs, 1)
        limit = DIRECT_FACTOR * case.cond * max(residual_1, np.finfo(float).eps)
        if not case.direct_error <= limit:
            case.check = (f"relative error {case.direct_error:.3e} against a direct solve "
                          f"above {limit:.3e} = {DIRECT_FACTOR:g} cond_1 residual_1")


def amg_counts(cases):
    """Computed AMG and GMRES-basis counts over the returned solves.

    The coarse dense LU holds 8 n_c^2 bytes. With ``restart=None`` gmres
    allocates a (max_iters+1) x n basis and a max_iters x n preconditioned
    copy up front, (2 max_iters + 1) n 8 bytes, of which (2 k + 1) n 8 are
    touched after k iterations.
    """
    out = {"amg.levels_max": 0, "amg.coarsest_n_max": 0,
           "amg.operator_complexity_max": 0.0, "amg.grid_complexity_max": 0.0,
           "amg.coarse_lu_mb_max": 0.0, "krylov.basis_mb_alloc": 0.0,
           "krylov.basis_mb_touched": 0.0}
    mib = float(2**20)
    for case in cases:
        if case.solve is None:
            continue
        s = case.solve
        for stats in s.amg.values():
            coarsest = stats["levels"][-1]["n"] if stats["mode"] == "multilevel" else 0
            out["amg.levels_max"] = max(out["amg.levels_max"], len(stats["levels"]))
            out["amg.coarsest_n_max"] = max(out["amg.coarsest_n_max"], coarsest)
            out["amg.operator_complexity_max"] = max(out["amg.operator_complexity_max"],
                                                     stats["operator_complexity"])
            out["amg.grid_complexity_max"] = max(out["amg.grid_complexity_max"],
                                                 stats["grid_complexity"])
            out["amg.coarse_lu_mb_max"] = max(out["amg.coarse_lu_mb_max"], 8 * coarsest**2 / mib)
        n = len(s.rhs)
        steps = s.cfg.max_iters if s.cfg.restart is None else s.cfg.restart
        k = min(s.report.iterations, steps)
        out["krylov.basis_mb_alloc"] = max(out["krylov.basis_mb_alloc"], (2 * steps + 1) * n * 8 / mib)
        out["krylov.basis_mb_touched"] = max(out["krylov.basis_mb_touched"], (2 * k + 1) * n * 8 / mib)
    return out
