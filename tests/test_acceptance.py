"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np
import scipy.sparse.linalg as spla

from conftest import level_operators, poisson2d
from test_sparse import dense_lu_solve, exact_preconditioner, exact_schur, factorization_factors
from mdsolve.assembly import PhysicalParams, assemble, monolithic
from mdsolve.bench import SweepSpec, run_sweep
from mdsolve.grids import (
    BoundaryConfig,
    build_cross_2d,
    build_random_network_2d,
    build_regular_network_3d,
)
from mdsolve.krylov import SolveConfig, gmres
from mdsolve.precond import approx_schur
from mdsolve.sparse import canonical, csr_equal
from mdsolve.sysio import export_system, import_system
from mdsolve.amg import amg_setup, v_cycle


def report(number, name, ok, detail):
    print(f"[acceptance] {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def oracle_sized_systems():
    """Assembled systems of at most 200 dofs with varied parameters."""
    return [
        assemble(build_cross_2d(2), PhysicalParams()),
        assemble(build_cross_2d(4), PhysicalParams(k_parallel=1e4, kappa=1e-4)),
        assemble(build_cross_2d(4), PhysicalParams(k_parallel=1e-4, kappa=1e4)),
        assemble(build_random_network_2d(6, 3, seed=0), PhysicalParams(kappa=100.0)),
        assemble(build_regular_network_3d(2, 3), PhysicalParams(k_parallel=0.01)),
    ]


def test_criterion_1_exact_factorization_identity():
    t0 = time.perf_counter()
    systems = oracle_sized_systems()
    worst = 0.0
    for system in systems:
        assert system.n_total <= 200
        u, d, lo = factorization_factors(system)
        mono = monolithic(system).toarray()
        rel = np.linalg.norm(u @ d @ lo - mono) / np.linalg.norm(mono)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    assert report(
        1, "exact-factorization-identity", ok,
        f"{len(systems)} systems, max rel Frobenius error {worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_two_iteration_property():
    # the 1e-12 true-residual check needs systems whose conditioning leaves
    # that magnitude representable in doubles (kappa(A) well below 1e4);
    # parameter extremes are exercised separately at the solver criterion
    rng = np.random.default_rng(0)
    tested = [
        assemble(build_cross_2d(2), PhysicalParams()),
        assemble(build_cross_2d(4), PhysicalParams()),
        assemble(build_cross_2d(4), PhysicalParams(k_parallel=4.0, kappa=0.25)),
        assemble(build_random_network_2d(6, 3, seed=0), PhysicalParams()),
        assemble(build_regular_network_3d(2, 3), PhysicalParams()),
    ]
    worst_iters = 0
    worst_res = 0.0
    count = 0
    for system in tested:
        a = monolithic(system)
        prec = exact_preconditioner(system, kind="ml")
        for b in (system.rhs, rng.standard_normal(system.n_total)):
            if not np.linalg.norm(b):
                b = rng.standard_normal(system.n_total)
            rep = gmres(a, b, prec, SolveConfig(rel_tol=1e-12, max_iters=10))
            count += 1
            worst_iters = max(worst_iters, rep.iterations)
            worst_res = max(worst_res, rep.true_residual)
    # at extreme contrast, kappa(A) ~ 1e8 puts the attainable residual floor
    # near eps*kappa(A) ~ 1e-8; the two-step property still shows at the
    # benchmark tolerance
    extreme = assemble(build_cross_2d(4), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    prec = exact_preconditioner(extreme, kind="ml")
    rep = gmres(monolithic(extreme), rng.standard_normal(extreme.n_total), prec,
                SolveConfig(rel_tol=1e-6, max_iters=10))
    extreme_ok = rep.converged and rep.iterations <= 2
    ok = worst_iters <= 2 and worst_res <= 1e-12 and extreme_ok
    assert report(
        2, "two-iteration-property", ok,
        f"{count} solves, max iterations {worst_iters}, max residual {worst_res:.2e}; "
        f"extreme-contrast system done in {rep.iterations} at 1e-6"
    )


def test_criterion_3_schur_consistency():
    grids = [
        (build_cross_2d(4), dict()),
        (build_cross_2d(8), dict(k_parallel=1e4, kappa=1e-4)),
        (build_cross_2d(8), dict(k_parallel=1e-4, kappa=1e4)),
        (build_random_network_2d(8, 4, seed=1), dict(kappa=1e4)),
        (build_regular_network_3d(4, 3), dict()),
    ]
    worst = 0.0
    for grid, params in grids:
        system = assemble(grid, PhysicalParams(**params))
        exact = exact_schur(system)
        approx = approx_schur(system).toarray()
        scale = max(np.abs(exact).max(), 1.0)
        worst = max(worst, np.abs(approx - exact).max() / scale)
    ok = worst <= 1e-12
    assert report(
        3, "schur-consistency-on-matching-grids", ok,
        f"{len(grids)} systems, max entrywise deviation {worst:.2e} of scale"
    )


def test_criterion_4_robustness_sweep_2d():
    values = (1e-4, 1.0, 1e4)
    t0 = time.perf_counter()
    result = run_sweep(
        SweepSpec(
            geometry="cross_2d",
            mesh_sizes=(16, 32, 64),
            k_parallel_values=values,
            kappa_values=values,
            precond_kinds=("ml",),
            solver=SolveConfig(rel_tol=1e-6),
        )
    )
    elapsed = time.perf_counter() - t0
    assert len(result.rows) == 27
    all_converged = all(r.converged for r in result.rows)
    max_iters = max(r.iterations for r in result.rows)
    max16 = max(r.iterations for r in result.rows if r.n == 16)
    max64 = max(r.iterations for r in result.rows if r.n == 64)
    mesh_robust = max64 <= 1.6 * max16
    ok = all_converged and max_iters <= 60 and mesh_robust and elapsed < 120.0
    assert report(
        4, "robustness-sweep-2d", ok,
        f"27 tuples, converged {all_converged}, max iters {max_iters}, "
        f"n=64/n=16 ratio {max64 / max16:.2f}, {elapsed:.1f}s"
    )


def test_criterion_5_robustness_sweep_3d():
    values = (1e-4, 1.0, 1e4)
    t0 = time.perf_counter()
    result = run_sweep(
        SweepSpec(
            geometry="regular_3d",
            num_planes=3,
            mesh_sizes=(8, 16, 32),
            k_parallel_values=values,
            kappa_values=values,
            precond_kinds=("ml",),
            solver=SolveConfig(rel_tol=1e-6),
        )
    )
    elapsed = time.perf_counter() - t0
    assert len(result.rows) == 27
    all_converged = all(r.converged for r in result.rows)
    max_iters = max(r.iterations for r in result.rows)
    ok = all_converged and max_iters <= 80 and elapsed < 300.0
    assert report(
        5, "robustness-sweep-3d", ok,
        f"27 tuples, converged {all_converged}, max iters {max_iters}, {elapsed:.1f}s"
    )


def test_criterion_6_amg_quality():
    a = poisson2d(64, 64)
    h = amg_setup(a)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(a.shape[0])
    x_star = spla.spsolve(a.tocsc(), b)
    x = np.zeros_like(b)
    worst_factor = 0.0
    previous = None
    for _ in range(10):
        x = v_cycle(h, b, x)
        e = x_star - x
        norm = np.sqrt(e @ (a @ e))
        if previous is not None and previous > 0:
            worst_factor = max(worst_factor, norm / previous)
        previous = norm
    galerkin = 0.0
    for small in (poisson2d(16, 16), poisson2d(32, 32), approx_schur(
        assemble(build_cross_2d(16), PhysicalParams())
    )):
        hier = amg_setup(small)
        ops = level_operators(small, hier)
        for fine, fine_a, coarse_a in zip(hier.levels[:-1], ops[:-1], ops[1:]):
            p = fine.p
            diff = np.abs((p.T @ fine_a @ p).toarray() - coarse_a.toarray()).max()
            galerkin = max(galerkin, diff)
    ok = worst_factor <= 0.5 and galerkin <= 1e-12
    assert report(
        6, "amg-quality", ok,
        f"worst contraction factor {worst_factor:.3f}, "
        f"worst Galerkin deviation {galerkin:.2e}"
    )


def test_criterion_7_gmres_correctness():
    rng = np.random.default_rng(2)
    worst_err = 0.0
    monotone = True
    for trial in range(20):
        n = int(rng.integers(10, 101))
        base = rng.standard_normal((n, n))
        a = base @ base.T + n * np.eye(n) if trial % 2 else base + n * np.eye(n)
        b = rng.standard_normal(n)
        rep = gmres(canonical(a), b, cfg=SolveConfig(rel_tol=1e-12, max_iters=200))
        x_ref = dense_lu_solve(a, b)
        scale = max(np.abs(x_ref).max(), 1.0)
        worst_err = max(worst_err, np.abs(rep.solution - x_ref).max() / scale)
        monotone &= bool(np.all(np.diff(rep.residual_history) <= 1e-14))
    ok = worst_err <= 1e-8 and monotone
    assert report(
        7, "gmres-correctness", ok,
        f"20 systems, max solution deviation {worst_err:.2e}, history monotone {monotone}"
    )


def test_criterion_8_structure_invariants():
    systems = oracle_sized_systems() + [
        assemble(build_cross_2d(16), PhysicalParams(k_parallel=1e4, kappa=1e4)),
        assemble(build_cross_2d(32), PhysicalParams()),
        assemble(build_regular_network_3d(4, 3), PhysicalParams(kappa=1e-4)),
        assemble(build_random_network_2d(16, 6, seed=3), PhysicalParams()),
    ]
    transpose_exact = all(
        csr_equal(s.a_omega_gamma, s.a_gamma_omega.T.tocsr()) for s in systems
    )
    neumann = BoundaryConfig(dirichlet_axis=None)
    worst_null = 0.0
    for grid in (
        build_cross_2d(2, bc=neumann),
        build_cross_2d(8, bc=neumann),
        build_random_network_2d(8, 4, seed=4, bc=neumann),
        build_regular_network_3d(4, 3, bc=neumann),
    ):
        system = assemble(grid, PhysicalParams())
        a = monolithic(system)
        v = np.concatenate([np.ones(system.n_omega), np.zeros(system.n_gamma)])
        scale = np.abs(a.data).max()
        worst_null = max(worst_null, np.abs(a @ v).max() / scale)
    ok = transpose_exact and worst_null <= 1e-12
    assert report(
        8, "structure-invariants", ok,
        f"{len(systems)} transpose checks exact {transpose_exact}, "
        f"max nullspace residual {worst_null:.2e} of scale"
    )


def test_criterion_9_io_round_trip(tmp_path):
    cases = [
        ("cross", assemble(build_cross_2d(4), PhysicalParams(kappa=1e-4))),
        ("random", assemble(build_random_network_2d(8, 5, seed=5), PhysicalParams())),
        ("threedee", assemble(build_regular_network_3d(4, 3),
                              PhysicalParams(k_parallel=1e4))),
    ]
    identical = True
    for name, system in cases:
        target = tmp_path / name
        export_system(system, target)
        back = import_system(target)
        identical &= (
            csr_equal(back.a_omega_omega, system.a_omega_omega)
            and csr_equal(back.a_omega_gamma, system.a_omega_gamma)
            and csr_equal(back.a_gamma_omega, system.a_gamma_omega)
            and csr_equal(back.a_gamma_gamma, system.a_gamma_gamma)
            and np.array_equal(back.rhs_omega, system.rhs_omega)
            and np.array_equal(back.rhs_gamma, system.rhs_gamma)
            and back.partition == system.partition
        )
    assert report(
        9, "io-round-trip", identical,
        f"{len(cases)} systems exported and re-imported entrywise identical"
    )
