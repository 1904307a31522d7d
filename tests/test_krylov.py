import errno
import functools
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import eye, poisson1d, random_spd_dense
from test_sparse import dense_lu_solve, exact_preconditioner
from mdsolve import krylov
from mdsolve.assembly import PhysicalParams, assemble, monolithic
from mdsolve.grids import build_cross_2d
from mdsolve.krylov import SolveConfig, SolveReport, _solve_upper, as_operator, gmres
from mdsolve.precond import build_preconditioner
from mdsolve.sparse import canonical


def test_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 0.5])
    report = gmres(eye(3), b)
    assert report.converged and report.iterations == 1
    assert np.abs(report.solution - b).max() < 1e-14


def test_zero_rhs_returns_zero_without_iterating():
    report = gmres(eye(4), np.zeros(4))
    assert report.converged and report.iterations == 0
    assert not report.solution.any()
    assert report.true_residual == 0.0


def test_a_start_already_within_tolerance_returns_without_iterating():
    # the zero start has relative residual 1.0, which rel_tol = 1.0 accepts
    def no_apply(x):
        raise AssertionError("the preconditioner was applied")

    report = gmres(poisson1d(5), np.ones(5), no_apply, SolveConfig(rel_tol=1.0))
    assert report.converged and report.iterations == 0
    assert report.residual_history.tolist() == [1.0]
    assert not report.solution.any() and report.true_residual == 1.0


def test_exact_lower_preconditioner_needs_at_most_two_iterations():
    sys_ = assemble(build_cross_2d(4), PhysicalParams(k_parallel=1e3, kappa=1e-2))
    a = monolithic(sys_)
    prec = exact_preconditioner(sys_, kind="ml")
    rng = np.random.default_rng(0)
    for trial in range(3):
        b = sys_.rhs if trial == 0 else rng.standard_normal(sys_.n_total)
        report = gmres(a, b, prec, SolveConfig(rel_tol=1e-12, max_iters=10))
        assert report.converged
        assert report.iterations <= 2
        assert report.true_residual <= 1e-10


def test_matches_dense_solver_on_spd_systems():
    rng = np.random.default_rng(1)
    a_dense = random_spd_dense(rng, 30)
    b = rng.standard_normal(30)
    report = gmres(canonical(a_dense), b, cfg=SolveConfig(rel_tol=1e-12))
    x_ref = dense_lu_solve(a_dense, b)
    assert np.abs(report.solution - x_ref).max() < 1e-8


def test_full_gmres_history_is_monotone():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    b = rng.standard_normal(40)
    report = gmres(canonical(a), b, cfg=SolveConfig(rel_tol=1e-10))
    hist = report.residual_history
    assert hist[0] == 1.0
    assert np.all(np.diff(hist) <= 1e-14)
    assert hist[-1] <= 1e-10


def test_results_are_deterministic():
    sys_ = assemble(build_cross_2d(8), PhysicalParams(kappa=1e4))
    a = monolithic(sys_)
    prec = build_preconditioner(sys_)
    r1 = gmres(a, sys_.rhs, prec)
    r2 = gmres(a, sys_.rhs, prec)
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.solution, r2.solution)
    assert np.array_equal(r1.residual_history, r2.residual_history)


def test_non_convergence_is_flagged_with_history():
    rng = np.random.default_rng(3)
    a = random_spd_dense(rng, 50)
    b = rng.standard_normal(50)
    report = gmres(canonical(a), b, cfg=SolveConfig(rel_tol=1e-14, max_iters=3))
    assert not report.converged
    assert report.iterations == 3
    assert len(report.residual_history) == 4


def test_restarted_gmres_still_converges():
    rng = np.random.default_rng(4)
    a = random_spd_dense(rng, 40)
    b = rng.standard_normal(40)
    full = gmres(canonical(a), b, cfg=SolveConfig(rel_tol=1e-8))
    restarted = gmres(
        canonical(a), b, cfg=SolveConfig(rel_tol=1e-8, restart=10, max_iters=400)
    )
    assert restarted.converged
    assert restarted.true_residual <= 1e-7
    assert restarted.iterations >= full.iterations


def test_operator_duck_typing_and_validation():
    b = np.ones(3)
    matvec = lambda v: 2.0 * v  # noqa: E731
    report = gmres(matvec, b, cfg=SolveConfig(rel_tol=1e-12))
    assert np.allclose(report.solution, 0.5)
    with pytest.raises(ValueError):
        gmres(eye(4), b)
    with pytest.raises(TypeError):
        gmres(object(), b)
    with pytest.raises(ValueError):
        gmres(eye(3), np.array([1.0, np.nan, 0.0]))


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(restart=0)


def test_solve_config_rejects_non_integer_counts():
    for name, value in (("max_iters", 10.0), ("max_iters", True), ("restart", 5.0),
                        ("restart", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolveConfig(**{name: value})
    cfg = SolveConfig(max_iters=np.int64(10), restart=np.int32(5))
    report = gmres(poisson1d(8), np.ones(8), cfg=cfg)
    assert report.converged


# -- conjugate gradient baseline ------------------------------------------------


def cg_reference(a, b: np.ndarray, cfg: SolveConfig | None = None) -> SolveReport:
    """Unpreconditioned conjugate gradients, the oracle for iteration count
    comparisons. Expects a symmetric positive definite operator."""
    cfg = cfg or SolveConfig()
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    apply_a = as_operator(a, n)
    t0 = time.perf_counter()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return SolveReport(
            converged=True,
            iterations=0,
            residual_history=np.array([0.0]),
            solution=np.zeros(n),
            true_residual=0.0,
            solve_seconds=time.perf_counter() - t0,
        )
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    history = [1.0]
    converged = False
    iterations = 0
    for _ in range(cfg.max_iters):
        ap = apply_a(p)
        alpha = rr / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        iterations += 1
        rel = np.linalg.norm(r) / b_norm
        history.append(rel)
        if rel <= cfg.rel_tol:
            converged = True
            break
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    true_res = np.linalg.norm(b - apply_a(x)) / b_norm
    return SolveReport(
        converged=converged,
        iterations=iterations,
        residual_history=np.asarray(history),
        solution=x,
        true_residual=float(true_res),
        solve_seconds=time.perf_counter() - t0,
    )


def test_cg_identity_one_iteration():
    report = cg_reference(eye(5), np.ones(5))
    assert report.converged and report.iterations == 1


def test_cg_zero_rhs():
    report = cg_reference(eye(5), np.zeros(5))
    assert report.converged and report.iterations == 0


def test_cg_iterations_grow_with_problem_size():
    counts = []
    for n in (16, 64):
        report = cg_reference(poisson1d(n), np.ones(n), SolveConfig(rel_tol=1e-8))
        assert report.converged
        counts.append(report.iterations)
    assert counts[1] > counts[0]


def test_cg_agrees_with_gmres_on_spd_systems():
    rng = np.random.default_rng(6)
    a = canonical(random_spd_dense(rng, 25))
    b = rng.standard_normal(25)
    cfg = SolveConfig(rel_tol=1e-10)
    x_cg = cg_reference(a, b, cfg).solution
    x_gm = gmres(a, b, cfg=cfg).solution
    assert np.abs(x_cg - x_gm).max() < 1e-6


# -- non-finite Arnoldi values ----------------------------------------------------


def test_nan_preconditioner_raises_at_the_first_iteration():
    sys_ = assemble(build_cross_2d(8), PhysicalParams())
    with pytest.raises(FloatingPointError, match=r"^gmres: .* not finite at iteration 1$"):
        gmres(monolithic(sys_), sys_.rhs, lambda v: np.full_like(v, np.nan))


def test_infinite_operator_raises_at_the_first_iteration():
    with pytest.raises(FloatingPointError, match=r"not finite at iteration 1$"), \
            np.errstate(invalid="ignore"):
        gmres(lambda v: np.full_like(v, np.inf), np.array([1.0, -2.0, 0.5]))


def test_non_finite_error_names_the_iteration_across_restarts():
    calls = []

    def prec(v):
        calls.append(1)
        return v * (np.nan if len(calls) == 4 else 1.0)

    rng = np.random.default_rng(7)
    a = canonical(random_spd_dense(rng, 12))
    with pytest.raises(FloatingPointError, match=r"not finite at iteration 4$"):
        gmres(a, rng.standard_normal(12), prec, SolveConfig(rel_tol=1e-14, restart=3))


# -- byte equality with the zero-initialised basis ----------------------------------


def _reference_gmres(a, b, m=None, cfg=None, bases=1):
    """The solver with a zero-filled basis and no finite check, kept as the
    oracle. ``bases=2`` is the two-basis loop the solver had before: it also
    stores Z = M V and updates with ``x += Z y`` instead of ``x += M(V y)``."""
    cfg = cfg or SolveConfig()
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    apply_a = as_operator(a, n)
    apply_m = as_operator(m, n)
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return SolveReport(converged=True, iterations=0, residual_history=np.array([0.0]),
                           solution=np.zeros(n), true_residual=0.0)
    x = np.zeros(n)
    history = [1.0]
    total_iters = 0
    converged = False
    cycle = cfg.max_iters if cfg.restart is None else cfg.restart
    while total_iters < cfg.max_iters and not converged:
        r = b - apply_a(x) if total_iters else b.copy()
        beta = np.linalg.norm(r)
        if beta / b_norm <= cfg.rel_tol:
            converged = True
            break
        steps = min(cycle, cfg.max_iters - total_iters)
        v = np.zeros((steps + 1, n))
        z = np.zeros((steps, n))
        h = np.zeros((steps + 1, steps))
        cs = np.zeros(steps)
        sn = np.zeros(steps)
        g = np.zeros(steps + 1)
        g[0] = beta
        v[0] = r / beta
        k_done = 0
        for k in range(steps):
            z[k] = apply_m(v[k])
            w = apply_a(z[k])
            for i in range(k + 1):
                h[i, k] = v[i] @ w
                w -= h[i, k] * v[i]
            h[k + 1, k] = np.linalg.norm(w)
            breakdown = h[k + 1, k] <= 1e-14 * max(beta, np.abs(h[: k + 1, k]).max())
            if not breakdown:
                v[k + 1] = w / h[k + 1, k]
            for i in range(k):
                hi = cs[i] * h[i, k] + sn[i] * h[i + 1, k]
                h[i + 1, k] = -sn[i] * h[i, k] + cs[i] * h[i + 1, k]
                h[i, k] = hi
            denom = np.hypot(h[k, k], h[k + 1, k])
            cs[k] = h[k, k] / denom
            sn[k] = h[k + 1, k] / denom
            h[k, k] = denom
            h[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total_iters += 1
            rel = np.abs(g[k + 1]) / b_norm
            history.append(rel)
            if rel <= cfg.rel_tol or breakdown:
                converged = rel <= cfg.rel_tol or breakdown
                break
        if k_done:
            y = _solve_upper(h[:k_done, :k_done], g[:k_done])
            x = x + (apply_m(v[:k_done].T @ y) if bases == 1 else z[:k_done].T @ y)
    true_res = np.linalg.norm(b - apply_a(x)) / b_norm
    return SolveReport(
        converged=bool(converged),
        iterations=total_iters,
        residual_history=np.asarray(history),
        solution=x,
        true_residual=float(true_res),
    )


@functools.lru_cache(maxsize=None)
def _block_case(kind, k_par, kappa):
    system = assemble(build_cross_2d(4), PhysicalParams(k_parallel=k_par, kappa=kappa))
    return monolithic(system), build_preconditioner(system, kind=kind), system.rhs


@st.composite
def gmres_cases(draw, restarts=st.none() | st.integers(1, 8)):
    """An operator, right-hand side, preconditioner and config for one solve."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["block", "spd", "nonsymmetric", "identity_like"]))
    preconditioners = []
    if shape == "block":
        a, block, b = _block_case(draw(st.sampled_from(["ml", "bu", "bd"])),
                                  *draw(st.sampled_from([(1.0, 1.0), (1e4, 1e-4), (1e-4, 1e4)])))
        n = a.shape[0]
        if draw(st.booleans()):
            b = b + rng.standard_normal(n)
        preconditioners.append(block)
    else:
        n = draw(st.integers(1, 60))
        if shape == "spd":
            a = canonical(random_spd_dense(rng, n))
        elif shape == "nonsymmetric":
            a = canonical(rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n))
        else:  # at most three distinct eigenvalues: a happy breakdown within three steps
            a = canonical(np.diag(rng.choice([1.0, 2.0, 3.0], size=n)))
        b = rng.standard_normal(n)
    d = rng.uniform(0.5, 2.0, size=n)
    preconditioners += [None, lambda v: v / d]
    m = draw(st.sampled_from(preconditioners))
    restart = draw(restarts)
    unconverged = draw(st.booleans())  # stops at max_iters unless it breaks down
    cfg = SolveConfig(
        rel_tol=1e-15 if unconverged else draw(st.sampled_from([1e-6, 1e-10, 1e-14])),
        max_iters=draw(st.integers(1, 5)) if unconverged else 200 if restart else 500,
        restart=restart,
    )
    return a, b, m, cfg


def _assert_same_report(report, expected):
    assert report.iterations == expected.iterations
    assert report.converged == expected.converged
    assert np.float64(report.true_residual).tobytes() == np.float64(expected.true_residual).tobytes()
    assert report.solution.tobytes() == expected.solution.tobytes()
    assert report.residual_history.dtype == expected.residual_history.dtype
    assert report.residual_history.tobytes() == expected.residual_history.tobytes()


@pytest.mark.parametrize("nan_rows", [False, True], ids=["numpy", "nan_filled_empty"])
@settings(max_examples=150, deadline=None)
@given(case=gmres_cases())
def test_gmres_matches_the_zero_filled_reference_byte_for_byte(nan_rows, case):
    a, b, m, cfg = case
    expected = _reference_gmres(a, b, m, cfg)
    reserved = []

    def nan_filled_rows(rows, n):  # an unwritten basis row that is read would spread NaN
        reserved.append(rows)
        return np.full((rows, n), np.nan)

    with pytest.MonkeyPatch.context() as mp:
        if nan_rows:
            mp.setattr(krylov, "_reserve_rows", nan_filled_rows)
        report = gmres(a, b, m, cfg)
    if nan_rows:
        assert reserved
    _assert_same_report(report, expected)


def _drawn_block_case(seed, kind, pair, diagonal_m):
    """The case :func:`gmres_cases` draws for a block system with a perturbed
    right-hand side, ``rel_tol`` 1e-14 and no restart; M is v / d or the
    block preconditioner."""
    rng = np.random.default_rng(seed)
    a, block, b = _block_case(kind, *pair)
    b = b + rng.standard_normal(len(b))
    d = rng.uniform(0.5, 2.0, size=len(b))
    m = (lambda v: v / d) if diagonal_m else block
    return a, b, m, SolveConfig(rel_tol=1e-14, max_iters=500)


@settings(max_examples=150, deadline=None)
@given(case=gmres_cases(restarts=st.none()))
# 46 iterations each; true residuals 3.35e-13 with one basis, 1.29e-13 with two
@example(case=_drawn_block_case(35033, "ml", (1e-4, 1e4), diagonal_m=True))
# 3 iterations each; true residuals 2.29e-13 and 8.2e-14, both at the rounding floor
@example(case=_drawn_block_case(272, "bu", (1e4, 1e-4), diagonal_m=False))
def test_one_basis_matches_the_two_basis_loop_up_to_the_update(case):
    a, b, m, cfg = case
    report = gmres(a, b, m, cfg)
    two = _reference_gmres(a, b, m, cfg, bases=2)
    assert report.iterations == two.iterations
    assert report.converged == two.converged
    assert report.residual_history.tobytes() == two.residual_history.tobytes()
    # M(V y) and Z y are one linear combination rounded two ways
    assert np.linalg.norm(report.solution - two.solution) <= 1e-12 * np.linalg.norm(two.solution)
    # where the reference attains rel_tol, so must the one-basis update up to
    # a factor; elsewhere the reference sits at its rounding floor, and the
    # one-basis floor lies above it by a factor that depends on the system
    # (1.3e-12 against 6.0e-15 on regular_3d n=8 at (1e-4, 1e4) with ml)
    if two.true_residual <= cfg.rel_tol:
        assert report.true_residual <= 10 * cfg.rel_tol



@pytest.mark.skipif(not hasattr(krylov.mmap, "MAP_PRIVATE"), reason="mmap takes no flags here")
def test_basis_rows_live_in_a_private_mapping():
    rows = krylov._reserve_rows(3, 1000)
    rows[0] = 1.0
    address = rows.ctypes.data
    # each line of /proc/self/maps is "lo-hi perms ...", perms ending in p(rivate) or s(hared)
    try:
        with open("/proc/self/maps") as f:
            maps = f.read().splitlines()
    except OSError:
        pytest.skip("no /proc/self/maps to read the mapping from")
    for line in maps:
        span, perms = line.split()[:2]
        lo, hi = (int(x, 16) for x in span.split("-"))
        if lo <= address < hi:
            assert perms.endswith("p"), line
            return
    pytest.fail("the basis rows lie in no mapping")


@pytest.mark.skipif(not hasattr(krylov.mmap, "MAP_PRIVATE"), reason="mmap takes no flags here")
def test_the_basis_is_reserved_without_committing_it(monkeypatch):
    calls = []

    def recording_mmap(fileno, length, **kwargs):
        calls.append((fileno, length, kwargs))
        return bytearray(length)

    monkeypatch.setattr(krylov.mmap, "mmap", recording_mmap)
    rows = krylov._reserve_rows(3, 4)
    assert rows.shape == (3, 4) and rows.dtype == np.float64
    noreserve = 0x4000 if krylov.sys.platform == "linux" else 0  # Linux's MAP_NORESERVE
    assert calls == [(-1, 96, {"flags": krylov.mmap.MAP_PRIVATE | noreserve})]


def test_a_refused_reservation_names_the_basis_and_restart(monkeypatch):
    def refusing_mmap(code):
        def mmap(fileno, length, **kwargs):
            raise OSError(code, os.strerror(code))
        return mmap

    monkeypatch.setattr(krylov.mmap, "mmap", refusing_mmap(errno.ENOMEM))
    with pytest.raises(MemoryError, match=r"^gmres: cannot reserve the Krylov basis of 501 rows "
                                          r"of n = 2246535 \(9004112280 bytes\); a smaller "
                                          r"restart reserves fewer rows$"):
        krylov._reserve_rows(501, 2_246_535)
    a = poisson1d(8)
    with pytest.raises(MemoryError, match=r"basis of 501 rows of n = 8 "):
        gmres(a, np.ones(8))
    with pytest.raises(MemoryError, match=r"basis of 6 rows of n = 8 "):
        gmres(a, np.ones(8), cfg=SolveConfig(restart=5))
    monkeypatch.setattr(krylov.mmap, "mmap", refusing_mmap(errno.EINVAL))  # not a lack of memory
    with pytest.raises(OSError) as exc:
        krylov._reserve_rows(3, 4)
    assert exc.type is OSError and exc.value.errno == errno.EINVAL
