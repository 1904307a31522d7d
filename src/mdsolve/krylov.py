"""Krylov solver: right-preconditioned GMRES.

GMRES runs Arnoldi with modified Gram-Schmidt on the right-preconditioned
operator, a zero initial guess, and Givens rotations for the least-squares
update. With right preconditioning the recurrence residual estimates the
true residual of the original system, so the iteration stops on the
preconditioned-system criterion and a single true-residual check is reported
at the end. The preconditioner must be a fixed linear operator, as every
preconditioner the package builds is: only the Arnoldi basis V is stored, and
each cycle ends with one more preconditioner apply, ``x += M(V y)``.
"""

from __future__ import annotations

import mmap
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

__all__ = ["SolveConfig", "SolveReport", "as_operator", "gmres"]


@dataclass(frozen=True)
class SolveConfig:
    """Stopping criteria for a Krylov solve."""

    rel_tol: float = 1e-6
    max_iters: int = 500
    restart: int | None = None  # None = full (non-restarted) GMRES

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.restart is not None and self.restart < 1:
            raise ValueError(f"restart must be at least 1, got {self.restart}")


@dataclass
class SolveReport:
    """Outcome of one solve.

    ``residual_history`` holds relative residuals per accepted iteration
    (recurrence estimates for GMRES); ``true_residual`` is the explicitly
    recomputed relative residual of the returned solution.
    """

    converged: bool
    iterations: int
    residual_history: np.ndarray
    solution: np.ndarray
    true_residual: float
    solve_seconds: float = 0.0


def as_operator(obj, n: int):
    """Coerce a matrix / preconditioner / callable into a matvec callable."""
    if obj is None:
        return lambda v: v.copy()
    if sp.issparse(obj):
        if obj.shape != (n, n):
            raise ValueError(f"operator shape {obj.shape} does not match system size {n}")
        return lambda v: obj @ v
    if hasattr(obj, "apply"):
        return obj.apply
    if callable(obj):
        return obj
    raise TypeError(f"cannot interpret {type(obj).__name__} as a linear operator")


# mmap's default anonymous mapping is shared (shmem-backed) on POSIX, and its
# first-touch page faults cost more than a private one's; Windows' takes no flags
_PRIVATE = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _reserve_rows(rows: int, n: int) -> np.ndarray:
    """An uninitialised float64 ``(rows, n)`` array in its own private anonymous mapping.

    Only the pages of rows that are written become resident, and the mapping
    goes back to the OS when the array is released, whatever the C heap keeps.
    """
    buffer = mmap.mmap(-1, rows * n * 8, **_PRIVATE)
    return np.frombuffer(buffer, dtype=np.float64).reshape(rows, n)


def _solve_upper(r: np.ndarray, g: np.ndarray) -> np.ndarray:
    return scipy.linalg.solve_triangular(r, g, lower=False, check_finite=False)


def gmres(a, b: np.ndarray, m=None, cfg: SolveConfig | None = None) -> SolveReport:
    """Right-preconditioned GMRES with a zero initial guess.

    Parameters
    ----------
    a : sparse matrix, callable or object with ``apply``
        The system operator; must be a fixed linear operator.
    b : ndarray
        Right-hand side.
    m : optional
        Right preconditioner, same duck typing as ``a``; identity if None.
        Must be a fixed linear operator: the solution is rebuilt from the
        unpreconditioned basis, so a preconditioner that changes between
        applies (flexible GMRES) is not supported.
    cfg : SolveConfig, optional

    Raises
    ------
    FloatingPointError
        At the first iteration whose Arnoldi vector is not finite, that is
        when the operator or the preconditioner returned inf or NaN.

    Notes
    -----
    A happy breakdown (the Arnoldi residual vanishing) reports convergence
    with the exact solution of the current Krylov space. Non-convergence
    within ``max_iters`` returns the best iterate with ``converged=False``.

    Each cycle of ``steps`` iterations (``max_iters`` for full GMRES, else
    ``restart``) reserves ``(steps+1)*n*8`` bytes for the basis V in a
    private anonymous mapping: only the rows the iteration writes are
    committed, an unwritten row is never read, and the mapping is released
    when the next cycle replaces it or the solve returns. A cycle of ``k``
    steps applies the preconditioner ``k + 1`` times, once per step and once
    for the update ``x += M(V y)``, so the returned solution carries the
    rounding of that last apply; at tolerances near machine precision its
    true residual can stay above ``rel_tol`` on ill-conditioned systems. The
    Hessenberg matrix grows by one column per step taken, and its ``k x k``
    triangle is built once per cycle for the least-squares solve.
    """
    cfg = cfg or SolveConfig()
    b = np.asarray(b, dtype=np.float64)
    if not np.all(np.isfinite(b)):
        raise ValueError("gmres: right-hand side contains nonfinite entries")
    n = len(b)
    apply_a = as_operator(a, n)
    apply_m = as_operator(m, n)
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
        v = _reserve_rows(steps + 1, n)
        cols = []  # Hessenberg columns, rotated: column k keeps its k + 1 upper entries
        cs, sn = [], []
        g = [beta]
        v[0] = r / beta
        k_done = 0
        for k in range(steps):
            w = apply_a(apply_m(v[k]))
            h = np.empty(k + 2)
            for i in range(k + 1):  # modified Gram-Schmidt
                h[i] = v[i] @ w
                w -= h[i] * v[i]
            h[k + 1] = np.linalg.norm(w)
            if not np.isfinite(h[k + 1]):
                raise FloatingPointError(
                    f"gmres: Arnoldi vector is not finite at iteration {total_iters + 1}"
                )
            breakdown = h[k + 1] <= 1e-14 * max(beta, np.abs(h[: k + 1]).max())
            if not breakdown:
                v[k + 1] = w / h[k + 1]
            for i in range(k):  # previously accumulated Givens rotations
                hi = cs[i] * h[i] + sn[i] * h[i + 1]
                h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
                h[i] = hi
            denom = np.hypot(h[k], h[k + 1])
            cs.append(h[k] / denom)
            sn.append(h[k + 1] / denom)
            h[k] = denom
            cols.append(h[: k + 1])
            g.append(-sn[k] * g[k])
            g[k] = cs[k] * g[k]
            k_done = k + 1
            total_iters += 1
            rel = np.abs(g[k + 1]) / b_norm
            history.append(rel)
            if rel <= cfg.rel_tol or breakdown:
                converged = rel <= cfg.rel_tol or breakdown
                break
        if k_done:
            upper = np.zeros((k_done, k_done))
            for j, col in enumerate(cols):
                upper[: j + 1, j] = col
            y = _solve_upper(upper, np.array(g[:k_done]))
            x = x + apply_m(v[:k_done].T @ y)

    true_res = np.linalg.norm(b - apply_a(x)) / b_norm
    return SolveReport(
        converged=bool(converged),
        iterations=total_iters,
        residual_history=np.asarray(history),
        solution=x,
        true_residual=float(true_res),
        solve_seconds=time.perf_counter() - t0,
    )
