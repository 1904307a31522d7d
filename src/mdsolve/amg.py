"""Smoothed-aggregation algebraic multigrid.

Setup builds a hierarchy by strength-filtered greedy aggregation, a
piecewise-constant tentative prolongator smoothed by one damped-Jacobi step,
and Galerkin coarsening. Smoothing and the Galerkin product widen the coarse
stencils, so on coarse levels many nodes keep no strong neighbor. Each would
seed a singleton aggregate and coarsening would stall, so on every level
below the finest a second pass attaches each such node to the aggregate of
its strongest neighbor that has a strong neighbor. The solve side is a
V(1,1) cycle with a symmetric Gauss-Seidel smoother: one forward sweep
before the coarse-grid correction, one backward sweep after it, with a dense
LU solve on the coarsest level. Each level factors only its lower triangle
``tril(A)``; the backward sweep is a transposed solve with that factor,
``tril(A)^T = triu(A)`` for a symmetric A. The input must therefore be
symmetric exactly, and :func:`amg_setup` rejects any other. The Galerkin
coarse operators ``P^T A P`` are symmetric only to rounding (entries of
``A - A^T`` up to about 4e-16 of ``max|A|``); there the backward sweep uses
the transpose of the stored lower triangle. One cycle from a zero initial
guess is a fixed linear operator, which is what the block preconditioner
uses for its inner solves.

Two special cases are handled transparently: operators whose off-diagonal
part is entirely zero are solved directly (no hierarchy), and operators with
an all-negative diagonal (the interface block as assembled) are negated for
setup, with the cycle solving the original sign convention.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrs

from .sparse import CsrMatrix, canonical, dense_lu

__all__ = ["AmgLevel", "AmgHierarchy", "AmgSetupWarning", "amg_setup", "v_cycle",
           "apply_preconditioner_vcycle"]

# Setup policy, chosen for scalar elliptic operators; read at call time.
STRENGTH_THRESHOLD = 0.08
MAX_COARSE_SIZE = 64
MAX_LEVELS = 20
POWER_ITERATIONS = 10  # for the estimate of rho(D^-1 A)
OMEGA_FACTOR = 4.0 / 3.0  # prolongator smoothing weight is OMEGA_FACTOR / rho(D^-1 A)


class AmgSetupWarning(UserWarning):
    """The hierarchy stopped with a coarsest level of at least
    ``MAX_COARSE_SIZE`` rows: aggregation stalled or ``MAX_LEVELS`` was
    reached. The hierarchy is still usable, but its coarsest solve is a dense
    LU of that size."""


@dataclass
class AmgLevel:
    """One level: its operator, the prolongator from the next coarser level
    and its transpose, the smoother's triangular factor, and dense LU factors
    on the coarsest level.

    ``_lower`` is the SuperLU factor of ``tril(a)`` and serves both sweeps of
    the symmetric Gauss-Seidel smoother: ``solve(r)`` is the forward sweep,
    ``solve(r, trans="T")`` the backward one. On the finest level ``a`` is
    symmetric exactly; on Galerkin levels only to rounding, and the backward
    sweep uses the transpose of the lower triangle in place of ``triu(a)``.

    ``p`` has read-only arrays but keeps, within each row, the column order
    the smoothing product left, because the cycle's sums follow that order;
    sorting it would change the last bits of every cycle. ``r`` is ``p.T``,
    a CSC view of the same arrays.
    """

    a: CsrMatrix
    p: sp.csr_array | None = None
    r: sp.csc_array | None = field(default=None, repr=False)
    _lower: object = field(default=None, repr=False)  # splu of tril(A)
    _coarse_lu: tuple | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def is_coarsest(self) -> bool:
        return self._coarse_lu is not None


@dataclass
class AmgHierarchy:
    """Level stack, finest first. ``diagonal`` short-circuits the cycle with
    an exact diagonal solve; ``negated`` records that setup ran on -A."""

    levels: list
    negated: bool = False
    diagonal: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.diagonal) if self.diagonal is not None else self.levels[0].n

    @property
    def operator_complexity(self) -> float:
        if self.diagonal is not None:
            return 1.0
        nnz0 = max(self.levels[0].a.nnz, 1)
        return sum(lev.a.nnz for lev in self.levels) / nnz0

    @property
    def grid_complexity(self) -> float:
        if self.diagonal is not None:
            return 1.0
        return sum(lev.n for lev in self.levels) / max(self.levels[0].n, 1)

    def stats(self) -> dict:
        if self.diagonal is not None:
            return {
                "mode": "diagonal",
                "levels": [{"n": len(self.diagonal), "nnz": len(self.diagonal)}],
                "operator_complexity": 1.0,
                "grid_complexity": 1.0,
                "negated": self.negated,
            }
        return {
            "mode": "multilevel",
            "levels": [{"n": lev.n, "nnz": lev.a.nnz} for lev in self.levels],
            "operator_complexity": self.operator_complexity,
            "grid_complexity": self.grid_complexity,
            "negated": self.negated,
        }

    def describe(self) -> str:
        s = self.stats()
        lines = [f"amg hierarchy ({s['mode']}, negated={s['negated']})"]
        for i, lev in enumerate(s["levels"]):
            lines.append(f"  level {i}: n={lev['n']:>8}  nnz={lev['nnz']:>10}")
        lines.append(
            f"  operator complexity {s['operator_complexity']:.3f}, "
            f"grid complexity {s['grid_complexity']:.3f}"
        )
        return "\n".join(lines)


def _strength(a: sp.csr_array, theta: float):
    """Row of each stored entry, off-diagonal mask, and the strength threshold
    ``theta * sqrt(|a_ii a_jj|)`` of each entry; shared by aggregation and
    filtering of one level."""
    diag = a.diagonal()
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    off = a.indices != rows
    thresh = theta * np.sqrt(np.abs(diag[rows] * diag[a.indices]))
    return rows, off, thresh


def _aggregate(a: sp.csr_array, rows: np.ndarray, off: np.ndarray, thresh: np.ndarray):
    """Greedy aggregation over the strength graph (Vanek, Mandel & Brezina).

    An off-diagonal entry is strong when ``|a_ij| >= thresh`` and
    ``|a_ij| > 0``. Root pass: nodes are visited in natural order, and a
    free node whose strong neighbors are all free seeds an aggregate with
    them. Straggler pass, again in natural order: each remaining node joins
    the aggregate of the first strictly strongest aggregated neighbor in row
    order, seeing nodes attached earlier in the same pass. Hierarchies stay
    bit-identical only while this order and tie-break hold.
    Returns (int64 aggregate id per node, number of aggregates).
    """
    n = a.shape[0]
    absval = np.abs(a.data)
    strong = off & (absval >= thresh) & (absval > 0)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[strong], minlength=n))]).tolist()
    indices = a.indices[strong].tolist()
    weights = absval[strong].tolist()

    agg = [-1] * n
    n_agg = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        for j in nbrs:
            if agg[j] >= 0:
                break
        else:  # every strong neighbor is free
            agg[i] = n_agg
            for j in nbrs:
                agg[j] = n_agg
            n_agg += 1
    for i in range(n):
        if agg[i] >= 0:
            continue
        best, best_w = -1, -1.0
        for k in range(indptr[i], indptr[i + 1]):
            j = agg[indices[k]]
            if j >= 0 and weights[k] > best_w:
                best, best_w = j, weights[k]
        agg[i] = best
    # No third pass: a node the root pass skips has an aggregated strong neighbor.
    # A node without strong neighbors seeds a singleton here; below the finest
    # level amg_setup then merges it into a neighbor's (_attach_isolated).
    return np.array(agg, dtype=np.int64), n_agg


def _attach_isolated(a: sp.csr_array, rows: np.ndarray, off: np.ndarray,
                     thresh: np.ndarray, agg: np.ndarray):
    """Merge each node without a strong neighbor into the aggregate of its
    strongest neighbor that has one, then renumber the aggregates
    contiguously in their previous order.

    Strength here is the normalised ``|a_ij| / sqrt(|a_ii a_jj|)`` of the
    strength test; ties go to the first neighbor in row order. Nodes whose
    nonzero neighbors are all isolated keep their aggregate. Returns
    (int64 aggregate id per node, number of aggregates).
    """
    n = a.shape[0]
    absval = np.abs(a.data)
    strong = off & (absval >= thresh) & (absval > 0)
    has_strong = np.bincount(rows[strong], minlength=n) > 0
    cand = np.flatnonzero(off & (absval > 0) & ~has_strong[rows] & has_strong[a.indices])
    if len(cand):
        r, c = rows[cand], a.indices[cand]
        diag = a.diagonal()
        weight = absval[cand] / np.sqrt(np.abs(diag[r] * diag[c]))
        order = np.lexsort((-weight, r))  # by row, then strongest first; stable on ties
        r, c = r[order], c[order]
        first = np.r_[True, r[1:] != r[:-1]]
        agg = agg.copy()
        agg[r[first]] = agg[c[first]]
    ids, agg = np.unique(agg, return_inverse=True)
    return agg.astype(np.int64, copy=False), len(ids)


def _filtered(a: sp.csr_array, rows: np.ndarray, off: np.ndarray,
              thresh: np.ndarray) -> sp.csr_array:
    """Drop weak off-diagonal entries (``|a_ij| < thresh``) and lump them
    into the diagonal."""
    n = a.shape[0]
    weak = off & (np.abs(a.data) < thresh)
    lump = np.zeros(n)
    np.add.at(lump, rows[weak], a.data[weak])
    data = np.where(weak, 0.0, a.data)
    filt = sp.csr_array((data, a.indices.copy(), a.indptr.copy()), shape=a.shape)
    return (filt + sp.diags_array(lump)).tocsr()


def _rho_dinv_a(a: sp.csr_array, dinv: np.ndarray) -> float:
    """Spectral radius estimate of D^-1 A by power iteration (seeded, deterministic).

    Norms are ``sqrt(sum(w * w))``, not ``np.linalg.norm``: the latter is a
    BLAS dot whose rounding depends on the BLAS thread count, and the
    estimate sets omega, which every coarser level inherits.
    """
    rng = np.random.default_rng(20220601)
    v = rng.standard_normal(a.shape[0])
    v /= np.sqrt(np.sum(v * v))
    rho = 1.0
    for _ in range(POWER_ITERATIONS):
        w = dinv * (a @ v)
        nrm = np.sqrt(np.sum(w * w))
        if nrm == 0.0:
            return 1.0
        rho = nrm
        v = w / nrm
    return rho


def _triangular_factor(a: sp.csr_array):
    """SuperLU factor of ``tril(a)`` in natural order without pivoting, so its
    solves are the forward (``solve``) and backward (``solve(trans="T")``)
    Gauss-Seidel sweeps. ``panel_size=1`` leaves the factor and its solves
    byte-identical to the default panel size but shrinks SuperLU's panel
    workspace: on the 3d n=36 Schur block it halved the level-0 factor time
    (23.6 to 10.1 ms), and a factor of ``triu(A)`` kept 19 MiB resident with
    the default panel size against 2.3 MiB with this one."""
    return spla.splu(sp.tril(a, 0).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     panel_size=1)


def amg_setup(a: CsrMatrix) -> AmgHierarchy:
    """Build a smoothed-aggregation hierarchy for a square operator.

    Parameters
    ----------
    a : CsrMatrix
        Square symmetric operator, intended for positive (semi)definite
        M-matrix-like problems. Symmetric means equal to its transpose
        entry for entry; explicit zeros count as zeros. An all-negative
        diagonal is handled by internal negation; a purely diagonal operator
        skips the hierarchy.

    Raises
    ------
    ValueError
        If the operator is not square, not symmetric, or has a zero diagonal
        entry.
    SingularMatrixError
        If the coarsest-level operator is singular to working precision.

    Warns
    -----
    AmgSetupWarning
        If the coarsest level keeps at least ``MAX_COARSE_SIZE`` rows, because
        aggregation stalled or ``MAX_LEVELS`` was reached.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"amg_setup: operator is {a.shape[0]}x{a.shape[1]}, not square")
    if (a != a.T).nnz:  # the smoother's backward sweep is tril(A)^T
        raise ValueError("amg_setup: operator is not symmetric")
    diag = a.diagonal()
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise ValueError(f"amg_setup: zero diagonal entry at row {zero[0]}")

    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    if not np.any((a.indices != rows) & (a.data != 0.0)):
        # (block-)diagonal operator: invert directly, no hierarchy needed
        return AmgHierarchy(levels=[], negated=False, diagonal=diag.copy())

    negated = bool(np.all(diag < 0.0))
    current = canonical(-a) if negated else a

    levels: list[AmgLevel] = []
    for depth in range(MAX_LEVELS):
        n = current.shape[0]
        last = n < MAX_COARSE_SIZE or depth == MAX_LEVELS - 1
        if not last:
            strength = _strength(current, STRENGTH_THRESHOLD)
            agg, n_agg = _aggregate(current, *strength)
            if depth > 0:  # attaching on the finest level too cost 2d iterations
                agg, n_agg = _attach_isolated(current, *strength, agg)
            # filter now: the per-entry strength arrays must not stay alive
            # through the Galerkin product, where set-up peaks in memory
            a_filt = _filtered(current, *strength)
            del strength
            if n_agg >= n:
                last = True  # aggregation stalled; stop coarsening here
        if last:
            if n >= MAX_COARSE_SIZE:
                warnings.warn(
                    f"amg_setup: coarsest level has {n} rows after {depth + 1} levels, "
                    f"not below max_coarse_size={MAX_COARSE_SIZE} (max_levels={MAX_LEVELS})",
                    AmgSetupWarning,
                    stacklevel=2,
                )
            levels.append(
                AmgLevel(
                    a=current,
                    _coarse_lu=dense_lu(
                        current.toarray(), "amg_setup: coarsest-level operator is singular"
                    ),
                )
            )
            break
        idx = sp.get_index_dtype(maxval=n)  # int32 indices, as in canonical()
        p_tent = sp.csr_array(
            (np.ones(n), agg.astype(idx), np.arange(n + 1, dtype=idx)), shape=(n, n_agg)
        )
        dinv = 1.0 / current.diagonal()
        rho = _rho_dinv_a(current, dinv)
        omega = OMEGA_FACTOR / max(rho, np.finfo(float).tiny)
        p = (p_tent - sp.diags_array(omega * dinv) @ (a_filt @ p_tent)).tocsr()
        for arr in (p.indptr, p.indices, p.data):
            arr.flags.writeable = False
        coarse = canonical(p.T @ current @ p)
        levels.append(AmgLevel(a=current, p=p, r=p.T, _lower=_triangular_factor(current)))
        current = coarse
    return AmgHierarchy(levels=levels, negated=negated)


def _cycle(levels, depth: int, b: np.ndarray, x: np.ndarray | None) -> np.ndarray:
    lev = levels[depth]
    if lev.is_coarsest:
        return dgetrs(*lev._coarse_lu, b)[0]
    a = lev.a
    if x is None:
        x = lev._lower.solve(b)  # forward sweep from a zero guess
    else:
        x = x + lev._lower.solve(b - a @ x)
    resid = b - a @ x
    correction = _cycle(levels, depth + 1, lev.r @ resid, None)
    x = x + lev.p @ correction
    return x + lev._lower.solve(b - a @ x, trans="T")  # backward sweep


def v_cycle(h: AmgHierarchy, b: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """One V(1,1) cycle for the hierarchy's operator, starting from ``x0``.

    With ``x0 = 0`` the result is a fixed linear function of ``b``. On a
    single-level (or diagonal) hierarchy this is an exact solve.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or len(b) != h.n:
        raise ValueError(f"v_cycle: right-hand side length {b.shape} does not match n={h.n}")
    if h.diagonal is not None:
        return b / h.diagonal
    if x0 is None:
        x = None
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != b.shape:
            raise ValueError("v_cycle: initial guess length mismatch")
        x = x0 if np.any(x0) else None
    return _cycle(h.levels, 0, -b if h.negated else b, x)


def apply_preconditioner_vcycle(h: AmgHierarchy, r: np.ndarray) -> np.ndarray:
    """One V-cycle from a zero initial guess: the fixed linear operator used
    as an inner solve inside the block preconditioner."""
    return v_cycle(h, r, None)
