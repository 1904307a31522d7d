"""Smoothed-aggregation algebraic multigrid.

Setup builds a hierarchy by strength-filtered greedy aggregation, a
piecewise-constant tentative prolongator smoothed by one damped-Jacobi step,
and Galerkin coarsening. Smoothing and the Galerkin product widen the coarse
stencils, so on coarse levels many nodes keep no strong neighbor. Each would
seed a singleton aggregate and coarsening would stall, so on every level
below the finest a second pass attaches each such node to the aggregate of
its strongest neighbor that has a strong neighbor. The solve side is a
V(1,1) cycle with a symmetric Gauss-Seidel smoother: one forward sweep
before the coarse-grid correction, one backward sweep after it, and a SuperLU
solve on the coarsest level, whose memory grows with the factor's nonzeros,
not with the square of the level's size.

No level keeps its operator ``A``. A level above the coarsest keeps
``L = tril(A, -1)`` with ``L^T`` as a view of it, its prolongator ``P`` with
``R = P^T`` as a view of it, and the SuperLU factor ``S`` of ``tril(A)``; the coarsest keeps only the
SuperLU factor of ``A``. ``S.solve`` is the forward sweep, and the backward
sweep is the transposed solve, ``tril(A)^T = triu(A)`` for a symmetric A.
The cycle's residuals come from ``L`` through ``A = tril(A) + L^T``:

- after a forward sweep from zero, ``b - A x = -L^T x``;
- after the coarse correction, the backward sweep
  ``x + tril(A)^-T (b - A x)`` equals ``tril(A)^-T (b - L x)``.

The input must therefore be symmetric exactly, and :func:`amg_setup`
rejects any other; on level 0 both are identities in exact arithmetic. The
Galerkin coarse operators ``P^T A P`` are symmetric only to rounding
(entries of ``A - A^T`` up to about 4e-16 of ``max|A|``); there both use
``L^T`` for ``triu(A, 1)``. Every cycle, on every level, starts from a zero
guess, so one cycle is a fixed linear operator: the block preconditioner's
inner solve. A cycle from a guess ``x0`` is the defect correction
``x0 + v_cycle(h, b - A @ x0)``.

Set-up runs on typed arrays: no step creates a Python object per stored
entry. Each level computes its per-entry strength masks once
(:func:`_strength`), boolean rather than float; aggregation, the attach
pass and filtering share them, and they are freed before the Galerkin
product. That product runs in CSR order (:func:`_galerkin`), so no level's
operator is copied into CSC. Only aggregation's root pass is a Python loop,
over ``memoryview``s of the strong graph; its straggler pass is vectorised
and gives the same aggregates as the sequential pass.

An operator whose off-diagonal part is entirely zero is solved directly,
with no hierarchy. Every other operator, of either sign, is set up and
cycled as given. Both commute exactly with negation: strength, aggregation,
the attach pass and filtering read only ``|a_ij|`` and ``|a_ii a_jj|``;
``D^-1 A``, and so ``P``, is the same for ``A`` and ``-A``; and the coarse
operators, ``tril(A, -1)`` and the SuperLU ``U`` factors of ``-A`` are
exactly those of ``A`` negated, since pivoting reads absolute values and
rounding is symmetric under a sign flip. A negative definite operator, such
as an interface block, thus cycles as ``cycle_{-A}(b) = cycle_A(-b)``, bit
for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .sparse import CsrMatrix, SingularMatrixError, canonical, csr_equal

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
    reached. The hierarchy is still usable, but its coarsest solve is a sparse
    LU of that size, whose factor grows with its nonzeros."""


@dataclass
class AmgLevel:
    """One level of ``n`` rows whose operator ``A`` stored ``nnz`` entries.
    The level keeps ``strict_lower = tril(A, -1)`` with ``strict_upper =
    strict_lower.T`` as a view of it, the prolongator ``p`` from the next
    coarser level with ``r = p.T`` as a view of it, and one SuperLU factor;
    ``A`` itself is not kept. The cycle uses ``strict_upper`` for
    ``triu(A, 1)``, which it equals on a symmetric level.

    ``_lower`` is the factor of ``tril(A)`` and serves both sweeps of the
    symmetric Gauss-Seidel smoother: ``solve(r)`` is the forward sweep,
    ``solve(r, trans="T")`` the backward one. The coarsest level keeps only
    ``_coarse_lu``, the factor of ``A`` (:func:`_coarse_factor`), whose
    memory grows with its nonzeros rather than with ``n**2``.

    ``strict_lower`` is canonical and read-only. ``p`` has read-only arrays
    but keeps, within each row, the column order the smoothing product left,
    because the cycle's sums follow that order; sorting it would change the
    last bits of every cycle. ``strict_upper`` and ``r`` are CSC views of
    the arrays of ``strict_lower`` and ``p``, built once: scipy's ``.T``
    builds a new array object on every call, which costs more than a matvec
    on a small level.
    """

    n: int
    nnz: int
    strict_lower: CsrMatrix | None = None
    strict_upper: sp.csc_array | None = field(default=None, repr=False)
    p: sp.csr_array | None = None
    r: sp.csc_array | None = field(default=None, repr=False)
    _lower: object = field(default=None, repr=False)  # splu of tril(A)
    _coarse_lu: object = field(default=None, repr=False)  # splu of A

    @property
    def is_coarsest(self) -> bool:
        return self._coarse_lu is not None


@dataclass
class AmgHierarchy:
    """Level stack, finest first. ``diagonal`` short-circuits the cycle with
    an exact diagonal solve."""

    levels: list
    diagonal: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.diagonal) if self.diagonal is not None else self.levels[0].n

    @property
    def operator_complexity(self) -> float:
        if self.diagonal is not None:
            return 1.0
        nnz0 = max(self.levels[0].nnz, 1)
        return sum(lev.nnz for lev in self.levels) / nnz0

    @property
    def grid_complexity(self) -> float:
        if self.diagonal is not None:
            return 1.0
        return sum(lev.n for lev in self.levels) / max(self.levels[0].n, 1)

    def stats(self) -> dict:
        diagonal = self.diagonal is not None
        return {
            "mode": "diagonal" if diagonal else "multilevel",
            "levels": ([{"n": self.n, "nnz": self.n}] if diagonal
                       else [{"n": lev.n, "nnz": lev.nnz} for lev in self.levels]),
            "operator_complexity": self.operator_complexity,
            "grid_complexity": self.grid_complexity,
        }

    def describe(self) -> str:
        s = self.stats()
        lines = [f"amg hierarchy ({s['mode']})"]
        for i, lev in enumerate(s["levels"]):
            lines.append(f"  level {i}: n={lev['n']:>8}  nnz={lev['nnz']:>10}")
        lines.append(
            f"  operator complexity {s['operator_complexity']:.3f}, "
            f"grid complexity {s['grid_complexity']:.3f}"
        )
        return "\n".join(lines)


def _strength(a: sp.csr_array, theta: float):
    """Per-entry strength masks of one level, computed once and shared by
    :func:`_aggregate`, :func:`_attach_isolated` and :func:`_filtered`.

    Returns ``(rows, off, weak, strong)``: the row of each stored entry in
    ``a``'s index dtype and three boolean masks over the stored entries.
    ``off`` marks the off-diagonal entries. With the threshold
    ``theta * sqrt(|a_ii a_jj|)``, an off-diagonal entry is weak when
    ``|a_ij|`` is below it, and strong when ``|a_ij|`` reaches it and is
    nonzero. The float threshold and ``|a_ij|`` are freed on return; the
    passes that need ``|a_ij|`` recompute it on the entries they index.
    """
    diag = a.diagonal()
    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    off = a.indices != rows
    thresh = diag[rows]  # in place from here: one per-entry float temporary, not four
    thresh *= diag[a.indices]
    np.abs(thresh, out=thresh)
    np.sqrt(thresh, out=thresh)
    thresh *= theta
    absval = np.abs(a.data)
    weak = absval < thresh
    weak &= off
    strong = absval >= thresh
    del thresh
    strong &= off
    strong &= absval > 0
    return rows, off, weak, strong


def _aggregate(a: sp.csr_array, rows: np.ndarray, off: np.ndarray, weak: np.ndarray,
               strong: np.ndarray):
    """Greedy aggregation over the strength graph (Vanek, Mandel & Brezina).

    Takes the arrays of :func:`_strength` and reads ``rows`` and ``strong``;
    ``|a_ij|`` is computed only on the straggler pass's entries. Root pass:
    nodes are visited in natural order, and a free node whose strong
    neighbors are all free seeds an aggregate with them. It is a
    lexicographically-first choice, so it stays a Python loop, over typed
    views of the strong graph. Straggler pass: each remaining node joins the
    aggregate of its first strongest strong neighbor (largest ``|a_ij|``,
    ties to the earlier entry in the row) among the root-aggregated nodes
    and the earlier stragglers. That is what a sequential pass in natural
    order sees; here it is one sort, and chains of stragglers are resolved
    by pointer jumping. Hierarchies stay bit-identical only while this order
    and tie-break hold.
    Returns (int64 aggregate id per node, number of aggregates).
    """
    n = a.shape[0]
    indptr = memoryview(np.concatenate([[0], np.cumsum(np.bincount(rows[strong], minlength=n))]))
    indices = memoryview(a.indices[strong])
    agg = np.full(n, -1, dtype=np.int64)
    view = memoryview(agg)
    n_agg = 0
    for i in range(n):
        if view[i] >= 0:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        for j in nbrs:
            if view[j] >= 0:
                break
        else:  # every strong neighbor is free
            view[i] = n_agg
            for j in nbrs:
                view[j] = n_agg
            n_agg += 1
    del view, indices, indptr
    # Every straggler has a root-aggregated strong neighbor: the root pass
    # skips a free node only for one. A node without strong neighbors seeds a
    # singleton above; below the finest level amg_setup then merges it into
    # a neighbor's (_attach_isolated).
    straggler = agg < 0
    k = np.flatnonzero(strong & straggler[rows])
    r, c = rows[k], a.indices[k]
    keep = ~straggler[c] | (c < r)
    k, r, c = k[keep], r[keep], c[keep]
    order = np.lexsort((k, -np.abs(a.data[k]), r))  # by row, strongest first, then row order
    r, c = r[order], c[order]
    first = np.diff(r, prepend=-1) != 0
    target = np.arange(n)
    target[r[first]] = c[first]
    while True:  # an earlier straggler's target is smaller still, so this ends
        jumped = target[target]
        if np.array_equal(jumped, target):
            break
        target = jumped
    return agg[target], n_agg


def _attach_isolated(a: sp.csr_array, rows: np.ndarray, off: np.ndarray, weak: np.ndarray,
                     strong: np.ndarray, agg: np.ndarray):
    """Merge each node without a strong neighbor into the aggregate of its
    strongest neighbor that has one, then renumber the aggregates
    contiguously in their previous order.

    Takes the arrays of :func:`_strength` (it reads ``rows``, ``off`` and
    ``strong``) and the aggregates of :func:`_aggregate`; ``|a_ij|`` is
    computed only on the candidate entries. Strength here is the normalised
    ``|a_ij| / sqrt(|a_ii a_jj|)`` of the strength test; ties go to the first
    neighbor in row order. Nodes whose nonzero neighbors are all isolated
    keep their aggregate. Returns (int64 aggregate id per node, number of
    aggregates).
    """
    n = a.shape[0]
    has_strong = np.bincount(rows[strong], minlength=n) > 0
    cand = np.flatnonzero(off & (a.data != 0) & ~has_strong[rows] & has_strong[a.indices])
    if len(cand):
        r, c = rows[cand], a.indices[cand]
        diag = a.diagonal()
        weight = np.abs(a.data[cand]) / np.sqrt(np.abs(diag[r] * diag[c]))
        order = np.lexsort((-weight, r))  # by row, then strongest first; stable on ties
        r, c = r[order], c[order]
        first = np.r_[True, r[1:] != r[:-1]]
        agg = agg.copy()
        agg[r[first]] = agg[c[first]]
    ids, agg = np.unique(agg, return_inverse=True)
    return agg.astype(np.int64, copy=False), len(ids)


def _filtered(a: sp.csr_array, rows: np.ndarray, off: np.ndarray, weak: np.ndarray,
              strong: np.ndarray) -> sp.csr_array:
    """Drop the weak off-diagonal entries (the ``weak`` mask of
    :func:`_strength`) and lump them into the diagonal. Takes the arrays of
    :func:`_strength` and reads ``rows``, ``off`` and ``weak``.

    The result is built from the kept entries, without the copy of ``a``
    and the sparse sum ``filt + diags(lump)`` that would hold two per-entry
    arrays at once; like that sum, it drops entries that end up exactly
    zero. Every row must store its diagonal, as every level
    :func:`amg_setup` filters does.
    """
    n = a.shape[0]
    lump = np.zeros(n)
    np.add.at(lump, rows[weak], a.data[weak])
    indptr = np.zeros_like(a.indptr)
    np.cumsum(np.diff(a.indptr) - np.bincount(rows[weak], minlength=n), out=indptr[1:])
    keep = ~weak
    data = a.data[keep]
    data[~off[keep]] += lump
    filt = sp.csr_array((data, a.indices[keep], indptr), shape=a.shape)
    filt.eliminate_zeros()
    return filt


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
    """``tril(a, -1)`` as a canonical, read-only CsrMatrix, and the SuperLU
    factor of ``tril(a)`` in natural order without pivoting, whose solves
    are the forward (``solve``) and backward (``solve(trans="T")``)
    Gauss-Seidel sweeps. Both triangles are masked out of the CSR arrays in
    one row pass; ``tril(a)`` is converted to CSC, the same CSC arrays as
    ``sp.tril(a).tocsc()``, without its COO copy. ``panel_size=1`` leaves
    the factor and its solves byte-identical to the default panel size but
    shrinks SuperLU's panel workspace: on the 3d n=36 Schur block it halved
    the level-0 factor time (23.6 to 10.1 ms), and a factor of ``triu(A)``
    kept 19 MiB resident with the default panel size against 2.3 MiB with
    this one."""
    n = a.shape[0]
    rows = np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
    masks = a.indices <= rows, a.indices < rows  # tril(a), tril(a, -1)
    indptrs = np.zeros_like(a.indptr), np.zeros_like(a.indptr)
    for mask, indptr in zip(masks, indptrs):
        np.cumsum(np.bincount(rows[mask], minlength=n), out=indptr[1:])
    del rows  # one entry per stored value; must not live through the CSC copy

    def triangle(k):
        return sp.csr_array((a.data[masks[k]], a.indices[masks[k]], indptrs[k]), shape=a.shape)

    factor = spla.splu(triangle(0).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       panel_size=1)
    return canonical(triangle(1)), factor


def _galerkin(a: sp.csr_array, p: sp.csr_array) -> CsrMatrix:
    """The coarse operator ``P^T A P``, computed in CSR order.

    scipy's ``p.T @ a @ p`` is CSC times CSR, which copies ``a`` whole into
    CSC. Here ``P^T`` is built as CSR with sorted rows and both products are
    CSR times CSR. scipy sums each output entry over the left operand's row
    in stored order, so with ``P^T`` and ``P^T A`` sorted, every entry sums
    over the same ``j`` in the same (ascending) order as the CSC product, and
    the result is byte-identical to it.
    """
    pta = p.T.tocsr() @ a
    pta.sort_indices()
    return canonical(pta @ p)


def _coarse_factor(a: sp.csr_array):
    """SuperLU factor of the coarsest operator, with its default ordering
    and pivoting. Raises SingularMatrixError if a pivot is at most 1e-14
    times ``||a||_inf``: SuperLU itself refuses only an exactly zero pivot,
    and a singular operator such as a pure-Neumann Laplacian can leave one
    of rounding size instead."""
    message = "amg_setup: coarsest-level operator is singular"
    try:
        lu = spla.splu(a.tocsc())
    except RuntimeError as err:  # "Factor is exactly singular"
        raise SingularMatrixError(message) from err
    if np.min(np.abs(lu.U.diagonal())) <= 1e-14 * spla.norm(a, np.inf):
        raise SingularMatrixError(message)
    return lu


def amg_setup(a: CsrMatrix) -> AmgHierarchy:
    """Build a smoothed-aggregation hierarchy for a square operator.

    Parameters
    ----------
    a : CsrMatrix
        Square symmetric operator, intended for definite M-matrix-like
        problems of either sign: set-up and cycle commute exactly with
        negation. Symmetric means equal to its transpose entry for entry;
        explicit zeros count as zeros. A purely diagonal operator skips the
        hierarchy.

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
    # the smoother's backward sweep is tril(A)^T; equal arrays settle it
    # without the sparse comparison, which stored zeros need
    at = a.T.tocsr()
    symmetric = csr_equal(a, at) or not (a != at).nnz
    del at
    if not symmetric:
        raise ValueError("amg_setup: operator is not symmetric")
    diag = a.diagonal()
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise ValueError(f"amg_setup: zero diagonal entry at row {zero[0]}")

    rows = np.repeat(np.arange(a.shape[0], dtype=a.indices.dtype), np.diff(a.indptr))
    diagonal_only = not np.any((a.indices != rows) & (a.data != 0.0))
    del rows  # one entry per stored value; must not live through the level loop
    if diagonal_only:
        # (block-)diagonal operator: invert directly, no hierarchy needed
        return AmgHierarchy(levels=[], diagonal=diag)

    current = a

    levels: list[AmgLevel] = []
    for depth in range(MAX_LEVELS):
        n = current.shape[0]
        last = n < MAX_COARSE_SIZE or depth == MAX_LEVELS - 1
        if not last:
            strength = _strength(current, STRENGTH_THRESHOLD)
            agg, n_agg = _aggregate(current, *strength)
            if depth > 0:  # attaching on the finest level too cost 2d iterations
                agg, n_agg = _attach_isolated(current, *strength, agg)
            # filter now: the per-entry strength masks must not stay alive
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
            levels.append(AmgLevel(n=n, nnz=current.nnz, _coarse_lu=_coarse_factor(current)))
            break
        idx = sp.get_index_dtype(maxval=n)  # int32 indices, as in canonical()
        p_tent = sp.csr_array(
            (np.ones(n), agg.astype(idx), np.arange(n + 1, dtype=idx)), shape=(n, n_agg)
        )
        dinv = 1.0 / current.diagonal()
        rho = _rho_dinv_a(current, dinv)
        omega = OMEGA_FACTOR / max(rho, np.finfo(float).tiny)
        p = (p_tent - sp.diags_array(omega * dinv) @ (a_filt @ p_tent)).tocsr()
        del a_filt  # one entry per stored value; must not live into the next level
        for arr in (p.indptr, p.indices, p.data):
            arr.flags.writeable = False
        coarse = _galerkin(current, p)
        strict_lower, factor = _triangular_factor(current)
        levels.append(AmgLevel(n=n, nnz=current.nnz, strict_lower=strict_lower,
                               strict_upper=strict_lower.T, p=p, r=p.T, _lower=factor))
        current = coarse
    return AmgHierarchy(levels=levels)


def _cycle(levels, depth: int, b: np.ndarray) -> np.ndarray:
    """One cycle from ``depth`` down, from a zero guess. With ``L =
    strict_lower`` and ``A = tril(A) + L^T``, the residual after the forward
    sweep is ``-L^T x``, so ``d`` is its negative and the correction is
    subtracted; the backward sweep solves with ``b - L x``."""
    lev = levels[depth]
    if lev.is_coarsest:
        return lev._coarse_lu.solve(b)
    x = lev._lower.solve(b)  # forward sweep
    d = lev.strict_upper @ x
    x -= lev.p @ _cycle(levels, depth + 1, lev.r @ d)
    return lev._lower.solve(b - lev.strict_lower @ x, trans="T")  # backward sweep


def v_cycle(h: AmgHierarchy, b: np.ndarray) -> np.ndarray:
    """One V(1,1) cycle for the hierarchy's operator ``A`` from a zero
    initial guess: a fixed linear function of ``b``, the inner solve of the
    block preconditioner. On a single-level (or diagonal) hierarchy this is
    an exact solve.

    A V(1,1) cycle started from a guess ``x0`` is, in exact arithmetic, the
    defect correction ``x0 + v_cycle(h, b - A @ x0)``; iterating that is the
    stationary multigrid method.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or len(b) != h.n:
        raise ValueError(f"v_cycle: right-hand side length {b.shape} does not match n={h.n}")
    if h.diagonal is not None:
        return b / h.diagonal
    return _cycle(h.levels, 0, b)


# the block preconditioner's inner solve: ``precond`` calls it by this name,
# which perfbench wraps there to time the V-cycles
apply_preconditioner_vcycle = v_cycle
