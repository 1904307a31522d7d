"""Factorization-based block preconditioners for the two-by-two system.

The monolithic operator factors as a unit block upper triangle, a block
diagonal of (Schur complement, interface block), and a unit block lower
triangle. Inverting the lower two factors gives the block lower triangular
preconditioner; with the exact Schur complement and exact inner solves the
preconditioned operator equals the unit upper factor, so all its eigenvalues
are one and GMRES converges in two steps. The practical variant replaces the
Schur complement by its diagonal approximation (exact on matching grids,
where the interface block is diagonal) and both inner inverses by one AMG
V-cycle each. Its action is three steps: solve on the subdomain block,
update the interface residual with the coupling block, solve on the
interface block.

Exact-mode preconditioners are dense oracles guarded by a size cap; they
exist to validate the approximate path, not to solve anything large.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .assembly import BlockSystem
from .amg import AmgParams, amg_setup, apply_preconditioner_vcycle
from .sparse import CsrMatrix, csr_add, dense_lu, triple_product_diag_scaled

__all__ = [
    "KINDS",
    "exact_schur",
    "approx_schur",
    "factorization_factors",
    "BlockPreconditioner",
    "build_preconditioner",
]

KINDS = ("ml", "bu", "bd")
DEFAULT_ORACLE_CAP = 2000


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}, expected one of {KINDS}")


def exact_schur(system: BlockSystem, oracle_cap: int = DEFAULT_ORACLE_CAP) -> np.ndarray:
    """Dense Schur complement of the interface block (oracle only).

    Computes A_oo - A_og A_gg^-1 A_go. Refuses systems above the oracle cap
    and singular interface blocks.
    """
    if system.n_total > oracle_cap:
        raise ValueError(
            f"exact_schur: system has {system.n_total} dofs, above the oracle cap {oracle_cap}"
        )
    a_oo = system.a_omega_omega.toarray()
    if system.n_gamma == 0:
        return a_oo
    lu = dense_lu(
        system.a_gamma_gamma.toarray(),
        "exact_schur: interface block: matrix is singular to working precision",
    )
    x = scipy.linalg.lu_solve(lu, system.a_gamma_omega.toarray())
    return a_oo - system.a_omega_gamma.toarray() @ x


def approx_schur(system: BlockSystem) -> CsrMatrix:
    """Sparse approximate Schur complement A_oo - A_og diag(A_gg)^-1 A_go.

    Equals the exact Schur complement whenever A_gg is diagonal, which is the
    matching-grid case this package assembles.
    """
    diag = system.a_gamma_gamma.diagonal()
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise ValueError(
            f"approx_schur: zero diagonal entry in the interface block "
            f"at interface DOF {zero[0]}"
        )
    if system.n_gamma == 0:
        return system.a_omega_omega
    triple = triple_product_diag_scaled(
        system.a_omega_gamma, 1.0 / diag, system.a_gamma_omega
    )
    return csr_add(system.a_omega_omega, triple, -1.0)


def factorization_factors(system: BlockSystem, oracle_cap: int = DEFAULT_ORACLE_CAP):
    """Dense (U, D, L) factors of the monolithic operator (oracle only).

    U is unit block upper triangular with A_og A_gg^-1 in its off-diagonal
    block, D is blockdiag(Schur, A_gg), L is unit block lower triangular with
    A_gg^-1 A_go. Their product reproduces the monolithic matrix.
    """
    if system.n_total > oracle_cap:
        raise ValueError(
            f"factorization_factors: system has {system.n_total} dofs, "
            f"above the oracle cap {oracle_cap}"
        )
    no, ng, nt = system.n_omega, system.n_gamma, system.n_total
    s = exact_schur(system, oracle_cap)
    u = np.eye(nt)
    d = np.zeros((nt, nt))
    lo = np.eye(nt)
    d[:no, :no] = s
    if ng:
        a_gg = system.a_gamma_gamma.toarray()
        lu = dense_lu(
            a_gg, "factorization_factors: interface block: matrix is singular to working precision"
        )
        u[:no, no:] = scipy.linalg.lu_solve(lu, system.a_omega_gamma.toarray().T).T
        lo[no:, :no] = scipy.linalg.lu_solve(lu, system.a_gamma_omega.toarray())
        d[no:, no:] = a_gg
    return u, d, lo


class _DirectDense:
    def __init__(self, a: np.ndarray, context: str):
        self._lu = dense_lu(a, f"{context}: matrix is singular to working precision")

    def __call__(self, r):
        return scipy.linalg.lu_solve(self._lu, r)


class _DirectSparse:
    def __init__(self, a: CsrMatrix):
        self._lu = spla.splu(a.tocsc())

    def __call__(self, r):
        return self._lu.solve(r)


class _AmgSolve:
    def __init__(self, a: CsrMatrix, params: AmgParams | None):
        self.hierarchy = amg_setup(a, params)

    def __call__(self, r):
        return apply_preconditioner_vcycle(self.hierarchy, r)


class BlockPreconditioner:
    """A built block preconditioner; ``apply`` is a fixed linear operator.

    Instances are created by :func:`build_preconditioner`. The setup (Schur
    assembly, inner factorizations or AMG hierarchies) is done once and is
    reusable across right-hand sides and, through :meth:`with_kind`, across
    kinds. Apply allocates its own scratch, so concurrent applications are
    safe.
    """

    def __init__(self, kind, n_omega, n_gamma, q_omega, q_gamma, a_gamma_omega,
                 a_omega_gamma, schur_matrix=None):
        self.kind = kind
        self.n_omega = n_omega
        self.n_gamma = n_gamma
        self._q_omega = q_omega
        self._q_gamma = q_gamma
        self._a_gamma_omega = a_gamma_omega
        self._a_omega_gamma = a_omega_gamma
        self.schur_matrix = schur_matrix

    @property
    def n_total(self) -> int:
        return self.n_omega + self.n_gamma

    def with_kind(self, kind: str) -> "BlockPreconditioner":
        """This preconditioner with another kind, at no set-up cost.

        The kinds differ only in the order of the apply steps, so the result
        shares every factor of this one: the Schur matrix, both inner solves
        with their hierarchies, and the coupling blocks. Its ``apply`` equals
        that of a preconditioner built afresh with ``kind``.
        """
        _check_kind(kind)
        view = copy.copy(self)
        view.kind = kind
        return view

    def hierarchies(self) -> dict:
        """AMG hierarchies in use, keyed by block name (may be empty)."""
        out = {}
        if isinstance(self._q_omega, _AmgSolve):
            out["schur"] = self._q_omega.hierarchy
        if isinstance(self._q_gamma, _AmgSolve):
            out["interface"] = self._q_gamma.hierarchy
        return out

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Apply the preconditioner to a residual vector.

        For the lower-triangular kind this is exactly: subdomain solve,
        interface residual update with the coupling block, interface solve.
        The block diagonal kind skips the update; the upper-triangular kind
        mirrors the order using the omega-gamma coupling block.
        """
        r = np.asarray(r, dtype=np.float64)
        if r.ndim != 1 or len(r) != self.n_total:
            raise ValueError(
                f"apply: residual length {r.shape} does not match {self.n_total} dofs"
            )
        r_omega = r[: self.n_omega]
        r_gamma = r[self.n_omega :]
        if self.kind == "ml":
            z_omega = self._q_omega(r_omega)
            r_gamma = r_gamma - self._a_gamma_omega @ z_omega
            z_gamma = self._q_gamma(r_gamma)
        elif self.kind == "bu":
            z_gamma = self._q_gamma(r_gamma)
            r_omega = r_omega - self._a_omega_gamma @ z_gamma
            z_omega = self._q_omega(r_omega)
        else:  # bd
            z_omega = self._q_omega(r_omega)
            z_gamma = self._q_gamma(r_gamma)
        return np.concatenate([z_omega, z_gamma])

    __call__ = apply


def build_preconditioner(
    system: BlockSystem,
    kind: str = "ml",
    schur_mode: str = "diag",
    inner_omega: str = "amg",
    inner_gamma: str = "amg",
    amg_params: AmgParams | None = None,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> BlockPreconditioner:
    """Set up a block preconditioner for an assembled system.

    Parameters
    ----------
    system : BlockSystem
    kind : {"ml", "bu", "bd"}
        Block lower triangular, upper triangular, or block diagonal.
    schur_mode : {"diag", "exact"}
        Diagonal approximation of the interface block inside the Schur
        complement, or the dense exact Schur complement (oracle only;
        requires direct inner solves and a system below ``oracle_cap``).
    inner_omega, inner_gamma : {"amg", "direct"}
        One AMG V-cycle or an exact factorization per block. AMG on a purely
        diagonal interface block degenerates to the exact diagonal solve.
    amg_params : AmgParams, optional
    """
    _check_kind(kind)
    if schur_mode not in ("diag", "exact"):
        raise ValueError(f"unknown schur_mode {schur_mode!r}")
    for name, mode in (("inner_omega", inner_omega), ("inner_gamma", inner_gamma)):
        if mode not in ("amg", "direct"):
            raise ValueError(f"unknown {name} {mode!r}")
    if schur_mode == "exact":
        if inner_omega != "direct" or inner_gamma != "direct":
            raise ValueError("schur_mode='exact' is an oracle and requires direct inner solves")
        if system.n_total > oracle_cap:
            raise ValueError(
                f"schur_mode='exact' limited to {oracle_cap} dofs, system has {system.n_total}"
            )

    if schur_mode == "exact":
        schur = exact_schur(system, oracle_cap)
        q_omega = _DirectDense(schur, "build_preconditioner: Schur block")
        q_gamma = (
            _DirectDense(system.a_gamma_gamma.toarray(), "build_preconditioner: interface block")
            if system.n_gamma
            else (lambda r: r.copy())
        )
    else:
        schur = approx_schur(system)
        if inner_omega == "direct":
            q_omega = _DirectSparse(schur)
        else:
            q_omega = _AmgSolve(schur, amg_params)
        if system.n_gamma == 0:
            q_gamma = lambda r: r.copy()  # noqa: E731
        elif inner_gamma == "direct":
            q_gamma = _DirectSparse(system.a_gamma_gamma)
        else:
            q_gamma = _AmgSolve(system.a_gamma_gamma, amg_params)
    return BlockPreconditioner(
        kind=kind,
        n_omega=system.n_omega,
        n_gamma=system.n_gamma,
        q_omega=q_omega,
        q_gamma=q_gamma,
        a_gamma_omega=system.a_gamma_omega,
        a_omega_gamma=system.a_omega_gamma,
        schur_matrix=schur,
    )
