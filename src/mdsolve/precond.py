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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import BlockSystem
from .amg import amg_setup, apply_preconditioner_vcycle
from .sparse import CsrMatrix, canonical, dense_lu

__all__ = [
    "KINDS",
    "SCHUR_MODES",
    "INNER_MODES",
    "check_modes",
    "exact_schur",
    "approx_schur",
    "factorization_factors",
    "BlockPreconditioner",
    "build_preconditioner",
]

KINDS = ("ml", "bu", "bd")
SCHUR_MODES = ("diag", "exact")
INNER_MODES = ("amg", "direct")
ORACLE_CAP = 2000  # dofs; the exact-mode oracles are dense


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}, expected one of {KINDS}")


def check_modes(schur_mode: str, inner_omega: str, inner_gamma: str):
    """Reject a set-up mode name that :func:`build_preconditioner` does not know."""
    if schur_mode not in SCHUR_MODES:
        raise ValueError(f"unknown schur_mode {schur_mode!r}")
    for name, mode in (("inner_omega", inner_omega), ("inner_gamma", inner_gamma)):
        if mode not in INNER_MODES:
            raise ValueError(f"unknown {name} {mode!r}")


def exact_schur(system: BlockSystem) -> np.ndarray:
    """Dense Schur complement of the interface block (oracle only).

    Computes A_oo - A_og A_gg^-1 A_go. Refuses systems above ``ORACLE_CAP``
    dofs and singular interface blocks.
    """
    if system.n_total > ORACLE_CAP:
        raise ValueError(
            f"exact_schur: system has {system.n_total} dofs, above the oracle cap {ORACLE_CAP}"
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
    matching-grid case this package assembles. scipy forms the product and
    the difference, so a stored zero of an imported A_oo that the difference
    leaves at zero is dropped; an assembled A_oo stores none.
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
    with np.errstate(over="ignore"):  # a subnormal entry overflows; reported below
        dinv = 1.0 / diag
    bad = np.flatnonzero(~np.isfinite(dinv))
    if len(bad):
        raise ValueError(
            f"approx_schur: interface block diagonal entry {float(diag[bad[0]])!r} has no finite "
            f"inverse at interface DOF {bad[0]}"
        )
    coupling = system.a_omega_gamma @ sp.diags_array(dinv) @ system.a_gamma_omega
    return canonical(system.a_omega_omega - coupling)


def factorization_factors(system: BlockSystem):
    """Dense (U, D, L) factors of the monolithic operator (oracle only).

    U is unit block upper triangular with A_og A_gg^-1 in its off-diagonal
    block, D is blockdiag(Schur, A_gg), L is unit block lower triangular with
    A_gg^-1 A_go. Their product reproduces the monolithic matrix.
    """
    if system.n_total > ORACLE_CAP:
        raise ValueError(
            f"factorization_factors: system has {system.n_total} dofs, "
            f"above the oracle cap {ORACLE_CAP}"
        )
    no, ng, nt = system.n_omega, system.n_gamma, system.n_total
    s = exact_schur(system)
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


def _inner_solve(block, mode: str, name: str):
    """The solve of one diagonal block and its AMG hierarchy (None without one).

    A dense block is the exact-mode oracle and gets a dense LU; a sparse one
    gets a sparse LU in ``direct`` mode and one AMG V-cycle in ``amg`` mode.
    ``name`` labels the block in a singularity error.
    """
    if mode == "amg":
        hierarchy = amg_setup(block)
        return (lambda r: apply_preconditioner_vcycle(hierarchy, r)), hierarchy
    if isinstance(block, np.ndarray):
        lu = dense_lu(block, f"build_preconditioner: {name} block: matrix is singular "
                             f"to working precision")
        return (lambda r: scipy.linalg.lu_solve(lu, r)), None
    return spla.splu(block.tocsc()).solve, None


class BlockPreconditioner:
    """A built block preconditioner; ``apply`` is a fixed linear operator.

    Instances are created by :func:`build_preconditioner`. The setup (Schur
    assembly, then one inner solve per diagonal block: a factorization or an
    AMG hierarchy) is done once and is reusable across right-hand sides and,
    through :meth:`with_kind`, across kinds. The hierarchies built are kept
    for :meth:`hierarchies`. Apply allocates its own scratch, so concurrent
    applications are safe.
    """

    def __init__(self, kind, n_omega, n_gamma, q_omega, q_gamma, a_gamma_omega,
                 a_omega_gamma, schur_matrix, hierarchies):
        self.kind = kind
        self.n_omega = n_omega
        self.n_gamma = n_gamma
        self._q_omega = q_omega
        self._q_gamma = q_gamma
        self._a_gamma_omega = a_gamma_omega
        self._a_omega_gamma = a_omega_gamma
        self.schur_matrix = schur_matrix
        self._hierarchies = hierarchies

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
        """AMG hierarchies in use, keyed ``schur`` and ``interface`` (may be empty)."""
        return dict(self._hierarchies)

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
        requires direct inner solves and at most ``ORACLE_CAP`` dofs).
    inner_omega, inner_gamma : {"amg", "direct"}
        One AMG V-cycle or an exact factorization per block. AMG on a purely
        diagonal interface block degenerates to the exact diagonal solve.
    """
    _check_kind(kind)
    check_modes(schur_mode, inner_omega, inner_gamma)
    if schur_mode == "exact":
        if inner_omega != "direct" or inner_gamma != "direct":
            raise ValueError("schur_mode='exact' is an oracle and requires direct inner solves")
        if system.n_total > ORACLE_CAP:
            raise ValueError(
                f"schur_mode='exact' limited to {ORACLE_CAP} dofs, system has {system.n_total}"
            )

    if schur_mode == "exact":
        schur, a_gg = exact_schur(system), system.a_gamma_gamma.toarray()
    else:
        schur, a_gg = approx_schur(system), system.a_gamma_gamma
    q_omega, h_omega = _inner_solve(schur, inner_omega, "Schur")
    q_gamma, h_gamma = _inner_solve(a_gg, inner_gamma, "interface")
    hierarchies = {name: h for name, h in (("schur", h_omega), ("interface", h_gamma))
                   if h is not None}
    return BlockPreconditioner(
        kind=kind,
        n_omega=system.n_omega,
        n_gamma=system.n_gamma,
        q_omega=q_omega,
        q_gamma=q_gamma,
        a_gamma_omega=system.a_gamma_omega,
        a_omega_gamma=system.a_omega_gamma,
        schur_matrix=schur,
        hierarchies=hierarchies,
    )
