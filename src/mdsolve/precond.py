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

On the matching grids this package assembles, the interface block is
diagonal, so the approximate Schur complement is the exact one; the dense
exact-factorization oracle that checks this lives in the tests. Set-up
looks up ``approx_schur``, ``amg_setup`` and ``apply_preconditioner_vcycle``
in this module at call time, so a tracer that wraps them here times them.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp

from .assembly import BlockSystem
from .amg import amg_setup, apply_preconditioner_vcycle
from .sparse import CsrMatrix, canonical

__all__ = [
    "KINDS",
    "approx_schur",
    "BlockPreconditioner",
    "build_preconditioner",
]

KINDS = ("ml", "bu", "bd")


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"unknown preconditioner kind {kind!r}, expected one of {KINDS}")


def approx_schur(system: BlockSystem) -> CsrMatrix:
    """Sparse approximate Schur complement A_oo - A_og diag(A_gg)^-1 A_go.

    Equals the exact Schur complement whenever A_gg is diagonal, which is the
    matching-grid case this package assembles. scipy forms the product and
    the difference, so a stored zero of an imported A_oo that the difference
    leaves at zero is dropped; an assembled A_oo stores none. Without
    interfaces the Schur complement is the operator itself.
    """
    if system.n_gamma == 0:
        return system.operator
    diag = system.a_gamma_gamma.diagonal()
    zero = np.flatnonzero(diag == 0.0)
    if len(zero):
        raise ValueError(
            f"approx_schur: zero diagonal entry in the interface block "
            f"at interface DOF {zero[0]}"
        )
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


class BlockPreconditioner:
    """A built block preconditioner; ``apply`` is a fixed linear operator.

    Instances are created by :func:`build_preconditioner`. The setup (Schur
    assembly, then one AMG hierarchy per diagonal block) is done once and is
    reusable across right-hand sides and, through :meth:`with_kind`, across
    kinds. The instance keeps the inner solves, the hierarchies behind them
    (for :meth:`hierarchies`) and the two coupling blocks; it does not keep
    the Schur complement, so set-up frees it on return. Call
    :func:`approx_schur` for that matrix. Apply allocates its own scratch, so
    concurrent applications are safe.

    The constructor takes any inner solves ``q_omega`` and ``q_gamma`` (maps
    from a block's residual to its correction), so a caller can build the
    same three-step apply with, say, sparse LU solves of the Schur and
    interface blocks; ``hierarchies`` then may be empty. ``n_omega`` and
    ``n_gamma`` are read from the shape of ``a_gamma_omega``.
    """

    def __init__(self, kind, q_omega, q_gamma, a_gamma_omega, a_omega_gamma, hierarchies):
        _check_kind(kind)
        self.kind = kind
        self.n_gamma, self.n_omega = a_gamma_omega.shape
        self._q_omega = q_omega
        self._q_gamma = q_gamma
        self._a_gamma_omega = a_gamma_omega
        self._a_omega_gamma = a_omega_gamma
        self._hierarchies = hierarchies

    @property
    def n_total(self) -> int:
        return self.n_omega + self.n_gamma

    def with_kind(self, kind: str) -> "BlockPreconditioner":
        """This preconditioner with another kind, at no set-up cost.

        The kinds differ only in the order of the apply steps, so the result
        shares every factor of this one: both inner solves with their
        hierarchies, and the coupling blocks. Its ``apply`` equals
        that of a preconditioner built afresh with ``kind``.
        """
        _check_kind(kind)
        view = copy.copy(self)
        view.kind = kind
        return view

    def hierarchies(self) -> dict:
        """AMG hierarchies in use, keyed ``schur`` and ``interface`` when set
        up by :func:`build_preconditioner`."""
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


def build_preconditioner(system: BlockSystem, kind: str = "ml") -> BlockPreconditioner:
    """Set up a block preconditioner for an assembled system.

    Set-up forms :func:`approx_schur` and sets up one AMG V-cycle for it and
    one for the interface block; on a purely diagonal interface block that
    is the exact diagonal solve. The interface and coupling blocks are
    sliced after the Schur hierarchy is built, so they are not alive during
    its set-up.

    Parameters
    ----------
    system : BlockSystem
    kind : {"ml", "bu", "bd"}
        Block lower triangular, upper triangular, or block diagonal.
    """
    _check_kind(kind)  # before any set-up work
    h_omega = amg_setup(approx_schur(system))
    h_gamma = amg_setup(system.a_gamma_gamma)
    return BlockPreconditioner(
        kind=kind,
        q_omega=lambda r: apply_preconditioner_vcycle(h_omega, r),
        q_gamma=lambda r: apply_preconditioner_vcycle(h_gamma, r),
        a_gamma_omega=system.a_gamma_omega,
        a_omega_gamma=system.a_omega_gamma,
        hierarchies={"schur": h_omega, "interface": h_gamma},
    )
