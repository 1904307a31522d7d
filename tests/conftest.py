"""Shared test helpers: model problems, random matrix factories, the
operators of an AMG hierarchy's levels, and a system whose preconditioner
set-up fails."""

import numpy as np
import scipy.sparse as sp
from hypothesis import settings

from mdsolve.amg import _galerkin
from mdsolve.assembly import BlockSystem, PhysicalParams, assemble
from mdsolve.grids import build_cross_2d
from mdsolve.sparse import CsrMatrix, canonical, csr_from_triplets
from mdsolve.sysio import export_system

# a failure prints its @reproduce_failure line, so it replays from the log
# even when its example holds objects that print as unpasteable reprs
settings.register_profile("mdsolve", print_blob=True)
settings.load_profile("mdsolve")


def eye(n: int) -> CsrMatrix:
    return canonical(sp.eye_array(n))


def poisson1d(n: int) -> CsrMatrix:
    """Tridiagonal (-1, 2, -1) operator."""
    return canonical(
        sp.diags_array([2.0 * np.ones(n), -np.ones(n - 1), -np.ones(n - 1)], offsets=[0, -1, 1])
    )


def poisson2d(nx: int, ny: int) -> CsrMatrix:
    """Five-point Laplacian stencil on an nx-by-ny grid, Dirichlet-eliminated."""
    n = nx * ny
    main = 4.0 * np.ones(n)
    off = -1.0 * np.ones(n - 1)
    for row in range(1, ny):
        off[row * nx - 1] = 0.0
    a = sp.diags_array([main, off, off], offsets=[0, -1, 1]) + sp.diags_array(
        [-np.ones(n - nx), -np.ones(n - nx)], offsets=[-nx, nx]
    )
    return canonical(a)


def level_operators(a, h) -> list:
    """The operator of each level of ``h = amg_setup(a)``, which the levels
    do not keep: ``a``, then ``P^T A P`` level by level from the stored
    prolongators, through the same ``amg._galerkin`` that set-up calls. Byte
    for byte what set-up computed; empty for a diagonal hierarchy."""
    if h.diagonal is not None:
        return []
    current = a
    operators = [current]
    for lev in h.levels[:-1]:
        current = _galerkin(current, lev.p)
        operators.append(current)
    return operators


def random_csr(rng: np.random.Generator, nrows: int, ncols: int, density: float = 0.3) -> CsrMatrix:
    """Seeded random sparse matrix built from raw triplets."""
    nnz = max(1, int(nrows * ncols * density))
    rows = rng.integers(0, nrows, size=nnz)
    cols = rng.integers(0, ncols, size=nnz)
    vals = rng.standard_normal(nnz)
    return csr_from_triplets((nrows, ncols), rows, cols, vals)


def random_spd_dense(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def export_zero_interface_diagonal(target) -> str:
    """Export ``cross_2d`` n=4 with ``A_gg[1, 1] = 0`` to ``target``: a valid
    block system on which ``approx_schur`` refuses to divide. Returns the
    directory as a string."""
    s = assemble(build_cross_2d(4), PhysicalParams())
    a_gg = s.a_gamma_gamma.toarray()
    a_gg[1, 1] = 0.0
    export_system(BlockSystem.from_blocks(s.a_omega_omega, s.a_omega_gamma, s.a_gamma_omega, canonical(a_gg),
                              s.rhs_omega, s.rhs_gamma, s.partition), target)
    return str(target)
