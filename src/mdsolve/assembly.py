"""Finite volume discretization of mixed-dimensional Darcy flow.

Each subdomain carries a two-point flux approximation of its tangential
elliptic equation; each interface carries one mortar flux unknown per mortar
cell, tied to the adjacent pressures by a Darcy-type transmission law. The
result is the two-by-two block system

    [A_oo  A_og] [p]   [f_o]
    [A_go  A_gg] [l] = [f_g]

with pressure unknowns p for all subdomains and mortar fluxes l for all
interfaces. The coupling blocks hold +-1 entries (+ on the higher-dimensional
side, where the mortar flux leaves, - on the lower-dimensional side, where it
enters), the interface rows are scaled by mortar area so that A_og equals the
transpose of A_go exactly, and A_gg is diagonal on matching grids with
entries -area/kappa_eff. The half-cell resistance of the higher-dimensional
neighbor is folded into kappa_eff, which keeps one unknown per mortar cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np
import scipy.sparse as sp

from .grids import DofPartition, MixedDimGrid, _concat
from .sparse import CsrMatrix, canonical, csr_from_triplets

__all__ = ["PhysicalParams", "BlockSystem", "assemble", "monolithic"]

ParamValue = Union[float, Mapping[int, float]]


@dataclass(frozen=True)
class PhysicalParams:
    """Material parameters for a mixed-dimensional flow problem.

    Scalars apply uniformly; mappings assign values per subdomain id
    (``matrix_permeability``, ``k_parallel``, ``source``) or per interface id
    (``kappa``) and must cover every object, else :func:`assemble` raises.

    Attributes
    ----------
    matrix_permeability : float or mapping
        Permeability of the ambient-dimensional subdomain(s).
    k_parallel : float or mapping
        Tangential permeability of every lower-dimensional subdomain.
    kappa : float or mapping
        Normal transmissivity of each interface (per unit mortar area).
    aperture : float
        Cross-section scale per dimension gap; a subdomain of codimension c
        gets tangential transmissibilities and volume integrals scaled by
        aperture**c. Unit aperture leaves the system unscaled.
    source : float or mapping
        Per-cell source density; a mapping holds one array per subdomain id.
    """

    matrix_permeability: ParamValue = 1.0
    k_parallel: ParamValue = 1.0
    kappa: ParamValue = 1.0
    aperture: float = 1.0
    source: Union[float, Mapping[int, np.ndarray]] = 0.0


def _lookup(value: ParamValue, key: int, what: str) -> float:
    if isinstance(value, Mapping):
        if key not in value:
            raise ValueError(f"missing {what} for id {key}")
        out = float(value[key])
    else:
        out = float(value)
    if not np.isfinite(out) or out <= 0.0:
        raise ValueError(f"{what} for id {key} must be positive and finite, got {out}")
    return out


def _global_index(starts, counts) -> np.ndarray:
    """Global DOF of each entry of consecutive objects numbered from their ``starts``."""
    counts = np.asarray(counts, dtype=np.int64)
    first = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(np.asarray(starts, dtype=np.int64) - first, counts)


@dataclass(frozen=True)
class BlockSystem:
    """The assembled two-by-two block system plus its DOF partition."""

    a_omega_omega: CsrMatrix
    a_omega_gamma: CsrMatrix
    a_gamma_omega: CsrMatrix
    a_gamma_gamma: CsrMatrix
    rhs_omega: np.ndarray
    rhs_gamma: np.ndarray
    partition: DofPartition

    def __post_init__(self):
        no, ng = self.n_omega, self.n_gamma
        shapes = {
            "a_omega_omega": (self.a_omega_omega.shape, (no, no)),
            "a_omega_gamma": (self.a_omega_gamma.shape, (no, ng)),
            "a_gamma_omega": (self.a_gamma_omega.shape, (ng, no)),
            "a_gamma_gamma": (self.a_gamma_gamma.shape, (ng, ng)),
            "rhs_omega": ((len(self.rhs_omega),), (no,)),
            "rhs_gamma": ((len(self.rhs_gamma),), (ng,)),
        }
        for name, (got, want) in shapes.items():
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")

    @property
    def n_omega(self) -> int:
        return self.partition.n_omega

    @property
    def n_gamma(self) -> int:
        return self.partition.n_gamma

    @property
    def n_total(self) -> int:
        return self.partition.n_total

    @property
    def rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs_omega, self.rhs_gamma])

    def split(self, x: np.ndarray):
        """Split a full-length vector into its omega and gamma parts."""
        x = np.asarray(x)
        if len(x) != self.n_total:
            raise ValueError(f"vector length {len(x)} does not match {self.n_total} dofs")
        return x[: self.n_omega], x[self.n_omega :]


def assemble(grid: MixedDimGrid, params: PhysicalParams) -> BlockSystem:
    """Assemble the block system for a grid and parameter set.

    Subdomain rows are TPFA balances: harmonic-average transmissibilities
    inside each subdomain, Dirichlet boundaries folded into the diagonal and
    right-hand side (which keeps the operator symmetric), Neumann boundaries
    into the right-hand side only, and one +-1 mortar column entry per
    incident mortar cell. Interface rows impose the transmission law with an
    effective transmissivity 1/(1/kappa + 1/t_half), where t_half is the
    per-area half-cell transmissibility of the higher-dimensional neighbor.

    Raises
    ------
    ValueError
        On a missing or nonpositive parameter, including zero kappa.
    """
    part = grid.dof_partition
    n_omega, n_gamma = part.n_omega, part.n_gamma
    subs, itfs = grid.subdomains, grid.interfaces

    # parameter coverage check up front so errors do not depend on topology
    perm = {}
    for s in subs:
        which = (
            ("matrix permeability", params.matrix_permeability)
            if s.dim == grid.ambient_dim
            else ("tangential permeability", params.k_parallel)
        )
        perm[s.id] = _lookup(which[1], s.id, which[0])
    kappa = [_lookup(params.kappa, i.id, "interface transmissivity") for i in itfs]
    aperture = float(params.aperture)
    if not np.isfinite(aperture) or aperture <= 0:
        raise ValueError(f"aperture must be positive and finite, got {aperture}")
    if isinstance(params.source, Mapping):
        sources = []
        for s in subs:
            if s.id not in params.source:
                raise ValueError(f"missing source for id {s.id}")
            f = np.asarray(params.source[s.id], dtype=float)
            if f.shape != (s.cell_count,):
                raise ValueError(
                    f"source for subdomain {s.id} has shape {f.shape}, expected ({s.cell_count},)"
                )
            sources.append(f)
        source = _concat(sources, float)
    else:
        source = float(params.source)

    # per-object values, repeated below onto their faces, cells and mortars
    omega_start = {sid: start for sid, start, _ in part.omega_ranges}
    xsec = {s.id: aperture ** (grid.ambient_dim - s.dim) for s in subs}
    k_sub = np.array([perm[s.id] for s in subs])
    x_sub = np.array([xsec[s.id] for s in subs])
    off_sub = np.array([omega_start[s.id] for s in subs], dtype=np.int64)

    # TPFA transmissibilities of all internal faces, with the face ends (a, b)
    # interleaved, in the triplets' index dtype (int32 where n_omega allows)
    n_faces = [len(s.face_a) for s in subs]
    idx = sp.get_index_dtype(maxval=n_omega)
    off = np.repeat(off_sub, n_faces)
    ends = np.empty((len(off), 2), dtype=idx)
    ends[:, 0] = _concat([s.face_a for s in subs], np.int64) + off
    ends[:, 1] = _concat([s.face_b for s in subs], np.int64) + off
    del off
    t = _concat([s.face_geo for s in subs], float)
    t *= np.repeat(k_sub, n_faces)
    t *= np.repeat(x_sub, n_faces)
    n_bnd = [len(s.bnd_cell) for s in subs]
    bc = _concat([s.bnd_cell for s in subs], np.int64) + np.repeat(off_sub, n_bnd)
    geo = _concat([s.bnd_geo for s in subs], float)
    tb = np.repeat(k_sub, n_bnd) * geo * np.repeat(x_sub, n_bnd)
    dirichlet = _concat([s.bnd_dirichlet for s in subs], bool)
    value = _concat([s.bnd_value for s in subs], float)

    # A_oo: the diagonal sums each cell's faces in face order, then its
    # Dirichlet terms, the order in which summing the duplicates of per-face
    # (a,a),(b,b) triplets added them. Only cells with a face or a Dirichlet
    # term store a diagonal (0d cells have none). The off-diagonal triplets,
    # (a,b),(b,a) per face, keep face order for the CSR conversion.
    diag_cells = np.concatenate([ends.ravel(), bc[dirichlet]])
    diag = np.bincount(diag_cells, np.concatenate([np.repeat(t, 2), tb[dirichlet]]),
                       minlength=n_omega)
    cells = np.flatnonzero(np.bincount(diag_cells, minlength=n_omega)).astype(idx)
    del diag_cells
    rows = np.concatenate([ends.ravel(), cells])
    cols = np.concatenate([ends[:, ::-1].ravel(), cells])
    del ends
    vals = np.concatenate([np.repeat(-t, 2), diag[cells]])
    del t, diag, cells
    a_oo = csr_from_triplets((n_omega, n_omega), rows, cols, vals)
    del rows, cols, vals

    # right-hand side: boundary terms in face order, then cell sources
    rhs_omega = np.zeros(n_omega)
    np.add.at(rhs_omega, bc, np.where(dirichlet, tb * value, value))
    counts = [s.cell_count for s in subs]
    volumes = _concat([s.cell_volumes for s in subs], float)
    rhs_omega[_global_index(off_sub, counts)] += source * volumes * np.repeat(x_sub, counts)

    # omega-gamma coupling: +1 on the higher side, -1 on the lower side
    n_mortar = [len(i.area) for i in itfs]
    gamma_start = {iid: start - n_omega for iid, start, _ in part.gamma_ranges}
    gamma = _global_index([gamma_start[i.id] for i in itfs], n_mortar)
    higher = _concat([i.higher_cell for i in itfs], np.int64) + np.repeat(
        [omega_start[i.higher_id] for i in itfs], n_mortar
    )
    lower = _concat([i.lower_cell for i in itfs], np.int64) + np.repeat(
        [omega_start[i.lower_id] for i in itfs], n_mortar
    )
    cp_rows = np.stack([higher, lower], axis=1).ravel()
    cp_cols = np.repeat(gamma, 2)
    cp_vals = np.tile([1.0, -1.0], len(gamma))
    # per-area half transmissibility of the higher-dim neighbor cell
    area = _concat([i.area for i in itfs], float)
    t_half = (
        np.repeat([perm[i.higher_id] for i in itfs], n_mortar)
        * np.repeat([xsec[i.higher_id] for i in itfs], n_mortar)
        * _concat([i.higher_geo for i in itfs], float)
        / area
    )
    kappa_eff = 1.0 / (1.0 / np.repeat(kappa, n_mortar) + 1.0 / t_half)
    gamma_diag = np.zeros(n_gamma)
    gamma_diag[gamma] = -area / kappa_eff

    a_og = csr_from_triplets((n_omega, n_gamma), cp_rows, cp_cols, cp_vals)
    a_go = canonical(a_og.T.tocsr())
    mortar = np.arange(n_gamma)
    a_gg = csr_from_triplets((n_gamma, n_gamma), mortar, mortar, gamma_diag)
    return BlockSystem(a_oo, a_og, a_go, a_gg, rhs_omega, np.zeros(n_gamma), part)


def monolithic(system: BlockSystem) -> CsrMatrix:
    """Concatenate the four blocks into one operator in partition order."""
    if system.n_gamma == 0:
        return system.a_omega_omega
    return canonical(sp.bmat(
        [[system.a_omega_omega, system.a_omega_gamma],
         [system.a_gamma_omega, system.a_gamma_gamma]],
        format="csr",
    ))
