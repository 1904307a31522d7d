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

The system is stored once, as the whole operator in partition order: the
matrix GMRES multiplies with. :func:`assemble` writes the triplets of all four
blocks in place and converts them to CSR in one step; each block is a copy
sliced out of the operator on request.
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


def _check_shapes(shapes: dict):
    """Raise ValueError naming the first ``name: (got, want)`` that differs."""
    for name, (got, want) in shapes.items():
        if got != want:
            raise ValueError(f"{name} has shape {got}, expected {want}")


def _csr_block(block) -> sp.csr_array:
    """``block`` as canonical float64 CSR, without writing to its arrays: a
    canonical CSR block's arrays are shared, any other block is converted
    and its own copy canonicalised."""
    m = sp.csr_array(block, dtype=np.float64)
    if not m.has_canonical_format:
        m = m.copy()
        m.sum_duplicates()
    return m


def _stack(blocks, n_omega: int, n_gamma: int) -> CsrMatrix:
    """The operator of the two-by-two grid of canonical CSR ``blocks``,
    written straight into its CSR arrays: each row holds the left block's
    row, then the right block's with its columns shifted by ``n_omega``.
    Byte for byte ``canonical(sp.bmat(blocks))``, without scipy's stacking
    copies; its only per-entry temporaries are two boolean masks."""
    n = n_omega + n_gamma
    nnz = sum(b.nnz for row in blocks for b in row)
    idx = sp.get_index_dtype(maxval=max(n, nnz))
    counts = [[np.diff(b.indptr) for b in row] for row in blocks]
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.concatenate([left + right for left, right in counts]), out=indptr[1:])
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    for (left, right), (n_left, n_right), (start, stop) in zip(
        blocks, counts, ((0, n_omega), (n_omega, n))
    ):
        seg = slice(indptr[start], indptr[stop])
        from_left = np.repeat(np.tile([True, False], stop - start),
                              np.column_stack([n_left, n_right]).ravel())
        from_right = ~from_left
        data[seg][from_left] = left.data
        data[seg][from_right] = right.data
        indices[seg][from_left] = left.indices
        indices[seg][from_right] = np.add(right.indices, n_omega, dtype=idx)
    return canonical(sp.csr_array((data, indices, indptr), shape=(n, n)))


@dataclass(frozen=True)
class BlockSystem:
    """The assembled two-by-two block system plus its DOF partition.

    The system holds one copy of its matrix: ``operator``, the whole system
    in partition order (all omega DOFs, then all gamma DOFs) as a canonical,
    read-only :class:`CsrMatrix`. GMRES multiplies with it as it is
    (:func:`monolithic`). The four blocks ``a_omega_omega``,
    ``a_omega_gamma``, ``a_gamma_omega`` and ``a_gamma_gamma`` are sliced
    out of it: each access returns a fresh canonical, read-only copy, stored
    zeros included, so keep a block only while it is needed.
    :meth:`from_blocks` builds a system from four blocks.
    """

    operator: CsrMatrix
    rhs_omega: np.ndarray
    rhs_gamma: np.ndarray
    partition: DofPartition

    def __post_init__(self):
        n = self.n_total
        _check_shapes({
            "operator": (self.operator.shape, (n, n)),
            "rhs_omega": ((len(self.rhs_omega),), (self.n_omega,)),
            "rhs_gamma": ((len(self.rhs_gamma),), (self.n_gamma,)),
        })

    @classmethod
    def from_blocks(cls, a_omega_omega, a_omega_gamma, a_gamma_omega, a_gamma_gamma,
                    rhs_omega, rhs_gamma, partition: DofPartition) -> "BlockSystem":
        """The system of four sparse blocks, stacked once into its operator.

        The blocks are copied, so nothing of them is kept, and none is
        written to. Each block property of the result equals the canonical
        form of the block given.

        Raises
        ------
        ValueError
            Naming the first block or right-hand side whose shape does not
            match the partition.
        """
        no, ng = partition.n_omega, partition.n_gamma
        _check_shapes({
            "a_omega_omega": (a_omega_omega.shape, (no, no)),
            "a_omega_gamma": (a_omega_gamma.shape, (no, ng)),
            "a_gamma_omega": (a_gamma_omega.shape, (ng, no)),
            "a_gamma_gamma": (a_gamma_gamma.shape, (ng, ng)),
        })
        blocks = [[_csr_block(a_omega_omega), _csr_block(a_omega_gamma)],
                  [_csr_block(a_gamma_omega), _csr_block(a_gamma_gamma)]]
        return cls(_stack(blocks, no, ng), rhs_omega, rhs_gamma, partition)

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
    def _omega(self) -> slice:
        return slice(0, self.n_omega)

    @property
    def _gamma(self) -> slice:
        return slice(self.n_omega, self.n_total)

    @property
    def a_omega_omega(self) -> CsrMatrix:
        """A_oo, the subdomain block: a copy sliced out of the operator."""
        return canonical(self.operator[self._omega, self._omega])

    @property
    def a_omega_gamma(self) -> CsrMatrix:
        """A_og, the mortar columns of the subdomain rows: a sliced copy."""
        return canonical(self.operator[self._omega, self._gamma])

    @property
    def a_gamma_omega(self) -> CsrMatrix:
        """A_go, the subdomain columns of the interface rows: a sliced copy."""
        return canonical(self.operator[self._gamma, self._omega])

    @property
    def a_gamma_gamma(self) -> CsrMatrix:
        """A_gg, the interface block: a copy sliced out of the operator."""
        return canonical(self.operator[self._gamma, self._gamma])

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

    # per-object values, repeated below onto their cells, boundary faces and
    # mortars; the internal faces read them object by object
    omega_start = {sid: start for sid, start, _ in part.omega_ranges}
    xsec = {s.id: aperture ** (grid.ambient_dim - s.dim) for s in subs}
    k_sub = np.array([perm[s.id] for s in subs])
    x_sub = np.array([xsec[s.id] for s in subs])
    off_sub = np.array([omega_start[s.id] for s in subs], dtype=np.int64)

    # boundary faces
    n_bnd = [len(s.bnd_cell) for s in subs]
    bc = _concat([s.bnd_cell for s in subs], np.int64) + np.repeat(off_sub, n_bnd)
    geo = _concat([s.bnd_geo for s in subs], float)
    tb = np.repeat(k_sub, n_bnd) * geo * np.repeat(x_sub, n_bnd)
    dirichlet = _concat([s.bnd_dirichlet for s in subs], bool)
    value = _concat([s.bnd_value for s in subs], float)

    # right-hand side: boundary terms in face order, then cell sources
    rhs_omega = np.zeros(n_omega)
    np.add.at(rhs_omega, bc, np.where(dirichlet, tb * value, value))
    counts = [s.cell_count for s in subs]
    volumes = _concat([s.cell_volumes for s in subs], float)
    rhs_omega[_global_index(off_sub, counts)] += source * volumes * np.repeat(x_sub, counts)
    del geo, value, volumes

    # mortars: the cells on both sides and the interface diagonal
    n_mortar = [len(i.area) for i in itfs]
    gamma_start = {iid: start for iid, start, _ in part.gamma_ranges}
    gamma = _global_index([gamma_start[i.id] for i in itfs], n_mortar)
    higher = _concat([i.higher_cell for i in itfs], np.int64) + np.repeat(
        [omega_start[i.higher_id] for i in itfs], n_mortar
    )
    lower = _concat([i.lower_cell for i in itfs], np.int64) + np.repeat(
        [omega_start[i.lower_id] for i in itfs], n_mortar
    )
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
    gamma_diag[gamma - n_omega] = -area / kappa_eff
    del area, t_half, kappa_eff

    # Only cells with a face or a Dirichlet term store an A_oo diagonal (0d
    # cells have none).
    has_diag = np.zeros(n_omega, bool)
    for s, off in zip(subs, off_sub):
        own = has_diag[off : off + s.cell_count]
        own[s.face_a] = own[s.face_b] = True
    has_diag[bc[dirichlet]] = True
    cells = np.flatnonzero(has_diag)
    del has_diag

    # The operator's triplets, written in place in its index dtype: per
    # internal face the A_oo pair (a, b), (b, a) in face order, then A_oo's
    # diagonal, then per mortar the A_og pair (higher, g), (lower, g), its
    # transpose in A_go, and last A_gg's diagonal.
    n_total = part.n_total
    n_face = sum(len(s.face_a) for s in subs)
    f2, nd = 2 * n_face, len(cells)
    og, go, gg = f2 + nd, f2 + nd + 2 * n_gamma, f2 + nd + 4 * n_gamma
    idx = sp.get_index_dtype(maxval=n_total)
    rows = np.empty(gg + n_gamma, dtype=idx)
    cols = np.empty_like(rows)
    vals = np.empty(len(rows))

    # TPFA transmissibilities of the internal faces, twice each, with their
    # face ends (a, b) interleaved
    lo = 0
    for s, k, x, off in zip(subs, k_sub, x_sub, off_sub):
        hi = lo + 2 * len(s.face_a)
        np.add(s.face_a, off, out=rows[lo:hi:2])
        np.add(s.face_b, off, out=rows[lo + 1 : hi : 2])
        t = vals[lo:hi:2]
        np.multiply(s.face_geo, k, out=t)
        t *= x
        vals[lo + 1 : hi : 2] = t
        lo = hi

    # A_oo: the diagonal sums each cell's faces in face order, then its
    # Dirichlet terms, the order in which summing the duplicates of per-face
    # (a,a),(b,b) triplets added them (bincount returns integers when there
    # is no face). The off-diagonal entries are -t.
    diag = np.bincount(rows[:f2], vals[:f2], minlength=n_omega).astype(float, copy=False)
    np.add.at(diag, bc[dirichlet], tb[dirichlet])
    np.negative(vals[:f2], out=vals[:f2])
    cols[:f2:2], cols[1:f2:2] = rows[1:f2:2], rows[:f2:2]
    rows[f2:og] = cols[f2:og] = cells
    vals[f2:og] = diag[cells]
    del diag, cells

    # omega-gamma coupling: +1 on the higher side, -1 on the lower side; the
    # interface rows are its exact transpose
    rows[og:go:2], rows[og + 1 : go : 2] = higher, lower
    cols[og:go:2] = cols[og + 1 : go : 2] = gamma
    vals[og:go:2], vals[og + 1 : go : 2] = 1.0, -1.0
    rows[go:gg], cols[go:gg], vals[go:gg] = cols[og:go], rows[og:go], vals[og:go]
    rows[gg:] = cols[gg:] = np.arange(n_omega, n_total)
    vals[gg:] = gamma_diag
    del higher, lower, gamma, gamma_diag

    operator = csr_from_triplets((n_total, n_total), rows, cols, vals)
    return BlockSystem(operator, rhs_omega, np.zeros(n_gamma), part)


def monolithic(system: BlockSystem) -> CsrMatrix:
    """The whole system in partition order: ``system.operator`` itself, not a copy."""
    return system.operator
