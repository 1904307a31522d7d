"""Mixed-dimensional grid construction on the unit square / cube.

A grid is a collection of subdomains (the porous matrix plus embedded
fracture objects of successively lower dimension) and interfaces that couple
each object to the one dimension below it. All geometries are axis-aligned
on a Cartesian n-by-n(-by-n) lattice with matching grids, so every mortar
cell coincides with one boundary face of the higher-dimensional neighbor and
one cell of the lower-dimensional one.

Faces and mortar cells are stored as numpy arrays, one entry per face or
mortar cell, and each array once. Cell indices are int32 while the cell
count fits, int64 beyond. A geometric factor that is the same on every face
or cell of one object (every factor the builders produce) is a read-only
zero-stride view of one float64, ``np.broadcast_to(value, length)``. No cell
centers are stored. Degrees of freedom are laid out with all subdomain
(pressure) unknowns first and all interface (mortar flux) unknowns after
them.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BoundaryConfig",
    "Subdomain",
    "Interface",
    "DofPartition",
    "MixedDimGrid",
    "Segment",
    "build_network_2d",
    "build_cross_2d",
    "build_random_network_2d",
    "build_regular_network_3d",
]


# A 1d fracture in 2d: runs along `axis` at lattice line `line` of the other
# axis, spanning lattice coordinates [lo, hi] of the running axis.
Segment = namedtuple("Segment", "axis line lo hi")

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


@dataclass(frozen=True)
class BoundaryConfig:
    """Outer-box boundary conditions.

    Dirichlet pressure is imposed on the two sides perpendicular to
    ``dirichlet_axis`` (``value_low`` at coordinate 0, ``value_high`` at
    coordinate 1); every other side is no-flux Neumann. ``dirichlet_axis =
    None`` gives a pure Neumann box.
    """

    dirichlet_axis: int | None = 0
    value_low: float = 1.0
    value_high: float = 0.0

    def tag(self, axis: int, high_side: bool):
        if self.dirichlet_axis is not None and axis == self.dirichlet_axis:
            return (DIRICHLET, self.value_high if high_side else self.value_low)
        return (NEUMANN, 0.0)


@dataclass(frozen=True)
class Subdomain:
    """One geometric object of fixed dimension with its cell grid.

    Internal face ``k`` joins cells ``face_a[k]`` and ``face_b[k]`` with
    geometric factor ``face_geo[k]``: face measure divided by center
    distance in the subdomain's own dimension. Boundary face ``k`` belongs
    to cell ``bnd_cell[k]`` with factor ``bnd_geo[k]``; it imposes pressure
    ``bnd_value[k]`` where ``bnd_dirichlet[k]`` is true and carries the
    Neumann flux ``bnd_value[k]`` elsewhere. The builders store cell indices
    as int32 while ``cell_count`` fits (int64 beyond), ``bnd_dirichlet`` as
    bool and the values as float64; ``cell_volumes``, ``face_geo`` and
    ``bnd_geo`` are read-only zero-stride float64 views of one value each.
    Any integer and float dtypes pass :meth:`MixedDimGrid.validate`.
    """

    id: int
    dim: int
    cell_count: int
    cell_volumes: np.ndarray
    face_a: np.ndarray
    face_b: np.ndarray
    face_geo: np.ndarray
    bnd_cell: np.ndarray
    bnd_geo: np.ndarray
    bnd_dirichlet: np.ndarray
    bnd_value: np.ndarray


@dataclass(frozen=True)
class Interface:
    """Mortar coupling between a (d+1)-dimensional and a d-dimensional subdomain.

    Mortar cell ``m`` joins cell ``higher_cell[m]`` of the higher side, whose
    face toward the mortar has geometric factor ``higher_geo[m]``, to cell
    ``lower_cell[m]`` of the lower side over area ``area[m]``; cell indices
    are local to their subdomain. ``orientation[m]`` is the sign (+-1) of
    the axis component of the higher side's outward normal at the mortar.
    The builders store each cell index array in int32 while its
    subdomain's cell count fits (int64 beyond), ``orientation`` as int64,
    and ``higher_geo`` and ``area`` as read-only zero-stride float64 views
    of one value each.
    """

    id: int
    dim: int
    higher_id: int
    lower_id: int
    higher_cell: np.ndarray
    higher_geo: np.ndarray
    lower_cell: np.ndarray
    area: np.ndarray
    orientation: np.ndarray


@dataclass(frozen=True)
class DofPartition:
    """Contiguous global DOF ranges, subdomains first, interfaces after."""

    omega_ranges: tuple  # (subdomain_id, start, stop)
    gamma_ranges: tuple  # (interface_id, start, stop)

    @property
    def n_omega(self) -> int:
        return self.omega_ranges[-1][2] if self.omega_ranges else 0

    @property
    def n_gamma(self) -> int:
        base = self.n_omega
        return (self.gamma_ranges[-1][2] - base) if self.gamma_ranges else 0

    @property
    def n_total(self) -> int:
        return self.n_omega + self.n_gamma

    def validate(self):
        cursor = 0
        for _, start, stop in list(self.omega_ranges) + list(self.gamma_ranges):
            if start != cursor or stop < start:
                raise ValueError("DOF ranges must be contiguous and ordered")
            cursor = stop
        return self


def _concat(arrays, dtype) -> np.ndarray:
    """Concatenate per-object arrays into one of ``dtype``, empty when there are none."""
    return np.concatenate([np.empty(0, dtype), *arrays])


def _outside(cells: np.ndarray, count) -> np.ndarray:
    return (cells < 0) | (cells >= count)


def _reject(items, test, message: str, *columns):
    """Raise ``ValueError(message.format(item.id, *column values))`` at the
    first entry where ``test(item)`` is true, taking the items in order."""
    for item in items:
        bad = test(item)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(message.format(item.id, *(getattr(item, c)[k] for c in columns)))


def _repeated_faces(itf) -> np.ndarray:
    """True at each mortar cell whose (higher cell, side) an earlier one uses."""
    key = itf.higher_cell.astype(np.int64) * 2 + (itf.orientation > 0)
    repeated = np.ones(len(key), dtype=bool)
    repeated[np.unique(key, return_index=True)[1]] = False
    return repeated


@dataclass(frozen=True)
class MixedDimGrid:
    ambient_dim: int
    subdomains: tuple
    interfaces: tuple
    dof_partition: DofPartition

    def subdomain(self, sid: int) -> Subdomain:
        return self._by_id(self.subdomains, sid, "subdomain")

    def interface(self, iid: int) -> Interface:
        return self._by_id(self.interfaces, iid, "interface")

    @staticmethod
    def _by_id(items, ident, what):
        for item in items:
            if item.id == ident:
                return item
        raise KeyError(f"no {what} with id {ident}")

    def validate(self):
        """Check structural invariants; raises ValueError naming the first
        object that breaks a rule. Each array rule runs over all subdomains,
        then over all interfaces, in the arrays' own dtypes."""
        subs, itfs = self.subdomains, self.interfaces
        sub_by_id = {s.id: s for s in subs}
        if len(sub_by_id) != len(subs):
            raise ValueError("duplicate subdomain ids")
        for s in subs:
            if not 0 <= s.dim <= self.ambient_dim:
                raise ValueError(f"subdomain {s.id} has dim {s.dim} outside 0..{self.ambient_dim}")
            if len(s.cell_volumes) != s.cell_count:
                raise ValueError(f"subdomain {s.id}: cell array lengths mismatch")
            if not len(s.face_a) == len(s.face_b) == len(s.face_geo):
                raise ValueError(f"subdomain {s.id}: internal face array lengths mismatch")
            if not len(s.bnd_cell) == len(s.bnd_geo) == len(s.bnd_dirichlet) == len(s.bnd_value):
                raise ValueError(f"subdomain {s.id}: boundary face array lengths mismatch")
            if s.bnd_dirichlet.dtype != bool:
                raise ValueError(
                    f"subdomain {s.id}: unknown boundary tag, bnd_dirichlet has dtype "
                    f"{s.bnd_dirichlet.dtype} instead of bool"
                )
        _reject(subs, lambda s: s.cell_volumes <= 0, "subdomain {}: nonpositive cell volume")
        _reject(
            subs,
            lambda s: (s.face_a == s.face_b)
            | _outside(s.face_a, s.cell_count)
            | _outside(s.face_b, s.cell_count),
            "subdomain {}: invalid internal face ({},{})", "face_a", "face_b",
        )
        _reject(subs, lambda s: s.face_geo <= 0, "subdomain {}: nonpositive face factor")
        _reject(
            subs, lambda s: _outside(s.bnd_cell, s.cell_count) | (s.bnd_geo <= 0),
            "subdomain {}: invalid boundary face",
        )

        iface_ids = set()
        for itf in itfs:
            if itf.id in iface_ids:
                raise ValueError("duplicate interface ids")
            iface_ids.add(itf.id)
            if itf.higher_id not in sub_by_id or itf.lower_id not in sub_by_id:
                raise ValueError(f"interface {itf.id}: unknown neighbor id")
            hi, lo = sub_by_id[itf.higher_id], sub_by_id[itf.lower_id]
            if hi.dim != lo.dim + 1 or itf.dim != lo.dim:
                raise ValueError(
                    f"interface {itf.id}: dimension chain broken "
                    f"(higher {hi.dim}, lower {lo.dim}, interface {itf.dim})"
                )
            lengths = {len(a) for a in (itf.higher_cell, itf.higher_geo, itf.lower_cell, itf.area)}
            if len(lengths) != 1:
                raise ValueError(f"interface {itf.id}: mortar array lengths mismatch")
            if len(itf.orientation) != len(itf.area):
                raise ValueError(f"interface {itf.id}: orientation length mismatch")
        _reject(
            itfs,
            lambda i: _outside(i.higher_cell, sub_by_id[i.higher_id].cell_count)
            | _outside(i.lower_cell, sub_by_id[i.lower_id].cell_count),
            "interface {}: cell index out of range",
        )
        _reject(
            itfs, lambda i: (i.higher_geo <= 0) | (i.area <= 0),
            "interface {}: nonpositive mortar geometry",
        )
        _reject(
            itfs, lambda i: (i.orientation != 1) & (i.orientation != -1),
            "interface {}: orientation must be +-1",
        )
        _reject(itfs, _repeated_faces, "interface {}: higher-dim face used twice")
        self.dof_partition.validate()
        for iid, start, stop in self.dof_partition.gamma_ranges:
            if stop - start != len(self.interface(iid).area):
                raise ValueError(f"interface {iid}: gamma range does not match mortar count")
        for sid, start, stop in self.dof_partition.omega_ranges:
            if stop - start != self.subdomain(sid).cell_count:
                raise ValueError(f"subdomain {sid}: omega range does not match cell count")
        return self

    def summary(self) -> dict:
        """Counts and DOF layout as a plain dict (JSON-friendly)."""
        by_dim_subs: dict = {}
        by_dim_cells: dict = {}
        for s in self.subdomains:
            by_dim_subs[s.dim] = by_dim_subs.get(s.dim, 0) + 1
            by_dim_cells[s.dim] = by_dim_cells.get(s.dim, 0) + s.cell_count
        return {
            "ambient_dim": self.ambient_dim,
            "subdomains": len(self.subdomains),
            "interfaces": len(self.interfaces),
            "subdomains_by_dim": dict(sorted(by_dim_subs.items(), reverse=True)),
            "cells_by_dim": dict(sorted(by_dim_cells.items(), reverse=True)),
            "mortar_cells": sum(len(i.area) for i in self.interfaces),
            "n_omega": self.dof_partition.n_omega,
            "n_gamma": self.dof_partition.n_gamma,
            "n_total": self.dof_partition.n_total,
            "omega_ranges": [list(r) for r in self.dof_partition.omega_ranges],
            "gamma_ranges": [list(r) for r in self.dof_partition.gamma_ranges],
        }

    def describe(self) -> str:
        s = self.summary()
        lines = [
            f"mixed-dimensional grid, ambient dimension {s['ambient_dim']}",
            f"  subdomains: {s['subdomains']} "
            + ", ".join(f"dim {d}: {c}" for d, c in s["subdomains_by_dim"].items()),
            f"  cells:      " + ", ".join(f"dim {d}: {c}" for d, c in s["cells_by_dim"].items()),
            f"  interfaces: {s['interfaces']} with {s['mortar_cells']} mortar cells",
            f"  dofs:       {s['n_omega']} pressure + {s['n_gamma']} mortar = {s['n_total']}",
        ]
        return "\n".join(lines)


def _build_partition(subdomains, interfaces) -> DofPartition:
    omega = []
    cursor = 0
    for s in subdomains:
        omega.append((s.id, cursor, cursor + s.cell_count))
        cursor += s.cell_count
    gamma = []
    for itf in interfaces:
        gamma.append((itf.id, cursor, cursor + len(itf.area)))
        cursor += len(itf.area)
    return DofPartition(tuple(omega), tuple(gamma))


# -- lattice helpers shared by both builders ----------------------------------


def _index_dtype(count: int):
    """int32 while ``count`` fits, int64 beyond: the rule of scipy's CSR indices."""
    return sp.get_index_dtype(maxval=count)


def _cells(shape) -> np.ndarray:
    """Cell index ``c_0 + m_0 c_1 + m_0 m_1 c_2`` of every lattice cell, indexed by coordinates."""
    count = int(np.prod(shape))
    return np.arange(count, dtype=_index_dtype(count)).reshape(shape, order="F")


def _layer(shape, axis: int, k: int) -> np.ndarray:
    """Cells of lattice layer ``k`` normal to ``axis``, first remaining axis fastest.

    Built from the lattice strides, so no index array of the whole lattice
    is made."""
    stride = np.cumprod((1, *shape[:-1]))
    cells = k * stride[axis]
    for a in reversed([a for a in range(len(shape)) if a != axis]):
        cells = np.add.outer(cells, np.arange(shape[a]) * stride[a])
    return cells.ravel()


def _lattice(sid, shape, h, bc, axes=(), cuts=(), sides=None) -> Subdomain:
    """Subdomain on a box of ``shape`` cells of spacing ``h``, one entry per lattice axis.

    Lattice axis ``a`` runs along ambient axis ``axes[a]``. A cut ``(a, k,
    span)`` removes the internal faces between layers ``k - 1`` and ``k``
    along axis ``a`` over ``span`` of every transverse axis. ``sides[a]``
    tells whether the low and the high end along axis ``a`` lie on the outer
    box (default: both).

    Internal faces come axis by axis, in lexicographic order of (k, the
    other axes in increasing order). Boundary faces come axis by axis in the
    same order of the other axes, low end before high end at each position.
    """
    dim = len(shape)
    cells = _cells(shape)
    # face measure over center distance (a point has no faces), and cell volume
    geo = (0.0, 1.0 / h, 1.0, h)[dim]
    volume = (1.0, h, h * h, h**3)[dim]

    face_a, face_b, bnd_cell, bnd_dirichlet, bnd_value = [], [], [], [], []
    for a in range(dim):
        layers = np.moveaxis(cells, a, 0)
        open_faces = np.ones((shape[a] - 1,) + layers.shape[1:], dtype=bool)
        for axis, k, span in cuts:
            if axis == a:
                open_faces[(k - 1,) + (span,) * (dim - 1)] = False
        face_a.append(layers[:-1][open_faces])
        face_b.append(layers[1:][open_faces])
        on_box = sides[a] if sides else (True, True)
        ends = [high for high, on in zip((False, True), on_box) if on]
        if ends:
            tags = [bc.tag(axes[a], high) for high in ends]
            end_cells = [layers[-1 if high else 0].ravel() for high in ends]
            bnd_cell.append(np.stack(end_cells, axis=1).ravel())
            bnd_dirichlet.append(np.tile([kind == DIRICHLET for kind, _ in tags], layers[0].size))
            bnd_value.append(np.tile([float(value) for _, value in tags], layers[0].size))

    face_a = _concat(face_a, cells.dtype)
    face_b = _concat(face_b, cells.dtype)
    bnd_cell = _concat(bnd_cell, cells.dtype)
    return Subdomain(
        sid, dim, cells.size, np.broadcast_to(volume, cells.size),
        face_a, face_b, np.broadcast_to(geo, len(face_a)),
        bnd_cell, np.broadcast_to(2.0 * geo, len(bnd_cell)), _concat(bnd_dirichlet, bool),
        _concat(bnd_value, float),
    )


def _coupling(iid, higher, lower, higher_cell, geo, area, orientation) -> Interface:
    """Interface whose mortar cells meet ``higher_cell`` on the higher side.

    Every mortar cell of a point meets its single cell; otherwise mortar
    cell ``m`` meets lower cell ``m``. Every index array is a copy of its own.
    """
    m = len(higher_cell)
    lower_dtype = _index_dtype(lower.cell_count)
    lower_cell = np.zeros(m, lower_dtype) if lower.dim == 0 else np.arange(m, dtype=lower_dtype)
    return Interface(
        iid, lower.dim, higher.id, lower.id,
        np.array(higher_cell, _index_dtype(higher.cell_count)), np.broadcast_to(geo, m),
        lower_cell, np.broadcast_to(area, m), np.broadcast_to(orientation, m).astype(np.int64),
    )


# -- 2d builder --------------------------------------------------------------


def _merge_segments(n: int, segments) -> list:
    """Validate, snap-check and merge collinear overlapping/touching segments."""
    by_line: dict = {}
    for seg in segments:
        seg = Segment(*seg)
        if seg.axis not in (0, 1):
            raise ValueError(f"segment axis must be 0 or 1, got {seg.axis}")
        if not 0 < seg.line < n:
            raise ValueError(f"segment line {seg.line} not an interior lattice line of n={n}")
        if not 0 <= seg.lo < seg.hi <= n:
            raise ValueError(f"degenerate or out-of-range segment span [{seg.lo}, {seg.hi}]")
        by_line.setdefault((seg.axis, seg.line), []).append((seg.lo, seg.hi))
    merged = []
    for (axis, line), spans in sorted(by_line.items()):
        spans.sort()
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo <= cur_hi:  # overlapping or touching: merge
                cur_hi = max(cur_hi, hi)
            else:
                merged.append(Segment(axis, line, cur_lo, cur_hi))
                cur_lo, cur_hi = lo, hi
        merged.append(Segment(axis, line, cur_lo, cur_hi))
    return merged


def build_network_2d(n: int, segments, bc: BoundaryConfig | None = None) -> MixedDimGrid:
    """Unit-square grid with axis-aligned fracture segments on lattice lines.

    Parameters
    ----------
    n : int
        Cells per direction of the background grid (mesh size 1/n).
    segments : iterable of Segment or 4-tuples
        ``(axis, line, lo, hi)`` with ``axis`` the running axis, ``line`` the
        interior lattice line of the fixed axis, and span ``[lo, hi]`` in
        lattice units. Collinear overlapping or touching segments are merged.
    bc : BoundaryConfig, optional
        Outer boundary conditions; defaults to Dirichlet along axis 0.

    Each crossing of two segments becomes a 0d subdomain; segment grids are
    disconnected there and both flanking cells couple to the point. Segment
    endpoints inside the domain are no-flux tips and get no coupling.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    bc = bc or BoundaryConfig()
    h = 1.0 / n
    segs = _merge_segments(n, segments)

    # crossing points between one horizontal (axis 0) and one vertical (axis 1)
    points: dict = {}
    for si, s in enumerate(segs):
        for ti, t in enumerate(segs):
            if s.axis == 0 and t.axis == 1:
                px, py = t.line, s.line
                if s.lo <= px <= s.hi and t.lo <= py <= t.hi:
                    points.setdefault((px, py), []).append((si, px))
                    points[(px, py)].append((ti, py))
    point_keys = sorted(points)

    # matrix id 0, then one subdomain per segment, then the crossing points
    matrix = _lattice(
        0, (n, n), h, bc, axes=(0, 1), cuts=[(1 - s.axis, s.line, slice(s.lo, s.hi)) for s in segs]
    )
    fractures = []
    for si, s in enumerate(segs):
        splits = {pos for inc in points.values() for idx, pos in inc if idx == si}
        fractures.append(_lattice(
            1 + si, (s.hi - s.lo,), h, bc, axes=(s.axis,), sides=[(s.lo == 0, s.hi == n)],
            cuts=[(0, pos - s.lo, slice(None)) for pos in splits if s.lo < pos < s.hi],
        ))
    point_subs = {key: _lattice(1 + len(segs) + k, (), h, bc) for k, key in enumerate(point_keys)}

    # matrix <-> fracture interfaces, one per side
    interfaces = []
    for s, frac in zip(segs, fractures):
        for sign, line in ((1, s.line - 1), (-1, s.line)):
            cells = _layer((n, n), 1 - s.axis, line)[s.lo : s.hi]
            interfaces.append(_coupling(len(interfaces), matrix, frac, cells, 2.0, h, sign))

    # fracture <-> point interfaces
    for key in point_keys:
        for si, pos in sorted(set(points[key])):
            s = segs[si]
            below, above = pos > s.lo, pos < s.hi  # branches present on either side
            cells = [pos - s.lo - 1] * below + [pos - s.lo] * above
            interfaces.append(_coupling(
                len(interfaces), fractures[si], point_subs[key], cells, 2.0 / h, 1.0,
                [1] * below + [-1] * above,
            ))

    subdomains = (matrix, *fractures, *point_subs.values())
    grid = MixedDimGrid(2, subdomains, tuple(interfaces), _build_partition(subdomains, interfaces))
    return grid.validate()


def build_cross_2d(n: int, bc: BoundaryConfig | None = None) -> MixedDimGrid:
    """Unit square with two full fractures crossing at the center.

    Produces one 2d subdomain, two 1d fractures spanning the whole square,
    and one 0d subdomain at the crossing. Requires even ``n`` so the center
    lies on a lattice line.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n % 2:
        raise ValueError(f"the centered cross needs even n, got {n}")
    mid = n // 2
    return build_network_2d(n, [Segment(0, mid, 0, n), Segment(1, mid, 0, n)], bc)


def build_random_network_2d(
    n: int, num_fractures: int, seed: int = 0, bc: BoundaryConfig | None = None
) -> MixedDimGrid:
    """Random axis-aligned fracture network snapped to interior lattice lines.

    Deterministic for a fixed seed. Collinear overlapping fractures are
    merged by the underlying engine.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if num_fractures < 0:
        raise ValueError("num_fractures must be nonnegative")
    rng = np.random.default_rng(seed)
    segments = []
    for _ in range(num_fractures):
        axis = int(rng.integers(0, 2))
        line = int(rng.integers(1, n))
        lo, hi = np.sort(rng.choice(n + 1, size=2, replace=False))
        segments.append(Segment(axis, line, int(lo), int(hi)))
    return build_network_2d(n, segments, bc)


# -- 3d builder --------------------------------------------------------------

Plane = namedtuple("Plane", "axis line")  # axis = normal axis


def build_regular_network_3d(
    n: int, num_planes: int, bc: BoundaryConfig | None = None
) -> MixedDimGrid:
    """Unit cube with up to nine full axis-aligned fracture planes.

    Plane k has normal axis ``k % 3``; the first three planes sit at the
    center coordinate, the next at one quarter, then three quarters. Plane
    intersections become 1d line subdomains, triple intersections 0d points,
    so three mutually orthogonal planes already produce the full dimension
    chain 3-2-1-0.

    Parameters
    ----------
    n : int
        Cells per direction; must place every requested plane on a lattice
        line (even for the center planes, divisible by 4 beyond three).
    num_planes : int
        Number of planes, 0 to 9.
    bc : BoundaryConfig, optional
        Outer boundary conditions; defaults to Dirichlet along axis 0.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= num_planes <= 9:
        raise ValueError(f"num_planes must be in 0..9, got {num_planes}")
    positions = [n // 2, n // 4, (3 * n) // 4]
    planes = []
    for k in range(num_planes):
        pos_idx = k // 3
        denom = 2 if pos_idx == 0 else 4
        if n % denom:
            raise ValueError(
                f"plane {k} needs n divisible by {denom} to sit on a lattice line, got n={n}"
            )
        planes.append(Plane(k % 3, positions[pos_idx]))
    bc = bc or BoundaryConfig()
    h = 1.0 / n

    # intersection lines: pairs of non-parallel planes; fixed = {axis: line}
    lines = []
    for a in range(len(planes)):
        for b in range(a + 1, len(planes)):
            p, q = planes[a], planes[b]
            if p.axis != q.axis:
                fixed = {p.axis: p.line, q.axis: q.line}
                run = 3 - p.axis - q.axis
                lines.append((tuple(sorted(fixed.items())), run))
    lines = sorted(set(lines))

    # intersection points: triples of mutually orthogonal planes
    by_axis: dict = {0: [], 1: [], 2: []}
    for p in planes:
        by_axis[p.axis].append(p.line)
    pts = sorted(
        (x, y, z) for x in by_axis[0] for y in by_axis[1] for z in by_axis[2]
    )

    def on_line(pt, fixed):
        return all(pt[a] == line for a, line in fixed)

    def in_plane_axis(p, run):
        # a plane's lattice axes are its two in-plane axes in increasing
        # order; this is the one a line running along `run` is fixed on
        return int(3 - p.axis - run > run)

    # matrix id 0, then planes, lines and points
    subdomains = [
        _lattice(0, (n, n, n), h, bc, axes=(0, 1, 2),
                 cuts=[(p.axis, p.line, slice(None)) for p in planes])
    ]
    for p in planes:
        # in-plane lattice lines where an intersection line disconnects the grid
        cuts = [
            (in_plane_axis(p, run), dict(fixed)[3 - p.axis - run], slice(None))
            for fixed, run in lines
            if dict(fixed).get(p.axis) == p.line
        ]
        subdomains.append(_lattice(
            len(subdomains), (n, n), h, bc, axes=tuple(a for a in range(3) if a != p.axis),
            cuts=cuts,
        ))
    for fixed, run in lines:
        splits = {pt[run] for pt in pts if on_line(pt, fixed)}
        subdomains.append(_lattice(
            len(subdomains), (n,), h, bc, axes=(run,), cuts=[(0, t, slice(None)) for t in splits],
        ))
    for pt in pts:
        subdomains.append(_lattice(len(subdomains), (), h, bc))
    matrix = subdomains[0]
    plane_subs = dict(zip(planes, subdomains[1:]))
    line_subs = dict(zip(lines, subdomains[1 + len(planes):]))
    point_subs = dict(zip(pts, subdomains[1 + len(planes) + len(lines):]))

    interfaces = []
    # matrix <-> plane interfaces
    for p in planes:
        for sign, layer in ((1, p.line - 1), (-1, p.line)):
            cells = _layer((n, n, n), p.axis, layer)
            interfaces.append(
                _coupling(len(interfaces), matrix, plane_subs[p], cells, 2.0 * h, h * h, sign)
            )

    # plane <-> line interfaces
    for fixed, run in lines:
        for p in planes:
            if dict(fixed).get(p.axis) != p.line:
                continue
            k = dict(fixed)[3 - p.axis - run]
            for sign, layer in ((1, k - 1), (-1, k)):
                cells = _layer((n, n), in_plane_axis(p, run), layer)
                interfaces.append(_coupling(
                    len(interfaces), plane_subs[p], line_subs[(fixed, run)], cells, 2.0, h, sign
                ))

    # line <-> point interfaces
    for fixed, run in lines:
        for pt in pts:
            if on_line(pt, fixed):
                t = pt[run]
                interfaces.append(_coupling(
                    len(interfaces), line_subs[(fixed, run)], point_subs[pt], [t - 1, t],
                    2.0 / h, 1.0, [1, -1],
                ))

    grid = MixedDimGrid(3, tuple(subdomains), tuple(interfaces), _build_partition(subdomains, interfaces))
    return grid.validate()
