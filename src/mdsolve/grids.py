"""Mixed-dimensional grid construction on the unit square / cube.

A grid is a collection of subdomains (the porous matrix plus embedded
fracture objects of successively lower dimension) and interfaces that couple
each object to the one dimension below it. All geometries are axis-aligned
on a Cartesian n-by-n(-by-n) lattice with matching grids, so every mortar
cell coincides with one boundary face of the higher-dimensional neighbor and
one cell of the lower-dimensional one.

Every public builder lists codim-1 fractures and hands them to one builder
for both dimensions. A fracture is a normal axis, a lattice position on it
and one lattice span ``[lo, hi]`` per in-plane axis: a 2d segment or a 3d
rectangle. Every object is a box, one span per ambient axis, fixed
(``lo == hi``) on the axes it does not run along. The rules:

- Intersections: two fractures with different normals meet in a codim-2
  object, and a codim-2 object and a fracture across it in a codim-3 point,
  wherever their closed boxes meet with that dimension. The tests are
  inclusive, so a fracture that ends on another one meets it (a
  T-junction). Coplanar fractures must neither overlap nor touch.
- Cuts: an object's grid is disconnected across every object one dimension
  lower inside it, over that object's extent, unless it lies on an end.
- Sides: an end at 0 or n lies on the outer box and has boundary faces;
  any other end is a no-flux tip or immersed edge.
- Couplings: an object couples to every object one dimension lower inside
  it, on each side it extends past it (orientation +1 on the low side, -1
  on the high side): one interface per side, but one interface for all the
  sides of a point, low side first.
- Orders: the matrix (id 0), the fractures in caller order, then each
  higher codimension sorted by its fixed (axis, position) pairs, then its
  spans: 2d points by (x, y), 3d lines by (fixed coordinates, running
  axis), 3d points by (x, y, z). Interfaces come codimension by
  codimension of the lower object; the matrix couplings are grouped by the
  fracture, all others by the codim-2 object, the other member in its own
  order.

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


# -- one lattice network builder for both dimensions ----------------------------


def _index_dtype(count: int):
    """int32 while ``count`` fits, int64 beyond: the rule of scipy's CSR indices."""
    return np.int32 if count < 2**31 else np.int64


def _cells(shape) -> np.ndarray:
    """Cell index ``c_0 + m_0 c_1 + m_0 m_1 c_2`` of every lattice cell, indexed by coordinates."""
    count = int(np.prod(shape))
    return np.arange(count, dtype=_index_dtype(count)).reshape(shape, order="F")


def _lattice(sid, box, n, bc, cuts=()) -> Subdomain:
    """Subdomain on ``box``, one span ``(lo, hi)`` per ambient axis in lattice units of
    spacing ``1 / n``: one cell per lattice cell along each axis with ``lo < hi``.

    A cut is a box one dimension lower, fixed at ``c`` on one of these axes.
    Where ``lo < c < hi`` it removes the internal faces between the layers
    on either side of ``c`` over the cut's own extent; on an end it removes
    nothing. An end at 0 or ``n`` lies on the outer box and has boundary
    faces; any other end is a no-flux tip.

    Internal faces come axis by axis, in lexicographic order of (k, the
    other axes in increasing order). Boundary faces come axis by axis in the
    same order of the other axes, low end before high end at each position.
    """
    axes = [a for a, (lo, hi) in enumerate(box) if lo < hi]
    shape = tuple(box[a][1] - box[a][0] for a in axes)
    dim = len(shape)
    cells = _cells(shape)
    h = 1.0 / n
    # face measure over center distance (a point has no faces), and cell volume
    geo = (0.0, 1.0 / h, 1.0, h)[dim]
    volume = (1.0, h, h * h, h**3)[dim]

    face_a, face_b, bnd_cell, bnd_dirichlet, bnd_value = [], [], [], [], []
    for i, a in enumerate(axes):
        lo, hi = box[a]
        layers = np.moveaxis(cells, i, 0)
        open_faces = np.ones((shape[i] - 1,) + layers.shape[1:], dtype=bool)
        for cut in cuts:
            if cut[a][0] == cut[a][1] and lo < cut[a][0] < hi:
                across = (slice(cut[b][0] - box[b][0], cut[b][1] - box[b][0]) for b in axes if b != a)
                open_faces[(cut[a][0] - lo - 1, *across)] = False
        face_a.append(layers[:-1][open_faces])
        face_b.append(layers[1:][open_faces])
        ends = [high for high, on in zip((False, True), (lo == 0, hi == n)) if on]
        if ends:
            tags = [bc.tag(a, high) for high in ends]
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


def _sides(higher, lower) -> list:
    """``(orientation, cells)`` of each side of box ``lower`` that box ``higher``
    extends past, low side first: the cells of ``higher`` that touch
    ``lower`` there, first axis fastest.

    Built from the lattice strides, so no index array of the whole lattice
    is made."""
    running = [a for a, (lo, hi) in enumerate(higher) if lo < hi]
    shape = [higher[a][1] - higher[a][0] for a in running]
    local = [(lower[a][0] - higher[a][0], lower[a][1] - higher[a][0]) for a in running]
    i = next(i for i, (lo, hi) in enumerate(local) if lo == hi)  # where lower is fixed
    k = local[i][0]
    sides = []
    for sign, layer in ((1, k - 1), (-1, k)):
        if 0 <= layer < shape[i]:
            local[i] = (layer, layer + 1)
            cells, stride = 0, 1
            for m, (start, stop) in zip(shape, local):
                cells = np.add.outer(np.arange(start * stride, stop * stride, stride), cells)
                stride *= m
            sides.append((sign, np.ravel(cells)))
    return sides


def _coupling(iid, higher, lower, sides, h) -> Interface:
    """Interface that joins ``lower`` to the cells of ``higher`` on each of
    ``sides`` in turn, one ``(orientation, cells)`` pair per side.

    Every mortar cell of a point meets its single cell; otherwise mortar
    cell ``m`` meets lower cell ``m``. Every index array is a copy of its own.
    """
    higher_cell = np.concatenate([cells for _, cells in sides], dtype=_index_dtype(higher.cell_count))
    m = len(higher_cell)
    orientation = np.array([sign for sign, _ in sides], np.int64).repeat([len(c) for _, c in sides])
    lower_dtype = _index_dtype(lower.cell_count)
    lower_cell = np.zeros(m, lower_dtype) if lower.dim == 0 else np.arange(m, dtype=lower_dtype)
    # face measure over half a cell width on the higher side, and the lower cell's measure
    geo = (2.0 / h, 2.0, 2.0 * h)[higher.dim - 1]
    area = (1.0, h, h * h)[lower.dim]
    return Interface(
        iid, lower.dim, higher.id, lower.id, higher_cell, np.broadcast_to(geo, m),
        lower_cell, np.broadcast_to(area, m), orientation,
    )


def _meet(x, y):
    """The intersection of the closed boxes ``x`` and ``y``, or None where it is empty."""
    box = []
    for (a, b), (c, d) in zip(x, y):
        lo, hi = max(a, c), min(b, d)
        if lo > hi:
            return None
        box.append((lo, hi))
    return tuple(box)


def _network(dim: int, n: int, fractures, bc: BoundaryConfig) -> MixedDimGrid:
    """Grid of the ``dim``-dimensional unit box with the codim-1 ``fractures`` in caller order.

    A fracture ``(axis, line, spans)`` lies on lattice line ``line`` of its
    normal ``axis`` and spans ``spans[i] = (lo, hi)`` of its i-th in-plane
    axis, in increasing axis order. Every object is a box, one ``(lo, hi)``
    per ambient axis with ``lo == hi`` where the object is fixed; the rules
    are in the module docstring.
    """
    normals = [axis for axis, _, _ in fractures]
    fracs = []
    for axis, line, spans in fractures:
        rest = iter(spans)
        fracs.append(tuple((line, line) if a == axis else tuple(next(rest)) for a in range(dim)))
    for i, f in enumerate(fracs):
        for j in range(i):
            if normals[j] == normals[i] and _meet(fracs[j], f):
                raise ValueError(
                    f"coplanar fractures {tuple(fractures[j])} and {tuple(fractures[i])} overlap or touch"
                )

    # objects by codimension: the matrix, the fractures, then their intersections,
    # each with the objects one level up that contain it, in that level's order
    levels = [[((0, n),) * dim], fracs]
    parents = {f: levels[0] for f in fracs}
    for codim in range(2, dim + 1):
        found: dict = {}
        for x in levels[-1]:
            for f, axis in zip(fracs, normals):
                # only a fracture across x meets it one dimension lower
                y = x[axis][0] < x[axis][1] and _meet(x, f)
                if y and sum(lo < hi for lo, hi in y) == dim - codim:
                    found.setdefault(y, []).append(x)
        parents.update(found)
        levels.append(sorted(found, key=lambda y: ([(a, lo) for a, (lo, hi) in enumerate(y) if lo == hi], y)))
    cuts: dict = {}  # the objects one level down that each object contains, in their level's order
    for level in levels[1:]:
        for y in level:
            for x in parents[y]:
                cuts.setdefault(x, []).append(y)
    subs: dict = {}
    for box in (box for level in levels for box in level):
        subs[box] = _lattice(len(subs), box, n, bc, cuts.get(box, ()))

    # (higher, lower) of every coupling, level by level, grouped by the member
    # of codimension min(level, 2), the other member in its level's order
    pairs = []
    for codim in range(1, dim + 1):
        if codim <= 2:
            pairs += [(x, y) for y in levels[codim] for x in parents[y]]
        else:
            pairs += [(x, y) for x in levels[codim - 1] for y in cuts.get(x, ())]

    # one interface per side, except that a point takes all its sides in one
    h = 1.0 / n
    interfaces = []
    for x, y in pairs:
        sides = _sides(x, y)
        for group in ([side] for side in sides) if subs[y].dim else [sides]:
            interfaces.append(_coupling(len(interfaces), subs[x], subs[y], group, h))

    subdomains = tuple(subs.values())
    grid = MixedDimGrid(dim, subdomains, tuple(interfaces), _build_partition(subdomains, interfaces))
    return grid.validate()


# -- public builders ------------------------------------------------------------


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
    segs = _merge_segments(n, segments)
    return _network(2, n, [(1 - s.axis, s.line, [(s.lo, s.hi)]) for s in segs], bc or BoundaryConfig())


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
        planes.append((k % 3, positions[pos_idx], [(0, n), (0, n)]))
    return _network(3, n, planes, bc or BoundaryConfig())
