import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mdsolve.grids import (
    BoundaryConfig,
    Segment,
    build_cross_2d,
    build_network_2d,
    build_random_network_2d,
    build_regular_network_3d,
    _index_dtype,
)


def dims_of(grid):
    return sorted((s.dim for s in grid.subdomains), reverse=True)


# -- cross geometry -----------------------------------------------------------


def test_cross_n2_structure():
    g = build_cross_2d(2)
    assert dims_of(g) == [2, 1, 1, 0]
    assert g.subdomain(0).cell_count == 4
    assert [s.cell_count for s in g.subdomains if s.dim == 1] == [2, 2]


@pytest.mark.parametrize("n", [2, 4, 6, 16])
def test_cross_gamma_dof_count(n):
    # enumeration oracle: each fracture is coupled on both sides over all n
    # cells, and the crossing point couples all four incident branches
    expected = 2 * 2 * n + 4
    g = build_cross_2d(n)
    assert g.dof_partition.n_gamma == expected
    assert sum(len(i.higher_cell) for i in g.interfaces) == expected


def test_cross_n4_matches_frozen_count():
    assert build_cross_2d(4).dof_partition.n_gamma == 20


@pytest.mark.parametrize("n", [2, 4, 8])
def test_partition_disjoint_and_exhaustive(n):
    g = build_cross_2d(n)
    part = g.dof_partition
    covered = []
    for _, start, stop in part.omega_ranges + part.gamma_ranges:
        covered.extend(range(start, stop))
    assert covered == list(range(part.n_total))
    assert part.omega_ranges[-1][2] <= part.gamma_ranges[0][1]


def test_cross_rejects_bad_n():
    with pytest.raises(ValueError):
        build_cross_2d(1)
    with pytest.raises(ValueError):
        build_cross_2d(5)  # center not on a lattice line


# -- general / random 2d networks ---------------------------------------------


def test_no_fractures_single_subdomain():
    g = build_random_network_2d(4, 0)
    assert len(g.subdomains) == 1
    assert len(g.interfaces) == 0
    assert g.subdomain(0).cell_count == 16


def test_single_horizontal_fracture():
    g = build_network_2d(4, [Segment(0, 2, 0, 4)])
    assert dims_of(g) == [2, 1]
    assert len(g.interfaces) == 2
    assert all(len(i.higher_cell) == 4 for i in g.interfaces)


def test_random_network_is_deterministic():
    a = build_random_network_2d(8, 5, seed=42)
    b = build_random_network_2d(8, 5, seed=42)
    assert a.summary() == b.summary()
    for sa, sb in zip(a.subdomains, b.subdomains):
        for field in ("face_a", "face_b", "face_geo"):
            assert np.array_equal(getattr(sa, field), getattr(sb, field))


def test_collinear_overlapping_fractures_merge():
    g = build_network_2d(8, [Segment(0, 4, 0, 5), Segment(0, 4, 3, 8)])
    ones = [s for s in g.subdomains if s.dim == 1]
    assert len(ones) == 1
    assert ones[0].cell_count == 8


def test_collinear_touching_fractures_merge():
    g = build_network_2d(8, [Segment(0, 4, 0, 4), Segment(0, 4, 4, 8)])
    assert len([s for s in g.subdomains if s.dim == 1]) == 1


def test_degenerate_segment_rejected():
    with pytest.raises(ValueError):
        build_network_2d(8, [Segment(0, 4, 3, 3)])
    with pytest.raises(ValueError):
        build_network_2d(8, [Segment(0, 0, 0, 8)])  # line on the boundary


def test_immersed_tip_gets_no_coupling():
    # fracture ends mid-domain: its tip cell has no boundary face there
    g = build_network_2d(8, [Segment(0, 4, 2, 6)])
    frac = [s for s in g.subdomains if s.dim == 1][0]
    assert frac.cell_count == 4
    assert len(frac.bnd_cell) == 0


def test_t_junction_couples_single_branch():
    # vertical fracture ends exactly on the horizontal one
    g = build_network_2d(8, [Segment(0, 4, 0, 8), Segment(1, 4, 4, 8)])
    assert dims_of(g) == [2, 1, 1, 0]
    point_ifaces = [i for i in g.interfaces if i.dim == 0]
    pair_counts = sorted(len(i.higher_cell) for i in point_ifaces)
    assert pair_counts == [1, 2]  # one branch from the vertical, two from the horizontal


# -- 3d networks ---------------------------------------------------------------


def test_one_plane_dims():
    g = build_regular_network_3d(4, 1)
    assert dims_of(g) == [3, 2]
    assert len(g.interfaces) == 2


def test_two_planes_have_a_line():
    g = build_regular_network_3d(4, 2)
    assert dims_of(g) == [3, 2, 2, 1]


def test_three_orthogonal_planes_enumeration():
    n = 4
    g = build_regular_network_3d(n, 3)
    by_dim = {d: sum(1 for s in g.subdomains if s.dim == d) for d in range(4)}
    assert by_dim == {3: 1, 2: 3, 1: 3, 0: 1}
    # combinatorial oracle for mortar counts: every plane is coupled on two
    # sides over n*n cells; each of the three lines lies in two planes and is
    # coupled from both in-plane sides over n cells; the triple point couples
    # two branches of each line
    expected_gamma = 3 * 2 * n * n + 3 * 2 * 2 * n + 3 * 2
    assert g.dof_partition.n_gamma == expected_gamma
    # omega count: matrix plus plane/line/point cells
    assert g.dof_partition.n_omega == n**3 + 3 * n**2 + 3 * n + 1


def test_plane_grids_disconnect_along_lines():
    n = 4
    g = build_regular_network_3d(n, 3)
    for s in g.subdomains:
        if s.dim == 2:
            # a quartered plane loses 2n of its 2n(n-1) internal faces
            assert len(s.face_a) == 2 * n * (n - 1) - 2 * n
        if s.dim == 1:
            assert len(s.face_a) == n - 2  # split at the center


def test_interface_dimension_chain():
    for grid in (build_cross_2d(4), build_regular_network_3d(4, 3)):
        for itf in grid.interfaces:
            hi = grid.subdomain(itf.higher_id)
            lo = grid.subdomain(itf.lower_id)
            assert hi.dim == lo.dim + 1 == itf.dim + 1


def test_codim_one_cells_are_coupled_twice():
    for grid in (
        build_cross_2d(4),
        build_random_network_2d(8, 4, seed=1),
        build_regular_network_3d(4, 3),
    ):
        nd = grid.ambient_dim
        for s in grid.subdomains:
            if s.dim != nd - 1:
                continue
            seen = np.zeros(s.cell_count, dtype=int)
            for itf in grid.interfaces:
                if itf.lower_id == s.id and grid.subdomain(itf.higher_id).dim == nd:
                    np.add.at(seen, itf.lower_cell, 1)
            assert np.all(seen == 2)


def test_two_sided_interfaces_have_opposite_orientation():
    g = build_cross_2d(4)
    for s in g.subdomains:
        if s.dim != 1:
            continue
        sides = [i for i in g.interfaces if i.lower_id == s.id and i.dim == 1]
        assert len(sides) == 2
        assert {i.orientation[0] for i in sides} == {-1, 1}


def test_3d_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_regular_network_3d(1, 1)
    with pytest.raises(ValueError):
        build_regular_network_3d(5, 1)  # odd n cannot host the center plane
    with pytest.raises(ValueError):
        build_regular_network_3d(6, 4)  # quarter positions need n % 4 == 0
    with pytest.raises(ValueError):
        build_regular_network_3d(8, 10)


def test_nine_planes_desk_analog():
    g = build_regular_network_3d(8, 9)
    by_dim = {d: sum(1 for s in g.subdomains if s.dim == d) for d in range(4)}
    assert by_dim == {3: 1, 2: 9, 1: 27, 0: 27}


def test_summary_fields():
    g = build_cross_2d(4)
    s = g.summary()
    assert s["n_omega"] + s["n_gamma"] == s["n_total"] == g.dof_partition.n_total
    assert s["mortar_cells"] == s["n_gamma"]
    assert "subdomains_by_dim" in s and s["subdomains_by_dim"][2] == 1
    assert isinstance(g.describe(), str)


def test_pure_neumann_config():
    g = build_cross_2d(2, bc=BoundaryConfig(dirichlet_axis=None))
    dirichlet = np.concatenate([s.bnd_dirichlet for s in g.subdomains])
    assert dirichlet.size > 0 and not dirichlet.any()


# -- storage: dtypes, views and memory ------------------------------------------

UNIFORM_FACTORS = ("cell_volumes", "face_geo", "bnd_geo", "higher_geo", "area")
CELL_INDICES = ("face_a", "face_b", "bnd_cell", "higher_cell", "lower_cell")


def _arrays(grid):
    """(object, field name, array) for every array field of the grid's objects."""
    for obj in grid.subdomains + grid.interfaces:
        for field in fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, np.ndarray):
                yield obj, field.name, value


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_cross_2d(8),
        lambda: build_network_2d(8, [Segment(0, 4, 0, 8), Segment(1, 4, 4, 8), Segment(1, 2, 1, 3)]),
        lambda: build_random_network_2d(16, 6, seed=3),
        lambda: build_regular_network_3d(8, 9),
    ],
    ids=["cross_2d", "network_2d", "random_2d", "regular_3d"],
)
def test_every_grid_array_owns_its_data_or_is_a_zero_stride_view(build):
    # a view into a larger array (a whole index lattice) would keep all of it alive
    for obj, name, arr in _arrays(build()):
        zero_stride = arr.strides == (0,) and not arr.flags.writeable
        assert arr.flags.owndata or zero_stride, (type(obj).__name__, obj.id, name)


def test_3d_grid_python_heap_is_lean():
    """``build_regular_network_3d(48, 3)`` keeps at most 5 MiB and its build
    peaks at most at 12 MiB of Python heap (13.9 and 25.5 MiB with int64
    indices, per-face factor copies and cell centers). Cell indices are
    int32 and the uniform factors zero-stride views."""
    tracemalloc.start()
    try:
        grid = build_regular_network_3d(48, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 5 * 2**20, f"grid keeps {kept / 2**20:.1f} MiB"
    assert peak <= 12 * 2**20, f"build peaks at {peak / 2**20:.1f} MiB"
    for obj, name, arr in _arrays(grid):
        if name in CELL_INDICES:
            assert arr.dtype == np.int32, (obj.id, name)
        if name in UNIFORM_FACTORS:
            assert arr.dtype == np.float64 and arr.strides == (0,), (obj.id, name)
    assert _index_dtype(2**31 - 1) == np.int32 and _index_dtype(2**31) == np.int64


# -- validate() rejections --------------------------------------------------------


def _set(obj, field, index, value):
    arr = getattr(obj, field).copy()
    arr[index] = value
    return replace(obj, **{field: arr})


def _corrupt_subdomain(grid, sid, change):
    subs = tuple(change(s) if s.id == sid else s for s in grid.subdomains)
    return replace(grid, subdomains=subs)


def _corrupt_interface(grid, iid, change):
    itfs = tuple(change(i) if i.id == iid else i for i in grid.interfaces)
    return replace(grid, interfaces=itfs)


def _shift_first_range(ranges):
    # move one dof from the second range to the first, keeping them contiguous
    (i0, a0, b0), (i1, a1, b1), *rest = ranges
    return ((i0, a0, b0 + 1), (i1, a1 + 1, b1), *rest)


# subdomain 2 of build_cross_2d(4) is a 4-cell fracture split at the center:
# two internal faces and two boundary faces; interface 3 couples its high
# side to the 16-cell matrix
SUBDOMAIN_CORRUPTIONS = {
    "equal-cells": (lambda s: _set(s, "face_b", 0, s.face_a[0]), "invalid internal face"),
    "cell-past-the-end": (lambda s: _set(s, "face_b", 0, s.cell_count), "invalid internal face"),
    "negative-cell": (lambda s: _set(s, "face_a", 1, -1), "invalid internal face"),
    "zero-face-factor": (lambda s: _set(s, "face_geo", 1, 0.0), "nonpositive face factor"),
    "short-face-array": (lambda s: replace(s, face_geo=s.face_geo[1:]), "internal face array"),
    "boundary-cell-past-the-end": (lambda s: _set(s, "bnd_cell", 0, s.cell_count), "invalid boundary face"),
    "negative-boundary-factor": (lambda s: _set(s, "bnd_geo", 1, -2.0), "invalid boundary face"),
    "short-boundary-array": (lambda s: replace(s, bnd_value=s.bnd_value[1:]), "boundary face array"),
    "unknown-boundary-tag": (
        lambda s: replace(s, bnd_dirichlet=s.bnd_dirichlet.astype(np.int64) * 2),
        "unknown boundary tag",
    ),
}

INTERFACE_CORRUPTIONS = {
    "higher-cell-past-the-end": (lambda i: _set(i, "higher_cell", 0, 16), "cell index out of range"),
    "negative-lower-cell": (lambda i: _set(i, "lower_cell", 1, -1), "cell index out of range"),
    "zero-mortar-area": (lambda i: _set(i, "area", 0, 0.0), "nonpositive mortar geometry"),
    "negative-face-factor": (lambda i: _set(i, "higher_geo", 2, -1.0), "nonpositive mortar geometry"),
    "orientation-zero": (lambda i: _set(i, "orientation", 0, 0), "orientation must be"),
    "orientation-two": (lambda i: _set(i, "orientation", 3, 2), "orientation must be"),
    "face-used-twice": (lambda i: _set(i, "higher_cell", 1, i.higher_cell[0]), "higher-dim face used twice"),
    "short-orientation": (lambda i: replace(i, orientation=i.orientation[1:]), "orientation length"),
    "short-mortar-array": (lambda i: replace(i, area=i.area[1:]), "mortar array"),
}


@pytest.mark.parametrize("what", sorted(SUBDOMAIN_CORRUPTIONS))
def test_validate_rejects_corrupt_subdomain(what):
    change, message = SUBDOMAIN_CORRUPTIONS[what]
    grid = _corrupt_subdomain(build_cross_2d(4), 2, change)
    with pytest.raises(ValueError, match=f"subdomain 2: {message}"):
        grid.validate()


@pytest.mark.parametrize("what", sorted(INTERFACE_CORRUPTIONS))
def test_validate_rejects_corrupt_interface(what):
    change, message = INTERFACE_CORRUPTIONS[what]
    grid = _corrupt_interface(build_cross_2d(4), 3, change)
    with pytest.raises(ValueError, match=f"interface 3: {message}"):
        grid.validate()


def test_validate_rejects_range_mismatches():
    grid = build_cross_2d(4)
    part = grid.dof_partition
    omega = replace(part, omega_ranges=_shift_first_range(part.omega_ranges))
    with pytest.raises(ValueError, match="subdomain 0: omega range does not match cell count"):
        replace(grid, dof_partition=omega).validate()
    gamma = replace(part, gamma_ranges=_shift_first_range(part.gamma_ranges))
    with pytest.raises(ValueError, match="interface 0: gamma range does not match mortar count"):
        replace(grid, dof_partition=gamma).validate()


def test_validate_allows_one_cell_on_both_sides_of_an_interface():
    # a face is the pair (cell, side): one cell may meet the mortar on both sides
    grid = build_cross_2d(4)
    itf = next(i for i in grid.interfaces if i.dim == 0)
    assert list(itf.orientation) == [1, -1]
    _corrupt_interface(grid, itf.id, lambda i: _set(i, "higher_cell", 1, i.higher_cell[0])).validate()
