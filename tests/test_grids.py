import importlib.util
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mdsolve.assembly import PhysicalParams, assemble, monolithic
from mdsolve.grids import (
    BoundaryConfig,
    Segment,
    build_cross_2d,
    build_network_2d,
    build_random_network_2d,
    build_regular_network_3d,
    _index_dtype,
    _network,
)
from mdsolve.krylov import SolveConfig, gmres
from mdsolve.precond import build_preconditioner


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


def cross_8(bc):
    return build_cross_2d(8, bc=bc)


def planes_4(bc):
    return build_regular_network_3d(4, 3, bc=bc)


@pytest.mark.parametrize("build, dim, axis", [
    (cross_8, 2, 2), (cross_8, 2, -1), (planes_4, 3, 3), (planes_4, 3, -1),
], ids=["2d-axis-2", "2d-axis-minus-1", "3d-axis-3", "3d-axis-minus-1"])
def test_a_dirichlet_axis_outside_the_box_is_rejected(build, dim, axis):
    # it would build a pure Neumann grid with a zero right-hand side
    with pytest.raises(ValueError, match=f"^dirichlet_axis {axis} is not an axis of the "
                                         f"{dim}d box, expected 0..{dim - 1} or None$"):
        build(BoundaryConfig(dirichlet_axis=axis))


@pytest.mark.parametrize("build, dim", [(cross_8, 2), (planes_4, 3)], ids=["2d", "3d"])
def test_every_axis_of_the_box_can_be_the_dirichlet_axis(build, dim):
    for axis in range(dim):
        g = build(BoundaryConfig(dirichlet_axis=axis))
        assert np.concatenate([s.bnd_dirichlet for s in g.subdomains]).any()


@pytest.mark.parametrize("build, message", [
    (lambda: build_network_2d(8, [Segment(2, 4, 0, 8)]), "segment axis must be 0 or 1, got 2"),
    (lambda: build_network_2d(1, []), "need n >= 2, got 1"),
    (lambda: build_random_network_2d(1, 2), "need n >= 2, got 1"),
    (lambda: build_random_network_2d(8, -1), "num_fractures must be nonnegative"),
], ids=["segment-axis", "network-n", "random-n", "random-num-fractures"])
def test_2d_builders_reject_bad_inputs(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# -- partial rectangles in 3d ----------------------------------------------------

# at n=8: a full plane x=4; a plane y=4 over x in [4, 8] that ends on it in a
# T-junction; a plane z=4 over x in [2, 6] with two immersed edges. They meet
# in the full lines (x=4, y=4) and (x=4, z=4), in the line (y=4, z=4) over x
# in [4, 6], and in the triple point (4, 4, 4).
FULL = (0, 4, ((0, 8), (0, 8)))
T_PLANE = (1, 4, ((4, 8), (0, 8)))
IMMERSED = (2, 4, ((2, 6), (0, 8)))


def test_partial_rectangles_in_3d():
    grid = _network(3, 8, [FULL, T_PLANE, IMMERSED], BoundaryConfig()).validate()
    cells = [s.cell_count for s in grid.subdomains]
    # matrix, the three planes, the lines (x=4, y=4), (x=4, z=4), (y=4, z=4), the point
    assert [s.dim for s in grid.subdomains] == [3, 2, 2, 2, 1, 1, 1, 0]
    assert cells == [8**3, 8 * 8, 4 * 8, 4 * 8, 8, 8, 2, 1]
    # the matrix loses the faces each plane covers: 64, 32 and 32
    assert len(grid.subdomain(0).face_a) == 3 * 8 * 8 * 7 - 64 - 32 - 32
    pairs = [(i.higher_id, i.lower_id) for i in grid.interfaces]
    # matrix-plane: two sides each; plane-line: two sides except on the edge of
    # the T-junction plane; line-point: one interface per line
    assert pairs == [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3),
                     (1, 4), (1, 4), (2, 4),
                     (1, 5), (1, 5), (3, 5), (3, 5),
                     (2, 6), (2, 6), (3, 6), (3, 6),
                     (4, 7), (5, 7), (6, 7)]
    mortars = [len(i.area) for i in grid.interfaces]
    assert mortars == [64, 64, 32, 32, 32, 32] + [8] * 3 + [8] * 4 + [2] * 4 + [2, 2, 1]
    assert grid.dof_partition.n_gamma == 2 * (64 + 32 + 32) + 3 * 8 + 4 * 8 + 4 * 2 + 5
    # the T-junction plane couples to its edge line from its one side
    t_side = [i for i in grid.interfaces if (i.higher_id, i.lower_id) == (2, 4)]
    assert [list(np.unique(i.orientation)) for i in t_side] == [[-1]]
    # the immersed edges x=2 and x=6 of plane 3, and the tip x=6 of line 6,
    # have neither boundary faces nor couplings: plane 3 keeps only the
    # boundary faces of its ends y=0 and y=8, and its couplings are the lines
    assert len(grid.subdomain(3).bnd_cell) == 2 * 4
    assert len(grid.subdomain(6).bnd_cell) == 0
    assert {i.lower_id for i in grid.interfaces if i.higher_id == 3} == {5, 6}

    system = assemble(grid, PhysicalParams(k_parallel=1e4, kappa=1e-4))
    rep = gmres(monolithic(system), system.rhs, build_preconditioner(system, kind="ml"), SolveConfig())
    print(f"partial rectangles, n=8, (1e4, 1e-4): ml GMRES converged={rep.converged} "
          f"in {rep.iterations} iterations")
    assert rep.converged


@pytest.mark.parametrize("other", [(0, 4, ((4, 8), (0, 8))), (0, 4, ((2, 6), (2, 6)))],
                         ids=["touching", "overlapping"])
def test_coplanar_rectangles_that_meet_are_rejected(other):
    first = (0, 4, ((0, 4), (0, 8)))
    with pytest.raises(ValueError, match=rf"coplanar fractures {re.escape(str(first))} "
                                         rf"and {re.escape(str(other))} overlap or touch"):
        _network(3, 8, [first, other], BoundaryConfig())


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


# -- byte pins ----------------------------------------------------------------------

_spec = importlib.util.spec_from_file_location(
    "write_grid_pins", Path(__file__).parent / "data" / "write_grid_pins.py"
)
PINS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(PINS)

# sha256 of every array of every subdomain and interface, with its dtype and
# whether it is a zero-stride view, and of the partition, per build; printed
# by tests/data/write_grid_pins.py
GRID_SHA256 = {
    "cross_2d_n2": "c2491c78391c211fad01dfadb5d32cb36839d52380fd42ed69fd9aba8352518a",
    "cross_2d_n4": "7594eede8082e8192c4e37cd79da39ce2828c60f99edd988d9fd48a0f0dc2971",
    "cross_2d_n8": "49f4fc804701444688f1fa30ad4a423c9159a4040d1cf06d2c945bc212b254cd",
    "cross_2d_n16": "d04deb3e1f1bd0b991da24098a1b0e4e24fcd2b1508fa993058e6dafb8ac5121",
    "network_2d_t_tips_n8": "566545a9fffd18a5dbac68714bcc5e64f04cad89c76251710347a8cc45114e03",
    "network_2d_touching_n8": "1997075cebc224dd3c9ffbfe6614d0475b1683c3137153427e5595786ed43eb2",
    "network_2d_overlapping_n8": "fb82e9ba37ba03652e74a7665d817ca5379c6e5e3055e1b77f8309d384064452",
    "network_2d_full_span_n6": "1014f3d7d2c26b77bd504b5ff007ad9f2f88d3cf15525552897cdd4bf9436280",
    "network_2d_gap_and_corner_n8": "c0365e33078a5ac3baa093502ef6a96ffbe930933dd9938ac7eff3d10d318b50",
    "random_2d_n8_f4_s1": "e15152fa1e5bdd258da523c43a1a718088a8cf25dbebfd217878614ef8ef610e",
    "random_2d_n8_f5_s42": "3436d9ce3cce7837ad594636522e746045f26459c10fc7f6e8d9267acf291885",
    "random_2d_n8_f10_s2": "5f3941ae148df49b10a7d91e25f14af3b4bc3b8c9260045a992438fd0bf8de51",
    "random_2d_n16_f6_s3": "ecd2f7f3da47982586af076db84cdcdf85447bb0aafa68d06978036a6f4a64cf",
    "random_2d_n16_f20_s3": "c88a1b2843a2a22c11e70224bca3922b3d1faba6d8cfadab6cb22e2bbed7f14f",
    "random_2d_n16_f20_s0": "1e6c10a3deeab989df9af8f8a978c7bcf7006084efd6cf7bc743127f8a848340",
    "random_2d_n32_f10_s1": "c38592cbce23291034659cc08077e41113bd437c6be0c5f7d82c9fe0969de5ff",
    "random_2d_n32_f20_s5": "935bf7792d70315d447b1ad1bf481f7448216dde14a78584c23e9fb97bfba140",
    "random_2d_n64_f20_s0": "be89f97489bf2866fd5f72c33088680aeb08e5eb51305be0a9afd74aa730bb9e",
    "random_2d_n64_f40_s7": "e43c27dc25b540b70d3421a483378a870a3780c8ec852f0450d030acb542191e",
    "regular_3d_n2_p0": "c88d7901ce7a759e99e48a54237f5eb8f10f6f83fe11c462f3ea6066e2f1d3a5",
    "regular_3d_n2_p1": "ecd774e358e4a3e7b29addcf7e5bc90707196b5a89fd3952ddc3cf23bea26ed7",
    "regular_3d_n2_p2": "88c677ab9cf19af3741248b6172b8589b2b711a04d35bceb88efa4ce0dbb722d",
    "regular_3d_n2_p3": "8dc69c543bc4908a88ab5cd1e25305ce0265b83fe0798ab749f2f749d296c6b4",
    "regular_3d_n4_p0": "6da019009601736e39f1c5591374cc4555969594dd8124937fb1540e58d0c5a4",
    "regular_3d_n4_p1": "7c3dff5adb67059e8e25cb72d4a30e9f4e3a5f77f6acc1b5778a864262da54ef",
    "regular_3d_n4_p2": "067fb89e90b5e8760dd4a66a8ffa79e4572e361a734047470f726aede33b9c57",
    "regular_3d_n4_p3": "ed5fe5cd2809a517cd70e1daae0ec31dcd9ae62a53278538fbe8ca51eac07569",
    "regular_3d_n4_p4": "f9340d04bade2b8ba4ab01237bf4842091c0ccc8008150825cd87b10a955e9e0",
    "regular_3d_n4_p5": "caca9fdbd0d4e765af3e767bfdf1fcd56202cfc1d16ce8195e1043004298a014",
    "regular_3d_n4_p6": "127c9ae9fb6a825e540cf88c9449ef96f39fe4798989b145d82ef4b12ed917d5",
    "regular_3d_n4_p7": "52a93307abed3c0d593297e7410114dddf07773cfa0d6a3da1651538b9cd5d71",
    "regular_3d_n4_p8": "3e5ee11a88389b8d234b5fed18eb89d18af47b1a530f2ebd658e6bba79565b30",
    "regular_3d_n4_p9": "4b0f3574f062ac21078d366018382efd94715201cdedbe4d6838e3e5cd348c89",
    "regular_3d_n8_p0": "28b850e815634edae888f14d9e8ad3765b0d6319cbfb3f68836657ec52dc25a5",
    "regular_3d_n8_p1": "f754697181a8a1b44de8db87eca9a7d3d95e367f4929f7943408e4dcfecf6495",
    "regular_3d_n8_p2": "831c6a284ce87f849ec49074d4b4a79b2bc8ac46c6534911073154c4a22344f5",
    "regular_3d_n8_p3": "38428d3b5f84544b9c84e36e29e0e1c1076f15c9a3d2fa49df2931ead21b28d3",
    "regular_3d_n8_p4": "05c43e8e2622bf77d83373dfbf09adc1479c40938597574f422b36b403571863",
    "regular_3d_n8_p5": "c21d3fc07d0b60578830faafed16be7d5aabbedcec653b8b3740c2550187f0db",
    "regular_3d_n8_p6": "e37261a50c3f61ecd83486fdd1101341fcfa437d0510bd4f90263b305fb20700",
    "regular_3d_n8_p7": "b5d58559bf019742a7dfb937f1a7708c88b88560c09ec2d185a648f28d75b02b",
    "regular_3d_n8_p8": "44c907e253984b12dffd9279d5013bbb52ff2801809b05fc9518f526816c446e",
    "regular_3d_n8_p9": "ffcf405c429394d7ff5bb513522070fdf2e5e760e3b90e1c9df36875571e4058",
    "regular_3d_n12_p0": "472575404efa5a3ec99d226daf6dd528c36eaf227a6022b09a675c817d8b4e74",
    "regular_3d_n12_p1": "24ac462e8bd268c6aa5d82003ecc7cbfbbcf2d6bf3acd3c90cd75fff779ca965",
    "regular_3d_n12_p2": "1c65dffbd5760e7d6d28acee5b4c2e96183ac6569ba80325d06a0f0ce8d0e5fd",
    "regular_3d_n12_p3": "6a90ba5ada99723e239166db2191d6864c5c367172ddef4265b2024ba5cd632e",
    "regular_3d_n12_p4": "9a1f0e48f0f7eb553dd98f471f5fa4634410b1c5a5f6f5dd63c412207a9f7295",
    "regular_3d_n12_p5": "b8554ece6b95f8d66f72a77e5a0a14b6dd9c33da91616693807794a08a235207",
    "regular_3d_n12_p6": "6d7cc97b010993a8b559c369ffc5200447b8705c46a8008e6f46cf5c219d0eb2",
    "regular_3d_n12_p7": "9eab679de9f195a6bd3c93fbc2a93f28b28c63fb87d10841abce01699e3d0538",
    "regular_3d_n12_p8": "0a65fbda239ee075206ffdaeae5e16f8dd715f2d0b8efe4264cf12071d29472e",
    "regular_3d_n12_p9": "7491c28312d0bc2530908c8338834380315a029c317eaaccd41ea6267804d122",
    "cross_2d_n4_dirichlet_y": "423aafdefa449988d6e2b84005dda33af82057936c8bc35ac0a2ae983cd0342b",
    "cross_2d_n4_neumann": "16c99be2ed0824eec1686f0dfad365767be044659803fbf308a3698b29953797",
    "regular_3d_n4_p3_dirichlet_z": "40f6cb8d67ccdb8198501551c85bceaac278b3aaa64c9b659c77b0dff5d962f2",
}


def test_grid_bytes_match_the_recorded_hashes():
    assert PINS.CASES.keys() == GRID_SHA256.keys()
    changed = [name for name, build in PINS.CASES.items()
               if PINS.grid_sha256(build()) != GRID_SHA256[name]]
    assert not changed, changed


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


def _gap_before_first_range(part):
    (i0, a0, b0), *rest = part.omega_ranges
    return replace(part, omega_ranges=((i0, a0 + 1, b0), *rest))


# changes to the layout of build_cross_2d(4), whose interface 3 couples the
# 2d matrix (subdomain 0) to the 1d fracture subdomain 2
LAYOUT_CORRUPTIONS = {
    "duplicate-subdomain-id": (lambda g: replace(g, subdomains=g.subdomains + g.subdomains[:1]),
                               "duplicate subdomain ids"),
    "duplicate-interface-id": (lambda g: replace(g, interfaces=g.interfaces + g.interfaces[:1]),
                               "duplicate interface ids"),
    "dim-out-of-range": (lambda g: _corrupt_subdomain(g, 2, lambda s: replace(s, dim=3)),
                         "subdomain 2 has dim 3 outside 0..2"),
    "short-cell-array": (
        lambda g: _corrupt_subdomain(g, 2, lambda s: replace(s, cell_volumes=s.cell_volumes[1:])),
        "subdomain 2: cell array lengths mismatch"),
    "unknown-neighbour": (lambda g: _corrupt_interface(g, 3, lambda i: replace(i, lower_id=99)),
                          "interface 3: unknown neighbor id"),
    "broken-dimension-chain": (lambda g: _corrupt_interface(g, 3, lambda i: replace(i, dim=0)),
                               re.escape("interface 3: dimension chain broken "
                                         "(higher 2, lower 1, interface 0)")),
    "non-contiguous-ranges": (lambda g: replace(g, dof_partition=_gap_before_first_range(
                                  g.dof_partition)),
                              "DOF ranges must be contiguous and ordered"),
}


@pytest.mark.parametrize("what", sorted(LAYOUT_CORRUPTIONS))
def test_validate_rejects_a_corrupt_layout(what):
    change, message = LAYOUT_CORRUPTIONS[what]
    grid = change(build_cross_2d(4))
    with pytest.raises(ValueError, match=f"^{message}$"):
        grid.validate()


def test_validate_allows_one_cell_on_both_sides_of_an_interface():
    # a face is the pair (cell, side): one cell may meet the mortar on both sides
    grid = build_cross_2d(4)
    itf = next(i for i in grid.interfaces if i.dim == 0)
    assert list(itf.orientation) == [1, -1]
    _corrupt_interface(grid, itf.id, lambda i: _set(i, "higher_cell", 1, i.higher_cell[0])).validate()
