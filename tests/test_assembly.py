import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from mdsolve.assembly import BlockSystem, PhysicalParams, _lookup, assemble, monolithic
from mdsolve.grids import (
    DIRICHLET,
    NEUMANN,
    BoundaryConfig,
    DofPartition,
    Interface,
    MixedDimGrid,
    Segment,
    Subdomain,
    build_cross_2d,
    build_network_2d,
    build_random_network_2d,
    build_regular_network_3d,
)
from mdsolve.sparse import canonical, csr_equal, csr_from_triplets, read_matrix_market
from mdsolve.sysio import export_system, import_system

PURE_NEUMANN = BoundaryConfig(dirichlet_axis=None)
NO_BOUNDARY = dict(
    bnd_cell=np.empty(0, np.int64), bnd_geo=np.empty(0),
    bnd_dirichlet=np.empty(0, bool), bnd_value=np.empty(0),
)


def minimal_one_sided_grid():
    """Two stacked matrix cells over one fracture cell, one mortar DOF.

    Unit-size cells: the matrix internal face has geometric factor 1, the
    mortar face factor 2 (half-cell distance 1/2), mortar area 1.
    """
    matrix = Subdomain(
        id=0, dim=2, cell_count=2,
        cell_volumes=np.ones(2),
        face_a=np.array([0]), face_b=np.array([1]), face_geo=np.array([1.0]),
        **NO_BOUNDARY,
    )
    fracture = Subdomain(
        id=1, dim=1, cell_count=1,
        cell_volumes=np.ones(1),
        face_a=np.empty(0, np.int64), face_b=np.empty(0, np.int64), face_geo=np.empty(0),
        **NO_BOUNDARY,
    )
    itf = Interface(
        id=0, dim=1, higher_id=0, lower_id=1,
        higher_cell=np.array([0]), higher_geo=np.array([2.0]), lower_cell=np.array([0]),
        area=np.array([1.0]), orientation=np.array([-1]),
    )
    part = DofPartition(((0, 0, 2), (1, 2, 3)), ((0, 3, 4),))
    return MixedDimGrid(2, (matrix, fracture), (itf,), part).validate()


def test_hand_assembled_minimal_system():
    # hand TPFA algebra with K_matrix=2, K_par=3, kappa=4:
    #   matrix face transmissibility 2*1 = 2
    #   half-cell transmissibility 2*2/1 = 4, so kappa_eff = 1/(1/4+1/4) = 2
    #   interface diagonal -area/kappa_eff = -1/2
    grid = minimal_one_sided_grid()
    sys_ = assemble(grid, PhysicalParams(matrix_permeability=2.0, k_parallel=3.0, kappa=4.0))
    expected = np.array(
        [
            [2.0, -2.0, 0.0, 1.0],
            [-2.0, 2.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [1.0, 0.0, -1.0, -0.5],
        ]
    )
    assert np.array_equal(monolithic(sys_).toarray(), expected)


@pytest.mark.parametrize("n", [2, 4])
def test_constant_pressure_zero_flux_is_in_nullspace(n):
    grid = build_cross_2d(n, bc=PURE_NEUMANN)
    sys_ = assemble(grid, PhysicalParams())
    a = monolithic(sys_)
    v = np.concatenate([np.ones(sys_.n_omega), np.zeros(sys_.n_gamma)])
    scale = np.abs(a.data).max()
    assert np.abs(a @ v).max() <= 1e-12 * scale
    assert not sys_.rhs.any()


@pytest.mark.parametrize(
    "grid",
    [
        build_cross_2d(2),
        build_cross_2d(4),
        build_random_network_2d(8, 4, seed=2),
        build_regular_network_3d(4, 3),
    ],
    ids=["cross2", "cross4", "random", "regular3d"],
)
def test_coupling_blocks_are_exact_transposes(grid):
    sys_ = assemble(grid, PhysicalParams(k_parallel=1e4, kappa=1e-4))
    assert csr_equal(sys_.a_omega_gamma, sys_.a_gamma_omega.T.tocsr())


def test_interface_block_is_diagonal_and_negative():
    sys_ = assemble(build_cross_2d(4), PhysicalParams())
    gg = sys_.a_gamma_gamma
    assert gg.nnz == gg.shape[0]
    assert np.array_equal(gg.indices, np.arange(gg.shape[0]))
    assert np.all(gg.data < 0)


def test_coupling_entries_are_unit_with_correct_signs():
    grid = build_cross_2d(2)
    sys_ = assemble(grid, PhysicalParams())
    og = sys_.a_omega_gamma
    assert set(np.unique(og.data)) == {-1.0, 1.0}
    # one +1 (higher side) and one -1 (lower side) per mortar column
    dense = og.toarray()
    assert np.all((dense == 1.0).sum(axis=0) == 1)
    assert np.all((dense == -1.0).sum(axis=0) == 1)


def test_monolithic_consistency_with_blockwise_products():
    sys_ = assemble(build_cross_2d(2), PhysicalParams(kappa=3.0))
    a = monolithic(sys_)
    assert a.shape == (sys_.n_total, sys_.n_total)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(sys_.n_total)
        xo, xg = sys_.split(x)
        yo = sys_.a_omega_omega @ xo + sys_.a_omega_gamma @ xg
        yg = sys_.a_gamma_omega @ xo + sys_.a_gamma_gamma @ xg
        assert np.abs(a @ x - np.concatenate([yo, yg])).max() < 1e-14


def test_monolithic_of_fracture_free_grid_is_the_omega_block():
    sys_ = assemble(build_random_network_2d(4, 0), PhysicalParams())
    assert csr_equal(monolithic(sys_), sys_.a_omega_omega)


def test_monolithic_is_symmetric():
    sys_ = assemble(build_cross_2d(4), PhysicalParams(k_parallel=10.0, kappa=0.1))
    a = monolithic(sys_)
    assert abs(a - a.T).max() == 0.0


def test_permeability_scaling_leaves_pressure_unchanged():
    grid = build_cross_2d(4)
    s = 37.5
    base = assemble(grid, PhysicalParams())
    scaled = assemble(
        grid, PhysicalParams(matrix_permeability=s, k_parallel=s, kappa=s)
    )
    xb = spla.spsolve(monolithic(base).tocsc(), base.rhs)
    xs = spla.spsolve(monolithic(scaled).tocsc(), scaled.rhs)
    no = base.n_omega
    assert np.abs(xb[:no] - xs[:no]).max() < 1e-10
    assert np.abs(xs[no:] - s * xb[no:]).max() < 1e-10 * np.abs(xb[no:]).max() * s


def test_refinement_grows_dofs_and_keeps_shapes_consistent():
    previous = 0
    for n in (2, 4, 8, 16):
        sys_ = assemble(build_cross_2d(n), PhysicalParams())
        assert sys_.n_total > previous
        previous = sys_.n_total
        assert sys_.a_omega_omega.shape == (sys_.n_omega, sys_.n_omega)
        assert sys_.a_omega_gamma.shape == (sys_.n_omega, sys_.n_gamma)


def test_dirichlet_drive_respects_maximum_principle():
    sys_ = assemble(build_cross_2d(8), PhysicalParams(k_parallel=1e4, kappa=1e4))
    x = spla.spsolve(monolithic(sys_).tocsc(), sys_.rhs)
    p = x[: sys_.n_omega]
    assert p.min() > -1e-12 and p.max() < 1.0 + 1e-12


def test_source_term_enters_scaled_by_cell_volume():
    grid = build_random_network_2d(4, 0, bc=PURE_NEUMANN)
    sys_ = assemble(grid, PhysicalParams(source=3.0))
    # every 2d cell has volume 1/16
    assert np.allclose(sys_.rhs_omega, 3.0 / 16.0)


def test_missing_and_invalid_parameters_raise():
    grid = build_cross_2d(2)
    with pytest.raises(ValueError, match="missing"):
        assemble(grid, PhysicalParams(k_parallel={1: 1.0}))  # id 2 uncovered
    with pytest.raises(ValueError, match="missing"):
        assemble(grid, PhysicalParams(kappa={0: 1.0}))
    with pytest.raises(ValueError, match="positive"):
        assemble(grid, PhysicalParams(kappa=0.0))
    with pytest.raises(ValueError, match="positive"):
        assemble(grid, PhysicalParams(matrix_permeability=-2.0))
    with pytest.raises(ValueError, match="aperture"):
        assemble(grid, PhysicalParams(aperture=0.0))


def test_per_object_parameter_maps_are_honored():
    grid = build_cross_2d(2)
    k_par = {s.id: 2.0 for s in grid.subdomains if s.dim < 2}
    kappa = {i.id: 5.0 for i in grid.interfaces}
    sys_ = assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))
    assert sys_.n_total == monolithic(sys_).shape[0]


def test_block_system_shape_validation():
    sys_ = assemble(build_cross_2d(2), PhysicalParams())
    with pytest.raises(ValueError, match="rhs_omega"):
        BlockSystem.from_blocks(
            sys_.a_omega_omega, sys_.a_omega_gamma, sys_.a_gamma_omega,
            sys_.a_gamma_gamma, np.zeros(3), sys_.rhs_gamma, sys_.partition,
        )


# -- byte equality with the face-loop assembly ---------------------------------

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("write_systems", DATA / "write_systems.py")
FIXTURES = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FIXTURES)
BLOCKS = ("a_omega_omega", "a_omega_gamma", "a_gamma_omega", "a_gamma_gamma")


def assert_same_bytes(got: BlockSystem, want: BlockSystem):
    for name in BLOCKS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape, name
        for field in ("indptr", "indices"):  # index dtypes may differ
            got_idx, want_idx = (getattr(m, field).astype(np.int64) for m in (g, w))
            assert got_idx.tobytes() == want_idx.tobytes(), (name, field)
        assert g.data.tobytes() == w.data.tobytes(), (name, "data")
    assert got.rhs_omega.tobytes() == want.rhs_omega.tobytes()
    assert got.rhs_gamma.tobytes() == want.rhs_gamma.tobytes()
    assert got.partition == want.partition


@pytest.mark.parametrize("name", sorted(FIXTURES.CASES))
def test_blocks_equal_the_committed_fixtures_byte_for_byte(name):
    build, params = FIXTURES.CASES[name]
    got = assemble(build(), PhysicalParams(**params))
    assert_same_bytes(got, import_system(DATA / "systems" / name))


def test_assemble_python_heap_peak_is_at_most_three_times_its_blocks():
    """The ``tracemalloc`` peak of ``assemble`` on a 3d network stays within
    three times the CSR bytes of the blocks it returns (6.1 times when every
    face carried four int64 triplets). ``tracemalloc`` sees the Python heap,
    numpy arrays included; the grid is built before tracing starts."""
    grid = build_regular_network_3d(24, 3)
    params = PhysicalParams(k_parallel=1e4, kappa=1e-4)
    tracemalloc.start()
    try:
        system = assemble(grid, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    blocks = [getattr(system, name) for name in BLOCKS]
    csr_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in blocks)
    assert peak <= 3 * csr_bytes, f"peak {peak / csr_bytes:.2f} x the blocks' CSR bytes"


def test_the_system_holds_one_copy_of_its_operator():
    """``monolithic`` returns the system's own operator, and the Python heap
    that ``assemble`` and ``monolithic`` keep is the operator's CSR arrays
    plus the right-hand sides (twice that while the four blocks were a
    second copy)."""
    grid = build_regular_network_3d(24, 3)
    params = PhysicalParams(k_parallel=1e4, kappa=1e-4)
    tracemalloc.start()
    try:
        system = assemble(grid, params)
        operator = monolithic(system)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert operator is system.operator
    held = sum(a.nbytes for a in (operator.data, operator.indices, operator.indptr,
                                  system.rhs_omega, system.rhs_gamma))
    assert kept <= 1.1 * held, f"kept {kept / held:.2f} x the operator and right-hand sides"


def _is_canonical(m) -> bool:
    """Strictly increasing columns within every row."""
    row_start = np.zeros(m.nnz, bool)
    row_start[m.indptr[:-1][np.diff(m.indptr) > 0]] = True
    return bool(np.all((np.diff(m.indices.astype(np.int64)) > 0) | row_start[1:]))


def _fixture_blocks(name):
    return [read_matrix_market(DATA / "systems" / name / f"{block}.mtx") for block in BLOCKS]


def _with_stored_zero(blocks):
    """The blocks with the first off-diagonal entry of A_oo stored as 0.0."""
    a_oo = blocks[0]
    rows = np.repeat(np.arange(a_oo.shape[0]), np.diff(a_oo.indptr))
    data = a_oo.data.copy()
    data[np.flatnonzero(rows != a_oo.indices)[0]] = 0.0
    return [canonical(sp.csr_array((data, a_oo.indices.copy(), a_oo.indptr.copy()),
                                   shape=a_oo.shape)), *blocks[1:]]


def _fixture_case(name):
    return lambda _tmp_path: (_fixture_blocks(name), import_system(DATA / "systems" / name))


def _stored_zero_case(tmp_path):
    fixture = import_system(DATA / "systems" / "cross_2d_n8")
    blocks = _with_stored_zero(_fixture_blocks("cross_2d_n8"))
    assert 0.0 in blocks[0].data
    export_system(BlockSystem.from_blocks(*blocks, fixture.rhs_omega, fixture.rhs_gamma,
                                          fixture.partition), tmp_path)
    return blocks, import_system(tmp_path)


def _no_interfaces_case(_tmp_path):
    system = assemble(build_random_network_2d(4, 0), PhysicalParams())
    assert system.n_gamma == 0
    return [getattr(system, block) for block in BLOCKS], system


ROUND_TRIP = {
    **{name: _fixture_case(name) for name in FIXTURES.CASES},
    "stored-zero-imported": _stored_zero_case,
    "no-interfaces": _no_interfaces_case,
}


@pytest.mark.parametrize("case", sorted(ROUND_TRIP))
def test_from_blocks_gives_back_each_block_byte_for_byte(case, tmp_path):
    """Blocks stacked by ``from_blocks``, and those of the system they came
    from, slice back out equal to them: dtypes, stored zeros and all."""
    blocks, source = ROUND_TRIP[case](tmp_path)
    built = BlockSystem.from_blocks(*blocks, source.rhs_omega, source.rhs_gamma, source.partition)
    for system in (built, source):
        assert csr_equal(system.operator, built.operator)
        for name, want in zip(BLOCKS, blocks):
            got = getattr(system, name)
            assert got.shape == want.shape, name
            for field in ("indptr", "indices", "data"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (name, field)
                assert not g.flags.writeable, (name, field)
                assert not np.shares_memory(g, getattr(system.operator, field)), (name, field)
            assert got.has_canonical_format and _is_canonical(got), name
            assert getattr(system, name) is not got, name  # each access copies


def _unsorted_duplicates_case(_tmp_path):
    """cross_2d n=8 with A_oo's rows reversed in storage and its first row's
    diagonal split into two stored halves."""
    fixture = import_system(DATA / "systems" / "cross_2d_n8")
    blocks = _fixture_blocks("cross_2d_n8")
    a_oo = blocks[0]
    rows = np.repeat(np.arange(a_oo.shape[0]), np.diff(a_oo.indptr))
    order = np.lexsort((-np.arange(a_oo.nnz), rows))  # each row's entries reversed
    first = a_oo.indptr[0] + np.flatnonzero(a_oo.indices[:a_oo.indptr[1]] == 0)[0]
    data = a_oo.data.copy()
    data[first] /= 2
    messy = sp.csr_array((np.r_[data[order][:1], data[first], data[order][1:]],
                          np.r_[a_oo.indices[order][:1], 0, a_oo.indices[order][1:]],
                          np.r_[0, a_oo.indptr[1:] + 1]), shape=a_oo.shape)
    assert not messy.has_canonical_format
    return [messy, *blocks[1:]], fixture


STACK_CASES = {**ROUND_TRIP, "unsorted-duplicates": _unsorted_duplicates_case}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_from_blocks_stacks_like_bmat_byte_for_byte(case, tmp_path):
    """The operator written straight from the blocks equals scipy's stacked
    one: dtypes, stored zeros and all. No block is written to."""
    blocks, source = STACK_CASES[case](tmp_path)
    before = [(m.indptr.copy(), m.indices.copy(), m.data.copy(),
               [a.flags.writeable for a in (m.indptr, m.indices, m.data)]) for m in blocks]
    built = BlockSystem.from_blocks(*blocks, source.rhs_omega, source.rhs_gamma, source.partition)
    want = canonical(sp.bmat([blocks[:2], blocks[2:]], format="csr"))
    for field in ("indptr", "indices", "data"):
        g, w = getattr(built.operator, field), getattr(want, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), field
    for m, (indptr, indices, data, writeable) in zip(blocks, before):
        assert np.array_equal(m.indptr, indptr) and np.array_equal(m.indices, indices)
        assert m.data.tobytes() == data.tobytes()
        assert [a.flags.writeable for a in (m.indptr, m.indices, m.data)] == writeable


def test_from_blocks_python_heap_peak_is_at_most_1_6_times_its_blocks():
    """The ``tracemalloc`` peak of ``from_blocks`` on a 2d network stays
    below 1.6 times the CSR bytes of the four blocks given, which are
    allocated before tracing starts; the operator it keeps is about 0.95
    times. Stacking with ``sp.bmat`` peaked at 1.9 times, through scipy's
    stacking copies."""
    system = assemble(build_random_network_2d(64, 20, seed=0), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    blocks = [getattr(system, name) for name in BLOCKS]
    block_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in blocks)
    tracemalloc.start()
    try:
        BlockSystem.from_blocks(*blocks, system.rhs_omega, system.rhs_gamma, system.partition)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * block_bytes, f"peak {peak / block_bytes:.2f} x the blocks' CSR bytes"


def test_replacing_a_right_hand_side_shares_the_operator():
    system = assemble(build_cross_2d(4), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    moved = replace(system, rhs_omega=system.rhs_omega + 1.0)
    assert moved.operator is system.operator
    assert np.array_equal(moved.rhs_omega, system.rhs_omega + 1.0)


def _internal_faces(s):
    return tuple(zip(s.face_a.tolist(), s.face_b.tolist(), s.face_geo.tolist()))


def _boundary_faces(s):
    tags = [(DIRICHLET if d else NEUMANN, v) for d, v in zip(s.bnd_dirichlet, s.bnd_value.tolist())]
    return tuple(zip(s.bnd_cell.tolist(), s.bnd_geo.tolist(), tags))


def _cell_pairs(itf):
    return tuple(zip(itf.higher_cell.tolist(), itf.higher_geo.tolist(),
                     itf.lower_cell.tolist(), itf.area.tolist()))


def _reference_assemble(grid: MixedDimGrid, params: PhysicalParams) -> BlockSystem:
    """The face-loop ``assemble`` of the tuple-based grids, reading a tuple view.

    Parameter checks are left to :func:`assemble`, which runs first."""
    part = grid.dof_partition
    n_omega, n_gamma = part.n_omega, part.n_gamma

    perm = {}
    for s in grid.subdomains:
        which = (
            ("matrix permeability", params.matrix_permeability)
            if s.dim == grid.ambient_dim
            else ("tangential permeability", params.k_parallel)
        )
        perm[s.id] = _lookup(which[1], s.id, which[0])
    kappa = {i.id: _lookup(params.kappa, i.id, "interface transmissivity") for i in grid.interfaces}
    aperture = float(params.aperture)

    rows, cols, vals = [], [], []
    rhs_omega = np.zeros(n_omega)

    omega_offset = {sid: start for sid, start, _ in part.omega_ranges}
    gamma_offset = {iid: start - n_omega for iid, start, _ in part.gamma_ranges}

    for s in grid.subdomains:
        off = omega_offset[s.id]
        k = perm[s.id]
        xsec = aperture ** (grid.ambient_dim - s.dim)
        for ca, cb, geo in _internal_faces(s):
            t = k * geo * xsec
            rows += [off + ca, off + cb, off + ca, off + cb]
            cols += [off + ca, off + cb, off + cb, off + ca]
            vals += [t, t, -t, -t]
        for c, geo, (kind, value) in _boundary_faces(s):
            if kind == DIRICHLET:
                t = k * geo * xsec
                rows.append(off + c)
                cols.append(off + c)
                vals.append(t)
                rhs_omega[off + c] += t * value
            elif kind == NEUMANN:
                rhs_omega[off + c] += value
        if isinstance(params.source, Mapping):
            f = np.asarray(params.source[s.id], dtype=float)
        else:
            f = np.full(s.cell_count, float(params.source))
        rhs_omega[off : off + s.cell_count] += f * np.asarray(s.cell_volumes) * xsec

    cp_rows, cp_cols, cp_vals = [], [], []
    gamma_diag = np.zeros(n_gamma)
    sub_by_id = {s.id: s for s in grid.subdomains}
    for itf in grid.interfaces:
        goff = gamma_offset[itf.id]
        hoff = omega_offset[itf.higher_id]
        loff = omega_offset[itf.lower_id]
        k_high = perm[itf.higher_id]
        xsec_high = aperture ** (grid.ambient_dim - sub_by_id[itf.higher_id].dim)
        for m, (hc, geo_h, lc, area) in enumerate(_cell_pairs(itf)):
            g = goff + m
            cp_rows += [hoff + hc, loff + lc]
            cp_cols += [g, g]
            cp_vals += [1.0, -1.0]
            t_half = k_high * xsec_high * geo_h / area
            kappa_eff = 1.0 / (1.0 / kappa[itf.id] + 1.0 / t_half)
            gamma_diag[g] = -area / kappa_eff

    a_oo = csr_from_triplets((n_omega, n_omega), rows, cols, vals)
    a_og = csr_from_triplets((n_omega, n_gamma), cp_rows, cp_cols, cp_vals)
    a_go = canonical(a_og.T.tocsr())
    a_gg = csr_from_triplets(
        (n_gamma, n_gamma), np.arange(n_gamma), np.arange(n_gamma), gamma_diag
    )
    return BlockSystem.from_blocks(a_oo, a_og, a_go, a_gg, rhs_omega, np.zeros(n_gamma), part)


POSITIVE = st.floats(1e-6, 1e6)
VALUES = st.floats(-1e3, 1e3)


@st.composite
def fracture_problems(draw):
    """A 2d network (n 2-24) or a small 3d one, with per-object parameters."""
    bc = BoundaryConfig(draw(st.sampled_from([None, 0, 1])), draw(VALUES), draw(VALUES))
    if draw(st.integers(0, 4)):
        n = draw(st.integers(2, 24))
        segments = []
        for _ in range(draw(st.integers(0, 8))):
            lo, hi = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2, unique=True)))
            segments.append(Segment(draw(st.integers(0, 1)), draw(st.integers(1, n - 1)), lo, hi))
        grid = build_network_2d(n, segments, bc)
    else:
        n, planes = draw(st.sampled_from([(2, 3), (4, 1), (4, 3), (4, 6), (8, 9)]))
        grid = build_regular_network_3d(n, planes, bc)

    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sources = {s.id: rng.uniform(-1e3, 1e3, s.cell_count) for s in grid.subdomains}
    params = PhysicalParams(
        matrix_permeability=draw(st.one_of(POSITIVE, st.fixed_dictionaries({0: POSITIVE}))),
        k_parallel=draw(st.fixed_dictionaries({s.id: POSITIVE for s in grid.subdomains})),
        kappa=draw(st.fixed_dictionaries({i.id: POSITIVE for i in grid.interfaces})),
        aperture=draw(st.floats(1e-4, 1.0)),
        source=draw(st.one_of(VALUES, st.just(sources))),
    )
    return grid, params


@settings(max_examples=200, deadline=None)
@given(fracture_problems())
def test_assemble_matches_the_face_loop_reference(problem):
    grid, params = problem
    assert_same_bytes(assemble(grid, params), _reference_assemble(grid, params))


def test_assemble_numbers_dofs_by_the_partition_not_the_object_order():
    grid = build_cross_2d(4)
    omega, gamma, cursor = [], [], 0
    for ranges, items, size in (
        (omega, grid.subdomains, lambda s: s.cell_count),
        (gamma, grid.interfaces, lambda i: len(i.area)),
    ):
        for item in reversed(items):
            ranges.append((item.id, cursor, cursor + size(item)))
            cursor += size(item)
    grid = MixedDimGrid(2, grid.subdomains, grid.interfaces, DofPartition(tuple(omega), tuple(gamma)))
    params = PhysicalParams(k_parallel=1e4, kappa=1e-4, source=1.5)
    assert_same_bytes(assemble(grid.validate(), params), _reference_assemble(grid, params))
