import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import mdsolve.precond
from mdsolve.amg import apply_preconditioner_vcycle
from mdsolve.assembly import BlockSystem, PhysicalParams, assemble, monolithic
from mdsolve.grids import (
    DofPartition,
    build_cross_2d,
    build_random_network_2d,
    build_regular_network_3d,
)
from mdsolve.krylov import SolveConfig, gmres
from mdsolve.precond import approx_schur, build_preconditioner
import scipy.sparse as sp

from mdsolve.sparse import SingularMatrixError, canonical, csr_equal
from mdsolve.sysio import export_system, import_system
from test_sparse import (
    exact_preconditioner, exact_schur, factorization_factors, lu_preconditioner, reference_schur,
)

FIXTURES = Path(__file__).parent / "data" / "systems"
PAIRS = [(k_par, kappa) for k_par in (1e-4, 1.0, 1e4) for kappa in (1e-4, 1.0, 1e4)]


def one_dof_system():
    """A_oo=[2], A_og=[1], A_go=[1], A_gg=[-1]; Schur complement is [3]."""
    part = DofPartition(((0, 0, 1),), ((0, 1, 2),))
    return BlockSystem.from_blocks(
        canonical([[2.0]]),
        canonical([[1.0]]),
        canonical([[1.0]]),
        canonical([[-1.0]]),
        np.zeros(1),
        np.zeros(1),
        part,
    )


def synthetic_system(rng, n_omega, n_gamma, symmetric=True):
    """Dense-random block system; asymmetric couplings on request."""
    m = rng.standard_normal((n_omega, n_omega))
    a_oo = m @ m.T + n_omega * np.eye(n_omega)
    a_og = rng.standard_normal((n_omega, n_gamma))
    a_go = a_og.T.copy() if symmetric else rng.standard_normal((n_gamma, n_omega))
    a_gg = -np.diag(rng.uniform(0.5, 2.0, n_gamma))
    part = DofPartition(
        ((0, 0, n_omega),), ((0, n_omega, n_omega + n_gamma),)
    )
    return BlockSystem.from_blocks(
        canonical(a_oo),
        canonical(a_og),
        canonical(a_go),
        canonical(a_gg),
        np.zeros(n_omega),
        np.zeros(n_gamma),
        part,
    )


def cross_system(n=2, **params):
    return assemble(build_cross_2d(n), PhysicalParams(**params))


# -- Schur complements ---------------------------------------------------------


def test_exact_schur_reduces_to_omega_block_without_coupling():
    rng = np.random.default_rng(0)
    sys_ = synthetic_system(rng, 6, 3)
    decoupled = BlockSystem.from_blocks(
        sys_.a_omega_omega,
        canonical(sp.csr_array((6, 3))),
        canonical(sp.csr_array((3, 6))),
        sys_.a_gamma_gamma,
        sys_.rhs_omega,
        sys_.rhs_gamma,
        sys_.partition,
    )
    assert np.array_equal(exact_schur(decoupled), sys_.a_omega_omega.toarray())
    assert csr_equal(approx_schur(decoupled), sys_.a_omega_omega)


def test_exact_schur_one_dof_hand_value():
    assert exact_schur(one_dof_system()).tolist() == [[3.0]]
    assert approx_schur(one_dof_system()).toarray().tolist() == [[3.0]]


def test_exact_schur_matches_dense_elimination_oracle():
    sys_ = cross_system(2, k_parallel=3.0, kappa=0.25)
    a_gg = sys_.a_gamma_gamma.toarray()
    oracle = sys_.a_omega_omega.toarray() - sys_.a_omega_gamma.toarray() @ np.linalg.solve(
        a_gg, sys_.a_gamma_omega.toarray()
    )
    assert np.abs(exact_schur(sys_) - oracle).max() < 1e-12


def test_exact_schur_guards():
    rng = np.random.default_rng(1)
    sys_ = synthetic_system(rng, 5, 2)
    singular = BlockSystem.from_blocks(
        sys_.a_omega_omega, sys_.a_omega_gamma, sys_.a_gamma_omega,
        canonical(np.zeros((2, 2))),
        sys_.rhs_omega, sys_.rhs_gamma, sys_.partition,
    )
    with pytest.raises(SingularMatrixError):
        exact_schur(singular)


def test_approx_schur_equals_exact_on_matching_grids():
    for params in (dict(), dict(k_parallel=1e4, kappa=1e-4), dict(kappa=1e4)):
        sys_ = cross_system(4, **params)
        diff = np.abs(approx_schur(sys_).toarray() - exact_schur(sys_)).max()
        scale = np.abs(exact_schur(sys_)).max()
        assert diff <= 1e-12 * scale


def test_approx_schur_names_the_offending_interface_dof():
    rng = np.random.default_rng(2)
    sys_ = synthetic_system(rng, 4, 3)
    broken_gg = sys_.a_gamma_gamma.toarray()
    broken_gg[1, 1] = 0.0
    broken = BlockSystem.from_blocks(
        sys_.a_omega_omega, sys_.a_omega_gamma, sys_.a_gamma_omega,
        canonical(broken_gg),
        sys_.rhs_omega, sys_.rhs_gamma, sys_.partition,
    )
    with pytest.raises(ValueError, match="interface DOF 1"):
        approx_schur(broken)


def _same_bytes(a, b):
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data))
    )


def _synthetic_systems():
    rng = np.random.default_rng(12)
    systems = [one_dof_system()] + [
        synthetic_system(rng, n_omega, n_gamma, symmetric)
        for n_omega, n_gamma, symmetric in ((6, 3, True), (5, 2, True), (4, 3, False), (12, 5, False))
    ]
    sys_ = systems[1]
    decoupled = BlockSystem.from_blocks(
        sys_.a_omega_omega, canonical(sp.csr_array((6, 3))), canonical(sp.csr_array((3, 6))),
        sys_.a_gamma_gamma, sys_.rhs_omega, sys_.rhs_gamma, sys_.partition,
    )
    return systems + [decoupled]


def _assembled_systems():
    grids = {"cross_2d": build_cross_2d(8), "random_2d": build_random_network_2d(16, 20, 3),
             "regular_3d": build_regular_network_3d(4, 3)}
    for name, grid in grids.items():
        for k_par, kappa in PAIRS:
            yield (name, k_par, kappa), assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))


def test_approx_schur_equals_the_triplet_merge_byte_for_byte():
    systems = list(_assembled_systems())
    systems += [(path.name, import_system(path)) for path in sorted(FIXTURES.iterdir())]
    systems += [(("synthetic", i), s) for i, s in enumerate(_synthetic_systems())]
    assert len(systems) == 27 + 6 + 6
    for name, system in systems:
        assert _same_bytes(approx_schur(system), reference_schur(system)), name


BLOCKS = ("a_omega_omega", "a_omega_gamma", "a_gamma_omega", "a_gamma_gamma")


def test_set_up_slices_each_block_once(monkeypatch):
    system = cross_system(8, k_parallel=1e4, kappa=1e-4)
    reads = dict.fromkeys(BLOCKS, 0)
    for name in BLOCKS:
        def counted(self, fget=getattr(BlockSystem, name).fget, name=name):
            reads[name] += 1
            return fget(self)
        monkeypatch.setattr(BlockSystem, name, property(counted))
    build_preconditioner(system)
    assert reads == dict.fromkeys(BLOCKS, 1)


def test_set_up_frees_the_schur_complement_it_builds(monkeypatch):
    """The Schur complement that set-up builds from the sliced blocks is
    :func:`approx_schur`'s byte for byte, and no part of the built
    preconditioner keeps it: the hierarchy holds no operator."""
    system = cross_system(8, k_parallel=1e4, kappa=1e-4)
    want = approx_schur(system)
    built = []
    schur_complement = mdsolve.precond._schur_complement

    def capture(*blocks):
        schur = schur_complement(*blocks)
        built.append((_same_bytes(schur, want), weakref.ref(schur)))
        return schur

    monkeypatch.setattr(mdsolve.precond, "_schur_complement", capture)
    prec = build_preconditioner(system)
    gc.collect()
    [(same, ref)] = built
    assert same
    assert ref() is None
    assert len(prec.hierarchies()["schur"].levels) >= 2


def test_approx_schur_names_an_interface_entry_without_a_finite_inverse(tmp_path):
    sys_ = synthetic_system(np.random.default_rng(2), 4, 3)
    a_gg = sys_.a_gamma_gamma.toarray()
    a_gg[2, 2] = 5e-324  # subnormal: 1 / a_gg overflows
    export_system(BlockSystem.from_blocks(
        sys_.a_omega_omega, sys_.a_omega_gamma, sys_.a_gamma_omega, canonical(a_gg),
        sys_.rhs_omega, sys_.rhs_gamma, sys_.partition,
    ), tmp_path / "system")
    subnormal = import_system(tmp_path / "system")  # a valid block system
    with pytest.raises(ValueError, match="^approx_schur: .* 5e-324 has no finite inverse "
                                         "at interface DOF 2$"):
        approx_schur(subnormal)


# -- factorization oracle --------------------------------------------------------


def test_udl_factors_reproduce_the_monolithic_matrix():
    rng = np.random.default_rng(3)
    systems = [
        cross_system(2),
        cross_system(2, k_parallel=1e4, kappa=1e-4),
        synthetic_system(rng, 8, 4),
        synthetic_system(rng, 10, 5, symmetric=False),
    ]
    for sys_ in systems:
        u, d, lo = factorization_factors(sys_)
        product = u @ d @ lo
        mono = monolithic(sys_).toarray()
        rel = np.linalg.norm(product - mono) / np.linalg.norm(mono)
        assert rel < 1e-10
        nt, no = sys_.n_total, sys_.n_omega
        assert np.array_equal(np.diag(u), np.ones(nt))
        assert not np.tril(u, -1).any()
        assert not d[:no, no:].any() and not d[no:, :no].any()


# -- building and applying -------------------------------------------------------


def test_apply_zero_residual_gives_zero():
    sys_ = cross_system(2)
    p = build_preconditioner(sys_)
    assert not p.apply(np.zeros(sys_.n_total)).any()


def test_algorithm_walkthrough_on_one_dof_system():
    # z_omega = 3/3 = 1; r_gamma = -1 - 1*1 = -2; z_gamma = -2/-1 = 2
    p = exact_preconditioner(one_dof_system(), kind="ml")
    assert p.apply(np.array([3.0, -1.0])).tolist() == [1.0, 2.0]


def test_block_diagonal_hand_value():
    p = exact_preconditioner(one_dof_system(), kind="bd")
    out = p.apply(np.array([3.0, -1.0]))
    assert np.allclose(out, [1.0, 1.0])  # (r_omega / 3, -r_gamma)


def test_exact_lower_preconditioner_reproduces_unit_upper_factor():
    sys_ = cross_system(2, k_parallel=5.0, kappa=0.2)
    p = exact_preconditioner(sys_, kind="ml")
    u, _, _ = factorization_factors(sys_)
    mono = monolithic(sys_).toarray()
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = rng.standard_normal(sys_.n_total)
        assert np.abs(mono @ p.apply(r) - u @ r).max() < 1e-10 * np.abs(r).max()


def test_no_transpose_shortcut_in_the_apply_path():
    # an intentionally asymmetric system: B_L must still satisfy A B_L = U
    rng = np.random.default_rng(5)
    sys_ = synthetic_system(rng, 7, 3, symmetric=False)
    assert not csr_equal(sys_.a_omega_gamma, sys_.a_gamma_omega.T.tocsr())
    p = exact_preconditioner(sys_, kind="ml")
    u, _, _ = factorization_factors(sys_)
    mono = monolithic(sys_).toarray()
    bl = np.column_stack([p.apply(e) for e in np.eye(sys_.n_total)])
    assert np.abs(mono @ bl - u).max() < 1e-10


def test_practical_direct_equals_dense_lower_triangular_solve():
    sys_ = cross_system(4)
    p = lu_preconditioner(sys_, kind="ml")
    # dense oracle: solve the (Schur-tilde, A_go, A_gg) block lower triangle;
    # on this matching grid the approximate Schur complement is exact
    no = sys_.n_omega
    lower = np.zeros((sys_.n_total, sys_.n_total))
    lower[:no, :no] = approx_schur(sys_).toarray()
    lower[no:, :no] = sys_.a_gamma_omega.toarray()
    lower[no:, no:] = sys_.a_gamma_gamma.toarray()
    rng = np.random.default_rng(6)
    r = rng.standard_normal(sys_.n_total)
    assert np.abs(p.apply(r) - np.linalg.solve(lower, r)).max() < 1e-9


@pytest.mark.parametrize("build, args", [
    (build_cross_2d, (64,)), (build_random_network_2d, (64, 20, 0)),
    (build_regular_network_3d, (16, 3)),
], ids=["cross_2d_n64", "random_2d_n64_f20", "regular_3d_n16_p3"])
def test_lu_inner_solves_converge_in_two_steps_at_scale(build, args):
    # on matching grids approx_schur is the exact Schur complement, so with
    # exact inner solves the two-step property holds at any size and contrast
    grid = build(*args)
    for k_par, kappa in [(1e-4, 1e-4), (1.0, 1.0), (1e4, 1e-4), (1e-4, 1e4), (1e4, 1e4)]:
        system = assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))
        p = lu_preconditioner(system)
        for kind in ("ml", "bu"):
            rep = gmres(monolithic(system), system.rhs, p.with_kind(kind),
                        SolveConfig(rel_tol=1e-10))
            assert rep.converged and rep.iterations <= 2, (k_par, kappa, kind)
            assert rep.true_residual < 1e-9, (k_par, kappa, kind)


def test_upper_kind_mirrors_the_order():
    rng = np.random.default_rng(7)
    sys_ = synthetic_system(rng, 6, 3)
    p = exact_preconditioner(sys_, kind="bu")
    # dense oracle: B_U = (U D)^-1
    u, d, _ = factorization_factors(sys_)
    expected = np.linalg.inv(u @ d)
    bu = np.column_stack([p.apply(e) for e in np.eye(sys_.n_total)])
    assert np.abs(bu - expected).max() < 1e-10


def test_setup_is_deterministic():
    sys_ = cross_system(2)
    eye = np.eye(sys_.n_total)
    mats = []
    for _ in range(2):
        p = build_preconditioner(sys_, kind="ml")
        mats.append(np.column_stack([p.apply(e) for e in eye]))
    assert np.array_equal(mats[0], mats[1])


def test_apply_is_linear():
    sys_ = cross_system(4, kappa=1e4)
    p = build_preconditioner(sys_, kind="ml")
    rng = np.random.default_rng(8)
    r1 = rng.standard_normal(sys_.n_total)
    r2 = rng.standard_normal(sys_.n_total)
    z = p.apply(2.0 * r1 - r2)
    scale = max(np.abs(z).max(), 1.0)
    assert np.abs(z - (2.0 * p.apply(r1) - p.apply(r2))).max() < 1e-12 * scale


def test_mode_validation():
    sys_ = cross_system(2)
    for kind in ("xl", "bl"):  # "bl" ran the same code as "ml"; only the CLI keeps the name
        with pytest.raises(ValueError, match="kind"):
            build_preconditioner(sys_, kind=kind)
    with pytest.raises(ValueError, match="length"):
        build_preconditioner(sys_).apply(np.zeros(3))


def test_hierarchies_are_exposed_for_stats():
    sys_ = cross_system(16)
    p = build_preconditioner(sys_, kind="ml")
    hs = p.hierarchies()
    assert hs.keys() == {"schur", "interface"}
    assert hs["interface"].diagonal is not None  # matching grid: direct inverse


@pytest.mark.parametrize("build", [build_preconditioner, lu_preconditioner],
                         ids=["amg", "direct"])
def test_a_system_without_fractures_sets_up_an_empty_interface_block(build):
    sys_ = assemble(build_random_network_2d(8, 0, 0), PhysicalParams())
    assert sys_.n_gamma == 0
    p = build(sys_)
    r = np.random.default_rng(13).standard_normal(sys_.n_total)
    z = p.apply(r)
    if build is build_preconditioner:  # amg builds the empty interface block like any other
        assert p.hierarchies()["interface"].diagonal.shape == (0,)
        assert np.array_equal(z, apply_preconditioner_vcycle(p.hierarchies()["schur"], r))
    else:  # a direct solve with A_oo, the whole operator
        assert np.abs(monolithic(sys_) @ z - r).max() <= 1e-10 * np.abs(r).max()
    for kind in ("bu", "bd"):
        assert np.array_equal(p.with_kind(kind).apply(r), z)


def test_with_kind_is_a_view_equal_to_a_fresh_build():
    sys_ = cross_system(8, k_parallel=1e4, kappa=1e-4)
    base = build_preconditioner(sys_, kind="ml")
    rng = np.random.default_rng(11)
    residuals = rng.standard_normal((3, sys_.n_total))
    for kind in ("ml", "bu", "bd"):
        view = base.with_kind(kind)
        assert view.kind == kind
        assert set(view.hierarchies()) == {"schur", "interface"}
        for name, hierarchy in view.hierarchies().items():
            assert hierarchy is base.hierarchies()[name]
        fresh = build_preconditioner(sys_, kind=kind)
        for r in residuals:
            assert np.array_equal(view.apply(r), fresh.apply(r))
    assert base.kind == "ml"
    with pytest.raises(ValueError, match="kind"):
        base.with_kind("xl")
