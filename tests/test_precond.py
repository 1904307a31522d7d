import numpy as np
import pytest

from mdsolve.assembly import BlockSystem, PhysicalParams, assemble, monolithic
from mdsolve.grids import DofPartition, build_cross_2d
from mdsolve.precond import (
    approx_schur,
    build_preconditioner,
    exact_schur,
    factorization_factors,
)
import scipy.sparse as sp

from mdsolve.sparse import SingularMatrixError, canonical, csr_equal


def one_dof_system():
    """A_oo=[2], A_og=[1], A_go=[1], A_gg=[-1]; Schur complement is [3]."""
    part = DofPartition(((0, 0, 1),), ((0, 1, 2),))
    return BlockSystem(
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
    return BlockSystem(
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
    decoupled = BlockSystem(
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
    with pytest.raises(ValueError, match="oracle cap"):
        exact_schur(assemble(build_cross_2d(46), PhysicalParams()))  # 2,397 dofs
    singular = BlockSystem(
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
    broken = BlockSystem(
        sys_.a_omega_omega, sys_.a_omega_gamma, sys_.a_gamma_omega,
        canonical(broken_gg),
        sys_.rhs_omega, sys_.rhs_gamma, sys_.partition,
    )
    with pytest.raises(ValueError, match="interface DOF 1"):
        approx_schur(broken)


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
    p = build_preconditioner(
        one_dof_system(), kind="ml", schur_mode="exact",
        inner_omega="direct", inner_gamma="direct",
    )
    assert p.apply(np.array([3.0, -1.0])).tolist() == [1.0, 2.0]


def test_block_diagonal_hand_value():
    p = build_preconditioner(
        one_dof_system(), kind="bd", schur_mode="exact",
        inner_omega="direct", inner_gamma="direct",
    )
    out = p.apply(np.array([3.0, -1.0]))
    assert np.allclose(out, [1.0, 1.0])  # (r_omega / 3, -r_gamma)


def test_exact_lower_preconditioner_reproduces_unit_upper_factor():
    sys_ = cross_system(2, k_parallel=5.0, kappa=0.2)
    p = build_preconditioner(
        sys_, kind="ml", schur_mode="exact", inner_omega="direct", inner_gamma="direct"
    )
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
    p = build_preconditioner(
        sys_, kind="ml", schur_mode="exact", inner_omega="direct", inner_gamma="direct"
    )
    u, _, _ = factorization_factors(sys_)
    mono = monolithic(sys_).toarray()
    bl = np.column_stack([p.apply(e) for e in np.eye(sys_.n_total)])
    assert np.abs(mono @ bl - u).max() < 1e-10


def test_practical_direct_equals_dense_lower_triangular_solve():
    sys_ = cross_system(4)
    p = build_preconditioner(sys_, kind="ml", schur_mode="diag",
                             inner_omega="direct", inner_gamma="direct")
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


def test_upper_kind_mirrors_the_order():
    rng = np.random.default_rng(7)
    sys_ = synthetic_system(rng, 6, 3)
    p = build_preconditioner(
        sys_, kind="bu", schur_mode="exact", inner_omega="direct", inner_gamma="direct"
    )
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
    with pytest.raises(ValueError, match="schur_mode"):
        build_preconditioner(sys_, schur_mode="weird")
    with pytest.raises(ValueError, match="direct inner"):
        build_preconditioner(sys_, schur_mode="exact", inner_omega="amg",
                             inner_gamma="direct")
    with pytest.raises(ValueError, match="limited to 2000"):
        build_preconditioner(
            assemble(build_cross_2d(46), PhysicalParams()),  # 2,397 dofs
            schur_mode="exact", inner_omega="direct", inner_gamma="direct",
        )
    with pytest.raises(ValueError, match="length"):
        build_preconditioner(sys_).apply(np.zeros(3))


def test_hierarchies_are_exposed_for_stats():
    sys_ = cross_system(16)
    p = build_preconditioner(sys_, kind="ml")
    hs = p.hierarchies()
    assert "schur" in hs and "interface" in hs
    assert hs["interface"].diagonal is not None  # matching grid: direct inverse


def test_with_kind_is_a_view_equal_to_a_fresh_build():
    sys_ = cross_system(8, k_parallel=1e4, kappa=1e-4)
    base = build_preconditioner(sys_, kind="ml")
    rng = np.random.default_rng(11)
    residuals = rng.standard_normal((3, sys_.n_total))
    for kind in ("ml", "bu", "bd"):
        view = base.with_kind(kind)
        assert view.kind == kind
        assert view.schur_matrix is base.schur_matrix
        assert set(view.hierarchies()) == {"schur", "interface"}
        for name, hierarchy in view.hierarchies().items():
            assert hierarchy is base.hierarchies()[name]
        fresh = build_preconditioner(sys_, kind=kind)
        for r in residuals:
            assert np.array_equal(view.apply(r), fresh.apply(r))
    assert base.kind == "ml"
    with pytest.raises(ValueError, match="kind"):
        base.with_kind("xl")
