import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import mdsolve
from conftest import poisson1d, poisson2d
from mdsolve import (
    AmgSetupWarning,
    PhysicalParams,
    Segment,
    SolveConfig,
    assemble,
    build_cross_2d,
    build_network_2d,
    build_random_network_2d,
    build_preconditioner,
    build_regular_network_3d,
    gmres,
    monolithic,
)
from mdsolve.amg import (
    AmgParams,
    _aggregate,
    _attach_isolated,
    _strength,
    amg_setup,
    apply_preconditioner_vcycle,
    v_cycle,
)
from mdsolve.precond import approx_schur
from mdsolve.sparse import CsrMatrix


# -- setup structure -----------------------------------------------------------


def test_poisson_1d_builds_a_real_hierarchy():
    h = amg_setup(poisson1d(64))
    sizes = [lev.n for lev in h.levels]
    assert len(sizes) >= 2
    assert sizes == sorted(sizes, reverse=True)
    assert len(set(sizes)) == len(sizes)  # strictly decreasing
    assert h.levels[-1].is_coarsest


def test_diagonal_operator_short_circuits():
    d = np.array([2.0, -3.0, 4.0, 1.5])
    h = amg_setup(CsrMatrix.from_dense(np.diag(d)))
    assert h.diagonal is not None
    b = np.array([4.0, 3.0, -8.0, 3.0])
    assert np.allclose(v_cycle(h, b), b / d)
    assert h.operator_complexity == 1.0


def test_identity_operator_solved_exactly():
    h = amg_setup(CsrMatrix.identity(10))
    r = np.linspace(-1, 1, 10)
    assert np.array_equal(apply_preconditioner_vcycle(h, r), r)


def test_galerkin_identity_on_every_level():
    h = amg_setup(poisson2d(32, 32))
    assert len(h.levels) >= 2
    for fine, coarse in zip(h.levels[:-1], h.levels[1:]):
        p = fine.p.to_scipy()
        explicit = (p.T @ fine.a.to_scipy() @ p).toarray()  # oracle triple product
        assert np.abs(explicit - coarse.a.to_dense()).max() < 1e-12
        assert fine.p.shape == (fine.n, coarse.n)


def test_operator_complexity_is_bounded():
    h = amg_setup(poisson2d(64, 64))
    assert 1.0 <= h.operator_complexity <= 3.0
    stats = h.stats()
    assert stats["levels"][0]["n"] == 64 * 64
    assert isinstance(h.describe(), str)


def test_zero_diagonal_is_rejected():
    a = CsrMatrix.from_dense([[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="zero diagonal"):
        amg_setup(a)


def test_non_square_is_rejected():
    with pytest.raises(ValueError, match="square"):
        amg_setup(CsrMatrix.from_dense(np.ones((2, 3))))


# -- cycles --------------------------------------------------------------------


def test_zero_rhs_zero_guess_returns_zero():
    h = amg_setup(poisson2d(16, 16))
    out = v_cycle(h, np.zeros(256), np.zeros(256))
    assert not out.any()


def test_single_level_hierarchy_solves_exactly():
    a = poisson2d(5, 5)  # 25 unknowns, below the coarse threshold
    h = amg_setup(a)
    assert len(h.levels) == 1
    rng = np.random.default_rng(0)
    b = rng.standard_normal(25)
    x = v_cycle(h, b)
    assert np.abs(a.to_scipy() @ x - b).max() < 1e-10


def test_stationary_cycle_contracts_a_norm_error_by_half():
    a = poisson2d(32, 32)
    h = amg_setup(a)
    a_s = a.to_scipy()
    rng = np.random.default_rng(1)
    b = rng.standard_normal(a.nrows)
    x_star = spla.spsolve(a_s.tocsc(), b)  # direct-solve reference
    x = np.zeros_like(b)
    previous = None
    for _ in range(10):
        x = v_cycle(h, b, x)
        e = x_star - x
        norm = np.sqrt(e @ (a_s @ e))
        if previous is not None:
            assert norm <= 0.5 * previous
        previous = norm


def test_cycle_from_zero_guess_is_linear():
    h = amg_setup(poisson2d(16, 16))
    rng = np.random.default_rng(2)
    r1 = rng.standard_normal(256)
    r2 = rng.standard_normal(256)
    z1 = apply_preconditioner_vcycle(h, r1)
    z2 = apply_preconditioner_vcycle(h, r2)
    scale = max(np.abs(z1).max(), np.abs(z2).max())
    both = apply_preconditioner_vcycle(h, 3.0 * r1 + r2)
    assert np.abs(both - (3.0 * z1 + z2)).max() < 1e-13 * max(scale, 1.0)
    assert np.abs(apply_preconditioner_vcycle(h, 2.0 * r1) - 2.0 * z1).max() < 1e-13 * max(scale, 1.0)


def test_preconditioner_matrix_is_constant_across_applications():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((10, 10))
    a = CsrMatrix.from_dense(dense @ dense.T + 10 * np.eye(10))
    h = amg_setup(a)
    cols = lambda: np.column_stack(  # noqa: E731
        [apply_preconditioner_vcycle(h, e) for e in np.eye(10)]
    )
    first = cols()
    second = cols()
    assert np.array_equal(first, second)


def test_negative_definite_operator_is_handled_transparently():
    a_pos = poisson2d(16, 16)
    a_neg = CsrMatrix.from_scipy((-a_pos.to_scipy()).tocsr())
    h = amg_setup(a_neg)
    assert h.negated
    rng = np.random.default_rng(4)
    b = rng.standard_normal(256)
    x = np.zeros_like(b)
    for _ in range(30):
        x = v_cycle(h, b, x)
    assert np.abs(a_neg.to_scipy() @ x - b).max() < 1e-8


def test_cycle_rejects_wrong_lengths():
    h = amg_setup(poisson2d(8, 8))
    with pytest.raises(ValueError):
        v_cycle(h, np.zeros(63))
    with pytest.raises(ValueError):
        v_cycle(h, np.zeros(64), np.zeros(63))


def test_custom_params_are_respected():
    params = AmgParams(max_coarse_size=8, max_levels=3)
    with pytest.warns(AmgSetupWarning, match="after 3 levels"):
        h = amg_setup(poisson2d(16, 16), params)
    assert len(h.levels) <= 3
    rng = np.random.default_rng(5)
    b = rng.standard_normal(256)
    z = apply_preconditioner_vcycle(h, b)
    assert np.all(np.isfinite(z))


def test_coarsest_level_above_max_coarse_size_warns():
    with pytest.warns(AmgSetupWarning, match=r"176 rows after 2 levels.*max_coarse_size=64"):
        h = amg_setup(poisson2d(32, 32), AmgParams(max_levels=2))
    assert [lev.n for lev in h.levels] == [1024, 176]


def test_healthy_hierarchy_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmgSetupWarning)
        h = amg_setup(poisson2d(64, 64))
    assert h.levels[-1].n == 18


# -- aggregation against the per-node reference ---------------------------------


def _reference_aggregate(a: sp.csr_matrix, theta: float):
    """The original per-node numpy aggregation, kept as the oracle."""
    n = a.shape[0]
    diag = a.diagonal()
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    off = a.indices != rows
    thresh = theta * np.sqrt(np.abs(diag[rows] * diag[a.indices]))
    strong = off & (np.abs(a.data) >= thresh) & (np.abs(a.data) > 0)
    s_mat = sp.csr_matrix(
        (np.abs(a.data[strong]), a.indices[strong], np.insert(np.cumsum(np.bincount(rows[strong], minlength=n)), 0, 0)),
        shape=(n, n),
    )
    indptr, indices, weights = s_mat.indptr, s_mat.indices, s_mat.data

    agg = np.full(n, -1, dtype=np.int64)
    n_agg = 0
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        if np.all(agg[nbrs] < 0):
            agg[i] = n_agg
            agg[nbrs] = n_agg
            n_agg += 1
    for i in range(n):
        if agg[i] >= 0:
            continue
        nbrs = indices[indptr[i] : indptr[i + 1]]
        w = weights[indptr[i] : indptr[i + 1]]
        best, best_w = -1, -1.0
        for j, wj in zip(nbrs, w):
            if agg[j] >= 0 and wj > best_w:
                best, best_w = agg[j], wj
        if best >= 0:
            agg[i] = best
    for i in range(n):
        if agg[i] >= 0:
            continue
        agg[i] = n_agg
        nbrs = indices[indptr[i] : indptr[i + 1]]
        agg[nbrs[agg[nbrs] < 0]] = n_agg
        n_agg += 1
    return agg, n_agg


def _assert_matches_reference(a: sp.csr_matrix, theta: float):
    expected, expected_n = _reference_aggregate(a, theta)
    agg, n_agg = _aggregate(a, *_strength(a, theta))
    assert agg.dtype == np.int64
    assert n_agg == expected_n
    assert np.array_equal(agg, expected)


@st.composite
def symmetric_operators(draw):
    """Canonical symmetric CSR with ties (repeated values), explicit zeros,
    weak entries and rows without any strong neighbor."""
    n = draw(st.integers(1, 14))
    values = st.sampled_from([0.0, -1.0, -1.0, -1.0, -0.5, -0.01, 0.3, -2.0])
    entries = {}
    for i in range(n):
        entries[i, i] = draw(st.sampled_from([1.0, 2.0, 4.0, 0.5]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)):
        if i != j:
            entries[i, j] = entries[j, i] = draw(values)
    keys = sorted(entries)
    rows = np.array([k[0] for k in keys])
    a = sp.csr_matrix(
        (np.array([entries[k] for k in keys]), np.array([k[1] for k in keys]),
         np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])),
        shape=(n, n),
    )
    return a, draw(st.sampled_from([0.0, 0.08, 0.25, 0.6]))


@settings(max_examples=300, deadline=None)
@given(symmetric_operators())
def test_aggregation_matches_reference_on_generated_operators(case):
    a, theta = case
    _assert_matches_reference(a, theta)


@pytest.mark.parametrize(
    "grid",
    [lambda: build_regular_network_3d(8, 3), lambda: build_random_network_2d(16, 6, seed=3)],
    ids=["regular_3d_n8", "random_2d_n16"],
)
@pytest.mark.parametrize("k_par, kappa", [(1.0, 1.0), (1e4, 1e-4)])
def test_aggregation_matches_reference_on_every_schur_level(grid, k_par, kappa):
    system = assemble(grid(), PhysicalParams(k_parallel=k_par, kappa=kappa))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmgSetupWarning)
        h = amg_setup(approx_schur(system))
    assert len(h.levels) >= 2
    for lev in h.levels:
        _assert_matches_reference(lev._a_scipy, h.params.strength_threshold)


# -- attaching strength-isolated nodes on coarse levels -------------------------


def _assert_isolated_nodes_attached(a: sp.csr_matrix, theta: float):
    """Check the attach pass against a per-node reading of its rule: every
    node without a strong neighbor joins the aggregate of its first
    strongest (normalised) nonzero neighbor that has a strong neighbor, all
    other nodes keep their aggregates, and ids stay contiguous and ordered.
    Returns the number of aggregates and of attached nodes."""
    strength = _strength(a, theta)
    before, _ = _aggregate(a, *strength)
    agg, n_agg = _attach_isolated(a, *strength, before)
    assert agg.dtype == np.int64
    assert np.array_equal(np.unique(agg), np.arange(n_agg))

    n = a.shape[0]
    diag = a.diagonal()
    measure = lambda i, j, v: abs(v) / np.sqrt(abs(diag[i] * diag[j]))  # noqa: E731
    nbrs = [
        [(j, v) for j, v in zip(a.indices[a.indptr[i]:a.indptr[i + 1]],
                                a.data[a.indptr[i]:a.indptr[i + 1]]) if j != i and v != 0.0]
        for i in range(n)
    ]
    has_strong = [
        any(abs(v) >= theta * np.sqrt(abs(diag[i] * diag[j])) for j, v in nbrs[i]) for i in range(n)
    ]
    target = {}
    for i in range(n):
        if not has_strong[i]:
            candidates = [(measure(i, j, v), j) for j, v in nbrs[i] if has_strong[j]]
            if candidates:
                target[i] = max(candidates, key=lambda t: t[0])[1]  # first of the strongest
    sizes = np.bincount(agg, minlength=n_agg)
    for i, j in target.items():
        assert agg[i] == agg[j]
        assert sizes[agg[i]] > 1
    stay = np.ones(n, dtype=bool)
    stay[list(target)] = False
    old, new = before[stay], agg[stay]
    assert np.array_equal(old[:, None] == old[None, :], new[:, None] == new[None, :])
    assert np.all(np.diff(new[np.argsort(old, kind="stable")]) >= 0)
    return n_agg, len(target)


@settings(max_examples=300, deadline=None)
@given(symmetric_operators())
def test_attach_isolated_on_generated_operators(case):
    a, theta = case
    _assert_isolated_nodes_attached(a, theta)


def test_attach_isolated_on_every_coarse_schur_level():
    attached = 0
    for grid in (build_regular_network_3d(8, 3), build_random_network_2d(16, 6, seed=3)):
        for k_par, kappa in ((1.0, 1.0), (1e4, 1e-4), (1e-4, 1e4)):
            system = assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))
            h = amg_setup(approx_schur(system))
            theta = h.params.strength_threshold
            for depth, lev in enumerate(h.levels[1:], start=1):
                n_agg, moved = _assert_isolated_nodes_attached(lev._a_scipy, theta)
                attached += moved
                if depth + 1 < len(h.levels):
                    assert n_agg == h.levels[depth + 1].n
    assert attached > 0  # the cases exercise the pass


@pytest.mark.parametrize("n", [32, 48])
def test_3d_schur_hierarchy_coarsens_at_scale(n):
    system = assemble(build_regular_network_3d(n, 3), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmgSetupWarning)
        prec = build_preconditioner(system, kind="ml")
    h = prec.hierarchies()["schur"]
    assert h.levels[-1].n < h.params.max_coarse_size
    assert h.operator_complexity < 2.0
    report = gmres(monolithic(system), system.rhs, prec, SolveConfig(rel_tol=1e-6))
    assert report.converged


_HIERARCHY_BYTES = """
import hashlib
from mdsolve import PhysicalParams, assemble, build_regular_network_3d
from mdsolve.amg import amg_setup
from mdsolve.precond import approx_schur
system = assemble(build_regular_network_3d(28, 3), PhysicalParams(k_parallel=1e4, kappa=1e-4))
h = amg_setup(approx_schur(system))
for lev in h.levels:
    digest = hashlib.sha256()
    for m in (lev._a_scipy, lev._p_scipy):
        if m is not None:
            for arr in (m.data, m.indices, m.indptr):
                digest.update(arr.tobytes())
    print(lev.n, digest.hexdigest())
"""


def test_hierarchy_does_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdsolve.__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        run = subprocess.run([sys.executable, "-c", _HIERARCHY_BYTES], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert len(out[0].splitlines()) >= 3
    assert out[0] == out[1]


# -- V-cycle against the per-call-transpose reference ---------------------------


def _reference_cycle(levels, depth, b, x):
    """The cycle as it was with the restriction ``p.T`` built on every call
    and ``scipy.linalg.lu_solve`` on the coarsest level, kept as the oracle."""
    lev = levels[depth]
    if lev.is_coarsest:
        return scipy.linalg.lu_solve(lev._coarse_lu, b)
    a = lev._a_scipy
    if x is None:
        x = lev._lower.solve(b)
    else:
        x = x + lev._lower.solve(b - a @ x)
    resid = b - a @ x
    correction = _reference_cycle(levels, depth + 1, lev._p_scipy.T @ resid, None)
    x = x + lev._p_scipy @ correction
    return x + lev._upper.solve(b - a @ x)


def _reference_v_cycle(h, b, x0):
    if h.diagonal is not None:
        return b / h.diagonal
    x = x0 if x0 is not None and np.any(x0) else None
    return _reference_cycle(h.levels, 0, -b if h.negated else b, x)


@pytest.fixture(scope="module")
def hierarchies():
    """Hierarchies of the conftest operators (also negated, as the interface
    blocks of the test geometries are all diagonal), of a single level, and of
    the Schur and interface blocks of every test geometry at three parameter
    pairs."""
    operators = {
        "poisson1d_64": poisson1d(64),
        "poisson2d_32": poisson2d(32, 32),
        "poisson2d_64": poisson2d(64, 64),
        "negated_poisson2d_16": CsrMatrix.from_scipy((-poisson2d(16, 16).to_scipy()).tocsr()),
    }
    geometries = {
        "cross_2d": build_cross_2d(16),
        "random_2d": build_random_network_2d(16, 6, seed=3),
        "network_2d": build_network_2d(
            8, [Segment(0, 4, 0, 8), Segment(1, 4, 4, 8), Segment(1, 6, 1, 6), Segment(0, 2, 1, 5)]
        ),
        "regular_3d": build_regular_network_3d(8, 3),
    }
    for name, grid in geometries.items():
        for k_par, kappa in ((1.0, 1.0), (1e4, 1e-4), (1e-4, 1e4)):
            system = assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))
            operators[f"{name}_{k_par:g}_{kappa:g}_schur"] = approx_schur(system)
            operators[f"{name}_{k_par:g}_{kappa:g}_interface"] = system.a_gamma_gamma
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmgSetupWarning)
        out = {name: amg_setup(a) for name, a in operators.items()}
        out["single_level"] = amg_setup(poisson2d(8, 8), AmgParams(max_levels=1))
    return out


def test_v_cycle_matches_the_reference_byte_for_byte(hierarchies):
    rng = np.random.default_rng(11)
    for name, h in hierarchies.items():
        b = rng.standard_normal(h.n)
        for x0 in (None, rng.standard_normal(h.n)):
            expected = _reference_v_cycle(h, b, x0)
            assert v_cycle(h, b, x0).tobytes() == expected.tobytes(), name
    # the cases cover every path through the cycle
    assert any(h.negated for h in hierarchies.values())
    assert any(h.diagonal is not None for h in hierarchies.values())
    assert len(hierarchies["single_level"].levels) == 1
    assert max(len(h.levels) for h in hierarchies.values()) >= 4


def test_restriction_is_a_view_of_the_prolongator(hierarchies):
    for h in hierarchies.values():
        for lev in h.levels[:-1]:
            r, p = lev._r_scipy, lev._p_scipy
            assert r.format == "csc" and r.shape == p.shape[::-1]
            for attr in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(r, attr), getattr(p, attr))
        if h.levels:
            assert h.levels[-1]._r_scipy is None
