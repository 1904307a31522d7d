import dataclasses
import gc
import hashlib
import importlib.util
import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mdsolve
from conftest import eye, level_operators, poisson1d, poisson2d
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
    MAX_COARSE_SIZE,
    STRENGTH_THRESHOLD,
    _aggregate,
    _attach_isolated,
    _strength,
    amg_setup,
    apply_preconditioner_vcycle,
    v_cycle,
)
from mdsolve.precond import approx_schur
from mdsolve.sparse import CsrMatrix, canonical, csr_equal
from mdsolve.sysio import import_system


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
    h = amg_setup(canonical(np.diag(d)))
    assert h.diagonal is not None
    b = np.array([4.0, 3.0, -8.0, 3.0])
    assert np.allclose(v_cycle(h, b), b / d)
    assert h.operator_complexity == 1.0


def test_identity_operator_solved_exactly():
    h = amg_setup(eye(10))
    r = np.linspace(-1, 1, 10)
    assert np.array_equal(apply_preconditioner_vcycle(h, r), r)


def test_galerkin_identity_on_every_level():
    a = poisson2d(32, 32)
    h = amg_setup(a)
    assert len(h.levels) >= 2
    ops = level_operators(a, h)
    for fine, coarse, fine_a, coarse_a in zip(h.levels[:-1], h.levels[1:], ops[:-1], ops[1:]):
        p = fine.p
        explicit = (p.T @ fine_a @ p).toarray()  # oracle triple product
        assert np.abs(explicit - coarse_a.toarray()).max() < 1e-12
        assert fine.p.shape == (fine.n, coarse.n)


def test_operator_complexity_is_bounded():
    h = amg_setup(poisson2d(64, 64))
    assert 1.0 <= h.operator_complexity <= 3.0
    stats = h.stats()
    assert stats["levels"][0]["n"] == 64 * 64
    assert isinstance(h.describe(), str)


def test_zero_diagonal_is_rejected():
    a = canonical(np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="zero diagonal"):
        amg_setup(a)


def test_non_square_is_rejected():
    with pytest.raises(ValueError, match="square"):
        amg_setup(canonical(np.ones((2, 3))))


def test_non_symmetric_is_rejected():
    a = poisson1d(8).toarray()
    a[2, 3] = -1.5
    with pytest.raises(ValueError, match="^amg_setup: operator is not symmetric$"):
        amg_setup(canonical(a))
    with pytest.raises(ValueError, match="^amg_setup: operator is not symmetric$"):
        amg_setup(canonical(-a))  # of either sign


def test_explicit_zeros_count_as_zeros_in_the_symmetry_check():
    a = poisson1d(8)
    rows = np.repeat(np.arange(8), np.diff(a.indptr))
    # an explicit zero at (0, 5) without a (5, 0) entry
    zero_one_side = sp.csr_array(
        (np.r_[a.data, 0.0], (np.r_[rows, 0], np.r_[a.indices, 5])), shape=a.shape
    )
    b = canonical(zero_one_side)
    assert b.nnz == a.nnz + 1
    assert [lev.n for lev in amg_setup(b).levels] == [lev.n for lev in amg_setup(a).levels]


# -- symmetry of every operator the package passes to amg_setup ------------------

def _assert_symmetric(a, name):
    assert csr_equal(a, a.T.tocsr()), name


@pytest.mark.parametrize("name", sorted(os.listdir(Path(__file__).parent / "data" / "systems")))
def test_fixture_schur_and_interface_blocks_are_exactly_symmetric(name):
    system = import_system(Path(__file__).parent / "data" / "systems" / name)
    _assert_symmetric(approx_schur(system), name)
    _assert_symmetric(system.a_gamma_gamma, name)


def test_generated_schur_and_interface_blocks_are_exactly_symmetric():
    for name, grid in _test_geometries().items():
        for k_par, kappa in itertools.product((1e-4, 1.0, 1e4), repeat=2):
            system = assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))
            _assert_symmetric(approx_schur(system), (name, k_par, kappa))
            _assert_symmetric(system.a_gamma_gamma, (name, k_par, kappa))


# -- cycles --------------------------------------------------------------------


def test_zero_rhs_zero_guess_returns_zero():
    h = amg_setup(poisson2d(16, 16))
    out = v_cycle(h, np.zeros(256))
    assert not out.any()


def test_single_level_hierarchy_solves_exactly():
    a = poisson2d(5, 5)  # 25 unknowns, below the coarse threshold
    h = amg_setup(a)
    assert len(h.levels) == 1
    rng = np.random.default_rng(0)
    b = rng.standard_normal(25)
    x = v_cycle(h, b)
    assert np.abs(a @ x - b).max() < 1e-10


def test_stationary_cycle_contracts_a_norm_error_by_half():
    a = poisson2d(32, 32)
    h = amg_setup(a)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(a.shape[0])
    x_star = spla.spsolve(a.tocsc(), b)  # direct-solve reference
    x = np.zeros_like(b)
    previous = None
    for _ in range(10):
        x = x + v_cycle(h, b - a @ x)
        e = x_star - x
        norm = np.sqrt(e @ (a @ e))
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
    a = canonical(dense @ dense.T + 10 * np.eye(10))
    h = amg_setup(a)
    cols = lambda: np.column_stack(  # noqa: E731
        [apply_preconditioner_vcycle(h, e) for e in np.eye(10)]
    )
    first = cols()
    second = cols()
    assert np.array_equal(first, second)


def test_negative_definite_operator_is_handled_transparently():
    a_pos = poisson2d(16, 16)
    a_neg = canonical(-a_pos)
    h = amg_setup(a_neg)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(256)
    x = np.zeros_like(b)
    for _ in range(30):
        x = x + v_cycle(h, b - a_neg @ x)
    assert np.abs(a_neg @ x - b).max() < 1e-8


def test_cycle_rejects_wrong_lengths():
    h = amg_setup(poisson2d(8, 8))
    with pytest.raises(ValueError):
        v_cycle(h, np.zeros(63))


def test_coarsest_level_above_max_coarse_size_warns(monkeypatch):
    monkeypatch.setattr(mdsolve.amg, "MAX_LEVELS", 2)
    with pytest.warns(AmgSetupWarning, match=r"176 rows after 2 levels.*max_coarse_size=64"):
        h = amg_setup(poisson2d(32, 32))
    assert [lev.n for lev in h.levels] == [1024, 176]


def test_a_stalled_aggregation_stops_coarsening_and_warns():
    # off-diagonals of 0.01 * diag are all weak: every row is its own
    # aggregate, so the first level is the coarsest and is solved exactly
    n = 100
    off = -0.01 * 2.0 * np.ones(n - 1)
    a = canonical(sp.diags_array([2.0 * np.ones(n), off, off], offsets=[0, -1, 1]))
    with pytest.warns(AmgSetupWarning, match=r"has 100 rows after 1 levels"):
        h = amg_setup(a)
    assert [lev.n for lev in h.levels] == [n]
    b = np.random.default_rng(0).standard_normal(n)
    x = v_cycle(h, b)
    assert np.linalg.norm(a @ x - b) <= 1e-14 * np.linalg.norm(b)


def test_healthy_hierarchy_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmgSetupWarning)
        h = amg_setup(poisson2d(64, 64))
    assert h.levels[-1].n == 18


def test_a_forced_stall_stores_a_sparse_coarsest_factor(monkeypatch):
    """With one level the coarsest operator is the whole Laplacian. Its
    factor stores the entries of L and U, which grow far slower than the
    ``n**2`` of a dense LU."""
    monkeypatch.setattr(mdsolve.amg, "MAX_LEVELS", 1)
    stored = {}
    for m in (32, 64):
        with pytest.warns(AmgSetupWarning, match=rf"has {m * m} rows after 1 levels"):
            h = amg_setup(poisson2d(m, m))
        lu = h.levels[-1]._coarse_lu
        stored[m] = lu.L.nnz + lu.U.nnz
    assert stored[64] < 8 * stored[32], stored  # n**2 grows 16x
    assert stored[64] < 4096**2 / 20, stored


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


def _graph(n: int, edges: dict) -> sp.csr_matrix:
    """Symmetric operator with diagonal 4 and ``a_ij = a_ji = -w`` for each
    edge ``(i, j): w``; at theta 0 every edge is strong."""
    a = sp.lil_matrix((n, n))
    a.setdiag(4.0)
    for (i, j), w in edges.items():
        a[i, j] = a[j, i] = -w
    return sp.csr_matrix(a)


# Root pass on each: {0, 1} and {2, 3} become aggregates 0 and 1; every later
# node has a strong neighbor among them and is a straggler.
# Stragglers 5 and 6 each hold their strongest edge to the previous straggler,
# so 6 -> 5 -> 4 -> 1 is a chain and all three join aggregate 0, although 5
# and 6 also have an edge to aggregate 1.
_STRAGGLER_CHAIN = (_graph(7, {(0, 1): 1.0, (2, 3): 1.0, (1, 4): 0.9, (3, 4): 0.5,
                               (3, 5): 0.2, (4, 5): 0.8, (3, 6): 0.3, (5, 6): 0.7}), 0.0)
# Equal weights: 4 goes to 1, the earlier entry of its row, not to 3; and 5
# goes to 3 (root-aggregated) before 4 (an earlier straggler).
_STRAGGLER_TIES = (_graph(6, {(0, 1): 1.0, (2, 3): 1.0, (1, 4): 0.5, (3, 4): 0.5,
                              (3, 5): 0.5, (4, 5): 0.5}), 0.0)
# 4's strongest strong neighbor is 5, a later straggler, which a sequential
# pass has not placed yet: 4 joins 3's aggregate, and 5 then follows 4.
_LATER_STRAGGLER = (_graph(6, {(0, 1): 1.0, (2, 3): 1.0, (3, 4): 0.2, (4, 5): 0.9,
                               (1, 5): 0.3}), 0.0)


@pytest.mark.parametrize("case, expected", [
    (_STRAGGLER_CHAIN, [0, 0, 1, 1, 0, 0, 0]),
    (_STRAGGLER_TIES, [0, 0, 1, 1, 0, 1]),
    (_LATER_STRAGGLER, [0, 0, 1, 1, 1, 1]),
], ids=["chain", "ties", "later_straggler"])
def test_straggler_pass_on_hand_built_operators(case, expected):
    a, theta = case
    agg, n_agg = _aggregate(a, *_strength(a, theta))
    assert (agg.tolist(), n_agg) == (expected, 2)
    _assert_matches_reference(a, theta)


@settings(max_examples=300, deadline=None)
@given(symmetric_operators())
@example(_STRAGGLER_CHAIN)
@example(_STRAGGLER_TIES)
@example(_LATER_STRAGGLER)
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
    schur = approx_schur(system)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmgSetupWarning)
        h = amg_setup(schur)
    assert len(h.levels) >= 2
    for a in level_operators(schur, h):
        _assert_matches_reference(a, STRENGTH_THRESHOLD)


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
            schur = approx_schur(system)
            h = amg_setup(schur)
            for depth, a in enumerate(level_operators(schur, h)[1:], start=1):
                n_agg, moved = _assert_isolated_nodes_attached(a, STRENGTH_THRESHOLD)
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
    assert h.levels[-1].n < MAX_COARSE_SIZE
    assert h.operator_complexity < 2.0
    report = gmres(monolithic(system), system.rhs, prec, SolveConfig(rel_tol=1e-6))
    assert report.converged


def test_setup_python_heap_peak_is_at_most_five_times_its_input():
    """The ``tracemalloc`` peak of ``amg_setup`` on a 3d Schur block stays
    within five times the block's CSR bytes (8.2 times when aggregation built
    Python lists of the strong graph). ``tracemalloc`` sees only the Python
    heap, numpy arrays included; SuperLU's C allocations for the triangular
    factors are invisible to it."""
    system = assemble(build_regular_network_3d(24, 3), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    schur = approx_schur(system)
    del system
    csr_bytes = schur.data.nbytes + schur.indices.nbytes + schur.indptr.nbytes
    tracemalloc.start()
    try:
        amg_setup(schur)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * csr_bytes, f"peak {peak / csr_bytes:.2f} x the input's CSR bytes"


def test_setup_keeps_at_most_1_6_times_its_input_on_the_python_heap():
    """The Python heap that ``amg_setup`` keeps on a 3d Schur block, built
    inside the trace and dropped by the caller, stays within 1.6 times the
    block's CSR bytes: each level's ``tril(A, -1)`` and P (2.3 times while
    every level kept its operator). SuperLU's factors are C allocations that
    ``tracemalloc`` does not see."""
    system = assemble(build_regular_network_3d(24, 3), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    schur = approx_schur(system)
    csr_bytes = schur.data.nbytes + schur.indices.nbytes + schur.indptr.nbytes
    del schur
    tracemalloc.start()
    try:
        h = amg_setup(approx_schur(system))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(h.levels) >= 3
    assert kept <= 1.6 * csr_bytes, f"kept {kept / csr_bytes:.2f} x the input's CSR bytes"


_HIERARCHY_BYTES = """
import hashlib
from mdsolve import PhysicalParams, assemble, build_regular_network_3d
from mdsolve.amg import amg_setup
from mdsolve.precond import approx_schur
system = assemble(build_regular_network_3d(28, 3), PhysicalParams(k_parallel=1e4, kappa=1e-4))
h = amg_setup(approx_schur(system))
for lev in h.levels:
    arrays = []
    for m in (lev.strict_lower, lev.p):
        if m is not None:
            arrays += [m.data, m.indices, m.indptr]
    factor = lev._coarse_lu if lev.is_coarsest else lev._lower
    for m in (factor.L, factor.U):
        arrays += [m.data, m.indices, m.indptr]
    arrays += [factor.perm_r, factor.perm_c]
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr.tobytes())
    print(lev.n, len(arrays), digest.hexdigest())
"""


def test_hierarchy_does_not_depend_on_the_blas_thread_count():
    """Every array each level stores, its factor's included, hashes the
    same with one and with two BLAS threads."""
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


def _reference_cycle(levels, depth, b, x0):
    """The cycle with the restriction ``p.T`` built on every call, kept as
    the oracle; its coarsest step is the level's own factor."""
    lev = levels[depth]
    if lev.is_coarsest:
        return lev._coarse_lu.solve(b)
    lower = lev.strict_lower
    if x0 is None:
        x = lev._lower.solve(b)
        d = lower.T @ x
    else:
        x = lev._lower.solve(b - lower.T @ x0)
        d = lower.T @ (x - x0)
    x = x - lev.p @ _reference_cycle(levels, depth + 1, lev.p.T @ d, None)
    return lev._lower.solve(b - lower @ x, trans="T")


def _reference_v_cycle(h, b, x0):
    if h.diagonal is not None:
        return b / h.diagonal
    x = x0 if x0 is not None and np.any(x0) else None
    return _reference_cycle(h.levels, 0, b, x)


def _test_geometries():
    return {
        "cross_2d": build_cross_2d(16),
        "random_2d": build_random_network_2d(16, 6, seed=3),
        "network_2d": build_network_2d(
            8, [Segment(0, 4, 0, 8), Segment(1, 4, 4, 8), Segment(1, 6, 1, 6), Segment(0, 2, 1, 5)]
        ),
        "regular_3d": build_regular_network_3d(8, 3),
    }


def build_operators():
    """The conftest operators (also negated, as the interface blocks of the
    test geometries are all diagonal), an operator below ``MAX_COARSE_SIZE``
    rows (a single level), and the Schur and interface blocks of every test
    geometry at three parameter pairs."""
    operators = {
        "poisson1d_64": poisson1d(64),
        "poisson2d_32": poisson2d(32, 32),
        "poisson2d_64": poisson2d(64, 64),
        "negated_poisson2d_16": canonical(-poisson2d(16, 16)),
    }
    for name, grid in _test_geometries().items():
        for k_par, kappa in ((1.0, 1.0), (1e4, 1e-4), (1e-4, 1e4)):
            system = assemble(grid, PhysicalParams(k_parallel=k_par, kappa=kappa))
            operators[f"{name}_{k_par:g}_{kappa:g}_schur"] = approx_schur(system)
            operators[f"{name}_{k_par:g}_{kappa:g}_interface"] = system.a_gamma_gamma
    operators["single_level"] = poisson2d(7, 7)
    return operators


def build_hierarchies(operators):
    """The hierarchy of each of :func:`build_operators`' operators. The pins
    below are printed from them by ``tests/data/write_hierarchy_pins.py``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmgSetupWarning)
        return {name: amg_setup(a) for name, a in operators.items()}


@pytest.fixture(scope="module")
def operators():
    return build_operators()


@pytest.fixture(scope="module")
def hierarchies(operators):
    return build_hierarchies(operators)


# (n, nnz) of each level and the operator complexity of every fixture
# hierarchy, as recorded: a drifting setup constant changes a shape here
# before it shows in iteration counts
HIERARCHY_SHAPES = {
    "poisson1d_64": ([(64, 190), (22, 64)], 1.3368421052631578),
    "poisson2d_32": ([(1024, 4992), (176, 1434), (27, 271)], 1.3415464743589745),
    "poisson2d_64": ([(4096, 20224), (704, 6096), (101, 1309), (18, 192)], 1.3756428006329113),
    "negated_poisson2d_16": ([(256, 1216), (48, 368)], 1.3026315789473684),
    "cross_2d_1_1_schur": ([(289, 1377), (62, 636)], 1.4618736383442266),
    "cross_2d_1_1_interface": ([(68, 68)], 1.0),
    "cross_2d_10000_0.0001_schur": ([(289, 1377), (61, 465)], 1.3376906318082789),
    "cross_2d_10000_0.0001_interface": ([(68, 68)], 1.0),
    "cross_2d_0.0001_10000_schur": ([(289, 1377), (71, 541), (13, 107)], 1.4705882352941178),
    "cross_2d_0.0001_10000_interface": ([(68, 68)], 1.0),
    "random_2d_1_1_schur": ([(293, 1389), (60, 582)], 1.4190064794816415),
    "random_2d_1_1_interface": ([(75, 75)], 1.0),
    "random_2d_10000_0.0001_schur": ([(293, 1389), (67, 543), (16, 136)], 1.4888408927285817),
    "random_2d_10000_0.0001_interface": ([(75, 75)], 1.0),
    "random_2d_0.0001_10000_schur": ([(293, 1389), (75, 577), (20, 146)], 1.5205183585313176),
    "random_2d_0.0001_10000_interface": ([(75, 75)], 1.0),
    "network_2d_1_1_schur": ([(87, 395), (16, 116)], 1.2936708860759494),
    "network_2d_1_1_interface": ([(49, 49)], 1.0),
    "network_2d_10000_0.0001_schur": ([(87, 395), (26, 162)], 1.410126582278481),
    "network_2d_10000_0.0001_interface": ([(49, 49)], 1.0),
    "network_2d_0.0001_10000_schur": ([(87, 395), (29, 171)], 1.4329113924050634),
    "network_2d_0.0001_10000_interface": ([(49, 49)], 1.0),
    "regular_3d_1_1_schur": ([(729, 4617), (189, 2353), (41, 573)], 1.6337448559670782),
    "regular_3d_1_1_interface": ([(486, 486)], 1.0),
    "regular_3d_10000_0.0001_schur": ([(729, 4617), (149, 2405), (26, 132)], 1.5494910114793157),
    "regular_3d_10000_0.0001_interface": ([(486, 486)], 1.0),
    "regular_3d_0.0001_10000_schur": ([(729, 4617), (213, 2293), (47, 707)], 1.649772579597141),
    "regular_3d_0.0001_10000_interface": ([(486, 486)], 1.0),
    "single_level": ([(49, 217)], 1.0),
}


def test_hierarchy_shapes_match_the_recorded_values(hierarchies):
    assert hierarchies.keys() == HIERARCHY_SHAPES.keys()
    for name, h in hierarchies.items():
        levels, complexity = HIERARCHY_SHAPES[name]
        stats = h.stats()
        assert [(lev["n"], lev["nnz"]) for lev in stats["levels"]] == levels, name
        assert stats["operator_complexity"] == complexity, name


# sha256 of the indptr, indices and data of every level's operator and
# prolongator (and of the diagonal of a diagonal hierarchy), in level order:
# the shapes above do not change when a set-up sum changes order, these do
HIERARCHY_SHA256 = {
    "poisson1d_64": "e56b865f283283d94be5d8c433de8da7dce5ad03de02627d9236fa9898312abc",
    "poisson2d_32": "e28a9895c32619b895a100697caacac2bc27093b422ce06d564406bf735346b5",
    "poisson2d_64": "3a7cc5cc890eab0256c6ae24f80296980e4354b95b667a7c22fbbdf63008bdf9",
    "negated_poisson2d_16": "b5009e0fde56541047fcdcc893d7624c42708c6a657042bdcc111c6c90aa2831",
    "cross_2d_1_1_schur": "d0592deb9ef1aa9cfd903965b336e52aa7e92f27dd8267873b153f1e2ca4a617",
    "cross_2d_1_1_interface": "ce8038610c0ff56ff405aebb707cfff0fff1b064451e29bdf74167f0a7e335b2",
    "cross_2d_10000_0.0001_schur": "73f569f7d448186a7f776d75f76c24248ee8672ed8aaec30a7fd0135584f3268",
    "cross_2d_10000_0.0001_interface": "d3b042bf16efdb7d7d73b37a41d31a2d497949353ee96b74bce5275432b49e70",
    "cross_2d_0.0001_10000_schur": "51b4ede4df11723db2ec51da1ac7cf2cff936811d90b3adde36c6e95bdc523c3",
    "cross_2d_0.0001_10000_interface": "cbcc32b9e42d21ad9555383c52ecbad86707185ae5ccca9f306e3c84a2f24308",
    "random_2d_1_1_schur": "f393682c1302eec0af27ab69805ae5234816621a91d8e7c3b2c909428df3edcd",
    "random_2d_1_1_interface": "7d9f7886fef240c751b4f1ca07fd28e982a65c38570e4d8d2035fdb38ea36cbe",
    "random_2d_10000_0.0001_schur": "3b40bea9fe159db4ceedd434d484bb0893f0e183ca9f6e83358b0147c4ba0002",
    "random_2d_10000_0.0001_interface": "1f13435a50e64ada4f481b7a885a3dd354bcfd6ebd53ed2940fcad7850365840",
    "random_2d_0.0001_10000_schur": "ca6ce6530057e52144f3e43cd18c611d998639830921318de7b8cf816453782f",
    "random_2d_0.0001_10000_interface": "9413b7d625e1e11bcdb467cb0e2ebf89599312823ea7077d8e1ab4ab4043216e",
    "network_2d_1_1_schur": "28df7ca3529bbfeff9a7cc17098283d8d00731ec5210308d4b2888dea51d0cd3",
    "network_2d_1_1_interface": "76c48fd0e00d7e7cd053fdb40f1defcf182eadda42413e6772db75e7186cb74d",
    "network_2d_10000_0.0001_schur": "0b8e85deecd87a0799fb8bb6d6298249bf700b8153822eba57f61f828eee1e52",
    "network_2d_10000_0.0001_interface": "79999cd393c91f1e4544fed527417ff2b4a4a142549ae514a0ac7487f9d0d490",
    "network_2d_0.0001_10000_schur": "a18335c18c1c8daa1a3a519bc9b0613ed5df7b00172215fa33fa3da500ff8182",
    "network_2d_0.0001_10000_interface": "ff0afeb59afbd815bdd68a1e1d7fd35779870126fe753abced2bbd2e086ea95a",
    "regular_3d_1_1_schur": "d65c86b38203774e9a8b5ee7ed7d58034271b2975ccc7de026b5c678b13f0271",
    "regular_3d_1_1_interface": "4306a0aa6827bf76f4f4c00a45798f6f14d3289f5c9c8f5d028c38338265b7db",
    "regular_3d_10000_0.0001_schur": "60e377af34a768a761c2b9fe651fc029c0b665a8d0a482366b212c6c72ffb061",
    "regular_3d_10000_0.0001_interface": "d6f23cdc92a48ee217734905020072ee0275587b43c0c72921f93fa135651fc8",
    "regular_3d_0.0001_10000_schur": "18526573bf06f51cba81ce26d004879e639498ce544829c6e1241c0978c33ac8",
    "regular_3d_0.0001_10000_interface": "68eb4e7db2cf903e4150626321d0aa216a2ab55c7575ac7d59161bd2755a773d",
    "single_level": "1cb9b310e96307b330c5bbae5a3c7746c212c0f7b9868183d0b5558c65764ec1",
}


def _hierarchy_sha256(a, h) -> str:
    """The digest of ``HIERARCHY_SHA256`` for ``h = amg_setup(a)``, with each
    level's operator replayed by ``level_operators``."""
    digest = hashlib.sha256()
    for op, lev in zip(level_operators(a, h), h.levels):
        for m in (op, lev.p):
            if m is not None:
                for arr in (m.indptr, m.indices, m.data):
                    digest.update(arr.tobytes())
    if h.diagonal is not None:
        digest.update(h.diagonal.tobytes())
    return digest.hexdigest()


def test_hierarchy_bytes_match_the_recorded_hashes(operators, hierarchies):
    assert hierarchies.keys() == HIERARCHY_SHA256.keys()
    for name, h in hierarchies.items():
        assert _hierarchy_sha256(operators[name], h) == HIERARCHY_SHA256[name], name


def test_pin_generator_prints_the_recorded_tables(operators, hierarchies):
    spec = importlib.util.spec_from_file_location(
        "write_hierarchy_pins", Path(__file__).parent / "data" / "write_hierarchy_pins.py"
    )
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    source = Path(__file__).read_text()
    for table in pins.pin_tables(operators, hierarchies):
        assert table in source, table.splitlines()[0]


def test_coarsest_solve_is_backward_stable(operators, hierarchies):
    """The coarsest level's factor against its operator, on its own: the
    reference cycles call that factor, so they cannot check it."""
    rng = np.random.default_rng(13)
    for name, h in hierarchies.items():
        if not h.levels:
            continue  # a diagonal hierarchy
        lev = h.levels[-1]
        a = level_operators(operators[name], h)[-1]
        b = rng.standard_normal(lev.n)
        x = lev._coarse_lu.solve(b)
        scale = spla.norm(a, np.inf) * np.abs(x).max() + np.abs(b).max()
        assert np.abs(b - a @ x).max() <= 1e-14 * scale, name


def test_v_cycle_matches_the_reference_byte_for_byte(hierarchies):
    rng = np.random.default_rng(11)
    for name, h in hierarchies.items():
        b = rng.standard_normal(h.n)
        assert v_cycle(h, b).tobytes() == _reference_v_cycle(h, b, None).tobytes(), name
    # the cases cover every path through the cycle, on operators of both signs
    assert len(hierarchies["negated_poisson2d_16"].levels) > 1
    assert any(h.diagonal is not None for h in hierarchies.values())
    assert len(hierarchies["single_level"].levels) == 1
    assert max(len(h.levels) for h in hierarchies.values()) >= 4


def test_set_up_and_cycle_commute_with_negation(operators, hierarchies):
    """``amg_setup(-A)`` builds the hierarchy of ``A`` with every operator
    negated and the same prolongators, so ``v_cycle`` on ``-A`` at ``b`` is
    byte for byte ``v_cycle`` on ``A`` at ``-b``: the set-up reads only
    ``|a_ij|``, ``|a_ii a_jj|`` and ``D^-1 A``, and rounding is symmetric
    under a sign flip."""
    rng = np.random.default_rng(16)
    compared = set()
    for name, h_pos in hierarchies.items():
        if len(h_pos.levels) < 2:
            continue
        h_neg = amg_setup(canonical(-operators[name]))
        assert [(lev.n, lev.nnz) for lev in h_neg.levels] == \
            [(lev.n, lev.nnz) for lev in h_pos.levels], name
        for neg, pos in zip(h_neg.levels[:-1], h_pos.levels[:-1]):
            for attr in ("indptr", "indices", "data"):
                assert getattr(neg.p, attr).tobytes() == getattr(pos.p, attr).tobytes(), name
            lower_neg, lower_pos = neg.strict_lower, pos.strict_lower
            assert np.array_equal(lower_neg.indptr, lower_pos.indptr), name
            assert np.array_equal(lower_neg.indices, lower_pos.indices), name
            assert (-lower_neg.data).tobytes() == lower_pos.data.tobytes(), name
        b = rng.standard_normal(h_pos.n)
        assert v_cycle(h_neg, b).tobytes() == v_cycle(h_pos, -b).tobytes(), name
        compared.add(name)
    assert len(compared) == 16 and "negated_poisson2d_16" in compared
    # the hierarchy of A, pinned: that of -A differs from it only in its operators' signs
    a = poisson2d(16, 16)
    assert _hierarchy_sha256(a, amg_setup(a)) == (
        "3dcbbff94d1068d38ddc00bec68af1aadd242ac1f54c90916c8081d73932ae60"
    )


def _two_factor_cycle(levels, depth, b, uppers):
    """The cycle with a second SuperLU factor, of ``triu(A)``, for the
    backward sweep, kept as the oracle of the symmetric smoother."""
    lev = levels[depth]
    if lev.is_coarsest:
        return lev._coarse_lu.solve(b)
    lower = lev.strict_lower
    x = lev._lower.solve(b)
    x = x - lev.p @ _two_factor_cycle(levels, depth + 1, lev.p.T @ (lower.T @ x), uppers)
    return uppers[depth].solve(b - lower @ x)


def test_v_cycle_is_within_rounding_of_the_two_factor_cycle(operators, hierarchies):
    rng = np.random.default_rng(12)
    compared = set()
    for name, h in hierarchies.items():
        if h.diagonal is not None:
            continue
        uppers = [
            spla.splu(sp.triu(a, 0).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
            for a in level_operators(operators[name], h)[:-1]
        ]
        b = rng.standard_normal(h.n)
        ref = _two_factor_cycle(h.levels, 0, b, uppers)
        got = v_cycle(h, b)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
        if uppers:
            compared.add(name)
    # every multilevel hierarchy, the negated one among them
    assert compared == {name for name, h in hierarchies.items() if len(h.levels) > 1}
    assert len(compared) == 16 and "negated_poisson2d_16" in compared


def test_warm_start_is_defect_correction(operators, hierarchies):
    """A cycle from a guess ``x0`` is ``x0 + v_cycle(h, b - A @ x0)``: the
    reference's warm-started cycle, whose level-0 residual comes from ``L``,
    agrees with it up to the rounding of ``b - A x0``."""
    rng = np.random.default_rng(15)
    for name, h in hierarchies.items():
        b = rng.standard_normal(h.n)
        x0 = rng.standard_normal(h.n)
        ref = _reference_v_cycle(h, b, x0)
        got = x0 + v_cycle(h, b - operators[name] @ x0)
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max(), name
    assert len(hierarchies) == 29


def _full_residual_cycle(levels, operators, depth, b):
    """The cycle from a zero guess as it was when every level kept its
    operator ``A``: both residuals are ``b - A x`` in full."""
    lev = levels[depth]
    if lev.is_coarsest:
        return lev._coarse_lu.solve(b)
    a = operators[depth]
    x = lev._lower.solve(b)
    resid = b - a @ x
    x = x + lev.p @ _full_residual_cycle(levels, operators, depth + 1, lev.r @ resid)
    return x + lev._lower.solve(b - a @ x, trans="T")


def test_v_cycle_is_within_rounding_of_the_full_residual_cycle(operators, hierarchies):
    """From a zero guess the residuals taken from ``tril(A, -1)`` are those
    of ``A`` up to rounding: exactly on level 0, and on the Galerkin levels
    with ``L^T`` for ``triu(A, 1)``."""
    rng = np.random.default_rng(14)
    compared = 0
    for name, h in hierarchies.items():
        if h.diagonal is not None:
            continue
        b = rng.standard_normal(h.n)
        ops = level_operators(operators[name], h)
        ref = _full_residual_cycle(h.levels, ops, 0, b)
        got = apply_preconditioner_vcycle(h, b)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name
        compared += len(h.levels) > 1
    assert compared >= 16  # multilevel hierarchies, negated ones among them


def test_restriction_is_a_view_of_the_prolongator(hierarchies):
    for h in hierarchies.values():
        for lev in h.levels[:-1]:
            r, p = lev.r, lev.p
            assert r.format == "csc" and r.shape == p.shape[::-1]
            for attr in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(r, attr), getattr(p, attr))
        if h.levels:
            assert h.levels[-1].r is None


def test_each_level_stores_its_strict_lower_triangle_and_prolongator_once(operators, hierarchies):
    """No level keeps its operator. A level above the coarsest stores
    ``tril(A, -1)`` and P, each once, their transposes as views, and one
    triangular factor, of ``tril(A)``, for both smoothing sweeps; the coarsest stores
    one factor, of A, and no sparse matrix."""
    for name, h in hierarchies.items():
        for lev, a in zip(h.levels, level_operators(operators[name], h)):
            assert (lev.n, lev.nnz) == (a.shape[0], a.nnz), name
            factors = [f.name for f in dataclasses.fields(lev)
                       if isinstance(getattr(lev, f.name), spla.SuperLU)]
            assert factors == (["_coarse_lu"] if lev.is_coarsest else ["_lower"]), name
            stored = [f.name for f in dataclasses.fields(lev) if sp.issparse(getattr(lev, f.name))]
            assert stored == ([] if lev.is_coarsest else ["strict_lower", "strict_upper", "p", "r"]), name
            if lev.is_coarsest:
                continue
            lower = lev.strict_lower
            assert isinstance(lower, CsrMatrix) and lower.has_canonical_format, name
            assert csr_equal(lower, canonical(sp.tril(a, -1))), name
            owned = [arr for m in (lower, lev.p) for arr in (m.data, m.indices, m.indptr)]
            assert not any(arr.flags.writeable for arr in owned), name
            assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(owned, 2)), name
            for view in (lev.strict_upper, lev.r):
                assert view.format == "csc"
                for arr in (view.data, view.indices, view.indptr):
                    assert any(np.shares_memory(arr, o) for o in owned), name


def test_the_hierarchy_keeps_no_reference_to_its_input():
    a = poisson2d(32, 32)
    h = amg_setup(a)
    assert len(h.levels) >= 2
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None
