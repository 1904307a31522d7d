import dataclasses
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import mdsolve
from conftest import eye, poisson1d, poisson2d
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
    h = amg_setup(poisson2d(32, 32))
    assert len(h.levels) >= 2
    for fine, coarse in zip(h.levels[:-1], h.levels[1:]):
        p = fine.p
        explicit = (p.T @ fine.a @ p).toarray()  # oracle triple product
        assert np.abs(explicit - coarse.a.toarray()).max() < 1e-12
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
        amg_setup(canonical(-a))  # checked before the negation


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
    out = v_cycle(h, np.zeros(256), np.zeros(256))
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
        x = v_cycle(h, b, x)
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
    assert h.negated
    rng = np.random.default_rng(4)
    b = rng.standard_normal(256)
    x = np.zeros_like(b)
    for _ in range(30):
        x = v_cycle(h, b, x)
    assert np.abs(a_neg @ x - b).max() < 1e-8


def test_cycle_rejects_wrong_lengths():
    h = amg_setup(poisson2d(8, 8))
    with pytest.raises(ValueError):
        v_cycle(h, np.zeros(63))
    with pytest.raises(ValueError):
        v_cycle(h, np.zeros(64), np.zeros(63))


def test_coarsest_level_above_max_coarse_size_warns(monkeypatch):
    monkeypatch.setattr(mdsolve.amg, "MAX_LEVELS", 2)
    with pytest.warns(AmgSetupWarning, match=r"176 rows after 2 levels.*max_coarse_size=64"):
        h = amg_setup(poisson2d(32, 32))
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
        _assert_matches_reference(lev.a, STRENGTH_THRESHOLD)


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
            for depth, lev in enumerate(h.levels[1:], start=1):
                n_agg, moved = _assert_isolated_nodes_attached(lev.a, STRENGTH_THRESHOLD)
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


_HIERARCHY_BYTES = """
import hashlib
from mdsolve import PhysicalParams, assemble, build_regular_network_3d
from mdsolve.amg import amg_setup
from mdsolve.precond import approx_schur
system = assemble(build_regular_network_3d(28, 3), PhysicalParams(k_parallel=1e4, kappa=1e-4))
h = amg_setup(approx_schur(system))
for lev in h.levels:
    digest = hashlib.sha256()
    for m in (lev.a, lev.p):
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
    a = lev.a
    if x is None:
        x = lev._lower.solve(b)
    else:
        x = x + lev._lower.solve(b - a @ x)
    resid = b - a @ x
    correction = _reference_cycle(levels, depth + 1, lev.p.T @ resid, None)
    x = x + lev.p @ correction
    return x + lev._lower.solve(b - a @ x, trans="T")


def _reference_v_cycle(h, b, x0):
    if h.diagonal is not None:
        return b / h.diagonal
    x = x0 if x0 is not None and np.any(x0) else None
    return _reference_cycle(h.levels, 0, -b if h.negated else b, x)


def _test_geometries():
    return {
        "cross_2d": build_cross_2d(16),
        "random_2d": build_random_network_2d(16, 6, seed=3),
        "network_2d": build_network_2d(
            8, [Segment(0, 4, 0, 8), Segment(1, 4, 4, 8), Segment(1, 6, 1, 6), Segment(0, 2, 1, 5)]
        ),
        "regular_3d": build_regular_network_3d(8, 3),
    }


@pytest.fixture(scope="module")
def hierarchies():
    """Hierarchies of the conftest operators (also negated, as the interface
    blocks of the test geometries are all diagonal), of a single level (an
    operator below ``MAX_COARSE_SIZE`` rows), and of the Schur and interface
    blocks of every test geometry at three parameter pairs."""
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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmgSetupWarning)
        out = {name: amg_setup(a) for name, a in operators.items()}
        out["single_level"] = amg_setup(poisson2d(7, 7))
    return out


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


def _two_factor_cycle(levels, depth, b, x, uppers):
    """The cycle as it was with a second SuperLU factor, of ``triu(A)``, for
    the backward sweep, kept as the oracle of the symmetric smoother."""
    lev = levels[depth]
    if lev.is_coarsest:
        return scipy.linalg.lu_solve(lev._coarse_lu, b)
    a = lev.a
    if x is None:
        x = lev._lower.solve(b)
    else:
        x = x + lev._lower.solve(b - a @ x)
    resid = b - a @ x
    correction = _two_factor_cycle(levels, depth + 1, lev.p.T @ resid, None, uppers)
    x = x + lev.p @ correction
    return x + uppers[depth].solve(b - a @ x)


def test_v_cycle_is_within_rounding_of_the_two_factor_cycle(hierarchies):
    rng = np.random.default_rng(12)
    compared = 0
    for name, h in hierarchies.items():
        if h.diagonal is not None:
            continue
        uppers = [
            spla.splu(sp.triu(lev.a, 0).tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0)
            for lev in h.levels[:-1]
        ]
        b = rng.standard_normal(h.n)
        for x0 in (None, rng.standard_normal(h.n)):
            x = x0 if x0 is not None and np.any(x0) else None
            ref = _two_factor_cycle(h.levels, 0, -b if h.negated else b, x, uppers)
            got = v_cycle(h, b, x0)
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
            compared += len(uppers) > 0
    assert compared >= 20  # multilevel hierarchies, negated ones among them


def test_restriction_is_a_view_of_the_prolongator(hierarchies):
    for h in hierarchies.values():
        for lev in h.levels[:-1]:
            r, p = lev.r, lev.p
            assert r.format == "csc" and r.shape == p.shape[::-1]
            for attr in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(r, attr), getattr(p, attr))
        if h.levels:
            assert h.levels[-1].r is None


def test_each_level_stores_its_operator_and_prolongator_once(hierarchies):
    """A level's sparse fields are A, P and views of them: no second copy.
    Each level above the coarsest holds one triangular factor, of
    ``tril(A)``, for both smoothing sweeps."""
    for name, h in hierarchies.items():
        for lev in h.levels:
            factors = [f.name for f in dataclasses.fields(lev)
                       if isinstance(getattr(lev, f.name), spla.SuperLU)]
            assert factors == ([] if lev.is_coarsest else ["_lower"]), name
            assert isinstance(lev.a, CsrMatrix) and lev.a.has_canonical_format, name
            owned = [m for m in (lev.a, lev.p) if m is not None]
            owned = [arr for m in owned for arr in (m.data, m.indices, m.indptr)]
            assert not any(arr.flags.writeable for arr in owned), name
            for f in dataclasses.fields(lev):
                m = getattr(lev, f.name)
                if not sp.issparse(m):
                    continue
                for arr in (m.data, m.indices, m.indptr):
                    assert any(np.shares_memory(arr, o) for o in owned), (name, f.name)
