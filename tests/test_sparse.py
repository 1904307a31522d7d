import warnings

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eye, random_csr
from mdsolve.sparse import (
    CsrMatrix,
    SingularMatrixError,
    canonical,
    csr_equal,
    csr_from_triplets,
    read_matrix_market,
    read_vector_market,
    write_matrix_market,
    write_vector_market,
)
from mdsolve.precond import BlockPreconditioner, approx_schur


def dense(rows):
    return canonical(np.asarray(rows, dtype=np.float64))


def raw_csr(shape, row_ptr, col_idx, values):
    """A CSR array holding the given arrays as they are, unchecked."""
    m = sp.csr_array(shape)
    m.indptr, m.indices, m.data = np.asarray(row_ptr), np.asarray(col_idx), np.asarray(values)
    return m


def check_canonical(m):
    """Re-check the structural invariants of a CSR matrix; returns ``m``.
    The structural oracle of these tests.

    Raises
    ------
    ValueError
        If the row pointer or the array lengths are inconsistent with the
        shape, or a row has unsorted, duplicate or out-of-range columns.
    """
    nrows, ncols = m.shape
    indptr = np.asarray(m.indptr, dtype=np.int64)
    indices = np.asarray(m.indices, dtype=np.int64)
    nnz = len(indices)
    if indptr.ndim != 1 or len(indptr) != nrows + 1:
        raise ValueError(f"row pointer has length {len(indptr)}, expected {nrows + 1}")
    if indptr[0] != 0 or indptr[-1] != nnz or nnz != len(m.data):
        raise ValueError("row pointer endpoints inconsistent with index/value arrays")
    if np.any(np.diff(indptr) < 0):
        raise ValueError("row pointer is not nondecreasing")
    row_start = np.zeros(nnz + 1, dtype=bool)
    row_start[indptr[:-1]] = True
    bad = (indices < 0) | (indices >= ncols)
    bad[1:] |= (np.diff(indices) <= 0) & ~row_start[1:nnz]
    if bad.any():
        row = np.searchsorted(indptr, bad.argmax(), side="right") - 1
        raise ValueError(f"row {row} has unsorted, duplicate or out-of-range columns")
    return m


# -- construction and invariants --------------------------------------------


def test_construction_canonicalizes_duplicates_and_order():
    # row 0 carries (0,2)=1, (0,0)=5, (0,2)=4 unsorted with a duplicate
    m = csr_from_triplets((2, 3), [0, 0, 0, 1], [2, 0, 2, 1], [1.0, 5.0, 4.0, 2.0])
    assert isinstance(m, CsrMatrix) and m.has_canonical_format
    assert m.indptr.tolist() == [0, 2, 3]
    assert m.indices.tolist() == [0, 2, 1]
    assert m.data.tolist() == [5.0, 5.0, 2.0]
    check_canonical(m)
    # the same arrays in CSR form, canonicalised in place
    c = canonical(sp.csr_array(([1.0, 5.0, 4.0, 2.0], [2, 0, 2, 1], [0, 3, 4]), shape=(2, 3)))
    assert csr_equal(c, m)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(row_ptr=[0, 1], col_idx=[0], values=[1.0]),  # wrong row_ptr length
        dict(row_ptr=[0, 2, 1], col_idx=[0, 1], values=[1.0, 1.0]),  # decreasing
        dict(row_ptr=[1, 2, 3], col_idx=[0, 1], values=[1.0, 1.0]),  # nonzero start
        dict(row_ptr=[0, 1, 2], col_idx=[0, 5], values=[1.0, 1.0]),  # col out of range
        dict(row_ptr=[0, 1, 2], col_idx=[0, 1], values=[1.0]),  # length mismatch
    ],
)
def test_construction_rejects_invalid_structure(kwargs):
    with pytest.raises(ValueError):
        check_canonical(raw_csr((2, 2), **kwargs))


@pytest.mark.parametrize("col_idx", [[1, 0], [1, 1]], ids=["unsorted", "duplicate"])
def test_check_canonical_rejects_unsorted_and_duplicate_columns(col_idx):
    with pytest.raises(ValueError, match="^row 1 has"):
        check_canonical(raw_csr((3, 2), [0, 0, 2, 2], col_idx, [1.0, 1.0]))
    check_canonical(raw_csr((3, 2), [0, 1, 1, 2], col_idx, [1.0, 1.0]))  # across rows


def test_triplets_outside_the_shape_are_rejected():
    with pytest.raises(ValueError):
        csr_from_triplets((2, 2), [0], [2], [1.0])


def test_matrices_are_immutable():
    m = eye(3)
    for arr in (m.data, m.indices, m.indptr):
        with pytest.raises(ValueError):
            arr[0] = 7


def test_scipy_leaves_frozen_arrays_alone():
    m = random_csr(np.random.default_rng(2), 6, 6, 0.5)
    m.sum_duplicates()  # a no-op: the canonical flags are set
    m.sort_indices()
    assert csr_equal(canonical(-(-m)), m)
    assert m.to_scipy() is m


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 12345))
def test_random_construction_is_canonical(seed):
    rng = np.random.default_rng(seed)
    m = random_csr(rng, int(rng.integers(1, 12)), int(rng.integers(1, 12)), 0.5)
    check_canonical(m)


# -- products through scipy's @ -------------------------------------------------


def test_spmv_identity():
    assert (eye(2) @ np.array([3.0, -1.0])).tolist() == [3.0, -1.0]


def test_spmv_diagonal_with_single_stored_entry():
    a = csr_from_triplets((2, 2), [0], [0], [2.0])
    assert (a @ np.array([1.0, 5.0])).tolist() == [2.0, 0.0]


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(5)
    a = random_csr(rng, 5, 5, 0.4)
    x = rng.standard_normal(5)
    oracle = a.toarray() @ x  # brute-force oracle
    assert np.abs(a @ x - oracle).max() < 1e-14


def test_spmv_dimension_mismatch():
    with pytest.raises(ValueError):
        eye(3) @ np.zeros(4)


# -- transpose ---------------------------------------------------------------


def test_transpose_trivial_cases():
    one = dense([[5.0]])
    assert csr_equal(canonical(one.T.tocsr()), one)
    nil = canonical(dense([[0.0, 1.0], [0.0, 0.0]]).T.tocsr())
    assert nil.toarray().tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_transpose_entries_match_dense():
    rng = np.random.default_rng(8)
    a = random_csr(rng, 8, 5, 0.35)
    assert np.array_equal(a.T.toarray(), a.toarray().T)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 12345))
def test_transpose_is_an_involution(seed):
    rng = np.random.default_rng(seed)
    a = random_csr(rng, int(rng.integers(1, 10)), int(rng.integers(1, 10)), 0.5)
    once = check_canonical(canonical(a.T.tocsr()))
    assert csr_equal(canonical(once.T.tocsr()), a)


# -- diagonal ----------------------------------------------------------------


def test_diagonal_of_identity():
    assert eye(3).diagonal().tolist() == [1.0, 1.0, 1.0]


def test_diagonal_absent_entries_are_zero():
    assert dense([[0.0, 2.0], [3.0, 0.0]]).diagonal().tolist() == [0.0, 0.0]


def test_diagonal_matches_dense_oracle():
    rng = np.random.default_rng(6)
    a = random_csr(rng, 6, 6, 0.5)
    assert np.array_equal(a.diagonal(), np.diag(a.toarray()))


# -- the triplet-merge Schur complement ---------------------------------------


def triple_product_diag_scaled(b, dinv: np.ndarray, c) -> CsrMatrix:
    """Compute B * diag(dinv) * C as canonical CSR: the coupling term of
    :func:`reference_schur`, with its scaling checked."""
    dinv = np.asarray(dinv, dtype=np.float64)
    if dinv.ndim != 1 or b.shape[1] != len(dinv) or len(dinv) != c.shape[0]:
        raise ValueError(
            "triple_product_diag_scaled: inner dimensions "
            f"{b.shape[1]}, {len(dinv)}, {c.shape[0]} do not agree"
        )
    if not np.all(np.isfinite(dinv)):
        raise ValueError("triple_product_diag_scaled: nonfinite scaling entry")
    return canonical(b @ sp.diags_array(dinv) @ c)


def csr_add(a, b, alpha: float = 1.0) -> CsrMatrix:
    """Entrywise A + alpha*B on the union pattern.

    Cancellation zeros stay stored, where scipy's own add prunes them, hence
    the triplet merge.
    """
    if a.shape != b.shape:
        raise ValueError(f"csr_add: shape mismatch {a.shape} vs {b.shape}")
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    rows = np.concatenate([rows, np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.data, float(alpha) * b.data])
    return csr_from_triplets(a.shape, rows, cols, vals)


def reference_schur(system) -> CsrMatrix:
    """A_oo - A_og diag(A_gg)^-1 A_go as a triplet merge of A_oo with the
    scaled triple product: the reference that ``approx_schur`` must equal
    byte for byte. It keeps cancellation zeros; an assembled system has
    none."""
    if system.n_gamma == 0:
        return system.a_omega_omega
    triple = triple_product_diag_scaled(
        system.a_omega_gamma, 1.0 / system.a_gamma_gamma.diagonal(), system.a_gamma_omega
    )
    return csr_add(system.a_omega_omega, triple, -1.0)


def test_triple_product_hand_example():
    b = dense([[1.0], [1.0]])
    out = triple_product_diag_scaled(b, np.array([2.0]), b.T)
    assert out.toarray().tolist() == [[2.0, 2.0], [2.0, 2.0]]


def test_triple_product_zero_scaling_gives_zero_matrix():
    rng = np.random.default_rng(1)
    b = random_csr(rng, 4, 3, 0.6)
    c = random_csr(rng, 3, 4, 0.6)
    out = triple_product_diag_scaled(b, np.zeros(3), c)
    assert not out.toarray().any()


def test_triple_product_matches_dense_oracle():
    rng = np.random.default_rng(10)
    b = random_csr(rng, 10, 4, 0.5)
    c = random_csr(rng, 4, 10, 0.5)
    dinv = rng.standard_normal(4)
    oracle = b.toarray() @ np.diag(dinv) @ c.toarray()
    out = check_canonical(triple_product_diag_scaled(b, dinv, c))
    assert out.has_canonical_format and not out.data.flags.writeable
    assert np.abs(out.toarray() - oracle).max() < 1e-13


def test_triple_product_rejects_bad_inputs():
    b = eye(3)
    with pytest.raises(ValueError):
        triple_product_diag_scaled(b, np.ones(2), b)
    with pytest.raises(ValueError):
        triple_product_diag_scaled(b, np.array([1.0, np.inf, 1.0]), b)


def test_add_cancellation_keeps_pattern():
    a = dense([[1.0, 2.0], [0.0, 3.0]])
    z = csr_add(a, a, -1.0)
    assert z.nnz == a.nnz  # zeros stay stored
    assert not z.data.any()
    assert np.array_equal(z.indices, a.indices)
    assert (a - a).nnz == 0  # where scipy's own subtraction prunes them


def test_add_identity_doubles():
    two = csr_add(eye(4), eye(4), 1.0)
    assert np.array_equal(two.toarray(), 2.0 * np.eye(4))


def test_add_matches_dense_oracle():
    rng = np.random.default_rng(11)
    a = random_csr(rng, 7, 9, 0.4)
    b = random_csr(rng, 7, 9, 0.4)
    oracle = a.toarray() - 2.5 * b.toarray()
    out = check_canonical(csr_add(a, b, -2.5))
    assert np.abs(out.toarray() - oracle).max() < 1e-13


def test_add_shape_mismatch():
    with pytest.raises(ValueError):
        csr_add(eye(2), eye(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12345))
def test_kernels_agree_with_dense_up_to_50_rows(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 51))
    m = int(rng.integers(1, 51))
    a = random_csr(rng, n, m, 0.2)
    b = random_csr(rng, n, m, 0.2)
    x = rng.standard_normal(m)
    scale = max(np.abs(a.toarray()).max(), np.abs(b.toarray()).max(), 1.0)
    assert np.abs(a @ x - a.toarray() @ x).max() < 1e-12 * scale * m
    assert (
        np.abs(csr_add(a, b, 0.5).toarray() - (a.toarray() + 0.5 * b.toarray())).max()
        < 1e-12 * scale
    )


# -- dense_lu_solve ----------------------------------------------------------


def dense_lu(a: np.ndarray, message: str):
    """LU factors ``(lu, piv)`` of a square ndarray, with partial pivoting.

    Raises
    ------
    SingularMatrixError
        With ``message`` if a pivot falls below 1e-14 times the infinity
        norm of A.
    """
    anorm = np.abs(a).sum(axis=1).max() if a.size else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # LAPACK warns on exact zero pivots
        lu, piv = scipy.linalg.lu_factor(a)
    if a.size and np.min(np.abs(np.diag(lu))) <= 1e-14 * anorm:
        raise SingularMatrixError(message)
    return lu, piv


def dense_lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for a square ndarray A by LU with partial pivoting: the
    dense oracle of the solver tests, built on :func:`dense_lu`.

    Raises
    ------
    SingularMatrixError
        If a pivot falls below 1e-14 times the infinity norm of A.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dense_lu_solve: matrix has shape {a.shape}, not square")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or len(b) != len(a):
        raise ValueError("dense_lu_solve: right-hand side length mismatch")
    if len(a) == 0:
        return np.zeros(0)
    lu = dense_lu(a, "dense_lu_solve: matrix is singular to working precision")
    return scipy.linalg.lu_solve(lu, b)


# -- the exact-factorization oracle -------------------------------------------


def exact_schur(system) -> np.ndarray:
    """Dense Schur complement A_oo - A_og A_gg^-1 A_go of the interface block.

    Refuses singular interface blocks.
    """
    a_oo = system.a_omega_omega.toarray()
    if system.n_gamma == 0:
        return a_oo
    lu = dense_lu(
        system.a_gamma_gamma.toarray(),
        "exact_schur: interface block: matrix is singular to working precision",
    )
    x = scipy.linalg.lu_solve(lu, system.a_gamma_omega.toarray())
    return a_oo - system.a_omega_gamma.toarray() @ x


def factorization_factors(system):
    """Dense (U, D, L) factors of the monolithic operator.

    U is unit block upper triangular with A_og A_gg^-1 in its off-diagonal
    block, D is blockdiag(Schur, A_gg), L is unit block lower triangular with
    A_gg^-1 A_go. Their product reproduces the monolithic matrix.
    """
    no, ng, nt = system.n_omega, system.n_gamma, system.n_total
    s = exact_schur(system)
    u = np.eye(nt)
    d = np.zeros((nt, nt))
    lo = np.eye(nt)
    d[:no, :no] = s
    if ng:
        a_gg = system.a_gamma_gamma.toarray()
        lu = dense_lu(
            a_gg, "factorization_factors: interface block: matrix is singular to working precision"
        )
        u[:no, no:] = scipy.linalg.lu_solve(lu, system.a_omega_gamma.toarray().T).T
        lo[no:, :no] = scipy.linalg.lu_solve(lu, system.a_gamma_omega.toarray())
        d[no:, no:] = a_gg
    return u, d, lo


def exact_preconditioner(system, kind: str = "ml") -> BlockPreconditioner:
    """The block preconditioner with the exact Schur complement and dense LU
    inner solves: with kind ``ml`` the preconditioned operator is the unit
    upper factor of :func:`factorization_factors`, so GMRES takes two steps."""
    def solve(block, name):
        lu = dense_lu(block, f"exact_preconditioner: {name} block: matrix is singular "
                             f"to working precision")
        return lambda r: scipy.linalg.lu_solve(lu, r)

    schur = exact_schur(system)
    return BlockPreconditioner(
        kind=kind,
        q_omega=solve(schur, "Schur"),
        q_gamma=solve(system.a_gamma_gamma.toarray(), "interface"),
        a_gamma_omega=system.a_gamma_omega,
        a_omega_gamma=system.a_omega_gamma,
        hierarchies={},
    )


def lu_preconditioner(system, kind: str = "ml") -> BlockPreconditioner:
    """The practical preconditioner with sparse LU inner solves: the
    :func:`~mdsolve.precond.approx_schur` Schur complement, as
    ``build_preconditioner`` sets up, but with exact solves of both diagonal
    blocks in place of the AMG V-cycles. On matching grids, where the
    approximate Schur complement is exact, GMRES takes at most two steps."""
    schur = approx_schur(system)
    return BlockPreconditioner(
        kind=kind,
        q_omega=spla.splu(schur.tocsc()).solve,
        q_gamma=spla.splu(system.a_gamma_gamma.tocsc()).solve,
        a_gamma_omega=system.a_gamma_omega,
        a_omega_gamma=system.a_omega_gamma,
        hierarchies={},
    )


def test_lu_identity_and_diagonal():
    assert dense_lu_solve(np.eye(2), np.array([4.0, 2.0])).tolist() == [4.0, 2.0]
    d = np.array([[2.0, 0.0], [0.0, 4.0]])
    assert dense_lu_solve(d, np.array([2.0, 4.0])).tolist() == [1.0, 1.0]


def test_lu_residual_on_seeded_system():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((20, 20))
    b = rng.standard_normal(20)
    x = dense_lu_solve(a, b)
    anorm = np.abs(a).sum(axis=1).max()
    bound = 1e-10 * (anorm * np.abs(x).max() + np.abs(b).max())
    assert np.abs(a @ x - b).max() <= bound


def test_lu_rejects_singular():
    with pytest.raises(SingularMatrixError):
        dense_lu_solve(np.zeros((3, 3)), np.zeros(3))
    rank_deficient = np.ones((3, 3))
    with pytest.raises(SingularMatrixError):
        dense_lu_solve(rank_deficient, np.ones(3))


def test_dense_lu_factors_solve_and_singular_message():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)
    x = scipy.linalg.lu_solve(dense_lu(a, "unused"), b)
    assert np.abs(a @ x - b).max() < 1e-12
    with pytest.raises(SingularMatrixError, match="^caller: singular$"):
        dense_lu(np.ones((3, 3)), "caller: singular")


def neumann_laplacian(nx: int, ny: int, rng: np.random.Generator) -> CsrMatrix:
    """Graph Laplacian of an nx-by-ny grid with edge weights drawn from
    [0.1, 3]: a pure-Neumann operator, symmetric exactly, with the constants
    as its null space."""
    ids = np.arange(nx * ny).reshape(ny, nx)
    i = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    j = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    w = rng.uniform(0.1, 3.0, len(i))
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([j, i, i, j])
    return csr_from_triplets((nx * ny, nx * ny), rows, cols, np.concatenate([-w, -w, w, w]))


def test_dense_lu_callers_keep_their_messages():
    from mdsolve.amg import amg_setup

    with pytest.raises(SingularMatrixError, match="^dense_lu_solve: matrix is singular to working precision$"):
        dense_lu_solve(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(SingularMatrixError, match="^amg_setup: coarsest-level operator is singular$"):
        amg_setup(dense([[1.0, -1.0], [-1.0, 1.0]]))
    # a pure-Neumann Laplacian on a 5x6 grid with random edge weights is
    # singular, but SuperLU factors it with a pivot of rounding size: only
    # the 1e-14 pivot test catches it
    neumann = neumann_laplacian(5, 6, np.random.default_rng(26))
    pivots = np.abs(spla.splu(neumann.tocsc()).U.diagonal())  # SuperLU does not refuse it
    assert 0 < pivots.min() <= 1e-14 * spla.norm(neumann, np.inf)
    with pytest.raises(SingularMatrixError, match="^amg_setup: coarsest-level operator is singular$"):
        amg_setup(neumann)


def test_lu_shape_errors():
    with pytest.raises(ValueError):
        dense_lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        dense_lu_solve(np.eye(2), np.ones(3))


# -- Matrix Market -----------------------------------------------------------


def test_matrix_market_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    a = random_csr(rng, 9, 7, 0.3)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, a)
    back = read_matrix_market(path)
    assert isinstance(back, CsrMatrix) and not back.data.flags.writeable
    for got, want in ((back.indptr, a.indptr), (back.indices, a.indices)):
        assert got.astype(np.int64).tobytes() == want.astype(np.int64).tobytes()
    assert back.data.tobytes() == a.data.tobytes()
    assert csr_equal(back, a)


def test_vector_market_roundtrip(tmp_path):
    v = np.random.default_rng(4).standard_normal(11)
    path = tmp_path / "v.mtx"
    write_vector_market(path, v)
    assert np.array_equal(read_vector_market(path), v)


def test_one_entry_vector_is_written_general(tmp_path):
    # scipy detects a 1-by-1 matrix as symmetric unless told otherwise
    path = tmp_path / "v.mtx"
    write_vector_market(path, np.array([2.5]))
    assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real general"
    assert read_vector_market(path).tobytes() == np.array([2.5]).tobytes()


def test_symmetric_encoding_matches_general(tmp_path):
    # same matrix written twice: lower-triangle symmetric vs full general
    rng = np.random.default_rng(9)
    a = random_csr(rng, 6, 6, 0.4)
    full = canonical(a + a.T)
    p_sym = tmp_path / "sym.mtx"
    p_gen = tmp_path / "gen.mtx"
    scipy.io.mmwrite(str(p_sym), full, field="real", symmetry="symmetric")
    write_matrix_market(p_gen, full)
    assert "symmetric" in p_sym.read_text().splitlines()[0]
    assert "general" in p_gen.read_text().splitlines()[0]  # even for a symmetric matrix
    x = rng.standard_normal(6)
    assert np.array_equal(read_matrix_market(p_sym) @ x, read_matrix_market(p_gen) @ x)


def test_reads_one_based_indices(tmp_path):
    text = "\n".join(
        [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 3.5",
            "2 1 -1.0",
            "",
        ]
    )
    path = tmp_path / "hand.mtx"
    path.write_text(text)
    m = read_matrix_market(path)
    assert m.toarray().tolist() == [[3.5, 0.0], [-1.0, 0.0]]
