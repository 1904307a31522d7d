"""Sparse and small-dense linear algebra on scipy's CSR arrays.

The package's matrix type is :class:`CsrMatrix`, a ``scipy.sparse.csr_array``
that the constructors here leave canonical and read-only; products,
transposes and solves are scipy's own. What scipy does not promise is kept
as functions: canonical form (:func:`canonical`), an addition that keeps
cancellation zeros (:func:`csr_add`), exact equality (:func:`csr_equal`), the
diagonally scaled triple product of the Schur complement, a dense LU with a
singularity check, and lossless Matrix Market exchange, written in the
``general`` encoding and read in any real one. Dense operands are plain
ndarrays.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "CsrMatrix",
    "SingularMatrixError",
    "canonical",
    "csr_from_triplets",
    "csr_equal",
    "triple_product_diag_scaled",
    "csr_add",
    "dense_lu",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector_market",
    "write_vector_market",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a pivot below the singularity tolerance."""


class CsrMatrix(sp.csr_array):
    """A ``scipy.sparse.csr_array`` in canonical form with read-only arrays.

    Canonical means: within each row the column indices are strictly
    increasing and duplicates have been summed. Explicit zeros (for example
    produced by cancellation in :func:`csr_add`) are kept in the pattern.
    :func:`canonical`, :func:`csr_from_triplets` and
    :func:`read_matrix_market` return such arrays with scipy's canonical
    flags set, so scipy never sorts one in place. scipy's own operations on
    a CsrMatrix (``@``, ``-``, ``abs``) build their results with its class,
    but those carry neither guarantee until passed through :func:`canonical`.
    """

    def to_scipy(self) -> "CsrMatrix":
        """The matrix itself, which already is a scipy sparse array."""
        return self


def canonical(m) -> CsrMatrix:
    """``m`` as a canonical, read-only :class:`CsrMatrix`.

    ``m`` is any scipy sparse matrix or array, or a dense 2-d array (whose
    zeros are dropped). A CSR input is not copied: its arrays are shared,
    sorted and summed in place if needed, and made read-only, so pass only
    arrays nothing else writes to. Index arrays are narrowed to int32 (a
    copy) where the shape and the number of entries allow, as scipy's
    matrices do.
    """
    m = CsrMatrix(m, dtype=np.float64)
    m.sum_duplicates()
    idx = sp.get_index_dtype(maxval=max(*m.shape, m.nnz))
    m.indptr, m.indices = m.indptr.astype(idx, copy=False), m.indices.astype(idx, copy=False)
    for arr in (m.indptr, m.indices, m.data):
        arr.flags.writeable = False
    m.has_canonical_format = True
    return m


def csr_from_triplets(shape, rows, cols, vals) -> CsrMatrix:
    """Canonical CSR from ``(row, col, value)`` triplets; duplicates are summed.

    Raises ValueError for an index outside ``shape``.
    """
    vals = np.asarray(vals, dtype=np.float64)
    # int32 triplets where their values allow: coo_tocsr runs twice as fast
    idx = sp.get_index_dtype((rows, cols), maxval=max(shape), check_contents=True)
    rows, cols = np.asarray(rows, dtype=idx), np.asarray(cols, dtype=idx)
    return canonical(sp.coo_array((vals, (rows, cols)), shape=shape))


def csr_equal(a, b) -> bool:
    """Exact equality of two canonical CSR matrices: shape, pattern (stored
    zeros included) and values, whatever the index dtypes."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def triple_product_diag_scaled(b, dinv: np.ndarray, c) -> CsrMatrix:
    """Compute B * diag(dinv) * C as canonical CSR: the coupling term of the
    diagonally approximated Schur complement, with its scaling checked."""
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

    Cancellation zeros stay stored so repeated calls with the same operands
    keep a stable sparsity pattern. (scipy's own add prunes them, hence the
    triplet merge here.)
    """
    if a.shape != b.shape:
        raise ValueError(f"csr_add: shape mismatch {a.shape} vs {b.shape}")
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    rows = np.concatenate([rows, np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))])
    cols = np.concatenate([a.indices, b.indices])
    vals = np.concatenate([a.data, float(alpha) * b.data])
    return csr_from_triplets(a.shape, rows, cols, vals)


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


# -- Matrix Market exchange ------------------------------------------------


def write_matrix_market(path, a):
    """Write a sparse matrix as a coordinate-format, ``general`` Matrix Market
    file (1-based)."""
    scipy.io.mmwrite(str(path), a, field="real", symmetry="general")


def read_matrix_market(path) -> CsrMatrix:
    """Read a real coordinate or array Matrix Market file as a canonical CsrMatrix.

    Symmetric files are expanded to the full pattern.
    """
    return canonical(scipy.io.mmread(str(path)))


def write_vector_market(path, v: np.ndarray):
    """Write a 1-d vector as an n-by-1 coordinate, ``general`` Matrix Market file.

    The coordinate encoding sidesteps a scipy hang on zero-length dense
    arrays and stays lossless (implicit entries read back as zeros).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("write_vector_market expects a 1-d array")
    scipy.io.mmwrite(str(path), sp.coo_matrix(v.reshape(-1, 1)), field="real", symmetry="general")


def read_vector_market(path) -> np.ndarray:
    """Read an n-by-1 Matrix Market file (coordinate or array) as a 1-d vector."""
    v = scipy.io.mmread(str(path))
    if sp.issparse(v):
        v = v.toarray()
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2:
        if v.shape[1] != 1:
            raise ValueError(f"expected an n-by-1 vector file, got shape {v.shape}")
        v = v[:, 0]
    return v
