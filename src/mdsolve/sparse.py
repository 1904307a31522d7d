"""Sparse and small-dense linear algebra kernels.

Everything else in the package is built on the two container types defined
here: :class:`CsrMatrix` (compressed sparse row, always canonical) and
:class:`DenseMatrix` (row-major, used for coarse-level and oracle solves).
The kernels delegate the heavy lifting to scipy.sparse / LAPACK but enforce
the package's structural contracts: canonical CSR on every output, explicit
dimension checks, and retention of cancellation zeros in sparsity patterns.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse as sp

__all__ = [
    "CsrMatrix",
    "DenseMatrix",
    "SingularMatrixError",
    "spmv",
    "transpose",
    "extract_diagonal",
    "triple_product_diag_scaled",
    "csr_add",
    "dense_lu",
    "dense_lu_solve",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector_market",
    "write_vector_market",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a pivot below the singularity tolerance."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class CsrMatrix:
    """Immutable CSR matrix in canonical form.

    Canonical means: within each row the column indices are strictly
    increasing and duplicates have been summed. Explicit zeros (for example
    produced by cancellation in :func:`csr_add`) are kept in the pattern.
    Construction accepts unsorted/duplicated triplets and canonicalizes.

    Parameters
    ----------
    nrows, ncols : int
        Matrix shape.
    row_ptr : array_like of int, length nrows + 1
        Row start offsets into ``col_idx`` / ``values``.
    col_idx : array_like of int
        Column index of each stored entry.
    values : array_like of float
        Stored entry values, same length as ``col_idx``.
    """

    __slots__ = ("nrows", "ncols", "row_ptr", "col_idx", "values")

    def __init__(self, nrows, ncols, row_ptr, col_idx, values):
        nrows = int(nrows)
        ncols = int(ncols)
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix shape must be nonnegative")
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        col_idx = np.asarray(col_idx, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if row_ptr.ndim != 1 or col_idx.ndim != 1 or values.ndim != 1:
            raise ValueError("row_ptr, col_idx and values must be 1-d arrays")
        if len(row_ptr) != nrows + 1:
            raise ValueError(
                f"row_ptr has length {len(row_ptr)}, expected nrows+1 = {nrows + 1}"
            )
        if row_ptr[0] != 0 or row_ptr[-1] != len(col_idx) or len(col_idx) != len(values):
            raise ValueError("row_ptr endpoints inconsistent with index/value arrays")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= ncols):
            raise ValueError("column index out of range")

        m = sp.csr_matrix((values, col_idx, row_ptr), shape=(nrows, ncols), copy=True)
        m.sum_duplicates()  # sorts indices as a side effect
        self.nrows = nrows
        self.ncols = ncols
        self.row_ptr = _freeze(m.indptr.astype(np.int64, copy=False))
        self.col_idx = _freeze(m.indices.astype(np.int64, copy=False))
        self.values = _freeze(m.data.astype(np.float64, copy=False))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_scipy(cls, m) -> "CsrMatrix":
        """Build from any scipy sparse matrix (converted to CSR)."""
        m = sp.csr_matrix(m)
        return cls(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals) -> "CsrMatrix":
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        m = sp.coo_matrix((vals, (rows, cols)), shape=(int(nrows), int(ncols)))
        return cls.from_scipy(m.tocsr())

    @classmethod
    def from_dense(cls, arr) -> "CsrMatrix":
        return cls.from_scipy(sp.csr_matrix(np.asarray(arr, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        return cls.from_scipy(sp.identity(n, format="csr"))

    # -- views -------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self) -> int:
        return len(self.values)

    def to_scipy(self) -> sp.csr_matrix:
        """Zero-copy scipy view; the underlying arrays are read-only."""
        m = sp.csr_matrix(
            (self.values, self.col_idx, self.row_ptr),
            shape=(self.nrows, self.ncols),
            copy=False,
        )
        m.has_canonical_format = True
        return m

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def diagonal(self) -> np.ndarray:
        return self.to_scipy().diagonal()

    def validate(self):
        """Re-check the structural invariants; raises ValueError on violation."""
        if len(self.row_ptr) != self.nrows + 1:
            raise ValueError("row_ptr length mismatch")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.nnz:
            raise ValueError("row_ptr endpoints mismatch")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr not nondecreasing")
        for i in range(self.nrows):
            cols = self.col_idx[self.row_ptr[i] : self.row_ptr[i + 1]]
            if len(cols) and (np.any(np.diff(cols) <= 0) or cols[0] < 0 or cols[-1] >= self.ncols):
                raise ValueError(f"row {i} has unsorted, duplicate or out-of-range columns")
        return self

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"

    def __eq__(self, other):
        """Exact structural and entrywise equality."""
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None


class DenseMatrix:
    """Small dense matrix, row-major storage, used for oracles and coarse solves."""

    __slots__ = ("nrows", "ncols", "values")

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("DenseMatrix expects a 2-d array")
        self.nrows, self.ncols = arr.shape
        self.values = _freeze(arr)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols})"


# -- kernels ---------------------------------------------------------------


def spmv(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product y = A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) != a.ncols:
        raise ValueError(f"spmv: operand length {x.shape} does not match ncols={a.ncols}")
    return a.to_scipy() @ x


def transpose(a: CsrMatrix) -> CsrMatrix:
    """Exact transpose; output is again canonical CSR."""
    return CsrMatrix.from_scipy(a.to_scipy().transpose().tocsr())


def extract_diagonal(a: CsrMatrix) -> np.ndarray:
    """Diagonal of a square matrix; absent entries contribute 0."""
    if a.nrows != a.ncols:
        raise ValueError(f"extract_diagonal: matrix is {a.nrows}x{a.ncols}, not square")
    return a.diagonal()


def triple_product_diag_scaled(b: CsrMatrix, dinv: np.ndarray, c: CsrMatrix) -> CsrMatrix:
    """Compute B * diag(dinv) * C as canonical CSR.

    This is the only sparse-sparse product the package supports; it is what
    the diagonally approximated Schur complement needs.
    """
    dinv = np.asarray(dinv, dtype=np.float64)
    if dinv.ndim != 1 or b.ncols != len(dinv) or len(dinv) != c.nrows:
        raise ValueError(
            "triple_product_diag_scaled: inner dimensions "
            f"{b.ncols}, {len(dinv)}, {c.nrows} do not agree"
        )
    if not np.all(np.isfinite(dinv)):
        raise ValueError("triple_product_diag_scaled: nonfinite scaling entry")
    prod = b.to_scipy() @ sp.diags(dinv) @ c.to_scipy()
    return CsrMatrix.from_scipy(prod)


def csr_add(a: CsrMatrix, b: CsrMatrix, alpha: float = 1.0) -> CsrMatrix:
    """Entrywise A + alpha*B on the union pattern.

    Cancellation zeros stay stored so repeated calls with the same operands
    keep a stable sparsity pattern. (scipy's own add prunes them, hence the
    triplet merge here.)
    """
    if a.shape != b.shape:
        raise ValueError(f"csr_add: shape mismatch {a.shape} vs {b.shape}")
    rows_a = np.repeat(np.arange(a.nrows, dtype=np.int64), np.diff(a.row_ptr))
    rows_b = np.repeat(np.arange(b.nrows, dtype=np.int64), np.diff(b.row_ptr))
    rows = np.concatenate([rows_a, rows_b])
    cols = np.concatenate([a.col_idx, b.col_idx])
    vals = np.concatenate([a.values, float(alpha) * b.values])
    return CsrMatrix.from_coo(a.nrows, a.ncols, rows, cols, vals)


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


def dense_lu_solve(a: DenseMatrix, b: np.ndarray) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Raises
    ------
    SingularMatrixError
        If a pivot falls below 1e-14 times the infinity norm of A.
    """
    if a.nrows != a.ncols:
        raise ValueError(f"dense_lu_solve: matrix is {a.nrows}x{a.ncols}, not square")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or len(b) != a.nrows:
        raise ValueError("dense_lu_solve: right-hand side length mismatch")
    if a.nrows == 0:
        return np.zeros(0)
    lu = dense_lu(a.values, "dense_lu_solve: matrix is singular to working precision")
    return scipy.linalg.lu_solve(lu, b)


# -- Matrix Market exchange ------------------------------------------------


def write_matrix_market(path, a: CsrMatrix, symmetry: str = "general", comment: str = ""):
    """Write a CsrMatrix as a coordinate-format Matrix Market file (1-based)."""
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported Matrix Market symmetry {symmetry!r}")
    scipy.io.mmwrite(str(path), a.to_scipy(), comment=comment, field="real", symmetry=symmetry)


def read_matrix_market(path) -> CsrMatrix:
    """Read a real coordinate or array Matrix Market file into a CsrMatrix.

    Symmetric files are expanded to the full pattern.
    """
    m = scipy.io.mmread(str(path))
    if isinstance(m, np.ndarray):
        return CsrMatrix.from_dense(m)
    return CsrMatrix.from_scipy(m.tocsr())


def write_vector_market(path, v: np.ndarray, comment: str = ""):
    """Write a 1-d vector as an n-by-1 coordinate Matrix Market file.

    The coordinate encoding sidesteps a scipy hang on zero-length dense
    arrays and stays lossless (implicit entries read back as zeros).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("write_vector_market expects a 1-d array")
    scipy.io.mmwrite(str(path), sp.coo_matrix(v.reshape(-1, 1)), comment=comment, field="real")


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
