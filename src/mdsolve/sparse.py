"""Sparse linear algebra on scipy's CSR arrays.

The package's matrix type is :class:`CsrMatrix`, a ``scipy.sparse.csr_array``
that the constructors here leave canonical and read-only; sums, products,
transposes and solves are scipy's own. What scipy does not promise is kept
as functions: canonical form (:func:`canonical`), exact equality
(:func:`csr_equal`), and lossless Matrix Market exchange, written in the
``general`` encoding and read in any real one. Dense operands are plain
ndarrays.
"""

from __future__ import annotations

import numpy as np
import scipy.io
import scipy.sparse as sp

__all__ = [
    "CsrMatrix",
    "SingularMatrixError",
    "canonical",
    "csr_from_triplets",
    "csr_equal",
    "read_matrix_market",
    "write_matrix_market",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a factorization meets a pivot below the singularity tolerance."""


class CsrMatrix(sp.csr_array):
    """A ``scipy.sparse.csr_array`` in canonical form with read-only arrays.

    Canonical means: within each row the column indices are strictly
    increasing and duplicates have been summed. Explicit zeros are kept in
    the pattern, but scipy's own sums and differences store none.
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

