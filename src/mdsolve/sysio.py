"""Block system exchange on disk.

A system is stored as a directory of six coordinate, ``general`` Matrix
Market files under fixed names: one per block sliced out of the system's
operator and an n-by-1 file per right-hand side. A JSON sidecar records the
DOF partition and lists the six names, which must be the fixed ones. The
writer emits full-precision values, so an export/import round trip
reproduces every block bit for bit. Import rejects NaN and inf values and
validates the sidecar against the matrices and the exact-transpose contract
between the two coupling blocks, so externally generated systems are
checked before any solve touches them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .assembly import BlockSystem
from .grids import DofPartition
from .sparse import csr_equal, read_matrix_market, write_matrix_market

__all__ = ["export_system", "import_system", "SIDECAR_NAME"]

SIDECAR_NAME = "system.json"

_FILES = {
    "a_omega_omega": "a_omega_omega.mtx",
    "a_omega_gamma": "a_omega_gamma.mtx",
    "a_gamma_omega": "a_gamma_omega.mtx",
    "a_gamma_gamma": "a_gamma_gamma.mtx",
    "rhs_omega": "rhs_omega.mtx",
    "rhs_gamma": "rhs_gamma.mtx",
}


def export_system(system: BlockSystem, directory) -> Path:
    """Write all blocks, right-hand sides and the partition sidecar.

    Returns the directory path. Existing files are overwritten.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for key, name in _FILES.items():
        value = getattr(system, key)
        if key.startswith("rhs"):
            value = sp.coo_array(value[:, None])
        write_matrix_market(directory / name, value)
    sidecar = {
        "format": "mdsolve-block-system",
        "version": 1,
        "n_omega": system.n_omega,
        "n_gamma": system.n_gamma,
        "omega_ranges": [list(r) for r in system.partition.omega_ranges],
        "gamma_ranges": [list(r) for r in system.partition.gamma_ranges],
        "files": dict(_FILES),
    }
    (directory / SIDECAR_NAME).write_text(json.dumps(sidecar, indent=2) + "\n")
    return directory


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _sidecar_error(path, key, expected, value) -> ValueError:
    return ValueError(f"sidecar {path}, key {key!r}: expected {expected}, got {value!r}")


def _ranges(path, key, value) -> tuple:
    """The DOF ranges of sidecar ``key``, each an ``[id, start, stop]`` list of integers."""
    for r in value if isinstance(value, list) else [value]:
        if not (isinstance(r, list) and len(r) == 3 and all(map(_is_int, r))):
            raise _sidecar_error(path, key, "[id, start, stop] lists of integers", r)
    return tuple(tuple(r) for r in value)


def import_system(directory) -> BlockSystem:
    """Read a previously exported (or externally produced) block system.

    The four blocks are checked, stacked once into the system's operator
    and dropped.

    Raises
    ------
    ValueError
        Naming the sidecar if it is not valid JSON or not a block system,
        naming the sidecar and the key if the sidecar lacks one or holds a
        value of the wrong shape (not an integer, not a list of ``[id,
        start, stop]`` integer lists, or a ``files`` object other than the
        fixed names), naming the file of a block or right-hand side that
        holds a NaN or inf or of a right-hand side that is not n-by-1, or
        naming the mismatch if the sidecar partition does not sum to the
        matrix sizes, if a block's shape disagrees with it, or if the
        coupling blocks are not exact transposes of each other.
    """
    directory = Path(directory)
    sidecar_path = directory / SIDECAR_NAME
    if not sidecar_path.exists():
        raise ValueError(f"no sidecar {SIDECAR_NAME} in {directory}")
    try:
        meta = json.loads(sidecar_path.read_text())
    except json.JSONDecodeError as err:
        raise ValueError(f"sidecar {sidecar_path} is not valid JSON: {err}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"sidecar {sidecar_path} is not a JSON object")
    if meta.get("format") != "mdsolve-block-system":
        raise ValueError(f"sidecar {sidecar_path}: format {meta.get('format')!r} is not a block system")
    for key in ("n_omega", "n_gamma", "omega_ranges", "gamma_ranges"):
        if key not in meta:
            raise ValueError(f"sidecar {sidecar_path} has no key {key!r}")
    if meta.get("files", _FILES) != _FILES:
        raise _sidecar_error(sidecar_path, "files", f"the file names {_FILES}", meta["files"])
    for key in ("n_omega", "n_gamma"):
        if not _is_int(meta[key]):
            raise _sidecar_error(sidecar_path, key, "an integer", meta[key])
    n_omega, n_gamma = meta["n_omega"], meta["n_gamma"]
    omega_ranges = _ranges(sidecar_path, "omega_ranges", meta["omega_ranges"])
    gamma_ranges = _ranges(sidecar_path, "gamma_ranges", meta["gamma_ranges"])
    partition = DofPartition(omega_ranges, gamma_ranges)

    read = {key: read_matrix_market(directory / name) for key, name in _FILES.items()}
    for key, m in read.items():
        if not np.isfinite(m.data).all():
            raise ValueError(f"{directory / _FILES[key]} holds a non-finite value (nan or inf)")
        if key.startswith("rhs") and m.shape[1] != 1:
            raise ValueError(f"{directory / _FILES[key]}: expected an n-by-1 vector file, "
                             f"got shape {m.shape}")
    rhs = {key: read.pop(key).toarray()[:, 0] for key in ("rhs_omega", "rhs_gamma")}

    omega_sum = sum(stop - start for _, start, stop in omega_ranges)
    gamma_sum = sum(stop - start for _, start, stop in gamma_ranges)
    if omega_sum != n_omega:
        raise ValueError(
            f"sidecar omega ranges sum to {omega_sum} dofs but n_omega = {n_omega}"
        )
    if gamma_sum != n_gamma:
        raise ValueError(
            f"sidecar gamma ranges sum to {gamma_sum} dofs but n_gamma = {n_gamma}"
        )
    partition.validate()

    if not csr_equal(read["a_omega_gamma"], read["a_gamma_omega"].T.tocsr()):
        raise ValueError(
            "a_omega_gamma is not the exact transpose of a_gamma_omega; "
            "this importer only accepts systems honoring that contract"
        )
    return BlockSystem.from_blocks(**read, **rhs, partition=partition)
