import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.io

from mdsolve.assembly import BlockSystem, PhysicalParams, assemble
from mdsolve.cli import main
from mdsolve.grids import DofPartition, build_cross_2d, build_random_network_2d
from mdsolve.sparse import canonical, csr_equal
from mdsolve.sysio import SIDECAR_NAME, export_system, import_system

FILES = {key: f"{key}.mtx" for key in ("a_omega_omega", "a_omega_gamma", "a_gamma_omega",
                                       "a_gamma_gamma", "rhs_omega", "rhs_gamma")}


def files_error(got) -> str:
    return f", key 'files': expected the file names {FILES}, got {got!r}"


@pytest.mark.parametrize(
    "grid,params",
    [
        (build_cross_2d(2), PhysicalParams()),
        (build_cross_2d(4), PhysicalParams(k_parallel=1e4, kappa=1e-4)),
        (build_random_network_2d(8, 4, seed=5), PhysicalParams(kappa=123.456)),
        (build_random_network_2d(4, 0), PhysicalParams()),  # no interfaces at all
    ],
    ids=["cross2", "cross4-contrast", "random", "fracture-free"],
)
def test_roundtrip_is_entrywise_identical(tmp_path, grid, params):
    original = assemble(grid, params)
    export_system(original, tmp_path)
    back = import_system(tmp_path)
    assert csr_equal(back.a_omega_omega, original.a_omega_omega)
    assert csr_equal(back.a_omega_gamma, original.a_omega_gamma)
    assert csr_equal(back.a_gamma_omega, original.a_gamma_omega)
    assert csr_equal(back.a_gamma_gamma, original.a_gamma_gamma)
    assert np.array_equal(back.rhs_omega, original.rhs_omega)
    assert np.array_equal(back.rhs_gamma, original.rhs_gamma)
    assert back.partition == original.partition


def test_corrupt_partition_sum_is_named(tmp_path):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    sidecar = json.loads((tmp_path / SIDECAR_NAME).read_text())
    sidecar["omega_ranges"][0][2] -= 1  # shrink the matrix range
    (tmp_path / SIDECAR_NAME).write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="omega ranges sum"):
        import_system(tmp_path)


def test_gamma_partition_mismatch_is_named(tmp_path):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    sidecar = json.loads((tmp_path / SIDECAR_NAME).read_text())
    sidecar["n_gamma"] += 2
    (tmp_path / SIDECAR_NAME).write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="gamma ranges sum"):
        import_system(tmp_path)


def test_transpose_violation_is_rejected(tmp_path):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    target = tmp_path / "a_gamma_omega.mtx"
    lines = target.read_text().splitlines()
    dims_at = next(i for i, l in enumerate(lines) if not l.startswith("%"))
    entry = lines[dims_at + 1].split()  # first stored coupling entry
    entry[2] = repr(-float(entry[2]))
    lines[dims_at + 1] = " ".join(entry)
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="transpose"):
        import_system(tmp_path)


def test_missing_sidecar(tmp_path):
    with pytest.raises(ValueError, match="sidecar"):
        import_system(tmp_path)


@pytest.mark.parametrize("path,named", [
    (("n_gamma",), " has no key 'n_gamma'"),
    (("files", "rhs_gamma"), files_error({k: v for k, v in FILES.items() if k != "rhs_gamma"})),
], ids=["n_gamma", "files.rhs_gamma"])
def test_incomplete_sidecar_names_the_sidecar_and_the_key(tmp_path, path, named):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    sidecar = json.loads((tmp_path / SIDECAR_NAME).read_text())
    *parents, key = path
    holder = sidecar
    for parent in parents:
        holder = holder[parent]
    del holder[key]
    (tmp_path / SIDECAR_NAME).write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match=f"^{re.escape(f'sidecar {tmp_path / SIDECAR_NAME}{named}')}$"):
        import_system(tmp_path)


@pytest.mark.parametrize("change,named", [
    (lambda s: s.update(omega_ranges=5), ", key 'omega_ranges': expected [id, start, stop] "
                                         "lists of integers, got 5"),
    (lambda s: s.update(files=5), files_error(5)),
    (lambda s: [s], " is not a JSON object"),
    (lambda s: s.update(gamma_ranges=[[0, 1]]), ", key 'gamma_ranges': expected [id, start, "
                                                "stop] lists of integers, got [0, 1]"),
    (lambda s: s.update(n_omega="x"), ", key 'n_omega': expected an integer, got 'x'"),
    (lambda s: s["files"].update(rhs_gamma="/elsewhere/rhs_gamma.mtx"),
     files_error(dict(FILES, rhs_gamma="/elsewhere/rhs_gamma.mtx"))),
    (lambda s: s["files"].update(rhs_gamma="../elsewhere/rhs_gamma.mtx"),
     files_error(dict(FILES, rhs_gamma="../elsewhere/rhs_gamma.mtx"))),
], ids=["omega_ranges", "files", "list", "gamma_ranges", "n_omega", "files.absolute",
        "files.relative"])
def test_malformed_sidecar_exits_2_naming_the_sidecar_and_the_key(tmp_path, capsys, change,
                                                                   named):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    sidecar = json.loads((tmp_path / SIDECAR_NAME).read_text())
    sidecar = change(sidecar) or sidecar
    (tmp_path / SIDECAR_NAME).write_text(json.dumps(sidecar))
    assert main(["import", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: sidecar {tmp_path / SIDECAR_NAME}{named}\n"


def test_wrong_format_tag(tmp_path):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    sidecar = json.loads((tmp_path / SIDECAR_NAME).read_text())
    sidecar["format"] = "something-else"
    (tmp_path / SIDECAR_NAME).write_text(json.dumps(sidecar))
    with pytest.raises(ValueError, match="format"):
        import_system(tmp_path)


@pytest.mark.parametrize("text,named", [
    ("{", r" is not valid JSON: Expecting property name"),
    ('{"format": "something-else"}', r": format 'something-else' is not a block system"),
], ids=["invalid-json", "wrong-format"])
def test_unreadable_sidecar_is_named_by_import_and_the_cli(tmp_path, capsys, text, named):
    export_system(assemble(build_cross_2d(2), PhysicalParams()), tmp_path)
    (tmp_path / SIDECAR_NAME).write_text(text)
    message = f"sidecar {tmp_path / SIDECAR_NAME}{named}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        import_system(tmp_path)
    assert main(["import", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["a_omega_omega", "a_omega_gamma", "a_gamma_omega",
                                  "a_gamma_gamma", "rhs_omega", "rhs_gamma"])
def test_non_finite_value_is_rejected_naming_the_file(tmp_path, name, bad):
    export_system(assemble(build_cross_2d(4), PhysicalParams()), tmp_path)
    path = tmp_path / f"{name}.mtx"
    if name.startswith("rhs"):  # cross_2d's rhs_gamma stores no entries
        v = scipy.io.mmread(str(path)).toarray()
        v[0] = bad
        scipy.io.mmwrite(str(path), v)
    else:
        a = scipy.io.mmread(str(path)).tocoo()
        a.data[0] = bad
        scipy.io.mmwrite(str(path), a)
    with pytest.raises(ValueError, match=rf"{name}\.mtx holds a non-finite value"):
        import_system(tmp_path)


@pytest.mark.parametrize("grid", [build_cross_2d(4), build_random_network_2d(4, 0)],
                         ids=["cross4", "fracture-free"])
def test_rhs_files_are_general_n_by_1_coordinate_files(tmp_path, grid):
    system = assemble(grid, PhysicalParams())
    system = dataclasses.replace(
        system, rhs_omega=np.random.default_rng(4).standard_normal(system.n_omega))
    export_system(system, tmp_path)
    for name, v in (("rhs_omega", system.rhs_omega), ("rhs_gamma", system.rhs_gamma)):
        path = tmp_path / f"{name}.mtx"
        lines = path.read_text().splitlines()
        assert lines[0] == "%%MatrixMarket matrix coordinate real general"
        assert lines[next(i for i, l in enumerate(lines) if not l.startswith("%"))].split()[:2] \
            == [str(len(v)), "1"]
    back = import_system(tmp_path)
    assert back.rhs_omega.tobytes() == system.rhs_omega.tobytes()
    assert back.rhs_gamma.tobytes() == system.rhs_gamma.tobytes()


def test_one_entry_rhs_is_written_general(tmp_path):
    # scipy detects a 1-by-1 matrix as symmetric unless told otherwise
    block = canonical(np.array([[1.0]]))
    system = BlockSystem.from_blocks(block, block, block, canonical(np.array([[3.0]])),
                                     np.array([2.5]), np.array([-1.5]),
                                     DofPartition(((0, 0, 1),), ((1, 1, 2),)))
    export_system(system, tmp_path)
    for name in ("rhs_omega", "rhs_gamma"):
        header = (tmp_path / f"{name}.mtx").read_text().splitlines()[0]
        assert header == "%%MatrixMarket matrix coordinate real general"
    back = import_system(tmp_path)
    assert back.rhs_omega.tobytes() == np.array([2.5]).tobytes()
    assert back.rhs_gamma.tobytes() == np.array([-1.5]).tobytes()


def test_a_right_hand_side_that_is_not_n_by_1_is_named(tmp_path):
    system = assemble(build_cross_2d(2), PhysicalParams())
    export_system(system, tmp_path)
    path = tmp_path / "rhs_omega.mtx"
    scipy.io.mmwrite(str(path), np.tile(system.rhs_omega[:, None], 2))
    message = f"{path}: expected an n-by-1 vector file, got shape ({system.n_omega}, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        import_system(tmp_path)
