import json

import numpy as np

from mdsolve import PhysicalParams, assemble, build_cross_2d
from mdsolve.cli import main
from mdsolve.sparse import canonical, read_matrix_market, write_matrix_market
from mdsolve.sysio import export_system, import_system


def test_generate_text_and_json(capsys):
    assert main(["generate", "--geometry", "cross_2d", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "mixed-dimensional grid" in out
    assert main(["generate", "--geometry", "regular_3d", "--n", "4", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ambient_dim"] == 3


def test_assemble_reports_blocks(capsys):
    assert main(["assemble", "--geometry", "cross_2d", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "a_omega_omega" in out and "n_gamma = 20" in out


def test_solve_reports_convergence(capsys, tmp_path):
    history = tmp_path / "hist.csv"
    code = main([
        "solve", "--geometry", "cross_2d", "--n", "8",
        "--kpar", "1e4", "--kappa", "1e-4",
        "--history-csv", str(history),
    ])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    lines = history.read_text().splitlines()
    assert lines[0] == "iteration,relative_residual"
    assert len(lines) > 2


def test_solve_without_preconditioner(capsys):
    code = main(["solve", "--geometry", "cross_2d", "--n", "2",
                 "--precond", "none", "--max-iters", "100"])
    assert code == 0


def test_sweep_markdown(capsys):
    code = main([
        "sweep", "--geometry", "cross_2d", "--n", "4", "--n", "8",
        "--kpar", "1e-4", "--kpar", "1e4", "--kappa", "1",
        "--format", "markdown",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("n=") == 2
    assert out.count("| ml |") == 2


def test_export_import_check_pipeline(capsys, tmp_path):
    target = tmp_path / "system"
    assert main(["export", "--geometry", "cross_2d", "--n", "4",
                 "--out", str(target)]) == 0
    capsys.readouterr()
    assert main(["import", str(target)]) == 0
    assert "valid block system" in capsys.readouterr().out
    assert main(["solve", "--geometry", "imported", "--import", str(target)]) == 0


def test_amg_stats(capsys):
    assert main(["amg-stats", "--geometry", "cross_2d", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "approximate Schur complement" in out
    assert "interface block" in out
    assert "level 0" in out


def test_amg_stats_rejects_an_imported_non_symmetric_block(tmp_path, capsys):
    target = tmp_path / "system"
    export_system(assemble(build_cross_2d(4), PhysicalParams()), target)
    path = target / "a_omega_omega.mtx"
    a = read_matrix_market(path).toarray()
    i, j = np.argwhere((a != 0) & ~np.eye(len(a), dtype=bool))[0]
    a[i, j] *= 2.0
    write_matrix_market(path, canonical(a))
    import_system(target)  # a valid block system, only not symmetric
    capsys.readouterr()
    assert main(["amg-stats", "--geometry", "imported", "--import", str(target)]) == 2
    assert capsys.readouterr().err == "error: amg_setup: operator is not symmetric\n"


def test_config_file_provides_defaults(capsys, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# desk sweep\n"
        "geometry = cross_2d\n"
        "n = 4, 8\n"
        "kpar = 1e-4, 1e4\n"
        "kappa = 1\n"
        "format = csv\n"
    )
    assert main(["--config", str(cfg), "sweep"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1 + 4  # header + 2 meshes x 2 kpar


def test_cli_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("n = 4\nformat = csv\n")
    assert main(["--config", str(cfg), "sweep", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert ",8," in out.splitlines()[1]


def test_errors_exit_with_code_two(capsys):
    assert main(["generate", "--geometry", "cross_2d", "--n", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["import", "/nonexistent/path"]) == 2


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 7\n")
    assert main(["--config", str(cfg), "generate", "--n", "4"]) == 2


def test_generate_rejects_imported_geometry(capsys):
    assert main(["generate", "--geometry", "imported"]) == 2
    assert "geometry 'imported' has no grid" in capsys.readouterr().err


def test_explicit_flag_equal_to_the_default_beats_the_config(capsys, tmp_path):
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("tol = 1e-2\nmax_iters = 3\n")
    history = tmp_path / "hist.csv"
    code = main(["--config", str(cfg), "solve", "--geometry", "cross_2d", "--n", "8",
                 "--precond", "none", "--tol", "1e-6", "--max-iters", "500",
                 "--history-csv", str(history)])
    assert code == 0
    rows = history.read_text().splitlines()[1:]
    assert len(rows) > 4 and float(rows[-1].split(",")[1]) <= 1e-6
    # the same config without the flags does apply
    assert main(["--config", str(cfg), "solve", "--geometry", "cross_2d", "--n", "8",
                 "--precond", "none"]) == 1
    assert "did NOT converge in 3 iterations" in capsys.readouterr().out


def test_precond_bl_is_an_alias_for_ml(capsys, tmp_path):
    runs = []
    for kind in ("bl", "ml"):
        assert main(["sweep", "--geometry", "cross_2d", "--n", "8", "--precond", kind,
                     "--format", "csv"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    header, bl, ml = runs[0][0].split(","), runs[0][1].split(","), runs[1][1].split(",")
    kind, iterations = header.index("kind"), header.index("iterations")
    assert bl[kind] == ml[kind] == "ml"
    assert bl[iterations] == ml[iterations]
    cfg = tmp_path / "bl.cfg"
    cfg.write_text("precond = bl\n")
    assert main(["--config", str(cfg), "solve", "--geometry", "cross_2d", "--n", "4"]) == 0
