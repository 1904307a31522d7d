import json

import numpy as np
import pytest
import scipy.io

import mdsolve.bench
from mdsolve import (
    PhysicalParams, SolveConfig, SweepSpec, assemble, build_cross_2d, build_preconditioner,
    gmres, monolithic, run_sweep,
)
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


def test_generate_with_an_import_names_the_subcommands_that_take_it(tmp_path, capsys):
    target = tmp_path / "sys"
    assert main(["export", "--geometry", "cross_2d", "--n", "4", "--out", str(target)]) == 0
    capsys.readouterr()
    assert main(["generate", "--geometry", "imported", "--import", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: geometry 'imported' has no grid")
    assert "--import" not in err  # it was given
    for cmd in ("assemble", "solve", "sweep", "export", "amg-stats"):
        assert cmd in err


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


def _history_csv(history) -> str:
    lines = ["iteration,relative_residual"]
    lines += [f"{i},{float(r)!r}" for i, r in enumerate(history)]
    return "\n".join(lines) + "\n"


REPEATED_LIST_FLAGS = [
    pytest.param(command, flag, values, id=f"{command}-{flag}")
    for command in ("solve", "assemble", "export", "amg-stats")
    for flag, values in (("kpar", ("1e-4", "1e4")), ("kappa", ("1", "1e-4")),
                         ("precond", ("bd", "ml")))
    if flag != "precond" or command == "solve"  # only solve takes --precond
]


@pytest.mark.parametrize("command,flag,values", REPEATED_LIST_FLAGS)
@pytest.mark.parametrize("source", ["argv", "config"])
def test_single_system_subcommands_reject_repeated_list_flags(
        capsys, tmp_path, command, flag, values, source):
    argv = [command, "--geometry", "cross_2d", "--n", "4"]
    if command == "export":
        argv += ["--out", str(tmp_path / "system")]
    if source == "argv":
        for value in values:
            argv += [f"--{flag}", value]
    else:
        cfg = tmp_path / "list.cfg"
        cfg.write_text(f"{flag} = {', '.join(values)}\n")
        argv = ["--config", str(cfg), *argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: this subcommand takes exactly one --{flag}\n"


def test_solve_without_flags_is_the_default_sweep_row(capsys, tmp_path):
    history = tmp_path / "hist.csv"
    assert main(["solve", "--history-csv", str(history)]) == 0
    (row,) = run_sweep(SweepSpec()).rows
    assert capsys.readouterr().out.startswith(
        f"converged in {row.iterations} iterations "
        f"(true relative residual {row.residual:.3e}, solve "
    )
    assert history.read_text() == _history_csv(row.history)


def test_solve_history_matches_a_direct_gmres_call(tmp_path):
    history = tmp_path / "hist.csv"
    assert main(["solve", "--n", "8", "--kpar", "1e4", "--kappa", "1e-4",
                 "--history-csv", str(history)]) == 0
    s = assemble(build_cross_2d(8), PhysicalParams(k_parallel=1e4, kappa=1e-4))
    report = gmres(monolithic(s), s.rhs, build_preconditioner(s), SolveConfig())
    assert history.read_bytes() == _history_csv(report.residual_history).encode()


def test_solve_setup_error_exits_two_with_the_row_error(capsys, tmp_path):
    history = tmp_path / "hist.csv"
    assert main(["solve", "--n", "4", "--schur", "exact",
                 "--history-csv", str(history)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ValueError: schur_mode='exact' is an oracle "
                   "and requires direct inner solves\n")
    assert not history.exists()


def test_solve_gmres_error_exits_two_not_one(capsys, monkeypatch):
    def nan_setup(system, **kwargs):
        prec = build_preconditioner(system, **kwargs)
        prec.apply = lambda r: np.full_like(r, np.nan)
        return prec

    monkeypatch.setattr(mdsolve.bench, "build_preconditioner", nan_setup)
    assert main(["solve", "--n", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: FloatingPointError: gmres: Arnoldi vector is not finite at iteration 1\n"
    )


def test_import_and_solve_reject_a_non_finite_block(capsys, tmp_path):
    target = tmp_path / "system"
    export_system(assemble(build_cross_2d(4), PhysicalParams()), target)
    path = target / "a_omega_omega.mtx"
    a = scipy.io.mmread(str(path)).tocoo()
    a.data[0] = np.inf
    scipy.io.mmwrite(str(path), a)
    capsys.readouterr()
    assert main(["import", str(target)]) == 2
    assert main(["solve", "--geometry", "imported", "--import", str(target),
                 "--precond", "none"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == 2 * f"error: {path} holds a non-finite value (nan or inf)\n"
