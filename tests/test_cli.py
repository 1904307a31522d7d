import argparse
import dataclasses
import errno
import importlib
import json
import mmap
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io

from conftest import export_zero_interface_diagonal
import mdsolve.bench
from mdsolve import cli
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


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdsolve.bench.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    run = subprocess.run([sys.executable, "-m", "mdsolve", "generate", "--geometry", "cross_2d",
                          "--n", "4"], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "mixed-dimensional grid" in run.stdout


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


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "systems")
AMG_STATS = {
    ("--geometry", "cross_2d", "--n", "16"): (
        "hierarchy for the approximate Schur complement:\n"
        "amg hierarchy (multilevel)\n"
        "  level 0: n=     289  nnz=      1377\n"
        "  level 1: n=      62  nnz=       636\n"
        "  operator complexity 1.462, grid complexity 1.215\n"
        "hierarchy for the interface block:\n"
        "amg hierarchy (diagonal)\n"
        "  level 0: n=      68  nnz=        68\n"
        "  operator complexity 1.000, grid complexity 1.000\n"
    ),
    # no fractures: the interface block is empty, and its hierarchy too
    ("--geometry", "random_2d", "--n", "8", "--num-fractures", "0"): (
        "hierarchy for the approximate Schur complement:\n"
        "amg hierarchy (multilevel)\n"
        "  level 0: n=      64  nnz=       288\n"
        "  level 1: n=      12  nnz=        70\n"
        "  operator complexity 1.243, grid complexity 1.188\n"
        "hierarchy for the interface block:\n"
        "amg hierarchy (diagonal)\n"
        "  level 0: n=       0  nnz=         0\n"
        "  operator complexity 1.000, grid complexity 1.000\n"
    ),
    ("--geometry", "regular_3d", "--n", "8"): (
        "hierarchy for the approximate Schur complement:\n"
        "amg hierarchy (multilevel)\n"
        "  level 0: n=     729  nnz=      4617\n"
        "  level 1: n=     189  nnz=      2353\n"
        "  level 2: n=      41  nnz=       573\n"
        "  operator complexity 1.634, grid complexity 1.316\n"
        "hierarchy for the interface block:\n"
        "amg hierarchy (diagonal)\n"
        "  level 0: n=     486  nnz=       486\n"
        "  operator complexity 1.000, grid complexity 1.000\n"
    ),
    ("--geometry", "imported", "--import", os.path.join(FIXTURES, "random_2d_n16_f20_s3")): (
        "hierarchy for the approximate Schur complement:\n"
        "amg hierarchy (multilevel)\n"
        "  level 0: n=     369  nnz=      1741\n"
        "  level 1: n=     109  nnz=       877\n"
        "  level 2: n=      24  nnz=       174\n"
        "  operator complexity 1.604, grid complexity 1.360\n"
        "hierarchy for the interface block:\n"
        "amg hierarchy (diagonal)\n"
        "  level 0: n=     244  nnz=       244\n"
        "  operator complexity 1.000, grid complexity 1.000\n"
    ),
}


@pytest.mark.parametrize("flags", AMG_STATS, ids=["cross_2d", "no_fractures", "regular_3d",
                                                 "imported"])
def test_amg_stats_prints_the_recorded_hierarchies(flags, capsys):
    assert main(["amg-stats", *flags]) == 0
    assert capsys.readouterr().out == AMG_STATS[flags]


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


def test_the_flags_and_the_spec_stay_in_step():
    # a flag left behind by a removed field would raise TypeError out of
    # SweepSpec(**fields), which main does not catch
    spec = {f.name for f in dataclasses.fields(SweepSpec)} - {"solver"}
    assert set(cli.SPEC_FIELDS.values()) == spec
    assert set(cli.SOLVER_FIELDS.values()) == {f.name for f in dataclasses.fields(SolveConfig)}
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions}
    for key in {**cli.SPEC_FIELDS, **cli.SOLVER_FIELDS}:
        assert key in dests, key


def test_every_public_name_resolves():
    for module in [mdsolve] + [importlib.import_module(f"mdsolve.{name}") for name in (
            "sparse", "grids", "assembly", "amg", "precond", "krylov", "bench", "sysio")]:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_unknown_config_key_is_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 7\n")
    assert main(["--config", str(cfg), "generate", "--n", "4"]) == 2


@pytest.mark.parametrize("line, message", [
    ("schur = diag", "error: unknown config key 'schur'\n"),
    ("inner_gamma = direct", "error: unknown config key 'inner_gamma'\n"),
    ("format = mardown", "error: config {cfg}, key 'format': invalid choice: 'mardown' "
                         "(choose from 'csv', 'aligned-text', 'markdown')\n"),
    ("geometry = foo", "error: config {cfg}, key 'geometry': invalid choice: 'foo' "
                       "(choose from 'cross_2d', 'random_2d', 'regular_3d', 'imported')\n"),
    ("precond = xl", "error: config {cfg}, key 'precond': invalid choice: 'xl' "
                     "(choose from 'ml', 'bu', 'bd', 'none')\n"),
], ids=["schur", "inner_gamma", "format", "geometry", "precond"])
def test_a_config_mode_or_format_is_checked_before_any_work(line, message, capsys, tmp_path,
                                                           monkeypatch):
    # a config value meets the same choices as its flag, before any grid is built
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(mdsolve.bench, "build_grid", no_grid)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), "sweep", "--n", "8", "--kpar", "1", "--kpar", "1e4"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", message.format(cfg=cfg))


@pytest.mark.parametrize("flag", ["--inner-omega", "--inner-gamma"])
def test_there_is_no_inner_solve_flag(flag, capsys):
    # every set-up is one AMG V-cycle per block
    with pytest.raises(SystemExit) as exit_:
        main(["solve", "--n", "4", flag, "direct"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} direct" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("n = abc", "key 'n': invalid int value: 'abc'"),
    ("tol = 1e-6x", "key 'tol': invalid float value: '1e-6x'"),
    ("n = 4, x", "key 'n': invalid int value: 'x'"),
    ("n =", "key 'n': expected comma-separated values, got ''"),
    ("kappa = , ,", "key 'kappa': expected comma-separated values, got ', ,'"),
], ids=["int", "float", "list_item", "empty_list", "list_without_items"])
def test_a_config_value_that_does_not_parse_names_its_key_and_file(line, message, capsys,
                                                                  tmp_path, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(mdsolve.bench, "build_grid", no_grid)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), "sweep", "--kpar", "1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: config {cfg}, {message}\n")


GENERATE = ["generate", "--geometry", "cross_2d", "--n", "4"]


@pytest.mark.parametrize("line, argv, message", [
    ("n = x", GENERATE, ", key 'n': invalid int value: 'x'"),
    ("precond = xl", GENERATE, ", key 'precond': invalid choice: 'xl' "
                               "(choose from 'ml', 'bu', 'bd', 'none')"),
    ("max_iters = abc", GENERATE, ", key 'max_iters': invalid int value: 'abc'"),
    ("max_iters = -3", GENERATE, ": max_iters must be at least 1, got -3"),
    ("max_iters = -3", ["sweep", "--max-iters", "5"], ": max_iters must be at least 1, got -3"),
    ("tol = 0", ["solve", "--tol", "1e-6"], ": rel_tol must be positive, got 0.0"),
    ("restart = 0", ["amg-stats"], ": restart must be at least 1, got 0"),
    ("kpar = abc", ["solve", "--kpar", "1", "--n", "4"], ", key 'kpar': invalid float value: 'abc'"),
    ("format = yaml", ["solve", "--n", "4"], ", key 'format': invalid choice: 'yaml' "
                                             "(choose from 'csv', 'aligned-text', 'markdown')"),
], ids=["generate-n", "generate-precond", "generate-max-iters", "generate-max-iters-negative",
        "sweep-max-iters-given", "solve-tol-given", "amg-stats-restart", "solve-kpar-given",
        "solve-format"])
def test_a_config_value_is_checked_whether_or_not_it_is_used(line, argv, message, capsys,
                                                            tmp_path, monkeypatch):
    # unused by the subcommand, or overridden on the command line: still checked
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(mdsolve.bench, "build_grid", no_grid)
    monkeypatch.setattr(cli, "build_grid", no_grid)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert main(["--config", str(cfg), *argv]) == 2
    assert capsys.readouterr() == ("", f"error: config {cfg}{message}\n")


def test_a_valid_config_key_the_subcommand_does_not_take_is_ignored(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("format = csv\nmax_iters = 3\nkpar = 1e4\nhistory_csv = h.csv\nout = o\n")
    assert main(["--config", str(cfg), *GENERATE]) == 0
    assert "mixed-dimensional grid" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()


def test_a_config_line_without_equals_names_the_file_and_the_line(capsys, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# grid\ngeometry cross_2d\n")
    assert main(["--config", str(cfg), *GENERATE]) == 2
    assert capsys.readouterr() == (
        "", f"error: {cfg}:2: expected 'key = value', got 'geometry cross_2d'\n")


def test_assemble_out_exports_and_sweep_out_writes_the_table(capsys, tmp_path):
    target = tmp_path / "sys"
    assert main(["assemble", "--geometry", "cross_2d", "--n", "4", "--out", str(target)]) == 0
    assert capsys.readouterr().out.endswith(f"exported to {target}\n")
    system = assemble(build_cross_2d(4), PhysicalParams())
    imported = import_system(target)
    assert (imported.operator != system.operator).nnz == 0
    assert np.array_equal(imported.rhs, system.rhs)
    table = tmp_path / "table.md"
    argv = ["sweep", "--n", "4", "--n", "8", "--format", "markdown"]
    assert main([*argv, "--out", str(table)]) == 0
    assert capsys.readouterr().out == f"table written to {table}\n"
    assert main(argv) == 0
    assert table.read_text() == capsys.readouterr().out


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


def test_precond_bl_is_rejected(capsys, tmp_path):
    # "bl" was an alias of "ml"; it is now an unknown kind like any other
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--geometry", "cross_2d", "--n", "4", "--precond", "bl"])
    assert exc.value.code == 2
    assert "invalid choice: 'bl'" in capsys.readouterr().err
    cfg = tmp_path / "bl.cfg"
    cfg.write_text("precond = bl\n")
    assert main(["--config", str(cfg), "solve", "--geometry", "cross_2d", "--n", "4"]) == 2
    assert capsys.readouterr().err == (f"error: config {cfg}, key 'precond': invalid choice: 'bl' "
                                       "(choose from 'ml', 'bu', 'bd', 'none')\n")


def test_a_config_history_csv_writes_the_history(capsys, tmp_path):
    history = tmp_path / "hist.csv"
    cfg = tmp_path / "hist.cfg"
    cfg.write_text(f"history_csv = {history}\n")
    assert main(["--config", str(cfg), "solve", "--n", "8"]) == 0
    assert f"history written to {history}" in capsys.readouterr().out
    (row,) = run_sweep(SweepSpec(mesh_sizes=(8,))).rows
    assert history.read_text() == _history_csv(row.history)


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
    system = export_zero_interface_diagonal(tmp_path / "system")
    assert main(["solve", "--geometry", "imported", "--import", system,
                 "--history-csv", str(history)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ValueError: approx_schur: zero diagonal entry in the interface "
                   "block at interface DOF 1\n")
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


def test_solve_exits_three_when_the_krylov_basis_cannot_be_reserved(capsys, monkeypatch):
    def refusing_mmap(fileno, length, **kwargs):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(mmap, "mmap", refusing_mmap)
    assert main(["solve", "--n", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: MemoryError: gmres: cannot reserve the Krylov basis of 501 rows "
                          "of n = 45 ")


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


@pytest.mark.parametrize("flags,named", [
    (["--kpar", "1", "--kpar", "inf"], "k_parallel_values must be positive and finite, got inf"),
    (["--kappa", "nan"], "kappa_values must be positive and finite, got nan"),
    (["--matrix-perm", "-1"], "matrix_permeability must be positive and finite, got -1.0"),
    (["--matrix-perm", "inf"], "matrix_permeability must be positive and finite, got inf"),
], ids=["kpar-inf", "kappa-nan", "matrix-perm-negative", "matrix-perm-inf"])
def test_a_non_finite_permeability_exits_2_before_any_grid(flags, named, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(mdsolve.bench, "build_grid", no_grid)
    assert main(["sweep", "--n", "64", "--n", "128", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {named}\n")


def test_markdown_marks_a_failed_set_up_and_an_unconverged_solve(capsys, tmp_path):
    target = export_zero_interface_diagonal(tmp_path / "system")
    assert main(["sweep", "--geometry", "imported", "--import", target, "--precond", "ml",
                 "--precond", "none", "--max-iters", "1", "--format", "markdown"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "| K_par | kappa | precond | n=16 |",
        "| --- | --- | --- | --- |",
        "| 1 | 1 | ml | fail |",
        "| 1 | 1 | none | 1* |",
    ]


def test_import_names_a_subdomain_block_of_the_wrong_shape(capsys, tmp_path):
    system = assemble(build_cross_2d(4), PhysicalParams())
    export_system(system, tmp_path)
    n = system.n_omega
    a = system.a_omega_omega.toarray()
    write_matrix_market(tmp_path / "a_omega_omega.mtx", canonical(np.pad(a, ((0, 1), (0, 1)))))
    assert main(["import", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: a_omega_omega has shape ({n + 1}, {n + 1}), "
                                       f"expected ({n}, {n})\n")
