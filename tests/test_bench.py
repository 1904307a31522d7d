import numpy as np
import pytest

from conftest import export_zero_interface_diagonal
import mdsolve.bench
from mdsolve.assembly import BlockSystem, PhysicalParams, assemble, monolithic
from mdsolve.bench import SweepResult, SweepRow, SweepSpec, emit_table, run_sweep
from mdsolve.grids import build_cross_2d, build_random_network_2d
from mdsolve.krylov import SolveConfig, gmres
from mdsolve.precond import build_preconditioner
from mdsolve.sysio import export_system, import_system


def small_spec(**overrides):
    base = dict(
        geometry="cross_2d",
        mesh_sizes=(4,),
        k_parallel_values=(1.0,),
        kappa_values=(1.0,),
        precond_kinds=("ml",),
        solver=SolveConfig(rel_tol=1e-6),
    )
    base.update(overrides)
    return SweepSpec(**base)


def count_calls(monkeypatch, name, fn):
    """Route ``mdsolve.bench.<name>`` through ``fn``, recording each call's kwargs."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(mdsolve.bench, name, counting)
    return calls


def test_single_tuple_sweep():
    result = run_sweep(small_spec())
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.converged
    assert row.residual <= 1e-6
    assert row.error == ""
    assert row.n_omega > 0 and row.n_gamma > 0


def test_nine_row_parameter_block_per_mesh_size():
    values = (1e-4, 1.0, 1e4)
    result = run_sweep(
        small_spec(mesh_sizes=(4, 8), k_parallel_values=values, kappa_values=values)
    )
    assert len(result.rows) == 18
    for n in (4, 8):
        block = [r for r in result.rows if r.n == n]
        assert len(block) == 9
        assert [(r.k_parallel, r.kappa) for r in block] == [
            (kp, kk) for kp in values for kk in values
        ]


def test_sweeps_are_deterministic():
    spec = small_spec(geometry="random_2d", mesh_sizes=(8,), seed=3,
                      k_parallel_values=(1e-4, 1e4))
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert [r.as_tuple()[:8] for r in a.rows] == [r.as_tuple()[:8] for r in b.rows]


def test_converged_rows_satisfy_reverified_residual():
    values = (1e-4, 1e4)
    result = run_sweep(small_spec(mesh_sizes=(8,), k_parallel_values=values,
                                  kappa_values=values))
    for row in result.rows:
        assert row.converged
        assert row.residual <= 1.1 * result.spec.solver.rel_tol


def test_tuple_failure_is_recorded_and_sweep_continues(monkeypatch, tmp_path):
    # a zero interface diagonal entry fails the shared set-up, which is not retried
    setups = count_calls(monkeypatch, "build_preconditioner", build_preconditioner)
    result = run_sweep(
        small_spec(geometry="imported", import_path=export_zero_interface_diagonal(tmp_path),
                   precond_kinds=("ml", "none", "bu"),
                   solver=SolveConfig(rel_tol=1e-6, max_iters=30))
    )
    assert len(setups) == 1
    assert len(result.rows) == 3
    ml, none, bu = result.rows
    for row in (ml, bu):
        assert row.error.startswith("ValueError: ") and "at interface DOF 1" in row.error
        assert not row.converged
        assert row.setup_seconds == 0.0
    assert bu.error == ml.error
    assert none.error == ""  # the sweep went on past the failure
    assert none.iterations == 30  # ran out of budget, recorded honestly


def test_non_finite_preconditioner_output_is_recorded_in_the_row(monkeypatch):
    def nan_setup(system, **kwargs):
        prec = build_preconditioner(system, **kwargs)
        prec.apply = lambda r: np.full_like(r, np.nan)  # with_kind views copy it
        return prec

    monkeypatch.setattr(mdsolve.bench, "build_preconditioner", nan_setup)
    ml, none = run_sweep(small_spec(precond_kinds=("ml", "none"))).rows
    assert ml.error == "FloatingPointError: gmres: Arnoldi vector is not finite at iteration 1"
    assert not ml.converged
    assert none.error == "" and none.converged


def test_setup_is_shared_across_kinds_of_each_system(monkeypatch):
    setups = count_calls(monkeypatch, "build_preconditioner", build_preconditioner)
    kinds = ("ml", "bu", "bd", "none")
    spec = small_spec(geometry="random_2d", mesh_sizes=(8,), seed=3,
                      k_parallel_values=(1e-4, 1e4), precond_kinds=kinds)
    result = run_sweep(spec)
    assert [c["kind"] for c in setups] == ["ml", "ml"]  # one per assembled system
    assert len(result.rows) == 2 * len(kinds)
    for row in result.rows:
        assert (row.setup_seconds > 0.0) == (row.kind == "ml")
        system = assemble(build_random_network_2d(8, spec.num_fractures, spec.seed),
                          PhysicalParams(k_parallel=row.k_parallel, kappa=row.kappa))
        prec = None if row.kind == "none" else build_preconditioner(system, kind=row.kind)
        report = gmres(monolithic(system), system.rhs, prec, spec.solver)
        assert (row.iterations, row.converged, row.residual) == (
            report.iterations, report.converged, report.true_residual
        )


def test_each_system_reads_its_right_hand_side_once(monkeypatch):
    # BlockSystem.rhs concatenates the two blocks on every read
    reads = []
    rhs = BlockSystem.rhs

    def counted(system):
        reads.append(system)
        return rhs.fget(system)

    monkeypatch.setattr(BlockSystem, "rhs", property(counted))
    spec = small_spec(mesh_sizes=(4, 8), precond_kinds=("ml", "bu", "bd"))
    result = run_sweep(spec)
    assert len(reads) == 2 and len(result.rows) == 6
    monkeypatch.undo()
    for row in result.rows:
        system = assemble(build_cross_2d(row.n), PhysicalParams())
        prec = build_preconditioner(system, kind=row.kind)
        report = gmres(monolithic(system), system.rhs, prec, spec.solver)
        assert row.history.tobytes() == report.residual_history.tobytes()
        assert row.residual == report.true_residual


def test_spec_rejects_non_integer_counts():
    for name, value in (("mesh_sizes", (8.0,)), ("mesh_sizes", (4, True)),
                        ("num_fractures", 4.0), ("num_planes", 3.0), ("num_planes", True),
                        ("seed", 1.5), ("seed", False)):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_spec(geometry="regular_3d", **{name: value})
    spec = small_spec(geometry="random_2d", mesh_sizes=(np.int64(8),),
                      num_fractures=np.int32(4), seed=np.int64(3))
    assert all(r.converged for r in run_sweep(spec).rows)


def test_sweep_calls_each_patched_stage_through_the_bench_module(monkeypatch):
    # perfbench replaces these five names in mdsolve.bench to trace and to
    # add its random sources; a path around any of them would go unmeasured
    builds = count_calls(monkeypatch, "build_random_network_2d", build_random_network_2d)
    assembles = count_calls(monkeypatch, "assemble", assemble)
    operators = count_calls(monkeypatch, "monolithic", monolithic)
    setups = count_calls(monkeypatch, "build_preconditioner", build_preconditioner)
    solves = count_calls(monkeypatch, "gmres", gmres)
    result = run_sweep(small_spec(geometry="random_2d", mesh_sizes=(8, 16), seed=3,
                                  k_parallel_values=(1e-4, 1e4), precond_kinds=("ml", "bu")))
    assert (len(builds), len(assembles), len(operators), len(setups), len(solves)) == (
        2, 4, 4, 4, 8)
    assert len(result.rows) == 8 and all(r.converged for r in result.rows)


def test_imported_system_is_read_once_per_sweep(monkeypatch, tmp_path):
    export_system(assemble(build_cross_2d(4), PhysicalParams()), tmp_path)
    reads = count_calls(monkeypatch, "import_system", import_system)
    result = run_sweep(small_spec(geometry="imported", import_path=str(tmp_path),
                                  precond_kinds=("ml", "bu", "none")))
    assert len(reads) == 1
    assert [r.kind for r in result.rows] == ["ml", "bu", "none"]
    assert all(r.converged for r in result.rows)


def test_imported_geometry_rejects_parameters_it_ignores(tmp_path):
    for name, values in (("mesh_sizes", (4, 8)), ("k_parallel_values", (1.0, 1e4)),
                         ("kappa_values", (1e-4, 1.0))):
        with pytest.raises(ValueError, match=name):
            small_spec(geometry="imported", import_path=str(tmp_path), **{name: values})


def test_all_preconditioner_kinds_run():
    result = run_sweep(small_spec(mesh_sizes=(8,),
                                  precond_kinds=("ml", "bu", "bd", "none")))
    assert len(result.rows) == 4
    assert all(r.converged for r in result.rows)
    by_kind = {r.kind: r.iterations for r in result.rows}
    assert by_kind["none"] >= max(by_kind["ml"], by_kind["bd"])


def test_spec_validation():
    with pytest.raises(ValueError, match="geometry"):
        small_spec(geometry="hexagonal")
    with pytest.raises(ValueError, match="nonempty"):
        small_spec(kappa_values=())
    with pytest.raises(ValueError, match="positive"):
        small_spec(k_parallel_values=(0.0,))
    with pytest.raises(ValueError, match="import_path"):
        small_spec(geometry="imported")
    with pytest.raises(ValueError, match="kind 'xl'"):
        small_spec(precond_kinds=("ml", "xl"))
    with pytest.raises(ValueError, match="kind 'bl'"):  # a CLI alias only
        small_spec(precond_kinds=("bl",))


@pytest.mark.parametrize("field,value", [
    ("k_parallel_values", (1.0, np.inf)), ("kappa_values", (np.nan,)),
    ("kappa_values", (-1.0,)), ("matrix_permeability", 0.0), ("matrix_permeability", np.inf),
], ids=["kpar-inf", "kappa-nan", "kappa-negative", "matrix-perm-zero", "matrix-perm-inf"])
def test_spec_rejects_a_permeability_that_is_not_positive_and_finite(field, value):
    # the spec is checked when it is made, before run_sweep builds any grid
    bad = float(np.ravel(value)[-1])
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {bad}$"):
        small_spec(**{field: value})


def test_spec_rejects_unknown_set_up_modes():
    # every set-up is one AMG V-cycle per block; there is no mode to choose
    for name in ("inner_omega", "inner_gamma"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            small_spec(**{name: "direct"})


def test_emit_empty_table_has_header_only():
    empty = SweepResult(spec=small_spec(), rows=[])
    csv_text = emit_table(empty, "csv")
    assert csv_text.splitlines() == [",".join(SweepRow.FIELDS)]
    aligned = emit_table(empty, "aligned-text")
    assert len(aligned.splitlines()) == 1
    md = emit_table(empty, "markdown")
    assert len(md.splitlines()) == 2  # header + separator


def test_emit_single_row_contains_all_fields():
    result = run_sweep(small_spec())
    lines = emit_table(result, "csv").splitlines()
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(SweepRow.FIELDS)
    aligned = emit_table(result, "aligned-text").splitlines()
    assert len(aligned) == 2


def test_emit_markdown_groups_columns_by_mesh_size():
    values = (1e-4, 1.0, 1e4)
    result = run_sweep(
        small_spec(mesh_sizes=(4, 8, 16), k_parallel_values=values, kappa_values=values)
    )
    lines = emit_table(result, "markdown").splitlines()
    assert len(lines) == 2 + 9  # header, separator, nine parameter rows
    assert lines[0].count("n=") == 3
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        assert len(cells) == 6  # K_par, kappa, kind, three mesh columns
        assert all(c for c in cells)


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit_table(SweepResult(spec=small_spec(), rows=[]), "yaml")


def test_csv_roundtrips_numeric_fields():
    result = run_sweep(small_spec())
    line = emit_table(result, "csv").splitlines()[1].split(",")
    residual = float(line[SweepRow.FIELDS.index("residual")])
    assert residual == result.rows[0].residual
