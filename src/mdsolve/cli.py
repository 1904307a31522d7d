"""Command-line entry point.

Subcommands cover each pipeline stage: ``generate`` (grid summaries),
``assemble`` (block statistics), ``export`` / ``import`` (file exchange),
``solve`` (one system), ``sweep`` (parameter grids), and ``amg-stats``
(hierarchy dumps). Flags can be preloaded from a plain-text config file of
``key = value`` lines. A key is the dest of a subcommand flag that takes a
value, with dashes or underscores (``--import`` is ``import_path``), and the
flag's own argparse action casts and checks it: its ``type``, its
``choices``, and comma-separated values for a repeatable flag. Explicit
command-line flags win. The flags of every subcommand that builds a grid or
a system become one :class:`~mdsolve.bench.SweepSpec`, so a flag given
nowhere keeps the ``SweepSpec`` or ``SolveConfig`` default, and ``solve`` is
a one-row :func:`~mdsolve.bench.run_sweep`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    GEOMETRIES, TABLE_FORMATS, SweepSpec, build_grid, emit_table, run_sweep, sweep_systems,
)
from .krylov import SolveConfig
from .precond import KINDS, build_preconditioner
from .sysio import export_system, import_system

# every flag defaults to None so "was it given explicitly" is visible;
# flag -> SweepSpec or SolveConfig field; run defaults live there alone
SPEC_FIELDS = {
    "geometry": "geometry", "n": "mesh_sizes", "kpar": "k_parallel_values",
    "kappa": "kappa_values", "precond": "precond_kinds",
    "matrix_perm": "matrix_permeability", "num_fractures": "num_fractures",
    "num_planes": "num_planes", "seed": "seed", "import_path": "import_path",
}
SOLVER_FIELDS = {"tol": "rel_tol", "max_iters": "max_iters", "restart": "restart"}


def _read_config(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _value(action, text: str, key: str, path):
    """Cast and check one config value with its flag's action, naming the key
    and the file where argparse would name the flag."""
    kind = action.type or str
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"config {path}, key {key!r}: invalid {kind.__name__} value: "
                         f"{text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config {path}, key {key!r}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, action.choices))})")
    return value


def _apply_config(args, config: dict, path, parser):
    """Fill config values into flags the user did not give.

    Keys the current subcommand does not use are ignored, so one config file
    can serve several subcommands; keys no subcommand knows are rejected.
    """
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for p in sub.choices.values() for a in p._actions
               if a.option_strings and a.nargs != 0}  # the flags that take a value
    for key, text in config.items():
        if key not in actions:
            raise ValueError(f"unknown config key {key!r}")
        if not hasattr(args, key) or getattr(args, key) is not None:
            continue  # the subcommand has no such flag, or it was given
        action = actions[key]
        if isinstance(action, argparse._AppendAction):
            values = [_value(action, p.strip(), key, path) for p in text.split(",") if p.strip()]
            if not values:
                raise ValueError(f"config {path}, key {key!r}: expected comma-separated "
                                 f"values, got {text!r}")
            setattr(args, key, values)
        else:
            setattr(args, key, _value(action, text, key, path))


def _add_geometry_flags(p):
    p.add_argument("--geometry", choices=GEOMETRIES)
    p.add_argument("--n", action="append", type=int, default=None,
                   help="cells per direction; repeatable for sweeps")
    p.add_argument("--num-fractures", type=int, dest="num_fractures")
    p.add_argument("--num-planes", type=int, dest="num_planes")
    p.add_argument("--seed", type=int)
    p.add_argument("--import", dest="import_path",
                   help="directory of an exported system (geometry 'imported')")


def _add_param_flags(p):
    p.add_argument("--kpar", action="append", type=float, default=None,
                   help="tangential fracture permeability; repeatable")
    p.add_argument("--kappa", action="append", type=float, default=None,
                   help="normal fracture transmissivity; repeatable")
    p.add_argument("--matrix-perm", type=float, dest="matrix_perm")


def _add_solver_flags(p):
    p.add_argument("--precond", action="append", default=None,
                   choices=[*KINDS, "none"], help="preconditioner kind; repeatable")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, dest="max_iters")
    p.add_argument("--restart", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdsolve",
        description="assemble and solve mixed-dimensional flow systems "
                    "with factorization-based block preconditioners",
    )
    parser.add_argument("--config", default=None, help="key = value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a grid and print its summary")
    _add_geometry_flags(p)
    p.add_argument("--json", action="store_true", help="emit the summary as JSON")

    p = sub.add_parser("assemble", help="assemble a system and print block shapes")
    _add_geometry_flags(p)
    _add_param_flags(p)
    p.add_argument("--out", help="also export the system to this directory")

    p = sub.add_parser("solve", help="solve one system with GMRES")
    _add_geometry_flags(p)
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--history-csv", default=None, dest="history_csv",
                   help="write the residual history to this CSV file")

    p = sub.add_parser("sweep", help="run a parameter sweep and print a table")
    _add_geometry_flags(p)
    _add_param_flags(p)
    _add_solver_flags(p)
    p.add_argument("--format", choices=TABLE_FORMATS)
    p.add_argument("--out", help="write the table to this file")

    p = sub.add_parser("export", help="assemble a system and write it to disk")
    _add_geometry_flags(p)
    _add_param_flags(p)
    p.add_argument("--out", required=True, help="target directory")

    p = sub.add_parser("import", help="read an exported system, validate it and report on it")
    p.add_argument("path", help="directory holding the exported system")

    p = sub.add_parser("amg-stats", help="print the AMG hierarchy for a system's blocks")
    _add_geometry_flags(p)
    _add_param_flags(p)
    return parser


def _spec(args) -> SweepSpec:
    """The run the flags describe; flags given nowhere keep the defaults.

    Every subcommand but ``sweep`` runs one system, so it takes at most one
    value of each list flag.
    """
    given = {key: value for key, value in vars(args).items() if value not in (None, [])}
    if args.command != "sweep":
        for key, value in given.items():
            if isinstance(value, list) and len(value) > 1:
                raise ValueError(f"this subcommand takes exactly one --{key}")
    fields = {field: tuple(given[key]) if isinstance(given[key], list) else given[key]
              for key, field in SPEC_FIELDS.items() if key in given}
    solver = {field: given[key] for key, field in SOLVER_FIELDS.items() if key in given}
    return SweepSpec(**fields, solver=SolveConfig(**solver))


def _single_system(args):
    _, _, _, system = next(sweep_systems(_spec(args)))
    return system


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(args, _read_config(args.config), args.config, parser)
        return _dispatch(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "generate":
        spec = _spec(args)
        grid = build_grid(spec.geometry, spec.mesh_sizes[0], spec.num_fractures,
                          spec.num_planes, spec.seed)
        print(json.dumps(grid.summary(), indent=2) if args.json else grid.describe())
        return 0

    if cmd == "assemble":
        system = _single_system(args)
        print(f"n_omega = {system.n_omega}, n_gamma = {system.n_gamma}")
        for name in ("a_omega_omega", "a_omega_gamma", "a_gamma_omega", "a_gamma_gamma"):
            block = getattr(system, name)
            print(f"  {name}: shape {block.shape}, nnz {block.nnz}")
        if args.out:
            export_system(system, args.out)
            print(f"exported to {args.out}")
        return 0

    if cmd == "solve":
        (row,) = run_sweep(_spec(args)).rows
        if row.error:
            print(f"error: {row.error}", file=sys.stderr)
            return 3 if row.error.startswith("MemoryError:") else 2
        status = "converged" if row.converged else "did NOT converge"
        print(f"{status} in {row.iterations} iterations "
              f"(true relative residual {row.residual:.3e}, "
              f"solve {row.solve_seconds:.3f}s)")
        if args.history_csv:
            lines = ["iteration,relative_residual"]
            lines += [f"{i},{float(r)!r}" for i, r in enumerate(row.history)]
            Path(args.history_csv).write_text("\n".join(lines) + "\n")
            print(f"history written to {args.history_csv}")
        return 0 if row.converged else 1

    if cmd == "sweep":
        result = run_sweep(_spec(args))
        table = emit_table(result, args.format or "aligned-text")
        if args.out:
            Path(args.out).write_text(table)
            print(f"table written to {args.out}")
        else:
            print(table, end="")
        failures = [r for r in result.rows if not r.converged]
        return 1 if failures else 0

    if cmd == "export":
        export_system(_single_system(args), args.out)
        print(f"exported to {args.out}")
        return 0

    if cmd == "import":
        system = import_system(args.path)
        print(f"valid block system: n_omega = {system.n_omega}, n_gamma = {system.n_gamma}")
        return 0

    if cmd == "amg-stats":
        hierarchies = build_preconditioner(_single_system(args)).hierarchies()
        print("hierarchy for the approximate Schur complement:")
        print(hierarchies["schur"].describe())
        print("hierarchy for the interface block:")
        print(hierarchies["interface"].describe())
        return 0

    raise ValueError(f"unhandled command {cmd!r}")


if __name__ == "__main__":
    raise SystemExit(main())
