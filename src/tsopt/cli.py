"""Command-line entry points.

``tsopt verify``     run the derivative checks and emit CSV reports
``tsopt optimize``   run the descent loop and emit history + snapshots
``tsopt mesh-info``  print node, element and Dirichlet node counts for a
                    mesh level

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure (any
``ArithmeticError``: a solver breakdown, a degenerate cut, denominator or
angle, a singular element, a hyper-dual division by zero), 1 criterion not
met (verification tolerance or cost-reduction target).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .optimize import History, run as run_optimizer
from .problems import default_params, experiment_mesh, interpolate_target, setup_problem
from .vtkio import snapshot_writer
from .verify import (HD_TOLERANCE, analytic_field, run_verification,
                     write_node_table_csv, write_report_csv)

__all__ = ["main"]


def cmd_mesh_info(args) -> int:
    mesh = experiment_mesh(args.mesh_level)
    print(f"mesh level:      {args.mesh_level}")
    print(f"nodes:           {mesh.num_nodes}")
    print(f"elements:        {mesh.num_elements}")
    print(f"dirichlet nodes: {len(mesh.dirichlet_nodes)}")
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    mesh = experiment_mesh(args.mesh_level)
    params = setup_problem(mesh, uhat=cfg.verify["uhat"],
                           params=default_params(**cfg.problem))
    phi = interpolate_target(mesh)
    field = analytic_field(mesh, phi, params)

    methods = [args.method] if args.method else ["fd", "cs", "hd"]
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    reports = {}
    for method in methods:
        steps = cfg.verify[f"{method}_steps"]
        rep = run_verification(mesh, phi, params, method, steps=steps,
                               field_=field)
        reports[method] = rep
        print(f"[{method}] slopes: "
              + ", ".join(f"{k}={v:.3f}" for k, v in rep.slopes.items())
              + f"; min e_S={rep.e_s.min():.3e}, min e_T={rep.e_t.min():.3e}")
        write_report_csv(out / f"verify_{method}.csv", [rep])
    write_node_table_csv(out / "verify_nodes.csv", field.dj, field.labels,
                         reports)

    if "hd" in reports:
        worst = reports["hd"].max_relative_error()
        print(f"[hd] worst relative disagreement: {worst:.3e} "
              f"(tolerance {HD_TOLERANCE:.1e})")
        if worst > HD_TOLERANCE:
            print("hyper-dual agreement FAILED", file=sys.stderr)
            return 1
    return 0


def cmd_optimize(args, cfg: RunConfig) -> int:
    mesh = experiment_mesh(args.mesh_level)
    params = setup_problem(mesh, uhat=cfg.optimize["uhat"],
                           params=default_params(**cfg.problem))
    out = Path(args.output)
    on_snapshot = snapshot_writer(out, params.uhat)   # makes ``out``
    history = History()   # filled in place: a failed run keeps its rows
    try:
        run_optimizer(mesh, params, cfg.optimizer_config(),
                      on_snapshot=on_snapshot, history=history)
    finally:
        history.write_csv(out / "history.csv")

    j0, j_final = history.j[0], history.j[-1]
    reduction = j_final / j0 if j0 > 0.0 else 0.0
    print(f"iterations: {history.iteration[-1]}")
    print(f"J initial:  {j0:.17g}")
    print(f"J final:    {j_final:.17g}")
    print(f"reduction:  {reduction:.3e}")
    target = cfg.optimize["reduction_target"]
    if history.iteration[-1] >= 1 and reduction > target:
        print(f"cost reduction target {target:.1e} not met", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    # options of the commands that read a config and write files
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--output", default="out",
                        help="output directory (default: out)")

    parser = argparse.ArgumentParser(
        prog="tsopt",
        description="Level-set topology optimization with unified nodal "
                    "topological-shape sensitivities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run derivative verification")
    p_verify.add_argument("--method", choices=["fd", "cs", "hd"],
                          help="run a single scheme (default: all three)")
    p_verify.add_argument("--mesh-level", type=int, default=8,
                          help="mesh subdivisions per side (default: 8)")

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="run the optimization loop")
    p_opt.add_argument("--mesh-level", type=int, default=16,
                       help="mesh subdivisions per side (default: 16)")

    p_info = sub.add_parser("mesh-info", help="print mesh statistics")
    p_info.add_argument("mesh_level", type=int)

    args = parser.parse_args(argv)

    if args.mesh_level < 1:
        print("configuration error: mesh level must be at least 1",
              file=sys.stderr)
        return 2
    if args.command == "mesh-info":
        return cmd_mesh_info(args)

    try:
        cfg = load_config(args.config)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            return cmd_verify(args, cfg)
        return cmd_optimize(args, cfg)
    except ArithmeticError as exc:
        print(f"solver failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
