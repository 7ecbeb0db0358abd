"""Command-line entry points.

``tsopt verify``     run the derivative checks and emit CSV reports
``tsopt optimize``   run the descent loop and emit history + snapshots
``tsopt mesh-info``  print node/element/boundary counts for a mesh level

Exit codes: 0 success, 2 invalid configuration, 3 solver failure,
1 criterion not met (verification tolerance or cost-reduction target).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, load_config
from .fem import ProblemParams
from .ldlt import SolverBreakdown
from .optimize import History, run as run_optimizer
from .problems import default_params, experiment_mesh, interpolate_target, setup_problem
from .verify import (analytic_field, run_verification, write_node_table_csv,
                     write_report_csv)

__all__ = ["main"]


def _problem_params(cfg: RunConfig) -> ProblemParams:
    return default_params(**cfg.problem)


def cmd_mesh_info(args) -> int:
    mesh = experiment_mesh(args.mesh_level)
    print(f"mesh level:      {args.mesh_level}")
    print(f"nodes:           {mesh.num_nodes}")
    print(f"elements:        {mesh.num_elements}")
    print(f"dirichlet nodes: {len(mesh.dirichlet_nodes)}")
    print(f"neumann edges:   {len(mesh.neumann_edges)}")
    return 0


def cmd_verify(args, cfg: RunConfig) -> int:
    level = args.mesh_level or cfg.verify["mesh_level"]
    mesh = experiment_mesh(level)
    params = setup_problem(mesh, uhat=cfg.verify["uhat"],
                           params=_problem_params(cfg))
    phi = interpolate_target(mesh)
    field = analytic_field(mesh, phi, params)

    methods = [args.method] if args.method else ["fd", "cs", "hd"]
    out = Path(args.output or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports = {}
    windows = cfg.slope_windows()
    for method in methods:
        steps = cfg.verify[f"{method}_steps"]
        rep = run_verification(mesh, phi, params, method, steps=steps,
                               field_=field, windows=windows)
        reports[method] = rep
        print(f"[{method}] slopes: "
              + ", ".join(f"{k}={v:.3f}" for k, v in rep.slopes.items())
              + f"; min e_S={rep.e_s.min():.3e}, min e_T={rep.e_t.min():.3e}")
        write_report_csv(out / f"verify_{method}.csv", [rep])
    write_node_table_csv(out / "verify_nodes.csv", field.dj, field.labels,
                         reports)

    if "hd" in reports:
        worst = reports["hd"].max_relative_error()
        tol = cfg.verify["hd_tolerance"]
        print(f"[hd] worst relative disagreement: {worst:.3e} "
              f"(tolerance {tol:.1e})")
        if worst > tol:
            print("hyper-dual agreement FAILED", file=sys.stderr)
            return 1
    return 0


def cmd_optimize(args, cfg: RunConfig) -> int:
    level = args.mesh_level or cfg.optimize["mesh_level"]
    mesh = experiment_mesh(level)
    params = setup_problem(mesh, uhat=cfg.optimize["uhat"],
                           params=_problem_params(cfg))
    out = Path(args.output or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    history = History()
    try:
        history, phi = run_optimizer(mesh, params, cfg.optimizer_config(),
                                     output_dir=str(out), history=history)
    except SolverBreakdown:
        history.write_csv(out / "history.csv")  # flush partial progress
        raise
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--output", help="output directory")

    parser = argparse.ArgumentParser(
        prog="tsopt",
        description="Level-set topology optimization with unified nodal "
                    "topological-shape sensitivities.",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run derivative verification")
    p_verify.add_argument("--method", choices=["fd", "cs", "hd"],
                          help="run a single scheme (default: all three)")
    p_verify.add_argument("--mesh-level", type=int, default=None)

    p_opt = sub.add_parser("optimize", parents=[common],
                           help="run the optimization loop")
    p_opt.add_argument("--mesh-level", type=int, default=None)

    p_info = sub.add_parser("mesh-info", parents=[common],
                            help="print mesh statistics")
    p_info.add_argument("mesh_level", type=int)

    args = parser.parse_args(argv)

    if args.command == "mesh-info":
        if args.mesh_level < 1:
            print("mesh level must be at least 1", file=sys.stderr)
            return 2
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
    except SolverBreakdown as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
