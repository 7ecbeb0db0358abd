#!/usr/bin/env python3
"""Benchmark of tsopt: the slerp optimizer and the FD/CS/HD derivative
verification, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload optimize-l16 --seed 0 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` traces every other round of work; it reports the per-layer
metrics and the tracing overhead, which is the traced mean operation time
over the untraced one.  ``--smoke`` shrinks every workload
(levels 2-4, two iterations, a handful of nodes) so that
``bench/test_bench.py`` can check the output quickly.

The benchmark drives the library API from one process with no thread pools.
Its unit of work, an *operation*, is one optimizer iteration on the optimize
workloads and one node verified by all three schemes (one FD, one CS and one
HD estimate) on ``verify-l8``.  Whole optimizer runs and whole passes over the
nodes are repeated until the time is spent, and at least twice, so that every
run can be checked against the first for exact repetition.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it,
``report {...}``, carries the rest: the environment, every named metric with
its unit and sample count, the checks that ran, and fingerprints of the
outputs and call counts that repeat exactly for the same seed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    kind: str                        # "optimize" or "verify"
    level: int                       # mesh subdivisions per side
    iterations: int = 0              # optimizer iterations per run
    reduction_target: float = 1e-4   # J_N / J_0 that ends the time to solution
    nodes: int = 0                   # nodes per verification pass, 0 = all
    reference: dict | None = None    # seed-0 outputs when this was written


# Layer shares below are self time over traced operation time, seed 0, on a
# 2-core machine with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
WORKLOADS = {
    # The paper's two-circle tracking problem at level 16 (545 nodes), from
    # the empty design, as in the acceptance long-run fixture but 40
    # iterations.  Why: assembly and cut integrals lead, with splu and smooth
    # close behind, while ldlt and hdarray are idle, so a change to the
    # derivative-verification path must show no change here.
    # Shares: assemble 25%, element_geometry 9%, negative_region_integrals 9%,
    # splu 25%, smooth 16% (+ classify_nodes 3%), ldlt 0%; per iteration
    # 12.6 line-search candidates and 13.6 assemble calls (the candidates
    # plus a re-evaluation of the accepted one).
    "optimize-l16": Workload(
        "optimize", 16, iterations=40,
        reference={"j_ratio": 3.8823622453507255e-06, "reached_at": 14}),
    # The same problem at level 64 (8,321 nodes, 16,384 elements), 12
    # iterations (the target is reached at iteration 10).  Not in
    # BENCHMARK.json: one optimizer run takes 12 to 17 s on 2 cores, so a
    # run of the benchmark holds two or three of them, and its timings
    # spread past the 25% bound between runs of the same code.  Why:
    # factorization leads, and mesh build and setup_problem are large enough
    # to show work moved into set-up; fill-reducing ordering, factor reuse
    # and per-mesh precomputation show here and barely on optimize-l16.
    # Shares: splu 52%, smooth 15%, assemble 14%, element_geometry 8%,
    # ldlt 0%; set-up 0.36 s, of which the mesh 0.27 s (build_incidence
    # 0.22 s) and setup_problem 0.09 s.
    "optimize-l64": Workload(
        "optimize", 64, iterations=12,
        reference={"j_ratio": 3.6382508934152496e-05, "reached_at": 10}),
    # Per-node FD, CS and HD estimates at level 8 (145 nodes) on the
    # verification configuration: uhat = 0 at the interpolated target
    # design.  Why: the only workload on the complex and hyper-dual scalar
    # paths (dense ldlt), and FD adds symmetric_difference_area; the generic
    # fem.assemble path runs here with other scalar types, so a real-only
    # speed-up that slows the generic path shows here.
    # Shares: ldlt_factor 48%, ldlt_solve 26%, assemble 11%,
    # negative_region_integrals 9%, symmetric_difference_area 2%, splu 1%;
    # HD takes 36 of the 45 ms per node, FD 3.9 ms of which 0.8 ms is
    # symmetric_difference_area.
    "verify-l8": Workload(
        "verify", 8,
        # worst relative error (interface S, interior T) at STEPS, seed 0
        reference={"fd": (1.170209077035883e-04, 3.6867297498913154e-04),
                   "cs": (4.964863662655083e-04, 4.827530126537994e-02)}),
}

# The same workloads shrunk for the smoke test.  Their reduction target is
# one the two iterations reach; they have no recorded reference outputs.
SMOKE = {
    "optimize-l16": Workload("optimize", 4, iterations=2,
                             reduction_target=0.5),
    "optimize-l64": Workload("optimize", 3, iterations=2,
                             reduction_target=0.5),
    "verify-l8": Workload("verify", 2, nodes=5),
}

# Seeds other than 0 scale every nodal value of the verification design, and
# of the optimizer's constant start, by 1 + f with a smooth seeded |f| <= 1e-4.
# Signs are kept, so node classes and the mix of operations stay the same,
# while every input differs in its digits.  At 1e-3 some seeds reach the
# optimize-l64 target one iteration later, which moves tts_s by about 12%.
FIELD_AMPLITUDE = 1e-4

# One step per scheme: FD and CS near their smallest error on this design, HD
# at 1 as in acceptance criterion 1.
STEPS = {"fd": 1e-5, "cs": 1e-4, "hd": 1.0}
HD_TOLERANCE = 1e-10   # acceptance criterion 1, unchanged
# FD and CS may exceed the worst relative error recorded at seed 0, per node
# class (interface S, interior T), by this factor.
ERROR_MARGIN = 4.0
# Recorded J ratios must repeat to this relative tolerance.
J_RATIO_RTOL = 1e-6

# Set-ups before each unit of work (optimizer run or verification pass).
SETUP_MIN_REPS = 5
SETUP_SECONDS = 0.25
SETUP_MAX_REPS = 20
MIN_UNITS = 2          # optimizer runs or verification passes per phase

# Traced functions, per module.  Spans of the set-up functions are
# normalized per set-up, all others per operation.
TRACED = {
    "mesh": ("generate_crossed_mesh", "build_incidence", "tag_boundary"),
    "problems": ("experiment_mesh", "setup_problem"),
    "levelset": ("classify_nodes", "negative_region_integrals",
                 "symmetric_difference_area"),
    "fem": ("element_geometry", "assemble", "solve_state", "solve_adjoint",
            "objective"),
    "ldlt": ("ldlt_factor", "ldlt_solve"),
    "sensitivity": ("ts_derivative",),
    "optimize": ("run", "unit_mass_matrix", "slerp_update", "smooth"),
    "verify": ("analytic_field", "fd_quotient", "cs_derivative",
               "hd_derivative"),
}
SPLU_SPAN = "fem.splu"
SETUP_SPANS = {f"mesh.{f}" for f in TRACED["mesh"]} \
    | {f"problems.{f}" for f in TRACED["problems"]} | {"verify.analytic_field"}
SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] \
    + [SPLU_SPAN]

END_TO_END = {"setup_s": "s", "op_ms_mean": "ms", "op_ms_p90": "ms",
              "tts_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        per = "setup" if name in SETUP_SPANS else "op"
        units[f"{name}.calls"] = f"calls/{per}"
        units[f"{name}.ms"] = f"ms/{per}"
        units[f"{name}.self_ms"] = f"ms/{per}"
    units["optimize.accept_ratio"] = "ratio"
    units["fem.assemble.per_iter"] = "calls/iter"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = per_layer_units()


# --------------------------------------------------------------- program

def load_program():
    """Import the tsopt modules from this checkout's ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    names = ("mesh", "problems", "levelset", "fem", "ldlt", "sensitivity",
             "optimize", "verify")
    # ``tsopt.optimize`` is shadowed on the package by the ``optimize``
    # function, so modules are reached through importlib.
    program = SimpleNamespace(**{n: importlib.import_module(f"tsopt.{n}")
                                 for n in names})
    if not Path(program.fem.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError("tsopt was not imported from this checkout")
    return program


def make_tracer() -> Tracer:
    targets = [(f"{mod}.{fn}", f"tsopt.{mod}", fn)
               for mod, fns in TRACED.items() for fn in fns]
    targets.append((SPLU_SPAN, "scipy.sparse.linalg", "splu"))
    return Tracer(targets)


# ---------------------------------------------------------------- inputs

def seeded_field(mesh, seed: int) -> np.ndarray:
    """Smooth relative perturbation with |f| <= FIELD_AMPLITUDE; zero for
    seed 0, which keeps the paper's exact inputs."""
    f = np.zeros(mesh.num_nodes)
    if seed == 0:
        return f
    rng = np.random.default_rng(seed)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    for _ in range(3):
        kx, ky = rng.integers(1, 4, size=2)
        px, py = rng.uniform(0.0, 2.0 * np.pi, size=2)
        f += rng.uniform(-1.0, 1.0) * np.sin(np.pi * kx * x + px) \
            * np.sin(np.pi * ky * y + py)
    return FIELD_AMPLITUDE / 3.0 * f


def set_up(P, w: Workload, seed: int) -> SimpleNamespace:
    """Mesh, problem and initial field; what ``setup_s`` times."""
    mesh = P.problems.experiment_mesh(w.level)
    if w.kind == "optimize":
        params = P.problems.setup_problem(mesh, uhat="target")
        start = None if seed == 0 else 1.0 + seeded_field(mesh, seed)
        return SimpleNamespace(mesh=mesh, params=params, start=start)
    params = P.problems.setup_problem(mesh, uhat="zero")
    phi = P.problems.interpolate_target(mesh) * (1.0 + seeded_field(mesh, seed))
    analytic = P.verify.analytic_field(mesh, phi, params)
    system = P.fem.assemble(mesh, phi, params)
    u = P.fem.solve_state(system)
    j0 = float(P.fem.objective(mesh, phi, u, params, system=system))
    return SimpleNamespace(mesh=mesh, params=params, phi=phi,
                           analytic=analytic, j0=j0)


def timed_set_ups(P, w, seed, smoke, tracer, times):
    """Set up at least SETUP_MIN_REPS times and for SETUP_SECONDS, appending
    each duration to ``times``; returns the last case."""
    if tracer is not None:
        tracer.phase = "setup"
    began = perf_counter()
    reps = 0
    while reps < (1 if smoke else SETUP_MIN_REPS) or (
            not smoke and perf_counter() - began < SETUP_SECONDS
            and reps < SETUP_MAX_REPS):
        t = perf_counter()
        case = set_up(P, w, seed)
        times.append(perf_counter() - t)
        reps += 1
    if tracer is not None:
        tracer.phase = "op"
    return case


# ---------------------------------------------------------------- checks

@dataclass
class Checks:
    """Pass and total counts per named check, plus failed operations."""

    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    def record(self, name: str, ok: bool) -> bool:
        passed, total = self.counts.get(name, (0, 0))
        self.counts[name] = (passed + bool(ok), total + 1)
        return bool(ok)

    def all_passed(self) -> bool:
        return all(p == t for p, t in self.counts.values())


def relative_error(estimate, exact) -> float:
    return abs(estimate - exact) / max(1.0, abs(exact))


# --------------------------------------------------------------- optimize

@dataclass
class OptimizerRun:
    start: float
    stamps: list          # time of each history row (row 0: initial design)
    j: list
    stalled: list
    calls: dict | None
    error: bool


def optimize_run(P, w, case, tracer) -> OptimizerRun:
    config = P.optimize.OptimizerConfig(max_iter=w.iterations,
                                        snapshot_cadence=0)
    history = P.optimize.History()
    stamps = []
    append = history.append

    def stamped(*args, **kwargs):
        append(*args, **kwargs)
        stamps.append(perf_counter())

    history.append = stamped
    first_span = len(tracer.spans) if tracer else 0
    start = perf_counter()
    error = False
    try:
        P.optimize.run(case.mesh, case.params, config, phi0=case.start,
                       history=history)
    except Exception:  # the benchmark goes on and counts the failure
        traceback.print_exc()
        error = True
    return OptimizerRun(start, stamps, list(history.j),
                        list(history.stalled),
                        tracer.call_counts(first_span) if tracer else None,
                        error)


def first_calls(units):
    return next((u.calls for u in units if u.calls is not None), None)


def check_optimize(w, seed, smoke, runs, checks):
    """Count operations and failures of the runs; every run must repeat the
    first exactly, and every traced run the first traced run's calls."""
    reference = None if smoke or seed != 0 else w.reference
    first, calls = runs[0], first_calls(runs)
    for run in runs:
        failed = set()
        done = len(run.j) - 1
        if not checks.record("completed", not run.error and done == w.iterations):
            failed.update(range(max(done, 0) + 1, w.iterations + 1))
        for i in range(1, len(run.j)):
            if not checks.record("j_non_increasing", run.j[i] <= run.j[i - 1]):
                failed.add(i)
        if not checks.record("j_repeats", run.j == first.j):
            failed.update(i for i in range(1, len(run.j))
                          if i >= len(first.j) or run.j[i] != first.j[i])
        reached = reached_at(run, w)
        if not checks.record("target_reached", reached is not None):
            failed.add(w.iterations)
        if run.calls is not None and not checks.record(
                "calls_repeat", run.calls == calls):
            failed.add(w.iterations)
        if reference is not None and run.j:
            ratio = run.j[-1] / run.j[0]
            ok = (abs(ratio / reference["j_ratio"] - 1.0) <= J_RATIO_RTOL
                  and reached == reference["reached_at"])
            if not checks.record("j_matches_reference", ok):
                failed.add(w.iterations)
        checks.attempted += w.iterations
        checks.failed += len(failed)


def reached_at(run: OptimizerRun, w: Workload):
    for i, j in enumerate(run.j):
        if j <= w.reduction_target * run.j[0]:
            return i
    return None


def optimize_metrics(w, runs):
    """Iteration times pooled over the runs, and the time to solution as the
    mean over the runs: the machine switches speed for seconds at a time,
    and a mean of a few runs moves less with that than their median."""
    good = [run for run in runs if not run.error]
    if not good:
        raise RuntimeError("every optimizer run failed")
    tts = []
    for run in good:
        reached = reached_at(run, w)
        tts.append(run.stamps[-1 if reached is None else reached] - run.start)
    iter_ms = [1e3 * (b - a) for run in good
               for a, b in zip(run.stamps, run.stamps[1:])]
    first = runs[0]
    ratio = first.j[-1] / first.j[0] if first.j else float("nan")
    metrics = {"tts_s": metric(statistics.fmean(tts), "s", len(tts)),
               "j_ratio": metric(ratio, "1", 1)}
    metrics.update(percentiles("iter_ms", iter_ms, "ms"))
    metrics.update(percentiles("op_ms", iter_ms, "ms"))
    return metrics


# ----------------------------------------------------------------- verify

@dataclass
class VerificationPass:
    seconds: float
    rows: list            # (node, {scheme: estimate}, {scheme: seconds})
    errors: int
    calls: dict | None


def verify_node(P, case, k):
    label = int(case.analytic.labels[k])
    dkat = case.analytic.dkatilde[k]
    m, phi, params = case.mesh, case.phi, case.params
    t0 = perf_counter()
    fd = P.verify.fd_quotient(m, phi, params, k, STEPS["fd"], label, case.j0)
    t1 = perf_counter()
    cs = P.verify.cs_derivative(m, phi, params, k, STEPS["cs"], label, dkat,
                                case.j0)
    t2 = perf_counter()
    hd = P.verify.hd_derivative(m, phi, params, k, STEPS["hd"], label, dkat)
    t3 = perf_counter()
    return (k, {"fd": float(fd), "cs": float(cs), "hd": float(hd)},
            {"fd": t1 - t0, "cs": t2 - t1, "hd": t3 - t2})


def verify_pass(P, w, case, tracer) -> VerificationPass:
    first_span = len(tracer.spans) if tracer else 0
    start = perf_counter()
    rows, errors = [], 0
    for k in range(w.nodes or case.mesh.num_nodes):
        try:
            rows.append(verify_node(P, case, k))
        except Exception:  # the benchmark goes on and counts the failure
            traceback.print_exc()
            errors += 1
    return VerificationPass(perf_counter() - start, rows, errors,
                            tracer.call_counts(first_span) if tracer else None)


def check_verify(w, smoke, case, passes, checks):
    """Count operations and failures of the passes; every pass must repeat
    the first's estimates exactly, and every traced pass the first traced
    pass's calls."""
    reference = None if smoke else w.reference
    first, calls = passes[0], first_calls(passes)
    exact = case.analytic.dj
    interface = case.analytic.labels == 0
    first_estimates = {k: est for k, est, _ in first.rows}
    for vpass in passes:
        checks.attempted += len(vpass.rows) + vpass.errors
        checks.failed += vpass.errors
        checks.record("pass_completed", vpass.errors == 0)
        if vpass.calls is not None:
            checks.record("calls_repeat", vpass.calls == calls)
        for k, est, _ in vpass.rows:
            ok = checks.record("hd_agreement", relative_error(
                est["hd"], exact[k]) <= HD_TOLERANCE)
            if reference is not None:
                cls = 0 if interface[k] else 1
                for scheme in ("fd", "cs"):
                    bound = ERROR_MARGIN * reference[scheme][cls]
                    ok &= checks.record(f"{scheme}_within_bound", relative_error(
                        est[scheme], exact[k]) <= bound)
            ok &= checks.record("estimates_repeat",
                                est == first_estimates.get(k))
            checks.failed += not ok


def verify_metrics(passes):
    """Per-scheme and per-node times pooled over the passes, and the time to
    verify every node once as the mean over the passes (see
    optimize_metrics)."""
    rows = [row for vpass in passes for row in vpass.rows]
    metrics = {}
    for scheme in ("fd", "cs", "hd"):
        metrics.update(percentiles(f"{scheme}_ms",
                                   [1e3 * t[scheme] for _, _, t in rows], "ms"))
    metrics.update(percentiles("op_ms", [1e3 * sum(t.values())
                                         for _, _, t in rows], "ms"))
    tts = statistics.fmean(p.seconds for p in passes)
    metrics["tts_s"] = metric(tts, "s", len(passes))
    return metrics


# ---------------------------------------------------------------- metrics

def metric(value, unit, samples):
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def percentiles(prefix, values, unit):
    """Mean, median and 90th percentile of ``values``.

    Operations differ in size (an optimizer iteration costs from 5 to over
    a dozen line-search candidates), so the median falls in a gap between
    two sizes and jumps with noise on the two operations beside it; the
    mean uses every operation and is the steadier figure across runs."""
    if not values:
        return {}
    n = len(values)
    return {f"{prefix}_mean": metric(statistics.fmean(values), unit, n),
            f"{prefix}_p50": metric(np.percentile(values, 50), unit, n),
            f"{prefix}_p90": metric(np.percentile(values, 90), unit, n)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(P, w, seed, seconds, smoke, checks, tracer=None) -> dict:
    """Rounds of set-ups followed by one unit (a whole optimizer run or a
    whole pass over the nodes) until ``seconds`` are spent; a round is not
    started if the last one would overrun.  Interleaving spreads the set-up
    samples over the whole measurement.

    With a tracer, every other round is traced, so that traced and untraced
    rounds see the same mix of machine states and their difference is the
    tracing overhead.  Each kind of round runs at least MIN_UNITS times.

    Returns ``{traced: side}`` where a side holds its set-up times, units,
    operations and named end-to-end metrics."""
    kinds = (False, True) if tracer else (False,)
    sides = {t: SimpleNamespace(setup_times=[], units=[]) for t in kinds}
    run_unit = optimize_run if w.kind == "optimize" else verify_pass
    began = perf_counter()
    last = 0.0
    rounds = 0
    while min(len(side.units) for side in sides.values()) < MIN_UNITS or (
            not smoke and perf_counter() - began + last <= seconds):
        traced = kinds[rounds % len(kinds)]
        side = sides[traced]
        round_tracer = tracer if traced else None
        round_start = perf_counter()
        if traced:
            tracer.install()
        try:
            case = timed_set_ups(P, w, seed, smoke, round_tracer,
                                 side.setup_times)
            side.units.append(run_unit(P, w, case, round_tracer))
        finally:
            if traced:
                tracer.remove()
        last = perf_counter() - round_start
        rounds += 1

    units = [unit for side in sides.values() for unit in side.units]
    if w.kind == "optimize":
        check_optimize(w, seed, smoke, units, checks)
    else:
        check_verify(w, smoke, case, units, checks)
    for side in sides.values():
        if w.kind == "optimize":
            side.metrics = optimize_metrics(w, side.units)
            side.ops = sum(len(run.j) - 1 for run in side.units)
        else:
            side.metrics = verify_metrics(side.units)
            side.ops = sum(len(p.rows) for p in side.units)
        side.metrics["setup_s"] = metric(statistics.median(side.setup_times),
                                         "s", len(side.setup_times))
    return sides


def layer_metrics(tracer, n_setups, n_ops, units, kind) -> dict:
    """Per-layer metrics of the traced phase, normalized per set-up or per
    operation."""
    out = {}
    phases = {"setup": tracer.summary("setup"), "op": tracer.summary("op")}
    for name in SPAN_NAMES:
        setup = name in SETUP_SPANS
        stats = phases["setup" if setup else "op"].get(name)
        denom = max(n_setups if setup else n_ops, 1)
        calls, ms, self_ms = (0, 0.0, 0.0) if stats is None else (
            stats.calls, 1e3 * stats.seconds, 1e3 * stats.self_seconds)
        out[f"{name}.calls"] = calls / denom
        out[f"{name}.ms"] = ms / denom
        out[f"{name}.self_ms"] = self_ms / denom
    op_stats = phases["op"]
    candidates = op_stats["optimize.slerp_update"].calls \
        if "optimize.slerp_update" in op_stats else 0
    iterations = n_ops if kind == "optimize" else 0
    accepted = sum(run.stalled.count(False) - 1 for run in units) \
        if kind == "optimize" else 0
    out["optimize.accept_ratio"] = accepted / candidates if candidates else 0.0
    assembles = op_stats["fem.assemble"].calls if "fem.assemble" in op_stats else 0
    out["fem.assemble.per_iter"] = assembles / iterations if iterations else 0.0
    return out


def layer_shares(tracer) -> dict:
    """Self time of each span name as a percentage of the traced
    operation time, largest first."""
    stats = tracer.summary("op")
    total = sum(s.seconds for name, s in stats.items()
                if name in ("optimize.run", "verify.fd_quotient",
                            "verify.cs_derivative", "verify.hd_derivative"))
    shares = {name: round(100.0 * s.self_seconds / total, 1)
              for name, s in stats.items()} if total else {}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


# ------------------------------------------------------------ environment

def environment() -> dict:
    import scipy
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(sides, kind) -> dict:
    """Hashes of the first unit's outputs and of the first traced unit's
    call counts; both repeat exactly across runs of the same seed."""
    first = sides[False].units[0]
    outputs = first.j if kind == "optimize" else \
        [(k, est["fd"], est["cs"], est["hd"]) for k, est, _ in first.rows]
    out = {"outputs": hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]}
    if True in sides:
        calls = sorted(sides[True].units[0].calls.items())
        out["calls"] = hashlib.sha256(repr(calls).encode()).hexdigest()[:16]
    return out


# ------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workloads, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tsopt" / "__init__.py").is_file():
        print("bench: no program source (src/tsopt) in this checkout",
              file=sys.stderr)
        return 2
    P = load_program()
    w = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    checks = Checks()
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment()}

    tracer = make_tracer() if args.trace else None
    sides = measure(P, w, args.seed, args.seconds, args.smoke, checks, tracer)
    metrics = sides[False].metrics
    metrics["peak_rss_mb"] = metric(peak_rss_mb(), "MB", 1)
    report["fingerprint"] = fingerprint(sides, w.kind)
    if tracer is not None:
        traced = sides[True]
        result = layer_metrics(tracer, len(traced.setup_times), traced.ops,
                               traced.units, w.kind)
        result["trace.overhead_pct"] = 100.0 * (
            traced.metrics["op_ms_mean"]["value"]
            / metrics["op_ms_mean"]["value"] - 1.0)
        report["traced_metrics"] = traced.metrics
        report["layer_shares_pct"] = layer_shares(tracer)
        units_of = PER_LAYER
    else:
        result = {name: metrics[name]["value"] for name in END_TO_END}
        units_of = END_TO_END
    report["metrics"] = metrics
    report["checks"] = {name: {"passed": p, "total": t}
                        for name, (p, t) in checks.counts.items()}
    report["ops"] = checks.attempted
    report["ops_failed"] = checks.failed

    correct = checks.failed == 0 and checks.all_passed()
    differ = [name for name in ("j_repeats", "estimates_repeat", "calls_repeat")
              if name in checks.counts
              and checks.counts[name][0] < checks.counts[name][1]]
    if differ:
        print(f"bench: FLAG {', '.join(differ)}: runs of one seed differ, so "
              "the workload changed, not the machine", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:>12} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    if tracer is not None:
        print(f"tracing overhead {result['trace.overhead_pct']:.1f}% "
              "on op_ms_mean")
    print(f"ops {checks.attempted} ops_failed {checks.failed} "
          f"correct {str(correct).lower()}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": result[name], "unit": unit}
                    for name, unit in units_of.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
