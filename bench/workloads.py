"""The three benchmark workloads: seeded inputs, timed passes and checks.

A pass is one unit of work with its own inputs, drawn from (seed, pass index):
the whole atlas, the whole robustness grid, or one (mu, K) pair of the large
interface problem with its right-hand sides.  A round is the passes of one
run's inputs: one for atlas and robustness, ``LARGE_PAIRS`` for the large
interface.  Inputs are made before a pass
and its checks run after it, so the pass wall time covers program work only.
Every operation of a pass ends with a list of failure kinds (empty when it
succeeded) and a flag for missing its fit tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

import fracra.aaa as aaa
import fracra.experiments as experiments
import fracra.krylov as krylov
import fracra.operator as operator
import fracra.pencil as pencil

from oracle import PeriodicInterfaceSystem

TOLERANCE = 1e-12
KRYLOV_TOL = 1e-10
# A MinRes run this long at n=131072 is already a failure; the cap bounds the
# run time of a broken preconditioner (one apply takes ~0.13 s there).
LARGE_MAX_ITER = 50
# A solve reported as converged whose true relative residual, measured with
# the FFT realization of S, exceeds this returned a wrong result.
RESIDUAL_LIMIT = 1e-6
LARGE_CELLS = 131072
RHS_PER_PAIR = 3
# (mu, K) pairs in one round of interface_large, about 20 s of work.
LARGE_PAIRS = 3
# The paper's parameter ranges: the extremes of fracra's own sweep grids.
ALPHA_RANGE = (min(experiments.POLE_SWEEP_ALPHAS), max(experiments.POLE_SWEEP_ALPHAS))
BETA_RANGE = (min(experiments.POLE_SWEEP_BETAS), max(experiments.POLE_SWEEP_BETAS))
MU_RANGE = (min(experiments.ROBUSTNESS_MUS), max(experiments.ROBUSTNESS_MUS))
K_RANGE = (min(experiments.ROBUSTNESS_KS), max(experiments.ROBUSTNESS_KS))


@dataclass
class PassResult:
    wall: float
    setup: list
    solve: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # per operation: [kind, ...]
    tol_miss: list = field(default_factory=list)  # per operation: bool
    outputs: list = field(default_factory=list)  # compared traced vs untraced
    consistent: bool = True  # every operation was matched to its output
    rel_err: float = 0.0  # max ||P g - S^-1 g|| / ||S^-1 g||, traced only
    telemetry: dict = None  # RationalOperator.telemetry, traced only


def log_uniform(rng, bounds, size):
    """One log-uniform draw from each of ``size`` equal slices of the log range.

    Stratifying keeps every pass's mix of easy and hard parameters alike, so
    the seed moves the inputs without moving the timings much.
    """
    lo, hi = np.log10(bounds[0]), np.log10(bounds[1])
    u = (np.arange(size) + rng.uniform(size=size)) / size
    return tuple(float(v) for v in 10.0 ** (lo + u * (hi - lo)))


def positive_poles(pf):
    """Poles with positive real part, counted on the applied form itself."""
    return int(np.count_nonzero(pf.poles.real > 0))


def form_failures(pf):
    """Failure kinds of a fitted form that a preconditioner is built from."""
    kinds = []
    values = np.concatenate([pf.poles, pf.residues, [pf.c0]])
    if not np.all(np.isfinite(values)) or not np.isfinite(pf.validation_error):
        kinds.append("wrong_result")
    if positive_poles(pf):
        kinds.append("positive_pole")
    return kinds


def misses_tolerance(pf):
    return max(pf.fit_error, pf.validation_error) > pf.tolerance


def raised(exc):
    return f"raised:{type(exc).__name__}"


def sweep_failure(record):
    """The failure kind of a sweep record, whose failure reads "Type: message"."""
    return f"raised:{record.failure.split(':')[0]}"


def pf_output(pf):
    return (pf.c0, pf.poles.copy(), pf.residues.copy())


def same_outputs(a, b):
    """Exact equality of two passes' outputs: forms and iteration counts."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, tuple):
            if x[0] != y[0] or not all(map(np.array_equal, x[1:], y[1:])):
                return False
        elif x != y:
            return False
    return True


# --- atlas -----------------------------------------------------------------

def atlas_inputs(seed, index):
    """16 weight pairs (4 alphas x 4 betas) for the 11 x 11 exponent grid.

    Seed 0 starts with the paper's own weight grid.
    """
    if seed == 0 and index == 0:
        alphas, betas = experiments.POLE_SWEEP_ALPHAS, experiments.POLE_SWEEP_BETAS
    else:
        rng = np.random.default_rng([seed, 0, index])
        alphas = log_uniform(rng, ALPHA_RANGE, 4)
        betas = log_uniform(rng, BETA_RANGE, 4)
    return {"exponents": experiments.EXPONENT_GRID, "alphas": alphas, "betas": betas}


def atlas_pass(inputs, rec):
    fits = []
    fit = "aaa.fit_fractional_sum"  # one instance per fit
    with rec.active([(fit, lambda _i, _a, pf: fits.append(pf))], markers=[fit]):
        tic = time.perf_counter()
        records = experiments.pole_sweep(
            TOLERANCE, exponents=inputs["exponents"], alphas=inputs["alphas"],
            betas=inputs["betas"])
        wall = time.perf_counter() - tic

    result = PassResult(wall, [r.setup_seconds for r in records if not r.failure])
    expected = len(inputs["exponents"]) ** 2 * len(inputs["alphas"]) * len(inputs["betas"])
    result.consistent = len(records) == expected and len(fits) == len(result.setup)
    for r in records:
        if r.failure:
            result.failures.append([sweep_failure(r)])
            result.tol_miss.append(True)
    for pf in fits:
        # Pole placement is what the atlas measures, so only a broken form fails.
        kinds = [k for k in form_failures(pf) if k != "positive_pole"]
        result.failures.append(kinds)
        result.tol_miss.append(bool(kinds) or misses_tolerance(pf))
        result.outputs.append(pf_output(pf))
    return result


# --- robustness --------------------------------------------------------------

def robustness_inputs(seed, index):
    """5 mu x 4 K values and a right-hand-side seed; seed 0 starts with the paper's grid."""
    if seed == 0 and index == 0:
        mus, ks, rhs_seed = experiments.ROBUSTNESS_MUS, experiments.ROBUSTNESS_KS, 0
    else:
        rng = np.random.default_rng([seed, 1, index])
        mus = log_uniform(rng, MU_RANGE, 5)
        ks = log_uniform(rng, K_RANGE, 4)
        rhs_seed = int(rng.integers(2**31))
    return {"mus": mus, "ks": ks, "meshes": experiments.ROBUSTNESS_MESHES,
            "rhs_seed": rhs_seed}


def robustness_pass(inputs, rec):
    # One grid point per dense system build; the point's fit and solves follow it.
    points = {}

    def point(instance, args, _system):
        pencil_, mu, K = args[:3]
        points[instance] = {"key": (mu, K, pencil_.n_c), "pf": None, "solves": []}

    def fitted(instance, _args, pf):
        points[instance]["pf"] = pf

    def solved(instance, args, result):
        x, report = result
        points[instance]["solves"].append((args[2], x, report))

    marker = "experiments.build_interface_system_dense"
    hooks = [(marker, point), ("aaa.fit_for_pencil", fitted),
             ("krylov.minres", solved), ("krylov.pcg", solved)]
    with rec.active(hooks, markers=[marker]):
        tic = time.perf_counter()
        records = experiments.robustness_sweep(
            inputs["mus"], inputs["ks"], inputs["meshes"], TOLERANCE, KRYLOV_TOL,
            seed=inputs["rhs_seed"], audit_trials=1)
        wall = time.perf_counter() - tic

    by_key = {p["key"]: p for p in points.values()}
    result = PassResult(wall, [r.setup_seconds for r in records if not r.failure])
    result.consistent = len(by_key) == len(records)
    for r in records:
        p = by_key.get((r.mu, r.K, r.n_c))
        kinds = []
        if r.failure:
            kinds.append(sweep_failure(r))
        elif not r.converged:
            kinds.append("not_converged")
        if p is None:
            kinds.append("unmatched")
        else:
            if p["pf"] is not None:
                kinds += form_failures(p["pf"])
                result.outputs.append(pf_output(p["pf"]))
            system = PeriodicInterfaceSystem(r.n_c, r.mu, r.K)
            for g, x, report in p["solves"]:
                result.outputs.append(report.iterations)
                if report.converged and system.relative_residual(x, g) > RESIDUAL_LIMIT:
                    kinds.append("wrong_result")
        result.failures.append(sorted(set(kinds)))
        result.tol_miss.append(bool(r.failure) or p is None or p["pf"] is None
                               or misses_tolerance(p["pf"]))
    return result


# --- interface_large -----------------------------------------------------------

def interface_inputs(seed, index, n_cells=LARGE_CELLS):
    """One (mu, K) pair, log-uniform over the robustness ranges, and its right-hand sides.

    Pairs follow a scrambled Halton sequence, so the few pairs of one run
    already spread over the parameter square.
    """
    u = qmc.Halton(d=2, scramble=True, seed=seed).random(index + 1)[index]
    lo = np.log10([MU_RANGE[0], K_RANGE[0]])
    hi = np.log10([MU_RANGE[1], K_RANGE[1]])
    mu, K = (float(v) for v in 10.0 ** (lo + u * (hi - lo)))
    rng = np.random.default_rng([seed, 2, index])
    rhs_pencil = pencil.assemble_interface(n_cells)
    rhs = [experiments.interface_rhs(rhs_pencil, int(s))
           for s in rng.integers(2**31, size=RHS_PER_PAIR)]
    return {"n_cells": n_cells, "mu": mu, "K": K, "rhs": rhs,
            "system": PeriodicInterfaceSystem(n_cells, mu, K)}


def interface_pass(inputs, rec):
    mu, K, system = inputs["mu"], inputs["K"], inputs["system"]
    solutions = []
    setup_failure = None
    op = pf = None
    rec.instance += 1
    with rec.active():
        tic = time.perf_counter()
        try:
            pencil_ = pencil.assemble_interface(inputs["n_cells"])
            pf = aaa.fit_for_pencil(1.0 / mu, K / mu, -0.5, 0.5, pencil_, TOLERANCE)
            op = operator.RationalOperator(pf, pencil_)
        except Exception as exc:  # a failed setup fails all of its solves
            setup_failure = raised(exc)
        setup = time.perf_counter() - tic
        solve = []
        if op is not None:
            for g in inputs["rhs"]:
                t_solve = time.perf_counter()
                try:
                    x, report = krylov.minres(system, op, g, tol=KRYLOV_TOL,
                                              max_iter=LARGE_MAX_ITER, stop="abs")
                    solutions.append((x, report))
                except Exception as exc:
                    solutions.append(raised(exc))
                solve.append(time.perf_counter() - t_solve)
        wall = time.perf_counter() - tic

    result = PassResult(wall, [setup], solve)
    setup_kinds = [setup_failure] if setup_failure else form_failures(pf)
    missed = setup_failure is not None or misses_tolerance(pf)
    if pf is not None:
        result.outputs.append(pf_output(pf))
    for k, g in enumerate(inputs["rhs"]):
        kinds = list(setup_kinds)
        if k >= len(solutions):
            pass  # the setup raised, so the solve never ran
        elif isinstance(solutions[k], str):
            kinds.append(solutions[k])
        else:
            x, report = solutions[k]
            result.outputs.append(report.iterations)
            if not report.converged:
                kinds.append("not_converged")
            elif system.relative_residual(x, g) > RESIDUAL_LIMIT:
                kinds.append("wrong_result")
        result.failures.append(kinds)
        result.tol_miss.append(missed)
    # The traced run also checks the operator itself against S^-1.
    if rec.record_spans and op is not None:
        result.telemetry = op.telemetry
        result.rel_err = max(
            float(np.linalg.norm(op.apply(g) - system.solve(g))
                  / np.linalg.norm(system.solve(g)))
            for g in inputs["rhs"])
    # Free the factors before the next pair is built.
    del op
    return result


# name: (inputs from (seed, pass index), pass, passes in one round)
WORKLOADS = {
    "atlas": (atlas_inputs, atlas_pass, 1),
    "robustness": (robustness_inputs, robustness_pass, 1),
    "interface_large": (interface_inputs, interface_pass, LARGE_PAIRS),
}


def warm_up(rec):
    """One tiny pass of each workload, so lazy imports and first-call costs
    are paid before anything is timed."""
    atlas_pass({"exponents": (-0.5, 0.5), "alphas": (1.0,), "betas": (1e-2,)}, rec)
    robustness_pass({"mus": (1.0,), "ks": (1e-2,), "meshes": (16,), "rhs_seed": 0}, rec)
    interface_pass(interface_inputs(0, 0, n_cells=256), rec)
