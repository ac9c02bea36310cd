"""Command-line front end: fitting, interface solves, sweeps, pencil export.

Exit codes: 0 success, 2 invalid input, 3 numerical failure (a fit or form that
missed its tolerance, a factorization breakdown, or a solver that did not converge).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .aaa import (
    DEFAULT_FLOOR_RATIO,
    FIT_SAMPLES,
    MAX_DEGREE,
    PoleExtractionError,
    fit_fractional_sum,
    partial_fraction_to_dict,
)
from .functions import FractionalSumFunction
from .krylov import CurvatureBreakdownError, IndefinitePreconditionerError
from .operator import FactorizationError
from .pencil import (
    DenseCapExceededError,
    assemble_interface,
    assemble_interval,
    assemble_unit_square,
    save_pencil,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# LinAlgError subclasses ValueError, so it must be caught before invalid input.
_NUMERICAL_ERRORS = (
    FactorizationError,
    CurvatureBreakdownError,
    IndefinitePreconditionerError,
    DenseCapExceededError,
    PoleExtractionError,
    np.linalg.LinAlgError,
)


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def cmd_fit(args):
    func = FractionalSumFunction(args.alpha, args.beta, args.s, args.t,
                                 args.interval_upper)
    pf = fit_fractional_sum(func, args.tol, args.max_degree, args.grid_points,
                            args.floor_ratio)
    audit = pf.pole_audit.as_dict()
    print(f"poles N={pf.degree}")
    print("audit " + " ".join(f"{k}={v}" for k, v in audit.items()))
    print(f"achieved_error={pf.fit_error:.3e}")
    print(f"pf_validation_error={pf.validation_error:.3e}")
    if args.out:
        Path(args.out).write_text(json.dumps(partial_fraction_to_dict(pf), indent=2))
        print(f"wrote {args.out}")
    if not pf.converged:
        print(f"error: fit did not reach tolerance {args.tol:g}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_solve_interface(args):
    _, report, pf, setup = experiments.solve_interface(
        assemble_interface(args.cells), args.mu, args.K, args.tol_ra,
        args.tol_krylov, args.method, args.seed)
    print(f"iterations={report.iterations}")
    print(f"converged={report.converged}")
    print(f"poles N={pf.degree} setup_seconds={setup:.4f}")
    print(f"achieved_error={pf.fit_error:.3e}")
    print(f"pf_validation_error={pf.validation_error:.3e}")
    if args.out:
        payload = report.to_dict()
        payload["poles"] = pf.degree
        payload["setup_seconds"] = setup
        payload["fit_error"] = float(pf.fit_error)
        payload["validation_error"] = float(pf.validation_error)
        Path(args.out).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.out}")
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def cmd_sweep(args):
    if args.sweep_kind == "poles":
        grids = {
            "exponents": list(args.exponents),
            "alphas": list(args.alphas),
            "betas": list(args.betas),
        }
        records = experiments.pole_sweep(args.tol, args.exponents, args.alphas,
                                         args.betas, args.max_degree)
        seed = None
    elif args.sweep_kind == "robustness":
        grids = {"mus": list(args.mus), "Ks": list(args.Ks),
                 "meshes": list(args.meshes)}
        records = experiments.robustness_sweep(args.mus, args.Ks, args.meshes,
                                               args.tol_ra, args.tol_krylov,
                                               args.seed)
        seed = args.seed
    else:
        grids = {"meshes": list(args.meshes), "tolerances": list(args.tols)}
        records = experiments.complexity_study(args.meshes, args.tols,
                                               args.mu, args.K,
                                               seed=args.seed)
        seed = args.seed

    out = args.out or f"{args.sweep_kind}_sweep.csv"
    experiments.write_sweep_csv(records, out)
    summary = experiments.summarize_records(records)
    print(f"wrote {out} ({summary['n_records']} rows, "
          f"{summary['n_failures']} failures)")
    for key in sorted(summary):
        if key not in ("n_records", "n_failures"):
            print(f"{key}={summary[key]}")
    if args.summary:
        experiments.write_sweep_summary(records, args.summary, grids, seed)
        print(f"wrote {args.summary}")
    unconverged = sum(1 for rec in records if rec.converged is False)
    if unconverged:
        print(f"error: {unconverged} points did not converge", file=sys.stderr)
    return EXIT_NUMERICAL if summary["n_failures"] or unconverged else EXIT_OK


def cmd_pencil(args):
    if args.kind == "dirichlet":
        pencil = assemble_interval(args.cells, periodic=False)
    elif args.kind == "periodic":
        pencil = assemble_interval(args.cells, periodic=True)
    elif args.kind == "interface":
        pencil = assemble_interface(args.cells)
    else:
        pencil = assemble_unit_square(args.cells)
    save_pencil(pencil, args.out_prefix)
    print(f"wrote {args.out_prefix}.A.mtx {args.out_prefix}.M.mtx "
          f"{args.out_prefix}.json (n_c={pencil.n_c}, rho_bound={pencil.rho_bound:.6e})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with a minus sign and a digit, such as
    the comma list -0.5,0.5 or the number -1e-3, as a value, not an option.
    Subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser():
    parser = _Parser(
        prog="fracra",
        description="Rational approximation preconditioners for weighted sums "
                    "of fractional powers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit 1/(alpha*x**s + beta*x**t)")
    p_fit.add_argument("--alpha", type=float, required=True)
    p_fit.add_argument("--beta", type=float, required=True)
    p_fit.add_argument("--s", type=float, required=True)
    p_fit.add_argument("--t", type=float, required=True)
    p_fit.add_argument("--tol", type=float, required=True)
    p_fit.add_argument("--max-degree", type=int, default=MAX_DEGREE)
    p_fit.add_argument("--grid-points", type=int, default=FIT_SAMPLES)
    p_fit.add_argument("--floor-ratio", type=float, default=DEFAULT_FLOOR_RATIO)
    p_fit.add_argument("--interval-upper", type=float, default=1.0)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_solve = sub.add_parser("solve-interface",
                             help="solve the closed-curve interface system")
    p_solve.add_argument("--mu", type=float, required=True)
    p_solve.add_argument("--K", type=float, required=True)
    p_solve.add_argument("--cells", type=int, required=True)
    p_solve.add_argument("--tol-ra", type=float, required=True)
    p_solve.add_argument("--tol-krylov", type=float, required=True)
    p_solve.add_argument("--method", choices=("minres", "pcg"), default="minres")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve_interface)

    p_sweep = sub.add_parser("sweep", help="run a full sweep and write CSV")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_kind", required=True)

    p_poles = sweep_sub.add_parser("poles")
    p_poles.add_argument("--tol", type=float, default=1e-12)
    p_poles.add_argument("--exponents", type=_floats,
                         default=experiments.EXPONENT_GRID)
    p_poles.add_argument("--alphas", type=_floats,
                         default=experiments.POLE_SWEEP_ALPHAS)
    p_poles.add_argument("--betas", type=_floats,
                         default=experiments.POLE_SWEEP_BETAS)
    p_poles.add_argument("--max-degree", type=int, default=MAX_DEGREE)
    p_poles.add_argument("--out", default=None)
    p_poles.add_argument("--summary", default=None)
    p_poles.set_defaults(func=cmd_sweep)

    p_rob = sweep_sub.add_parser("robustness")
    p_rob.add_argument("--tol-ra", type=float, default=1e-12)
    p_rob.add_argument("--tol-krylov", type=float, default=1e-10)
    p_rob.add_argument("--mus", type=_floats, default=experiments.ROBUSTNESS_MUS)
    p_rob.add_argument("--Ks", type=_floats, default=experiments.ROBUSTNESS_KS)
    p_rob.add_argument("--meshes", type=_ints,
                       default=experiments.ROBUSTNESS_MESHES)
    p_rob.add_argument("--seed", type=int, default=0)
    p_rob.add_argument("--out", default=None)
    p_rob.add_argument("--summary", default=None)
    p_rob.set_defaults(func=cmd_sweep)

    p_cx = sweep_sub.add_parser("complexity")
    p_cx.add_argument("--meshes", type=_ints,
                      default=experiments.COMPLEXITY_MESHES)
    p_cx.add_argument("--tols", type=_floats, default=(1e-12,))
    p_cx.add_argument("--mu", type=float, default=1e-2)
    p_cx.add_argument("--K", type=float, default=1e-6)
    p_cx.add_argument("--seed", type=int, default=0)
    p_cx.add_argument("--out", default=None)
    p_cx.add_argument("--summary", default=None)
    p_cx.set_defaults(func=cmd_sweep)

    p_pencil = sub.add_parser("pencil", help="assemble a pencil and export it")
    p_pencil.add_argument("--kind", choices=("dirichlet", "periodic",
                                             "interface", "square"),
                          required=True)
    p_pencil.add_argument("--cells", type=int, required=True)
    p_pencil.add_argument("--out-prefix", required=True)
    p_pencil.set_defaults(func=cmd_pencil)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
