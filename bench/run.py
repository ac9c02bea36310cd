"""Layered benchmark of fracra: one workload per run, seeded, checked.

    python3 bench/run.py --workload atlas --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Workloads (see workloads.py): ``atlas`` (pole_sweep at tol 1e-12 over the
11 x 11 exponent grid with 16 weight pairs), ``robustness`` (robustness_sweep
over 5 mu x 4 K x meshes 64..512) and ``interface_large`` (the closed-curve
interface at 131072 cells, one preconditioner per (mu, K) pair and three
MinRes solves against the exact FFT realization of S).

A run draws one round of pass inputs from the seed (the atlas, the
robustness grid, or a few (mu, K) pairs of the large interface) and repeats
that round while another whole round fits in the time budget (at least one
round).  Operations are counted and checked once, on the first round, so the
work a run reports depends on the seed alone; every later round must return
exactly the outputs of the first.  With ``--trace 0`` it measures with tracing
off and reports the end-to-end metrics; with ``--trace 1`` it runs every pass
untraced and then traced on the same inputs, checks that both return the same
poles, residues and iteration counts, reports the per-layer metrics and writes
the spans to ``bench/out/trace-<workload>-seed<seed>.json``.
BLAS and OpenMP threads are pinned to 1.  Each metric is printed on its own
line with unit and sample count; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("atlas", "robustness", "interface_large")
# The end-to-end metrics of the result line, printed for every workload.
GATED = ("wall_s", "setup_s", "peak_rss_mb")


def import_program():
    """Import fracra from this checkout's src/, or exit non-zero without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fracra
    except ImportError as exc:
        sys.exit(f"bench: cannot import fracra from {ROOT / 'src'}: {exc}")
    if Path(fracra.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"bench: fracra was imported from {fracra.__file__}, not from src/")


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy
    counts = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    counts[pkg.__name__] = getter()
                    break
    return counts


def environment():
    import numpy
    import scipy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def run_rounds(name, seed, budget, run_pass):
    """The seed's round of passes, repeated while another round fits in the budget."""
    from spans import Recorder
    from workloads import WORKLOADS, warm_up
    make_inputs, _, round_size = WORKLOADS[name]
    warm_up(Recorder(spans=False))
    inputs = [make_inputs(seed, index) for index in range(round_size)]
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append([run_pass(x) for x in inputs])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > budget:
            return rounds


def repeated_exactly(rounds):
    """Every later round returned the same outputs and failures as the first."""
    from workloads import same_outputs
    return all(same_outputs(a.outputs, b.outputs) and a.failures == b.failures
               for later in rounds[1:] for a, b in zip(rounds[0], later))


def operations(results):
    """Operations attempted, failed and missing their tolerance, and the failure kinds."""
    ops = [(kinds, miss) for r in results for kinds, miss in zip(r.failures, r.tol_miss)]
    kinds = Counter(kind for k, _ in ops for kind in k)
    return {"attempted": len(ops), "failed": sum(1 for k, _ in ops if k),
            "tol_miss": sum(1 for _, miss in ops if miss), "kinds": dict(sorted(kinds.items()))}


def metric(value, unit, samples):
    return {"value": float(value), "unit": unit, "samples": samples}


def end_to_end(name, results, ops):
    """Every end-to-end metric that applies to the workload, tracing off."""
    walls = [r.wall for r in results]
    setup = [s for r in results for s in r.setup]
    solve = [s for r in results for s in r.solve]
    attempted = ops["attempted"]
    out = {
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "setup_s": metric(statistics.median(setup) if setup else 0.0, "s", len(setup)),
    }
    if name == "atlas":
        out["setup_s_p99"] = metric(statistics.quantiles(setup, n=100)[98], "s", len(setup))
    if solve:
        out["solve_s"] = metric(statistics.median(solve), "s", len(solve))
    out["fail_frac"] = metric(ops["failed"] / attempted, "1", attempted)
    out["tol_miss_frac"] = metric(ops["tol_miss"] / attempted, "1", attempted)
    out["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    return out


def measure(name, seed, seconds, _env):
    """Untraced passes; returns (correct, rounds, metrics, notes)."""
    from spans import Recorder
    from workloads import WORKLOADS
    pass_fn = WORKLOADS[name][1]
    rec = Recorder(spans=False)
    rounds = run_rounds(name, seed, seconds, lambda inputs: pass_fn(inputs, rec))
    results = [r for round_ in rounds for r in round_]
    metrics = end_to_end(name, results, operations(rounds[0]))
    correct = all(r.consistent for r in results) and repeated_exactly(rounds)
    return correct, rounds, metrics, {}


def measure_traced(name, seed, seconds, env):
    """Each pass untraced, then traced on the same inputs; per-layer metrics."""
    from spans import Recorder, install_layer_hooks, layer_metrics, pole_histogram
    from workloads import WORKLOADS, same_outputs
    pass_fn = WORKLOADS[name][1]
    plain, traced = Recorder(spans=False), Recorder(spans=True)
    install_layer_hooks(traced)

    turns = itertools.count()

    def both(inputs):
        # Alternate which side runs first, so drift in machine speed does not
        # land on one side of the overhead.
        if next(turns) % 2:
            with_trace = pass_fn(inputs, traced)
            return pass_fn(inputs, plain), with_trace
        return pass_fn(inputs, plain), pass_fn(inputs, traced)

    pair_rounds = run_rounds(name, seed, seconds, both)
    pairs = [pair for round_ in pair_rounds for pair in round_]
    untraced = [u for u, _ in pairs]
    with_trace = [t for _, t in pairs]
    overhead = (statistics.median(t.wall for t in with_trace)
                - statistics.median(u.wall for u in untraced))
    rel_err = max(t.rel_err for t in with_trace)
    metrics = {name_: dict(m, samples=len(pairs))
               for name_, m in layer_metrics(traced, len(pairs), overhead, rel_err).items()}
    equal = all(same_outputs(u.outputs, t.outputs) for u, t in pairs)
    rounds = [[u for u, _ in round_] for round_ in pair_rounds]
    correct = (equal and all(r.consistent for r in untraced + with_trace)
               and repeated_exactly(rounds))

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{name}-seed{seed}.json"
    record = {
        "schema": "fracra.bench_trace/1", "workload": name, "seed": seed,
        "env": env, "passes": len(pairs), "outputs_equal": equal,
        "pole_hist": pole_histogram(traced),
        "shift_seconds": [t.telemetry for t in with_trace if t.telemetry],
        "metrics": metrics, **traced.trace_record(),
    }
    trace_path.write_text(json.dumps(record))
    notes = {"trace_file": str(trace_path.relative_to(ROOT)), "outputs_equal": equal,
             "pole_hist": record["pole_hist"]}
    return correct, rounds, metrics, notes


def run_one(args):
    """One workload: its lines, then the result line."""
    import_program()
    env = environment()
    measure_fn = measure_traced if args.trace else measure
    correct, rounds, metrics, notes = measure_fn(args.workload, args.seed, args.seconds, env)
    ops = operations(rounds[0])
    passes = sum(len(round_) for round_ in rounds)
    for key, value in {"env": env, "rounds": len(rounds), "passes": passes, **notes}.items():
        print(f"{args.workload} {key} {json.dumps(value)}")
    print(f"{args.workload} failures {json.dumps(ops['kinds'])} attempted={ops['attempted']}")
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']} n={m['samples']}")
    names = list(metrics) if args.trace else GATED
    result = {
        "correct": bool(correct), "attempted": ops["attempted"], "failed": ops["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in names},
    }
    print(json.dumps(result), flush=True)


def run_all(args):
    """Each workload in a fresh process; their lines, then one combined JSON line."""
    combined = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        combined[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in combined.values()),
        "attempted": sum(r["attempted"] for r in combined.values()),
        "failed": sum(r["failed"] for r in combined.values()),
        "metrics": {f"{w}.{k}": v for w, r in combined.items() for k, v in r["metrics"].items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Before anything loads numpy and its BLAS.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
