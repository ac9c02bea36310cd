"""Setup cost and solve complexity across mesh refinement.

Times the rational fit (pole extraction included, factorizations excluded)
and the full preconditioned MinRes solve on the exact Fourier interface
system (two real FFTs per apply), then estimates the log-log slope of solve
time against problem size.  On small meshes fixed per-iteration costs
dominate, so a second sweep over large meshes shows the slope where the
O(n) shifted solves and the O(n log n) system applies take over.
"""

import numpy as np

from fracra import complexity_study


def show(records, tolerances):
    print(f"{'n_h':>7} {'tol':>8} {'poles':>6} {'iters':>6} "
          f"{'setup[ms]':>10} {'solve[ms]':>10}")
    for r in records:
        print(f"{r.n_c:>7d} {r.tolerance:>8.0e} {r.n_poles:>6d} "
              f"{r.iterations_minres:>6d} {r.setup_seconds * 1e3:>10.1f} "
              f"{r.solve_seconds * 1e3:>10.2f}")
    for tol in tolerances:
        rows = [r for r in records if r.tolerance == tol]
        sizes = np.array([r.n_c for r in rows], dtype=float)
        solves = np.array([r.solve_seconds for r in rows], dtype=float)
        setups = [r.setup_seconds for r in rows]
        slope = np.polyfit(np.log(sizes), np.log(solves), 1)[0]
        print(f"tol={tol:.0e}: solve-time slope {slope:.2f} "
              f"(1.0 is linear), setup spread "
              f"{max(setups) / min(setups):.2f}x across meshes")


show(complexity_study(mesh_grid=(32, 64, 128, 256, 512, 1024),
                      tolerance_grid=(1e-4, 1e-12), mu=1e-2, K=1e-6,
                      repeats=3, seed=0), (1e-4, 1e-12))
print()
show(complexity_study(mesh_grid=(8192, 32768, 131072), tolerance_grid=(1e-12,),
                      mu=1e-2, K=1e-6, repeats=3, seed=0), (1e-12,))
