"""Sizing sweep of the direct window solver; informative, not gated.

    python3 perfbench/sizing.py

For forcing-free Crank-Nicolson (trapezoid) runs with M = (2, 3) and
r = (1, 1), each mesh size runs in a fresh single-threaded process and
reports the window dimension, the LU fill (nnz of L plus U), the time to
build and factor the window operator, and the median per-window solve
time.  Dimension and fill are compared exactly, at the table's rounding,
with the baseline table of ROADMAP item 2; times are compared by eye.
Writes .perfbench/BENCH_sizing.json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WINDOWS = 10  # windows solved per mesh size
# nx -> (window dim, LU nnz, build+factor s, solve per window ms) from ROADMAP item 2.
BASELINE = {
    16: ("3.7k", "0.20M", 0.07, 1.8),
    32: ("15k", "1.4M", 0.23, 4.1),
    64: ("61k", "10.6M", 1.72, 26.6),
    96: ("137k", "27.2M", 4.09, 50.4),
}


def _dim_label(dim: int) -> str:
    return f"{dim / 1e3:.1f}k" if dim < 10_000 else f"{dim / 1e3:.0f}k"


def _nnz_label(nnz: int) -> str:
    return f"{nnz / 1e6:.2f}M" if nnz < 1_000_000 else f"{nnz / 1e6:.1f}M"


def measure(nx: int) -> dict:
    """One mesh size, measured in this process."""
    import worker  # pins BLAS threads and puts src/ on the path before numpy loads
    from workloads import WORKLOADS

    from mrcouple import cli, coupling

    workload = dataclasses.replace(WORKLOADS["run-free-nx64"], geometry=nx)
    cfg = cli.parse_config(json.dumps(workload.config(0)))
    ops, _ = cli.build_operators(cfg)
    start = time.perf_counter()
    op = coupling.WindowOperator(ops, cfg.scheme, cfg.window, quadrature=cfg.quadrature)
    build_factor = time.perf_counter() - start
    lu = op.__dict__.get("_lu")  # private; the fill is reported as None once it is gone
    incoming, histories, solve_s = ops.u0, ((), ()), []
    for n in range(1, WINDOWS + 1):
        start = time.perf_counter()
        sol = op.solve(incoming, histories, n)
        solve_s.append(time.perf_counter() - start)
        incoming = tuple(sol.U[i][-1] for i in range(2))
        histories = tuple([sol.U[i][-2]] for i in range(2))
    return {
        "nx": nx,
        "window_dim": op.dim,
        "lu_nnz": lu.L.nnz + lu.U.nnz if lu is not None else None,
        "build_factor_s": build_factor,
        "solve_ms_p50": 1e3 * statistics.median(solve_s),
        "windows": WINDOWS,
        "environment": worker.environment(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one is not None:
        sys.path.insert(0, str(HERE))
        print(json.dumps(measure(args.one)))
        return 0

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    rows, exact = [], True
    print(f"{'nx':>4} {'dim':>7} {'LU nnz':>7} {'build+factor':>13} {'solve/window':>13}   ROADMAP")
    for nx, base in sorted(BASELINE.items()):
        proc = subprocess.run(
            [sys.executable, __file__, "--one", str(nx)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        row["dim_label"] = _dim_label(row["window_dim"])
        row["nnz_label"] = _nnz_label(row["lu_nnz"]) if row["lu_nnz"] is not None else "null"
        row["matches_roadmap"] = (row["dim_label"], row["nnz_label"]) == base[:2]
        exact &= row["matches_roadmap"]
        rows.append(row)
        ref = f"{base[0]} / {base[1]} / {base[2]} s / {base[3]} ms"
        print(
            f"{nx:>4} {row['dim_label']:>7} {row['nnz_label']:>7} {row['build_factor_s']:>11.2f} s"
            f" {row['solve_ms_p50']:>10.1f} ms   {ref}"
        )
    print("dimension and fill match ROADMAP item 2" if exact else "MISMATCH against ROADMAP item 2")
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / "BENCH_sizing.json").write_text(json.dumps(rows, indent=1))
    return 0 if exact else 1


if __name__ == "__main__":
    sys.exit(main())
