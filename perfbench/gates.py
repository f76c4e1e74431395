"""Correctness gates a repeat must pass; each failure counts as a failed operation.

Golden gates compare the CLI's output files with copies recorded from the
unperturbed configuration (seed 0).  Their tolerances pass roundoff-level
changes (another factor ordering, another summation order) and catch a
changed discretization, which moves energies and errors far more.
Invariant gates hold for every seed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Per column (rtol, atol): |value - golden| <= rtol * |golden| + atol.
CSV_TOLERANCES = {
    "trajectory.csv": {
        "window": (0.0, 0.0),
        "t_sync": (1e-14, 0.0),
        "energy_1": (1e-9, 1e-15),
        "energy_2": (1e-9, 1e-15),
        # a relative residual at roundoff level; only the gate's own bound matters
        "flux_conservation_residual": (0.0, 1e-11),
        "interfacial_energy_term": (1e-7, 1e-15),
    },
    "rates.csv": {
        "level": (0.0, 0.0),
        "dt": (1e-14, 0.0),
        "dt1": (1e-14, 0.0),
        "dt2": (1e-14, 0.0),
        "err_l2_u1": (1e-7, 0.0),
        "err_l2_u2": (1e-7, 0.0),
        "err_sync": (1e-7, 0.0),
        "rate_running": (0.0, 1e-6),
    },
}
SUMMARY_RTOL = 1e-9

CONSERVATION_BOUND = 1e-11  # max relative flux-cancellation residual per window
ENERGY_REL_BOUND = 1e-12  # interfacial term and energy increase, relative to E0
RATE_BAND = (1.8, 2.2)  # acceptance band of the observed L2 rate
MMS_ERROR_BOUND = 1e-3  # max nodal error of the final state against the exact solution
FP_STATE_BOUND = 1e-8  # fixed point vs direct, relative, final side values
FP_FLUX_BOUND = 1e-7  # fixed point vs direct, relative, last window's flux modes


def _close(value: float, golden: float, rtol: float, atol: float) -> bool:
    if math.isnan(golden) or math.isnan(value):
        return math.isnan(golden) and math.isnan(value)
    return abs(value - golden) <= rtol * abs(golden) + atol


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def golden_csv(out_dir: Path, golden_dir: Path, name: str):
    header, rows = _read_csv(out_dir / name)
    g_header, g_rows = _read_csv(golden_dir / name)
    if header != g_header or len(rows) != len(g_rows):
        return False, f"shape {len(rows)}x{header} != golden {len(g_rows)}x{g_header}"
    tolerances = CSV_TOLERANCES[name]
    worst = None
    for r, (row, g_row) in enumerate(zip(rows, g_rows)):
        for col, v, g in zip(header, row, g_row):
            if not _close(v, g, *tolerances[col]):
                worst = worst or f"row {r} {col}: {v!r} != golden {g!r}"
    return worst is None, worst or "match"


def golden_summary(out_dir: Path, golden_dir: Path):
    got = json.loads((out_dir / "summary.json").read_text())
    want = json.loads((golden_dir / "summary.json").read_text())
    if sorted(got) != sorted(want):
        return False, f"keys {sorted(got)} != golden {sorted(want)}"

    def same(a, b):
        if isinstance(b, float):
            return isinstance(a, (int, float)) and _close(float(a), b, SUMMARY_RTOL, 0.0)
        if isinstance(b, list):
            return isinstance(a, list) and len(a) == len(b) and all(map(same, a, b))
        return a == b

    bad = [k for k in want if not same(got[k], want[k])]
    return not bad, f"differs in {bad}" if bad else "match"


def _trajectory_columns(out_dir: Path):
    header, rows = _read_csv(out_dir / "trajectory.csv")
    return {col: np.array([row[k] for row in rows]) for k, col in enumerate(header)}


def conservation(out_dir: Path):
    worst = float(np.max(_trajectory_columns(out_dir)["flux_conservation_residual"][1:]))
    return worst <= CONSERVATION_BOUND, f"max residual {worst:.3e} (bound {CONSERVATION_BOUND:g})"


def interfacial_sign(out_dir: Path):
    cols = _trajectory_columns(out_dir)
    e0 = cols["energy_1"][0] + cols["energy_2"][0]
    worst = float(np.max(cols["interfacial_energy_term"][1:]))
    bound = ENERGY_REL_BOUND * e0
    return worst <= bound, f"max interfacial term {worst:.3e} (bound {bound:.3e})"


def energy_monotone(out_dir: Path):
    cols = _trajectory_columns(out_dir)
    energy = cols["energy_1"] + cols["energy_2"]
    rise = float(np.max(np.diff(energy)))
    bound = ENERGY_REL_BOUND * energy[0]
    return rise <= bound, f"max energy increase {rise:.3e} (bound {bound:.3e})"


def rate_band(stdout: str):
    found = re.search(r"observed l2 rate: (\S+)", stdout)
    if not found:
        return False, "CLI printed no observed l2 rate"
    rate = float(found.group(1))
    lo, hi = RATE_BAND
    return lo <= rate <= hi, f"observed L2 rate {rate:.3f} (band [{lo}, {hi}])"


# The `mms:smooth` preset's exact solution, written out independently of the program.
SMOOTH_EXACT = (
    lambda x, y, t: np.sin(np.pi * x) * (1 - y) * (1 + y / 2) * np.exp(-t),
    lambda x, y, t: np.sin(np.pi * x) * (1 + y) * (1 - y / 2) * np.exp(-t),
)


def mms_error(mods, cfg, final_state):
    """Max nodal error of the final state against the manufactured solution."""
    worst = 0.0
    for i in range(2):
        m = mods["mesh"].build_mesh(i + 1, cfg.geometry["nx"][i], cfg.geometry["ny"][i])
        xy = m.nodes[np.flatnonzero(m.free_dof >= 0)]
        exact = SMOOTH_EXACT[i](xy[:, 0], xy[:, 1], cfg.window.t_f)
        worst = max(worst, float(np.max(np.abs(final_state[i] - exact)) / np.max(np.abs(exact))))
    return worst <= MMS_ERROR_BOUND, f"relative nodal error {worst:.3e} (bound {MMS_ERROR_BOUND:g})"


def fixed_point_vs_direct(mods, cfg, ops, fp_last):
    """Solve the same configuration and operators with the direct solver and compare."""
    traj = mods["coupling"].run_simulation(
        ops, cfg.scheme, cfg.window, quadrature=cfg.quadrature, solver="direct"
    )
    direct = traj.windows[-1]

    def rel(a, b):
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    state = max(rel(fp_last.U[i][-1], direct.U[i][-1]) for i in range(2))
    flux = max(rel(fp_last.F[i].coeffs, direct.F[i].coeffs) for i in range(2))
    ok = state <= FP_STATE_BOUND and flux <= FP_FLUX_BOUND
    return ok, (
        f"relative difference state {state:.2e} (bound {FP_STATE_BOUND:g}), "
        f"flux {flux:.2e} (bound {FP_FLUX_BOUND:g})"
    )


def run(workload, seed: int, mods, config_text: str, out_dir: Path, stdout: str, probes):
    """Evaluate every gate of the workload; returns [{name, ok, detail}]."""
    last = probes.last_solution
    cfg = mods["cli"].parse_config(config_text)
    golden_dir = GOLDEN_DIR / workload.name
    checks = {
        "golden:trajectory.csv": lambda: golden_csv(out_dir, golden_dir, "trajectory.csv"),
        "golden:rates.csv": lambda: golden_csv(out_dir, golden_dir, "rates.csv"),
        "golden:summary.json": lambda: golden_summary(out_dir, golden_dir),
        "conservation": lambda: conservation(out_dir),
        "interfacial_sign": lambda: interfacial_sign(out_dir),
        "energy_monotone": lambda: energy_monotone(out_dir),
        "rate_band": lambda: rate_band(stdout),
        "mms_error": lambda: mms_error(mods, cfg, tuple(u[-1] for u in last.U)),
        "fixed_point_vs_direct": lambda: fixed_point_vs_direct(mods, cfg, probes.ops, last),
    }
    results = []
    for name in workload.gates(seed):
        try:
            ok, detail = checks[name]()
        except (OSError, ValueError, KeyError, IndexError, AttributeError) as err:
            ok, detail = False, f"{type(err).__name__}: {err}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    return results
