"""The benchmark's four workloads and the inputs a seed generates for them.

Every workload uses nu = (1, 0.5), B = [[1, -1], [-1, 1]] (positive
semidefinite, row-antisymmetric), flux orders r = (1, 1) and t_f = 1
unless stated.  A nonzero seed scales nu_1, nu_2 and B by independent
factors in [1 - PERTURBATION, 1 + PERTURBATION]; sizes, sparsity, the
sign structure of B and therefore positive semidefiniteness and row
antisymmetry are unchanged.  Seed 0 is the unperturbed configuration the
goldens were recorded from.

Standard library only: the orchestrator imports this without numpy.
"""

from __future__ import annotations

import dataclasses
import random

NU = (1.0, 0.5)
B = ((1.0, -1.0), (-1.0, 1.0))
PERTURBATION = 0.01


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # mrcouple subcommand: "run" or "convergence"
    geometry: int  # nx = ny on both subdomains
    problem: dict  # problem keys besides nu and B
    scheme: str
    window: dict
    solver: str
    experiment: dict
    windows: int  # windows the CLI call solves
    invariant_gates: tuple  # gates checked on every seed
    golden_files: tuple  # outputs compared against goldens on seed 0
    speed_sensitivity: float  # see refclock.RefClock
    why: str

    def config(self, seed: int) -> dict:
        nu, scale = perturbation(seed)
        cfg = {
            "geometry": {"nx": self.geometry, "ny": self.geometry},
            "problem": {
                "nu": list(nu),
                "B": [[scale * b for b in row] for row in B],
                **self.problem,
            },
            "scheme": {"name": self.scheme},
            "window": {"r1": 1, "r2": 1, **self.window},
            "solver": {"name": self.solver},
        }
        if self.experiment:
            cfg["experiment"] = dict(self.experiment)
        return cfg

    def argv(self, config_path: str, out_dir: str) -> list:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.command == "convergence":
            argv += ["--jobs", "1"]
        return argv

    def gates(self, seed: int) -> list:
        golden = [f"golden:{name}" for name in self.golden_files] if seed == 0 else []
        return golden + list(self.invariant_gates)


def perturbation(seed: int):
    """(nu, coupling scale) for a seed; seed 0 is unperturbed."""
    if seed == 0:
        return NU, 1.0
    rng = random.Random(seed)
    eps = [PERTURBATION * (2.0 * rng.random() - 1.0) for _ in range(3)]
    return (NU[0] * (1 + eps[0]), NU[1] * (1 + eps[1])), 1 + eps[2]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-free-nx64",
            command="run",
            geometry=64,
            problem={"advection": {"preset": "vortex"}, "forcing": "zero", "initial": "bump"},
            scheme="crank-nicolson",
            window={"t_f": 1.0, "N": 100, "M1": 2, "M2": 3},
            solver="direct",
            experiment={},
            windows=100,
            invariant_gates=("conservation", "interfacial_sign", "energy_monotone"),
            golden_files=("trajectory.csv", "summary.json"),
            speed_sensitivity=0.5,
            why="large window factor (dim 61k, 10.6M LU entries) and triangular solves; "
            "no load terms; both CSV diagnostic columns computed",
        ),
        Workload(
            name="run-mms-nx32",
            command="run",
            geometry=32,
            problem={"forcing": "mms:smooth"},
            scheme="crank-nicolson",
            window={"t_f": 1.0, "N": 200, "M1": 2, "M2": 3},
            solver="direct",
            experiment={},
            windows=200,
            invariant_gates=("mms_error",),
            golden_files=("trajectory.csv", "summary.json"),
            speed_sensitivity=0.8,
            why="small factor (dim 15k); per-window RHS build with body and interface "
            "loads, history terms and the residual check dominate",
        ),
        Workload(
            name="study-mms-nx8",
            command="convergence",
            geometry=8,
            problem={"forcing": "mms:smooth"},
            scheme="crank-nicolson",
            window={"t_f": 1.0, "N": 4, "M1": 1, "M2": 2},
            solver="direct",
            experiment={"kind": "convergence", "levels": 5, "spin_up": 0.25},
            windows=4 + 8 + 16 + 32 + 64,
            invariant_gates=("rate_band",),
            golden_files=("rates.csv",),
            speed_sensitivity=0.9,
            why="convergence study: spin-up, the 2^12-step oracle and error norms "
            "dominate; the five multirate runs are a small share",
        ),
        Workload(
            name="fp-dg1-nx4",
            command="run",
            geometry=4,
            problem={"forcing": "mms:smooth"},
            scheme="dg1",
            window={"t_f": 0.5, "N": 100, "M1": 2, "M2": 3},
            solver="fixed-point",
            experiment={},
            windows=100,
            invariant_gates=("fixed_point_vs_direct",),
            golden_files=("trajectory.csv", "summary.json"),
            speed_sensitivity=0.9,
            why="lagged fixed-point solver: per-window substep re-assembly, sweeps and "
            "exact-quadrature Gauss rules",
        ),
    )
}
