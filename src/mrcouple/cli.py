"""Configuration-driven experiment runner.

Subcommands: `run` (single simulation, trajectory CSV + JSON summary),
`convergence` (rate table CSV), `check` (property suites with exit codes
usable from CI: 0 pass, 1 fail, 2 configuration error).  A window
solver failure (SolverError, ContractionError) exits with 1 in every
subcommand.  Configs are strict JSON: unknown keys are rejected and all
validation errors are reported together.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import coupling, fespace, mesh, timepoly, verify

log = logging.getLogger(__name__)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_TOP_KEYS = {"geometry", "problem", "scheme", "window", "solver", "experiment", "output"}
_GEOMETRY_KEYS = {"nx", "ny"}
_PROBLEM_KEYS = {"nu", "advection", "B", "forcing", "initial"}
_ADVECTION_KEYS = {"preset", "sx", "amplitude"}
_SCHEME_KEYS = {"name", "q", "n_s", "k_s", "thetas", "D", "quadrature"}
_WINDOW_KEYS = {"t_f", "N", "M1", "M2", "r1", "r2", "N0"}
_SOLVER_KEYS = {"name", "tol", "max_iter"}
_EXPERIMENT_KEYS = {"kind", "levels", "target", "oracle_scheme", "oracle_steps", "spin_up"}

_FORCING_PRESETS = ("zero", "pulse")
_INITIAL_PRESETS = ("zero", "bump")


@dataclasses.dataclass
class RunConfig:
    geometry: dict
    problem: dict
    scheme: timepoly.SchemeSpec
    quadrature: str
    window: coupling.WindowConfig
    solver: dict
    experiment: dict
    output: str | None
    raw: dict


def _check_keys(problems, obj, allowed, where):
    if not isinstance(obj, dict):
        problems.append(f"{where}: expected an object")
        return False
    for key in obj:
        if key not in allowed:
            problems.append(f"{where}.{key}: unknown key")
    return True


def _get(problems, obj, key, where, kind, default=None, required=False):
    if key not in obj:
        if required:
            problems.append(f"{where}.{key}: missing")
        return default
    val = obj[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is int and isinstance(val, int) and not isinstance(val, bool):
        return val
    if kind is str and isinstance(val, str):
        return val
    if kind is list and isinstance(val, list):
        return val
    problems.append(f"{where}.{key}: expected {kind.__name__}")
    return default


def _non_finite(obj, where=""):
    """Keys, as dotted paths, of the non-finite numbers in a parsed JSON value.

    Python's json reads NaN, Infinity and overflowing literals such as 1e400.
    """
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [where]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{where}.{k}" if where else k)]
    if isinstance(obj, list):
        return [p for k, v in enumerate(obj) for p in _non_finite(v, f"{where}[{k}]")]
    return []


def _numbers(problems, obj, key, where, max_ndim):
    """obj[key] (default empty) as a float array of at most max_ndim dimensions.

    Strings, booleans, nulls and ragged tables are problems, reported by
    name; the result is then None.
    """
    try:
        arr = np.asarray(obj.get(key, []))
    except ValueError:  # a ragged table
        arr = None
    if arr is None or arr.ndim > max_ndim or (arr.size and arr.dtype.kind not in "iuf"):
        kind = "list" if max_ndim == 1 else "table"
        problems.append(f"{where}.{key}: expected a {kind} of finite numbers")
        return None
    return arr.astype(float)


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON config; raises ConfigError listing
    every problem found, not just the first."""
    problems: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError([f"invalid JSON: {err}"]) from err
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected an object"])
    problems += [f"{path}: expected a finite number" for path in _non_finite(raw)]
    for key in raw:
        if key not in _TOP_KEYS:
            problems.append(f"{key}: unknown key")

    geometry = {"nx": (8, 8), "ny": (8, 8)}
    geo = raw.get("geometry", {})
    if _check_keys(problems, geo, _GEOMETRY_KEYS, "geometry"):
        for key in ("nx", "ny"):
            val = geo.get(key)
            if val is None:
                continue
            if isinstance(val, int) and not isinstance(val, bool):
                val = [val, val]
            if (
                isinstance(val, list)
                and len(val) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) and v >= 1 for v in val)
            ):
                geometry[key] = tuple(val)
            else:
                problems.append(f"geometry.{key}: expected a positive int or pair")
        if geometry["nx"][0] != geometry["nx"][1]:
            problems.append(
                "geometry.nx: the subdomains share one interface grid, so the two nx "
                f"must be equal, got {list(geometry['nx'])}"
            )

    problem = {
        "nu": (1.0, 1.0),
        "advection": (fespace.AdvectionSpec(), fespace.AdvectionSpec()),
        "B": np.array([[1.0, -1.0], [-1.0, 1.0]]),
        "forcing": "zero",
        "initial": "bump",
    }
    prob = raw.get("problem", {})
    if _check_keys(problems, prob, _PROBLEM_KEYS, "problem"):
        nu = prob.get("nu")
        if nu is not None:
            if (
                isinstance(nu, list)
                and len(nu) == 2
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in nu)
                and all(v > 0 for v in nu)
            ):
                problem["nu"] = (float(nu[0]), float(nu[1]))
            else:
                problems.append("problem.nu: expected a pair of positive numbers")
        adv = prob.get("advection")
        if adv is not None:
            if isinstance(adv, dict):
                adv = [adv, adv]
            if isinstance(adv, list) and len(adv) == 2:
                specs = []
                for k, one in enumerate(adv):
                    where = f"problem.advection[{k}]"
                    if not _check_keys(problems, one, _ADVECTION_KEYS, where):
                        continue
                    preset = _get(problems, one, "preset", where, str, "zero", required=True)
                    try:
                        specs.append(
                            fespace.AdvectionSpec(
                                kind=preset or "zero",
                                sx=float(one.get("sx", 0.0)),
                                amplitude=float(one.get("amplitude", 1.0)),
                            )
                        )
                    except ValueError as err:
                        problems.append(f"{where}: {err}")
                if len(specs) == 2:
                    problem["advection"] = tuple(specs)
            else:
                problems.append("problem.advection: expected an object or a pair of objects")
        Braw = prob.get("B")
        if Braw is not None:
            arr = np.asarray(Braw, dtype=object)
            ok = arr.shape == (2, 2) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in arr.ravel()
            )
            if ok:
                problem["B"] = np.asarray(Braw, dtype=float)
            else:
                problems.append("problem.B: expected a 2x2 numeric matrix")
        forcing = _get(problems, prob, "forcing", "problem", str, "zero")
        if forcing is not None:
            if forcing in _FORCING_PRESETS or forcing.startswith("mms:"):
                problem["forcing"] = forcing
                if forcing.startswith("mms:") and forcing[4:] not in verify.MMS_PRESETS:
                    problems.append(
                        f"problem.forcing: unknown manufactured preset {forcing[4:]!r}"
                    )
            else:
                problems.append(
                    f"problem.forcing: expected one of {_FORCING_PRESETS} or 'mms:<name>'"
                )
        initial = _get(problems, prob, "initial", "problem", str, "bump")
        if initial is not None:
            if initial in _INITIAL_PRESETS:
                problem["initial"] = initial
            else:
                problems.append(f"problem.initial: expected one of {_INITIAL_PRESETS}")

    scheme_spec = None
    quadrature = None
    sch = raw.get("scheme", {"name": "crank-nicolson"})
    if _check_keys(problems, sch, _SCHEME_KEYS, "scheme"):
        name = _get(problems, sch, "name", "scheme", str, "crank-nicolson")
        quadrature = _get(problems, sch, "quadrature", "scheme", str)
        if quadrature is not None and quadrature not in ("exact", "trapezoid"):
            problems.append("scheme.quadrature: expected 'exact' or 'trapezoid'")
            quadrature = None
        if name == "crank-nicolson":
            scheme_spec = timepoly.crank_nicolson()
            quadrature = quadrature or "trapezoid"
        elif name == "dg":
            q = _get(problems, sch, "q", "scheme", int, None, required=True)
            if q is not None:
                n_s = _get(problems, sch, "n_s", "scheme", int, 0)
                k_s = _get(problems, sch, "k_s", "scheme", int, 0)
                thetas = _numbers(problems, sch, "thetas", "scheme", 1)
                D = _numbers(problems, sch, "D", "scheme", 2)
                if thetas is not None and D is not None:
                    try:
                        scheme_spec = timepoly.SchemeSpec(
                            q=q, n_s=n_s, k_s=k_s, thetas=tuple(np.atleast_1d(thetas)), D=D,
                            name="dg",
                        )
                    except timepoly.SchemeError as err:
                        problems.append(f"scheme: {err}")
            quadrature = quadrature or "exact"
        elif name in timepoly.shipped_schemes():
            scheme_spec = timepoly.shipped_schemes()[name]
            quadrature = quadrature or "exact"
        else:
            problems.append(f"scheme.name: unknown scheme {name!r}")

    window_cfg = None
    win = raw.get("window", {})
    if _check_keys(problems, win, _WINDOW_KEYS, "window"):
        t_f = _get(problems, win, "t_f", "window", float, 1.0)
        N = _get(problems, win, "N", "window", int, 8)
        M1 = _get(problems, win, "M1", "window", int, 1)
        M2 = _get(problems, win, "M2", "window", int, 1)
        r1 = _get(problems, win, "r1", "window", int, 1)
        r2 = _get(problems, win, "r2", "window", int, 1)
        N0 = _get(problems, win, "N0", "window", int, None)
        try:
            window_cfg = coupling.WindowConfig(
                t_f=t_f, N=N, M=(M1, M2), r=(r1, r2), N0=N0
            )
        except (ValueError, TypeError) as err:
            problems.append(f"window: {err}")
    if window_cfg is not None and scheme_spec is not None:
        n_init = window_cfg.n_init(scheme_spec)
        if n_init > window_cfg.N:
            problems.append(
                f"window.N0: {n_init} exceeds N={window_cfg.N}; windows 1..N0-1 are "
                "filled from a reference solve and at least one scheme window must remain"
            )
        if n_init > 1:
            for i in range(2):
                if scheme_spec.k_s > window_cfg.M[i] + 1:
                    problems.append(
                        f"scheme.k_s: {scheme_spec.k_s} exceeds M{i + 1}+1={window_cfg.M[i] + 1}; "
                        "side conditions may reach back at most one window of history"
                    )
        elif np.any(scheme_spec.D[:, 2:]):
            # column l of D weighs the side value l steps back
            reach = 2 + int(np.flatnonzero(np.any(scheme_spec.D[:, 2:], axis=0))[-1])
            problems.append(
                f"window.N0: 1 leaves window 1 only the initial state, but the side "
                f"conditions reach back {reach} side values (scheme.D column {reach}); "
                "use N0 >= 2 to fill the history from a reference solve"
            )

    solver = {"name": "direct", "tol": 1e-10, "max_iter": 200}
    sol = raw.get("solver", {})
    if _check_keys(problems, sol, _SOLVER_KEYS, "solver"):
        name = _get(problems, sol, "name", "solver", str, "direct")
        if name not in ("direct", "fixed-point"):
            problems.append("solver.name: expected 'direct' or 'fixed-point'")
        else:
            solver["name"] = name
        solver["tol"] = _get(problems, sol, "tol", "solver", float, 1e-10)
        if solver["tol"] <= 0:
            problems.append(f"solver.tol: must be positive, got {solver['tol']}")
        solver["max_iter"] = _get(problems, sol, "max_iter", "solver", int, 200)
        if solver["max_iter"] < 1:
            problems.append(f"solver.max_iter: must be at least 1, got {solver['max_iter']}")

    experiment = {
        "kind": "run",
        "levels": 4,
        "target": "l2",
        "oracle_scheme": "cn",
        "oracle_steps": None,
        "spin_up": 0.0,
    }
    exp = raw.get("experiment", {})
    if _check_keys(problems, exp, _EXPERIMENT_KEYS, "experiment"):
        kind = _get(problems, exp, "kind", "experiment", str, "run")
        if kind not in ("run", "convergence", "conservation", "energy"):
            problems.append("experiment.kind: expected run|convergence|conservation|energy")
        else:
            experiment["kind"] = kind
        experiment["levels"] = _get(problems, exp, "levels", "experiment", int, 4)
        target = _get(problems, exp, "target", "experiment", str, "l2")
        if target not in ("l2", "nodal", "sync", "flux"):
            problems.append("experiment.target: expected l2|nodal|sync|flux")
        else:
            experiment["target"] = target
        experiment["oracle_scheme"] = _get(
            problems, exp, "oracle_scheme", "experiment", str, "cn"
        )
        if experiment["oracle_scheme"] not in ("cn", "dg2"):
            problems.append("experiment.oracle_scheme: expected cn|dg2")
        steps = experiment["oracle_steps"] = _get(
            problems, exp, "oracle_steps", "experiment", int, None
        )
        if steps is not None and steps < 1:
            problems.append(f"experiment.oracle_steps: must be at least 1, got {steps}")
        spin_up = _get(problems, exp, "spin_up", "experiment", float, 0.0)
        if spin_up is not None:
            if spin_up < 0:
                problems.append("experiment.spin_up: must be nonnegative")
            else:
                experiment["spin_up"] = spin_up

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        problems.append("output: expected a path string")
        output = None

    if problems:
        raise ConfigError(problems)
    return RunConfig(
        geometry=geometry,
        problem=problem,
        scheme=scheme_spec,
        quadrature=quadrature,
        window=window_cfg,
        solver=solver,
        experiment=experiment,
        output=output,
        raw=raw,
    )


def _pulse_forcing():
    """sin(pi x)(1 - y) cos 2t and 1/2 sin(pi x)(1 + y) cos 2t, as space-time products."""

    def cos2t(t):
        return np.cos(2.0 * np.asarray(t, dtype=float))

    return (
        fespace.Separable(((lambda x, y: np.sin(np.pi * x) * (1.0 - y), cos2t),)),
        fespace.Separable(((lambda x, y: 0.5 * np.sin(np.pi * x) * (1.0 + y), cos2t),)),
    )


def _bump_initial():
    def u01(x, y):
        return np.sin(np.pi * x) * (1.0 - y)

    def u02(x, y):
        return 0.5 * np.sin(np.pi * x) * (1.0 + y)

    return u01, u02


def build_operators(cfg: RunConfig):
    """Mesh + assemble the configured problem; returns (ops, problem_spec)."""
    nx, ny = cfg.geometry["nx"], cfg.geometry["ny"]
    m1 = mesh.build_mesh(1, nx[0], ny[0])
    m2 = mesh.build_mesh(2, nx[1], ny[1])
    imap = mesh.match_interfaces(m1, m2)
    forcing = cfg.problem["forcing"]
    if forcing.startswith("mms:"):
        case = verify.mms_case(
            forcing[4:],
            nu=cfg.problem["nu"],
            B=cfg.problem["B"],
            advection=cfg.problem["advection"],
        )
        spec = case.problem
    else:
        f = _pulse_forcing() if forcing == "pulse" else (None, None)
        u0 = _bump_initial() if cfg.problem["initial"] == "bump" else (None, None)
        spec = fespace.ProblemSpec(
            nu=cfg.problem["nu"],
            advection=cfg.problem["advection"],
            B=cfg.problem["B"],
            f=f,
            g=(None, None),
            u0=u0,
        )
    return fespace.assemble(m1, m2, imap, spec), spec


def _simulate(cfg: RunConfig, ops):
    return coupling.run_simulation(
        ops,
        cfg.scheme,
        cfg.window,
        quadrature=cfg.quadrature,
        solver=cfg.solver["name"],
        fp_tol=cfg.solver["tol"],
        fp_max_iter=cfg.solver["max_iter"],
    )


def _cmd_run(cfg: RunConfig, outdir: Path) -> int:
    ops, _ = build_operators(cfg)
    traj = _simulate(cfg, ops)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "trajectory.csv", "w") as fh:
        coupling.export_trajectory_csv(traj, ops, fh)
    summary = {
        "windows": cfg.window.N,
        "dt": cfg.window.dt,
        "scheme": cfg.scheme.name,
        "quadrature": cfg.quadrature,
        "solver": cfg.solver["name"],
        "final_energy": traj.side_energies[-1].tolist(),
        "d_omega": list(ops.d_omega),
        "d_gamma": ops.d_gamma,
        "step_restriction_ratio": coupling.step_restriction_ratio(cfg.window, ops.h),
    }
    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {outdir / 'trajectory.csv'} and {outdir / 'summary.json'}")
    return EXIT_OK


_level_fn = None  # the study's level function, in a forked worker


def _init_level_worker(fn) -> None:
    global _level_fn
    _level_fn = fn


def _run_level(cfg: coupling.WindowConfig):
    return _level_fn(cfg)


def _forked_map(jobs: int):
    """A map for convergence_study that runs the levels in `jobs` forked processes.

    The level function holds the operators, the oracle and the initial
    state, whose loads are closures; the workers inherit it by fork, so
    only level configs and their (config, ErrorReport) results are pickled.
    The level with the most windows is the slowest, so levels are submitted
    finest first; results come back in the order of the configs.
    """

    def pool_map(fn, configs):
        configs = list(configs)
        with ProcessPoolExecutor(
            min(jobs, len(configs)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_level_worker,
            initargs=(fn,),
        ) as pool:
            finest_first = sorted(range(len(configs)), key=lambda k: configs[k].N, reverse=True)
            futures = {k: pool.submit(_run_level, configs[k]) for k in finest_first}
            return [futures[k].result() for k in range(len(configs))]

    return pool_map


def _cmd_convergence(cfg: RunConfig, outdir: Path, levels: int, jobs: int) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    ops, _ = build_operators(cfg)
    table = verify.convergence_study(
        ops,
        cfg.scheme,
        cfg.window,
        levels,
        target=cfg.experiment["target"],
        quadrature=cfg.quadrature,
        solver=cfg.solver["name"],
        oracle_scheme=cfg.experiment["oracle_scheme"],
        oracle_steps=cfg.experiment["oracle_steps"],
        spin_up=cfg.experiment["spin_up"],
        fp_tol=cfg.solver["tol"],
        fp_max_iter=cfg.solver["max_iter"],
        map=_forked_map(jobs) if jobs > 1 else map,
    )
    with open(outdir / "rates.csv", "w") as fh:
        table.write_csv(fh)
    for note in table.notes:
        print(f"note: {note}")
    print(f"observed {table.target} rate: {table.observed_rate:.3f}")
    print(f"wrote {outdir / 'rates.csv'}")
    return EXIT_OK


def _cmd_check(cfg: RunConfig, suite: str) -> int:
    # the preconditions need only the operators: reject before simulating
    ops, _ = build_operators(cfg)
    if suite == "conservation" and not ops.conservation_compatible:
        print("check conservation: config error: coupling matrix/interface data "
              "are not conservation compatible")
        return EXIT_CONFIG
    if suite == "energy" and (ops.has_f or ops.has_g or not ops.b_psd):
        print("check energy: config error: requires zero forcing and "
              "positive semidefinite coupling")
        return EXIT_CONFIG
    try:
        traj = _simulate(cfg, ops)
    except (coupling.SolverError, coupling.ContractionError) as err:
        print(f"check {suite}: solver failure: {err}")
        return EXIT_FAIL
    if suite == "conservation":
        mode = "strong" if cfg.window.r[0] == cfg.window.r[1] else "weak"
        worst = 0.0
        for sol in traj.windows:
            rep = coupling.check_flux_conservation(sol, ops, mode)
            worst = max(worst, rep.relative)
        ok = worst <= 1e-11
        print(f"check conservation ({mode}): max relative residual {worst:.3e} -> "
              f"{'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_FAIL
    rep = verify.energy_report(traj, ops)
    worst_term = float(np.nanmax(rep.interfacial)) if len(rep.interfacial) else 0.0
    ok = rep.monotone and worst_term <= 1e-12 * max(rep.energies[0], 1e-300)
    print(
        f"check energy: monotone={rep.monotone}, max interfacial term "
        f"{worst_term:.3e} -> {'PASS' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_FAIL


def main(argv=None) -> int:
    level = os.environ.get("MRCOUPLE_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
            level, logging.ERROR
        )
    )
    parser = argparse.ArgumentParser(
        prog="mrcouple",
        description="Multirate coupling-window experiments for two coupled "
        "advection-diffusion subdomains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a single simulation")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="out")
    p_conv = sub.add_parser("convergence", help="run a window-refinement study")
    p_conv.add_argument("--config", required=True)
    p_conv.add_argument("--out", default="out")
    p_conv.add_argument("--levels", type=int, default=None)
    p_conv.add_argument("--jobs", type=int, default=1)
    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--suite", required=True, choices=("conservation", "energy"))
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as err:
        print(f"cannot read config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        for problem in err.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "check":
        return _cmd_check(cfg, args.suite)
    try:
        if args.command == "run":
            return _cmd_run(cfg, Path(args.out))
        levels = args.levels if args.levels is not None else cfg.experiment["levels"]
        if levels < 3:
            print("config error: convergence needs at least 3 levels", file=sys.stderr)
            return EXIT_CONFIG
        steps = verify.oracle_step_count(
            cfg.window.t_f, cfg.experiment["oracle_steps"], cfg.experiment["oracle_scheme"]
        )
        # bit_length first, so a huge level count never builds a huge power of two
        if levels - 1 > steps.bit_length() or cfg.window.N * 2 ** (levels - 1) > steps:
            where = "--levels" if args.levels is not None else "experiment.levels"
            print(
                f"config error: {where}: {levels} levels give the finest level "
                f"{cfg.window.N}*2^{levels - 1} windows, more than the {steps} steps of "
                "the oracle; that level would only measure the oracle's own error",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        if args.jobs < 1:
            print(f"config error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
            return EXIT_CONFIG
        return _cmd_convergence(cfg, Path(args.out), levels, args.jobs)
    except (coupling.SolverError, coupling.ContractionError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_FAIL


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
