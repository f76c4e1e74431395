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
from typing import NamedTuple

import numpy as np

from . import coupling, fespace, mesh, timepoly, verify

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class Key(NamedTuple):
    """A config key: its JSON type, its default, and the values it may take.

    type object leaves the value to the key's own parsing code.  allowed,
    when given, is the fixed set of values; least is the smallest one.
    """

    type: type
    default: object = None
    allowed: tuple | None = None
    least: float | None = None


REQUIRED = object()  # the default of a key a config must give

CONFIG_KEYS = {
    name: Key(dict, {})
    for name in ("geometry", "problem", "scheme", "window", "solver", "experiment")
}
GEOMETRY_KEYS = {"nx": Key(object, 8), "ny": Key(object, 8)}
PROBLEM_KEYS = {
    "nu": Key(object, [1.0, 1.0]),
    "advection": Key(object, {"preset": "zero"}),
    "B": Key(object, [[1.0, -1.0], [-1.0, 1.0]]),
    "forcing": Key(str, "zero", ("zero", "pulse", *(f"mms:{k}" for k in verify.MMS_PRESETS))),
    "initial": Key(str, "bump", ("zero", "bump")),
}
ADVECTION_KEYS = {
    "preset": Key(str, REQUIRED, ("zero", "constant", "vortex")),
    "sx": Key(float, 0.0),
    "amplitude": Key(float, 1.0),
}
_SHIPPED = timepoly.shipped_schemes()  # frozen specs, shared by every config
SCHEME_KEYS = {
    "name": Key(str, "crank-nicolson", ("dg", *_SHIPPED)),
    "q": Key(int),  # dg only, and there required
    "n_s": Key(int, 0),
    "k_s": Key(int, 0),
    "thetas": Key(object, []),
    "D": Key(object, []),
    "quadrature": Key(str, None, ("exact", "trapezoid")),
}
WINDOW_KEYS = {
    "t_f": Key(float, 1.0),
    "N": Key(int, 8),
    **{key: Key(int, 1) for key in ("M1", "M2", "r1", "r2")},
    "N0": Key(int, None),
}
SOLVER_KEYS = {
    "name": Key(str, "direct", ("direct", "fixed-point")),
    "tol": Key(float, 1e-10),
    "max_iter": Key(int, 200, least=1),
}
EXPERIMENT_KEYS = {
    # the subcommand picks the experiment; kind is accepted and not read
    "kind": Key(str, "run", ("run", "convergence", "conservation", "energy")),
    "levels": Key(int, 4),
    "target": Key(str, "l2", ("l2", "nodal", "sync", "flux")),
    "oracle_scheme": Key(str, "cn", ("cn", "dg2")),
    "oracle_steps": Key(int, None, least=1),
    "spin_up": Key(float, 0.0, least=0.0),
}

_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string", dict: "an object"}


@dataclasses.dataclass
class RunConfig:
    geometry: dict
    problem: dict
    scheme: timepoly.SchemeSpec
    quadrature: str
    window: coupling.WindowConfig
    solver: dict
    experiment: dict


def _as(kind, val):
    """val as a value of JSON type kind, or None; an integer is a number, a boolean neither."""
    if isinstance(val, bool) and kind in (int, float):
        return None
    if kind is float and isinstance(val, int):
        return float(val)
    return val if isinstance(val, kind) else None


def _read(problems, obj, keys, where):
    """The values of obj's keys, typed by the table keys, defaults filled in.

    Unknown keys, missing required ones, wrong types (null included) and
    values outside a key's allowed set or below its least are problems
    named by dotted key; such a key gets its default (None if required).
    None if obj is not an object.
    """
    if not isinstance(obj, dict):
        problems.append(f"{where}: expected an object")
        return None
    name = (lambda key: f"{where}.{key}") if where else str
    problems += [f"{name(key)}: unknown key" for key in obj if key not in keys]
    out = {}
    for key, spec in keys.items():
        default = None if spec.default is REQUIRED else spec.default
        out[key] = default
        if key not in obj:
            if spec.default is REQUIRED:
                problems.append(f"{name(key)}: missing")
            continue
        val = _as(spec.type, obj[key])
        if val is None and spec.type is not object:
            problems.append(f"{name(key)}: expected {_TYPE_NAMES[spec.type]}")
        elif spec.allowed is not None and val not in spec.allowed:
            problems.append(f"{name(key)}: expected one of {'|'.join(spec.allowed)}")
        elif spec.least is not None and val < spec.least:
            problems.append(f"{name(key)}: must be at least {spec.least}, got {val}")
        else:
            out[key] = val
    return out


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


def _numbers(problems, val, where, max_ndim):
    """val as a float array of at most max_ndim dimensions.

    Strings, booleans, nulls and ragged tables are problems, reported by
    name; the result is then None.
    """
    try:
        arr = np.asarray(val)
    except ValueError:  # a ragged table
        arr = None
    if arr is None or arr.ndim > max_ndim or (arr.size and arr.dtype.kind not in "iuf"):
        kind = "list" if max_ndim == 1 else "table"
        problems.append(f"{where}: expected a {kind} of finite numbers")
        return None
    return arr.astype(float)


def _geometry(problems, geo):
    geometry = {}
    for key, least in (("nx", 2), ("ny", 1)):
        val = geo[key]
        pair = [val, val] if _as(int, val) is not None else val
        if isinstance(pair, list) and len(pair) == 2 and all(
            _as(int, v) is not None and v >= least for v in pair
        ):
            geometry[key] = tuple(pair)
        else:
            problems.append(f"geometry.{key}: expected an integer of at least {least} or a pair")
    nx = geometry.get("nx")
    if nx and nx[0] != nx[1]:
        problems.append(
            "geometry.nx: the subdomains share one interface grid, so the two nx "
            f"must be equal, got {list(nx)}"
        )
    return geometry


def _problem(problems, prob):
    nu = prob["nu"]
    nu = [_as(float, v) for v in nu] if isinstance(nu, list) else []
    if len(nu) == 2 and all(v is not None and v > 0 for v in nu):
        prob["nu"] = tuple(nu)
    else:
        problems.append("problem.nu: expected a pair of positive numbers")
    adv = prob["advection"]
    if isinstance(adv, dict):
        entries = {"problem.advection": adv}
    elif isinstance(adv, list) and len(adv) == 2:
        entries = {f"problem.advection[{k}]": one for k, one in enumerate(adv)}
    else:
        entries = {}
        problems.append("problem.advection: expected an object or a pair of objects")
    before = len(problems)
    specs = [_read(problems, one, ADVECTION_KEYS, where) for where, one in entries.items()]
    if entries and len(problems) == before:
        prob["advection"] = tuple(
            fespace.AdvectionSpec(kind=s["preset"], sx=s["sx"], amplitude=s["amplitude"])
            for s in specs * (2 // len(specs))
        )
    B = np.asarray(prob["B"], dtype=object)
    if B.shape == (2, 2) and all(_as(float, v) is not None for v in B.ravel()):
        prob["B"] = B.astype(float)
    else:
        problems.append("problem.B: expected a 2x2 numeric matrix")
    return prob


def _scheme(problems, sch):
    """The configured scheme, or None where the config has a problem."""
    if sch["name"] != "dg":
        return _SHIPPED[sch["name"]]
    thetas = _numbers(problems, sch["thetas"], "scheme.thetas", 1)
    D = _numbers(problems, sch["D"], "scheme.D", 2)
    if sch["q"] is None or thetas is None or D is None:  # q: missing or not an integer
        return None
    try:
        return timepoly.SchemeSpec(
            q=sch["q"], n_s=sch["n_s"], k_s=sch["k_s"], thetas=tuple(np.atleast_1d(thetas)),
            D=D, name="dg",
        )
    except timepoly.SchemeError as err:
        problems.append(f"scheme: {err}")
        return None


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
    top = _read(problems, raw, CONFIG_KEYS, "")

    def section(name, keys):
        return _read(problems, top[name], keys, name)

    geometry = _geometry(problems, section("geometry", GEOMETRY_KEYS))
    problem = _problem(problems, section("problem", PROBLEM_KEYS))
    sch = section("scheme", SCHEME_KEYS)
    if sch["name"] == "dg" and "q" not in top["scheme"]:
        problems.append("scheme.q: missing")
    scheme_spec = _scheme(problems, sch)
    quadrature = sch["quadrature"] or ("trapezoid" if sch["name"] == "crank-nicolson" else "exact")

    window_cfg = None
    before = len(problems)
    win = section("window", WINDOW_KEYS)
    if len(problems) == before:
        try:
            window_cfg = coupling.WindowConfig(
                t_f=win["t_f"], N=win["N"], M=(win["M1"], win["M2"]), r=(win["r1"], win["r2"]),
                N0=win["N0"],
            )
        except ValueError as err:
            problems.append(f"window: {err}")
    if window_cfg is not None and scheme_spec is not None:
        problems += window_cfg.history_problems(scheme_spec)

    solver = section("solver", SOLVER_KEYS)
    if solver["tol"] <= 0:
        problems.append(f"solver.tol: must be positive, got {solver['tol']}")
    experiment = section("experiment", EXPERIMENT_KEYS)

    if problems:
        raise ConfigError(problems)
    return RunConfig(geometry, problem, scheme_spec, quadrature, window_cfg, solver, experiment)


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
    model = {key: cfg.problem[key] for key in ("nu", "advection", "B")}
    if forcing.startswith("mms:"):
        spec = verify.mms_case(forcing[4:], **model).problem
    else:
        f = _pulse_forcing() if forcing == "pulse" else (None, None)
        u0 = _bump_initial() if cfg.problem["initial"] == "bump" else (None, None)
        spec = fespace.ProblemSpec(**model, f=f, g=(None, None), u0=u0)
    return fespace.assemble(m1, m2, imap, spec), spec


def _solver_args(cfg: RunConfig) -> dict:
    """The configured window solve, as march, run_simulation and convergence_study take it."""
    solver = cfg.solver
    return dict(
        quadrature=cfg.quadrature, solver=solver["name"], fp_tol=solver["tol"],
        fp_max_iter=solver["max_iter"],
    )


def _diagnostics(cfg: RunConfig, ops) -> coupling.WindowDiagnostics:
    """The configured run's window diagnostics, each window dropped once reduced."""
    windows = coupling.march(ops, cfg.scheme, cfg.window, **_solver_args(cfg))
    return coupling.window_diagnostics(windows, ops, cfg.window, cfg.quadrature)


def _cmd_run(cfg: RunConfig, outdir: Path) -> int:
    ops, _ = build_operators(cfg)
    diag = _diagnostics(cfg, ops)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "trajectory.csv", "w") as fh:
        coupling.export_trajectory_csv(diag, fh)
    summary = {
        "windows": cfg.window.N,
        "dt": cfg.window.dt,
        "scheme": cfg.scheme.name,
        "quadrature": cfg.quadrature,
        "solver": cfg.solver["name"],
        "final_energy": diag.side_energies[-1].tolist(),
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

    The level function holds the operators, with their initial state, and
    the oracle, whose loads are closures; the workers inherit it by fork, so
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
        oracle_scheme=cfg.experiment["oracle_scheme"],
        oracle_steps=cfg.experiment["oracle_steps"],
        spin_up=cfg.experiment["spin_up"],
        **_solver_args(cfg),
        map=_forked_map(jobs) if jobs > 1 else map,
    )
    with open(outdir / "rates.csv", "w") as fh:
        table.write_csv(fh)
    for note in table.notes:
        print(f"note: {note}")
    print(f"observed {table.target} rate: {table.observed_rate:.3f}")
    print(f"wrote {outdir / 'rates.csv'}")
    return EXIT_OK


def _worst(values: np.ndarray) -> float:
    """The largest of the per-window values that are defined (not nan); 0 if none is."""
    return float(max(values[~np.isnan(values)], default=0.0))


def _cmd_check(cfg: RunConfig, suite: str) -> int:
    # the preconditions need only the operators: reject before simulating
    ops, _ = build_operators(cfg)
    if suite == "conservation" and not ops.conservation_compatible:
        print("check conservation: config error: coupling matrix/interface data "
              "are not conservation compatible", file=sys.stderr)
        return EXIT_CONFIG
    if suite == "energy" and (ops.has_f or ops.has_g or not ops.b_psd):
        print("check energy: config error: requires zero forcing and "
              "positive semidefinite coupling", file=sys.stderr)
        return EXIT_CONFIG
    try:
        diag = _diagnostics(cfg, ops)
    except (coupling.SolverError, coupling.ContractionError) as err:
        print(f"check {suite}: solver failure: {err}", file=sys.stderr)
        return EXIT_FAIL
    if suite == "conservation":
        worst = _worst(diag.conservation)
        ok = worst <= 1e-11
        print(f"check conservation ({diag.conservation_mode}): max relative residual "
              f"{worst:.3e} -> {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_FAIL
    tol = 1e-12 * diag.energies[0]
    monotone = bool(np.all(np.diff(diag.energies) <= tol))
    worst_term = _worst(diag.work)
    ok = monotone and worst_term <= tol
    print(
        f"check energy: monotone={monotone}, max interfacial term "
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
