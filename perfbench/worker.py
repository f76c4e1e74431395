"""One repeat of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --config CONFIG.json --out OUT_DIR --record RECORD.json

Pins BLAS to one thread before numpy is imported, imports mrcouple from
the checkout's src/, installs the probes, calls ``mrcouple.cli.main`` as
the command line would, timing it on the reference clock (refclock.py),
removes the probes, runs the correctness gates and writes one JSON record.  Exits 3 when mrcouple cannot be imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
from probes import Probes  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXIT_NO_PROGRAM = 3
MODULES = ("cli", "coupling", "dgit", "fespace", "mesh", "timepoly", "verify")


def _import_program() -> dict:
    mods = {name: importlib.import_module(f"mrcouple.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"mrcouple imported from {origin}, not from this checkout")
    mods["scipy.sparse.linalg"] = importlib.import_module("scipy.sparse.linalg")
    return mods


def _blas() -> list:
    """Loaded OpenBLAS libraries with their configuration and thread counts."""
    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def _git_commit():
    """HEAD's hash, with "-dirty" appended when tracked files differ from it."""
    if not (ROOT / ".git").exists():  # not a repository; git would search the parents
        return None
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--abbrev=40", "--dirty"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--record", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    try:
        mods = _import_program()
    except ImportError as err:
        print(f"cannot import mrcouple: {err}", file=sys.stderr)
        return EXIT_NO_PROGRAM

    clock = RefClock(workload.speed_sensitivity)
    probes = Probes(mods, traced=bool(args.trace), clock=clock.now, sync=clock.sync)
    probes.install()
    stdout = io.StringIO()
    error = None
    clock.start()
    start, raw_start = clock.now(), time.perf_counter()
    raw_offset = raw_start - clock.slices[0][0]
    try:
        with contextlib.redirect_stdout(stdout):
            code = mods["cli"].main(workload.argv(args.config, args.out))
    except Exception:  # the program failed; record it as failed operations
        code, error = None, traceback.format_exc(limit=5)
    wall, raw_wall = clock.now() - start, time.perf_counter() - raw_start
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes.remove()

    e2e = probes.end_to_end()
    gate_names = workload.gates(args.seed)
    if code == 0:
        config_text = Path(args.config).read_text()
        gate_results = gates.run(
            workload, args.seed, mods, config_text, Path(args.out), stdout.getvalue(), probes
        )
    else:
        gate_results = [{"name": n, "ok": False, "detail": "CLI did not succeed"} for n in gate_names]
    if error is None and code != 0:
        error = f"CLI exit code {code}"
    gate_failures = sum(not g["ok"] for g in gate_results)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "exit_code": code,
        "error": error,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "refclock": {**clock.summary(), "run_start_s": raw_offset},
        "setup_s": e2e["setup_s"],
        "window_s": e2e["window_s"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": workload.windows + len(gate_names),
        "failed": max(0, workload.windows - probes.windows_solved) + gate_failures,
        "gates": gate_results,
        "sizes": {**probes.sizes(), "N": workload.window["N"],
                  "levels": workload.experiment.get("levels")},
        "environment": environment(),
    }
    if args.trace:
        record["layers"] = probes.layers()
        record["missing"] = probes.missing
    Path(args.record).write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
