"""Benchmark for mrcouple: end-to-end times per CLI command, per-module costs.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repeat runs perfbench/worker.py in
a fresh process with BLAS pinned to one thread; repeats run one after
another (a closed loop with one client) until --seconds have passed and
at least MIN_REPEATS untraced repeats (one of each kind when tracing) are done.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
only the end-to-end probes installed.  --trace 1 alternates untraced and
traced repeats and reports the per-layer metrics from the traced ones,
plus the tracing overhead (traced minus untraced wall_s).

Prints one line per metric with its unit and sample count, then, as the
last line, {"correct", "attempted", "failed", "metrics"}.  The full record
(environment block, problem sizes, gate results, per-window samples) goes to
.perfbench/BENCH_<workload>.json.  Exits 2, printing no result, when the
checkout holds no mrcouple sources or a repeat cannot run the program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench"
MIN_REPEATS = 3
REPEAT_TIMEOUT_S = 70  # one repeat takes under 15 s on a 2-core box
LAST_START_S = 100  # with the timeout above, a run ends within 180 s
EXIT_NO_PROGRAM = 3  # worker exit code when mrcouple cannot be imported


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def run_repeat(workload, seed: int, traced: bool, wdir: Path, k: int) -> dict:
    rep = wdir / f"rep{k}"
    record = rep / "record.json"
    rep.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload.name, "--seed", str(seed), "--trace", str(int(traced)),
        "--config", str(wdir / "config.json"), "--out", str(rep / "out"), "--record", str(record),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=REPEAT_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc = None
    if proc is not None and proc.returncode == EXIT_NO_PROGRAM:
        raise BenchError(proc.stderr.strip())
    if proc is None or proc.returncode != 0 or not record.exists():
        # The process died (crash, out of memory, timeout): every operation failed.
        why = "timed out" if proc is None else f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        n_ops = workload.windows + len(workload.gates(seed))
        return {"traced": traced, "attempted": n_ops, "failed": n_ops, "error": why, "gates": []}
    return json.loads(record.read_text())


def run_workload(workload, seed: int, seconds: float, trace: bool) -> list:
    wdir = OUT / workload.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    (wdir / "config.json").write_text(json.dumps(workload.config(seed), indent=1))
    start = time.monotonic()
    reps, durations = [], []
    kinds = (False, True) if trace else (False,)
    need = {False: 1, True: 1} if trace else {False: MIN_REPEATS}
    while True:
        traced = kinds[len(reps) % len(kinds)]
        began = time.monotonic()
        reps.append(run_repeat(workload, seed, traced, wdir, len(reps)))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        done = all(sum(r["traced"] == kind for r in reps) >= n for kind, n in need.items())
        # Start another repeat only if it would end closer to the deadline than stopping now.
        if (done and elapsed + statistics.median(durations) / 2 > seconds) or elapsed >= LAST_START_S:
            return reps


def end_to_end(reps: list) -> dict:
    """Metric -> (value, sample count) over the untraced repeats that ran."""
    ok = [r for r in reps if not r["traced"] and "wall_s" in r]
    if not ok:
        return {}
    windows = [s for r in ok for s in r["window_s"]]
    out = {
        "wall_s": (statistics.median(r["wall_s"] for r in ok), len(ok)),
        "setup_s": (statistics.median(r["setup_s"] for r in ok), len(ok)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), len(ok)),
    }
    if len(windows) >= 2:
        p90 = statistics.quantiles(windows, n=10, method="inclusive")[-1]
        out["window_ms_p50"] = (1e3 * statistics.median(windows), len(windows))
        out["window_ms_p90"] = (1e3 * p90, len(windows))
    return out


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if not traced:
        return {}
    out = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        value = None if None in values else statistics.median(values)
        out[name] = (value, len(values))
    untraced = [r["wall_s"] for r in reps if not r["traced"] and "wall_s" in r]
    if untraced:
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(untraced)
        out["trace.overhead_s"] = (overhead, len(traced) + len(untraced))
    return out


def report(workload, seed: int, trace: bool, reps: list, spec: dict) -> dict:
    """Print the human-readable lines, write the record, return the result."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = per_layer(reps) if trace else end_to_end(reps)
    missing_why = next((r.get("missing") for r in reps if r.get("missing")), {})
    metrics, samples = {}, {}
    print(f"== {workload.name} seed={seed} trace={int(trace)}: {workload.why}")
    for m in declared:
        name, unit = m["name"], m["unit"]
        value, n = measured.get(name, (None, 0))
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = n
        shown = "null" if value is None else f"{value:.6g}"
        why = f"  ({missing_why[name]})" if name in missing_why else ""
        print(f"  {name:<32} {shown:>14} {unit:<6} n={n}{why}")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(f"  fail_rate {failed}/{attempted} = {failed / attempted:.3g} over {len(reps)} repeats")
    for r in reps:
        for g in r["gates"]:
            if not g["ok"]:
                print(f"  FAILED gate {g['name']}: {g['detail']}")
        if r.get("error"):
            print(f"  FAILED repeat: {r['error'].strip().splitlines()[-1]}")
    first = next((r for r in reps if "environment" in r), {})
    print(f"  env {json.dumps(first.get('environment'))}")
    print(f"  sizes {json.dumps(first.get('sizes'))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        **result,
        "samples": samples,
        "environment": first.get("environment"),
        "sizes": first.get("sizes"),
        "repeats": reps,
    }
    (OUT / f"BENCH_{workload.name}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "mrcouple" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"{ROOT} lacks src/mrcouple or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            reps = run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace))
            results[name] = report(WORKLOADS[name], args.seed, bool(args.trace), reps, spec)
    except BenchError as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
