"""Timing probes that the benchmark installs on mrcouple's names.

A probe replaces a function where its callers look it up -- a module
attribute or a class attribute -- with a wrapper that adds each call's
count and time to a total kept per (calling span, span) pair.

End-to-end probes are always installed.  They wrap only the four calls
that the end-to-end metrics need, each called at most once per window:
``cli.parse_config``, ``cli.build_operators``, ``WindowOperator``
construction, and the per-window solve (``WindowOperator.solve`` or
``coupling.solve_window_fixed_point``).  Layer probes wrap the calls into
every module and are installed only in traced runs.  All probes are
removed before the correctness gates run.

Imports only the standard library, so the program's modules are passed in.
"""

from __future__ import annotations

import statistics


class Spans:
    """Call counts and times of named spans, keyed by (caller span, span).

    The caller is the innermost open span when the call starts, or None.
    A span's self time is its time minus that of the spans it calls.
    """

    def __init__(self, clock):
        self.clock = clock  # () -> seconds
        self.calls = {}  # (caller, name) -> count
        self.times = {}  # (caller, name) -> inclusive seconds
        self.self_times = {}  # name -> exclusive seconds
        self._stack = []  # [name, seconds spent in callees] per open span

    def wrap(self, name: str, fn, samples=None, after=None, before=None):
        """Wrapper that records each call of fn as a span named `name`.

        samples, if given, receives each call's duration; before() runs
        before each call and after(args, result) after a successful one,
        both outside the timed region.
        """
        stack = self._stack
        clock = self.clock

        def probe(*args, **kwargs):
            if before is not None:
                before()
            key = (stack[-1][0] if stack else None, name)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[key] = self.calls.get(key, 0) + 1
                self.times[key] = self.times.get(key, 0.0) + elapsed
                self.self_times[name] = self.self_times.get(name, 0.0) + elapsed - frame[1]
                if samples is not None:
                    samples.append(elapsed)
            if after is not None:
                after(args, result)
            return result

        probe.__wrapped__ = fn
        return probe

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(
            t for (p, n), t in self.times.items() if n == name and (parent is None or p == parent)
        )

    def count(self, name: str) -> int:
        return sum(c for (_, n), c in self.calls.items() if n == name)

    def self_total(self, name: str) -> float:
        return self.self_times.get(name, 0.0)


class _TimedLU:
    """Stands in for a WindowOperator's factor object and times its solves."""

    def __init__(self, lu, samples, clock):
        self._inner = lu
        self._samples = samples
        self._clock = clock

    def solve(self, rhs, *args):
        start = self._clock()
        try:
            return self._inner.solve(rhs, *args)
        finally:
            self._samples.append(self._clock() - start)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _mean_ms(samples):
    return 1e3 * statistics.fmean(samples) if samples else 0.0


class Probes:
    """Installs the probes on mrcouple's modules and derives the metrics."""

    def __init__(self, mods: dict, traced: bool, clock, sync):
        self.mods = mods
        self.traced = traced
        self.spans = Spans(clock)
        self.sync = sync  # re-measures the clock's speed before each window
        self.solve_s = []  # per-window WindowOperator.solve time
        self.fp_s = []  # per-window solve_window_fixed_point time
        self.rhs_s = []
        self.lu_solve_s = []
        self.operators = []  # (dim, matrix nnz, factor object or None) per WindowOperator
        self.residuals = []  # per solved window
        self.sweeps = []  # per fixed-point window
        self.last_solution = None
        self.ops = None
        self.missing = {}  # metric -> why it cannot be measured
        self._saved = []

    # -- installation -------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, samples=None, after=None, before=None):
        orig = owner.__dict__[attr]
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, self.spans.wrap(name, orig, samples, after, before))

    def install(self) -> None:
        cli, coupling = self.mods["cli"], self.mods["coupling"]
        wop = coupling.WindowOperator
        self._patch(cli, "parse_config", "cli.parse_config")
        self._patch(cli, "build_operators", "cli.build_operators", after=self._record_ops)
        self._patch(wop, "__init__", "coupling.WindowOperator", after=self._record_operator)
        self._patch(
            wop, "solve", "coupling.WindowOperator.solve", self.solve_s, self._record_window, self.sync
        )
        self._patch(
            coupling,
            "solve_window_fixed_point",
            "coupling.solve_window_fixed_point",
            self.fp_s,
            self._record_fp_window,
            self.sync,
        )
        if self.traced:
            self._install_layers()

    def _install_layers(self) -> None:
        m = self.mods
        public = [
            (m["mesh"], "build_mesh"),
            (m["mesh"], "match_interfaces"),
            (m["fespace"], "assemble"),
            (m["fespace"].FeOperators, "f_vec"),
            (m["fespace"].FeOperators, "g_vec"),
            (m["timepoly"], "gauss_rule"),
            (m["dgit"], "assemble_substep"),
            (m["dgit"], "solve_substep"),
            (m["dgit"], "load_moments"),
            (m["dgit"], "integrate"),
            (m["verify"], "mms_case"),
            (m["verify"], "prepare_initial_state"),
            (m["verify"], "reference_solve"),
            (m["verify"], "error_norms"),
            (m["verify"], "run_simulation"),
            (m["verify"], "convergence_study"),
            (m["coupling"], "run_simulation"),
            (m["coupling"], "check_flux_conservation"),
            (m["coupling"], "interfacial_energy_term"),
            (m["coupling"], "export_trajectory_csv"),
            (m["scipy.sparse.linalg"], "splu"),
        ]
        for owner, attr in public:
            self._patch(owner, attr, f"{_owner_name(owner)}.{attr}")
        # Private names: their metrics become null, not 0, once a name is gone.
        private = [
            (m["coupling"].WindowOperator, "_rhs", ("coupling.rhs_ms",), self.rhs_s),
            (m["cli"], "_cmd_run", ("cli.output_s",), None),
            (m["cli"], "_cmd_convergence", ("cli.output_s",), None),
        ]
        for owner, attr, metrics, samples in private:
            if attr in owner.__dict__:
                self._patch(owner, attr, f"{_owner_name(owner)}.{attr}", samples)
            else:
                for metric in metrics:
                    self.missing[metric] = f"{_owner_name(owner)}.{attr} no longer exists"

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # -- hooks --------------------------------------------------------------
    def _record_ops(self, args, result):
        self.ops = result[0]

    def _record_operator(self, args, result):
        op = args[0]
        lu = op.__dict__.get("_lu")
        # Untraced runs keep no factor alive, so peak memory is the program's own.
        self.operators.append((op.dim, op.matrix.nnz, lu if self.traced else None))
        if not self.traced:
            return
        if lu is None:
            self.missing["coupling.lu_solve_ms"] = "WindowOperator._lu no longer exists"
            self.missing["coupling.lu_nnz"] = "WindowOperator._lu no longer exists"
        else:
            op._lu = _TimedLU(lu, self.lu_solve_s, self.spans.clock)

    def _record_window(self, args, sol):
        self.last_solution = sol
        self.residuals.append(sol.residual)

    def _record_fp_window(self, args, sol):
        self._record_window(args, sol)
        self.sweeps.append(sol.iterations)

    # -- metrics ------------------------------------------------------------
    @property
    def windows_solved(self) -> int:
        return len(self.residuals)

    def end_to_end(self) -> dict:
        t = self.spans
        return {
            "setup_s": t.total("cli.parse_config")
            + t.total("cli.build_operators")
            + t.total("coupling.WindowOperator"),
            "window_s": self.solve_s + self.fp_s,
        }

    def sizes(self) -> dict:
        ops = self.ops
        return {
            "d_omega": list(ops.d_omega) if ops is not None else None,
            "d_gamma": ops.d_gamma if ops is not None else None,
            "window_dim": max((dim for dim, _, _ in self.operators), default=0),
        }

    def layers(self) -> dict:
        """Per-layer metrics of one traced repeat; None where unmeasurable."""
        t = self.spans
        lu_nnz = max(
            (lu.L.nnz + lu.U.nnz for _, _, lu in self.operators if lu is not None), default=0
        )
        factor = t.total("scipy.sparse.linalg.splu", parent="coupling.WindowOperator")
        out = {
            "cli.parse_s": t.total("cli.parse_config"),
            "mesh.build_s": t.total("mesh.build_mesh") + t.total("mesh.match_interfaces"),
            "fespace.assemble_s": t.total("fespace.assemble"),
            "verify.mms_case_s": t.total("verify.mms_case"),
            "coupling.window_dim": self.sizes()["window_dim"],
            "coupling.matrix_nnz": max((nnz for _, nnz, _ in self.operators), default=0),
            "coupling.lu_nnz": lu_nnz,
            "coupling.lu_bytes": 12 * lu_nnz,
            "coupling.operator_build_s": t.total("coupling.WindowOperator") - factor,
            "coupling.factor_s": factor,
            "coupling.solve_ms": _mean_ms(self.solve_s),
            "coupling.lu_solve_ms": _mean_ms(self.lu_solve_s),
            "coupling.rhs_ms": _mean_ms(self.rhs_s),
            "coupling.fp_sweeps": sum(self.sweeps),
            "coupling.fp_sweeps_p50": statistics.median(self.sweeps) if self.sweeps else 0,
            "coupling.residual_max": max(self.residuals, default=0.0),
            "coupling.diagnostics_s": t.total("coupling.check_flux_conservation")
            + t.total("coupling.interfacial_energy_term"),
            "cli.output_s": t.self_total("cli._cmd_run")
            + t.self_total("cli._cmd_convergence")
            + t.self_total("coupling.export_trajectory_csv"),
            "verify.spin_up_s": t.total("verify.prepare_initial_state"),
            "verify.oracle_s": t.total("verify.reference_solve"),
            "verify.error_norms_s": t.total("verify.error_norms"),
            "verify.level_run_s": t.total("verify.run_simulation"),
            "dgit.integrate_s": t.total("dgit.integrate"),
        }
        for metric, span in (
            ("fespace.f_vec", "fespace.FeOperators.f_vec"),
            ("fespace.g_vec", "fespace.FeOperators.g_vec"),
            ("dgit.load_moments", "dgit.load_moments"),
            ("timepoly.gauss_rule", "timepoly.gauss_rule"),
            ("dgit.assemble_substep", "dgit.assemble_substep"),
            ("dgit.solve_substep", "dgit.solve_substep"),
        ):
            out[f"{metric}_calls"] = t.count(span)
            out[f"{metric}_s"] = t.total(span)
        for metric in self.missing:
            out[metric] = None
        if out["coupling.lu_nnz"] is None:
            out["coupling.lu_bytes"] = None
        return out


def _owner_name(owner) -> str:
    """Short dotted name: 'coupling', 'fespace.FeOperators', 'scipy.sparse.linalg'."""
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    short = module.removeprefix("mrcouple.")
    return f"{short}.{owner.__name__}" if isinstance(owner, type) else short
