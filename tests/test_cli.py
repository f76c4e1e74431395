import concurrent.futures
import contextlib
import fnmatch
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcouple import cli, coupling


MINIMAL = {
    "geometry": {"nx": 4, "ny": 4},
    "problem": {"nu": [1.0, 0.5], "B": [[1.0, -1.0], [-1.0, 1.0]], "initial": "bump"},
    "scheme": {"name": "crank-nicolson"},
    "window": {"t_f": 0.2, "N": 2, "M1": 2, "M2": 3, "r1": 1, "r2": 1},
}
# the left node is the mean of the new side value and the one two steps back:
# the side conditions reach back two, so window 1 is reference-filled
REACH_TWO = {
    "name": "dg", "q": 1, "n_s": 2, "k_s": 2, "thetas": [0.0, 1.0],
    "D": [[0.5, 0, 0.5], [1, 0, 0]],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_minimal_valid(self):
        cfg = cli.parse_config(json.dumps(MINIMAL))
        assert cfg.scheme.name == "crank-nicolson"
        assert cfg.quadrature == "trapezoid"
        assert cfg.window.M == (2, 3)

    def test_unequal_ny_accepted(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["geometry"] = {"nx": 4, "ny": [4, 6]}
        ops, _ = cli.build_operators(cli.parse_config(json.dumps(payload)))
        assert ops.d_gamma == 3 and ops.d_omega == (3 * 4, 3 * 6)

    def test_zero_substeps_names_field(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["window"]["M1"] = 0
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(payload))
        assert any("window" in p for p in err.value.problems)

    def test_repeated_nodes_rejected_via_side_condition_check(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["scheme"] = {
            "name": "dg", "q": 2, "n_s": 2, "k_s": 1,
            "thetas": [0.5, 0.5], "D": [[0.0, 1.0], [1.0, 0.0]],
        }
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(payload))
        assert any("side-condition" in p for p in err.value.problems)

    def test_unknown_keys_rejected(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["window"]["dt"] = 0.1
        payload["extra"] = 1
        payload["output"] = "out"  # outputs go to --out
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(payload))
        problems = "\n".join(err.value.problems)
        assert "window.dt" in problems and "extra" in problems
        assert "output: unknown key" in problems

    def test_all_errors_reported_together(self):
        payload = {
            "problem": {"nu": [0.0, -1.0]},
            "window": {"N": 0},
            "scheme": {"name": "unknown-scheme"},
        }
        with pytest.raises(cli.ConfigError) as err:
            cli.parse_config(json.dumps(payload))
        assert len(err.value.problems) >= 3

    def test_invalid_json(self):
        with pytest.raises(cli.ConfigError, match="invalid JSON"):
            cli.parse_config("{not json")

    def test_custom_dg_scheme(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["scheme"] = {"name": "dg", "q": 2}
        cfg = cli.parse_config(json.dumps(payload))
        assert cfg.scheme.q == 2 and cfg.scheme.n_s == 0
        assert cfg.quadrature == "exact"

    def test_mms_forcing_accepted(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["forcing"] = "mms:smooth"
        cfg = cli.parse_config(json.dumps(payload))
        assert cfg.problem["forcing"] == "mms:smooth"

    def test_unknown_mms_rejected(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["forcing"] = "mms:bogus"
        with pytest.raises(cli.ConfigError):
            cli.parse_config(json.dumps(payload))

    def test_advection_preset_parsing(self):
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["advection"] = {"preset": "vortex", "amplitude": 0.5}
        cfg = cli.parse_config(json.dumps(payload))
        assert cfg.problem["advection"][0].kind == "vortex"


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("Example configuration", 1)[1]
    example = after.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = cli.parse_config(example)
    assert cfg.window.M == (2, 3) and cfg.geometry["nx"] == (8, 8)


def test_readme_quick_tour_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("## Library quick tour", 1)[1]
    tour = after.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})
    # one line per window: the conservation residual and the work term
    lines = capsys.readouterr().out.splitlines()[:20]
    for cons, work in ([float(v) for v in line.split()] for line in lines):
        assert cons <= 1e-11 and work <= 0.0


class TestMainRun:
    def test_run_writes_outputs(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        csv = (out / "trajectory.csv").read_text()
        assert csv.splitlines()[0].startswith("window,t_sync")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["windows"] == 2
        assert summary["d_gamma"] == 3

    def test_run_deterministic(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_out_on_a_file_is_rejected_before_building(self, tmp_path, capsys, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("run built or simulated with an unusable --out")

        monkeypatch.setattr(coupling, "march", simulate)
        monkeypatch.setattr(cli, "build_operators", simulate)
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "taken"
        out.write_text("a file\n")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("cannot write output: ")
        assert out.read_text() == "a file\n"

    @pytest.mark.parametrize(
        "scheme", [MINIMAL["scheme"], REACH_TWO], ids=["one-step", "reach-two"]
    )
    def test_run_holds_at_most_two_windows(self, tmp_path, monkeypatch, scheme):
        # run streams the windows: each one is dropped once the next is solved
        refs, alive = [], []
        init = coupling.WindowSolution.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs.append(weakref.ref(self))
            alive.append(sum(ref() is not None for ref in refs))

        monkeypatch.setattr(coupling.WindowSolution, "__init__", counted)
        payload = json.loads(json.dumps(MINIMAL))
        payload["scheme"] = scheme
        payload["window"].update({"t_f": 1.0, "N": 24})
        config = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert len(refs) == 24
        assert max(alive) <= 2

    def test_debug_log_has_one_line_per_window(self, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("MRCOUPLE_LOG", raising=False)
        payload = json.loads(json.dumps(MINIMAL))
        payload["scheme"] = REACH_TWO
        payload["window"].update({"t_f": 0.4, "N": 4})
        payload["solver"] = {"name": "fixed-point"}
        argv = ["run", "--config", str(write_config(tmp_path, payload)), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert not [r for r in caplog.records if r.levelno <= logging.DEBUG]
        with caplog.at_level(logging.DEBUG, logger="mrcouple.coupling"):
            assert cli.main(argv) == 0
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(lines) == 4
        assert lines[0] == "window 1: residual nan, reference-filled True"
        for n, line in enumerate(lines[1:], start=2):
            assert re.fullmatch(rf"window {n}: residual \S+, reference-filled False", line)

    # window 1 extrapolates U^n from U^{n+1} and U^{n-2}: the side
    # conditions reach back three, so window 1 is reference-filled
    REACH_THREE = {
        "name": "dg", "q": 1, "n_s": 2, "k_s": 3, "thetas": [0.0, 1.0],
        "D": [[2 / 3, 0, 0, 1 / 3], [1, 0, 0, 0]],
    }

    @pytest.mark.parametrize(
        "scheme", [REACH_TWO, REACH_THREE], ids=["reach-two", "reach-three"]
    )
    def test_run_with_a_reference_window(self, tmp_path, scheme):
        # window 1 comes from the reference fill, the scheme solves the others
        payload = json.loads(json.dumps(MINIMAL))
        payload["scheme"] = scheme
        payload["window"].update({"t_f": 0.4, "N": 4, "M1": 2, "M2": 3})
        config = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()[1:]
        assert len(rows) == payload["window"]["N"] + 1
        for row in rows[1:]:
            assert np.all(np.isfinite([float(v) for v in row.split(",")]))

    @pytest.mark.parametrize(
        "command", [["run"], ["check", "--suite", "conservation"], ["convergence"]]
    )
    def test_initialization_window_count_is_unknown_key(self, tmp_path, capsys, command):
        # the scheme decides its start-up: window 1 is filled when D reaches back
        payload = json.loads(json.dumps(MINIMAL))
        payload["window"]["N0"] = 2
        config = write_config(tmp_path, payload)
        argv = [command[0], "--config", str(config), *command[1:]]
        if command[0] != "check":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.strip().splitlines() == [
            "config error: window.N0: unknown key"
        ]

    @pytest.mark.parametrize("key, value", [("tol", 1e-10), ("max_iter", 200)])
    def test_sweep_settings_are_unknown_keys(self, tmp_path, capsys, key, value):
        # the fixed point solves for the sweeps' limit: nothing stops or counts them
        payload = json.loads(json.dumps(MINIMAL))
        payload["solver"] = {"name": "fixed-point", key: value}
        config = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: solver.{key}: unknown key"
        ]

    def test_unreachable_history_is_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL))
        # column 3 of D reads the side value three steps back
        payload["scheme"] = {
            "name": "dg", "q": 1, "n_s": 1, "k_s": 3, "thetas": [1.0], "D": [[0.5, 0, 0, 0.5]]
        }
        payload["window"]["M1"] = 1
        config = write_config(tmp_path, payload)
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: scheme.D" in err and "M1+1=2" in err

    REACH_BACK = {
        "geometry": {"nx": 2, "ny": 2},
        "scheme": {
            "name": "dg", "q": 1, "n_s": 2, "k_s": 2, "thetas": [0.0, 1.0],
            "D": [[0, 2, -1], [1, 0, 0]],
        },
        "window": {"t_f": 0.1, "N": 1, "M1": 1, "M2": 1},
    }

    @pytest.mark.parametrize(
        "command", [["run"], ["check", "--suite", "conservation"], ["convergence"]]
    )
    def test_no_window_after_the_reference_window_is_config_error(self, tmp_path, capsys, command):
        # column 2 of D reads the side value two steps back, so window 1 is
        # reference-filled, and N = 1 leaves the scheme no window
        config = write_config(tmp_path, self.REACH_BACK)
        argv = [command[0], "--config", str(config), *command[1:]]
        if command[0] != "check":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error: window.N: 1 leaves no scheme window" in err
        assert "reach back 2 side values" in err
        payload = json.loads(json.dumps(self.REACH_BACK))
        payload["window"]["N"] = 2
        cfg = cli.parse_config(json.dumps(payload))
        assert cfg.window.history_problems(cfg.scheme) == []

    # each config up to vanishing-t_f once crashed every command with a
    # bare ValueError
    MALFORMED = {
        "thetas": (
            {"scheme": {"name": "dg", "q": 1, "n_s": 1, "k_s": 0, "thetas": "a", "D": [[1.0]]}},
            "config error: scheme.thetas: expected a list of finite numbers",
        ),
        "D": (
            {"scheme": {"name": "dg", "q": 1, "n_s": 1, "k_s": 0, "thetas": [1.0], "D": "x"}},
            "config error: scheme.D: expected a table of finite numbers",
        ),
        "infinite-t_f": (
            {"window": {"t_f": float("inf"), "N": 2}},
            "config error: window: final time must be positive and finite",
        ),
        "vanishing-t_f": (
            {"window": {"t_f": 1e-300, "N": 2}},
            "config error: window: substeps of subdomain 1 are too short",
        ),
        # Python's json reads NaN and Infinity; each of these once ran with
        # a wrong result, or failed as a solver failure or a traceback
        # the sweep settings are gone: such a value is reported at its key too
        "solver.tol-Infinity": (
            {"solver": {"name": "fixed-point", "tol": float("inf")}},
            "config error: solver.tol: expected a finite number",
        ),
        "solver.tol-NaN": (
            {"solver": {"name": "fixed-point", "tol": float("nan")}},
            "config error: solver.tol: expected a finite number",
        ),
        "spin_up-Infinity": (
            {"experiment": {"spin_up": float("inf")}},
            "config error: experiment.spin_up: expected a finite number",
        ),
        "spin_up-NaN": (
            {"experiment": {"spin_up": float("nan")}},
            "config error: experiment.spin_up: expected a finite number",
        ),
        "nu-NaN": (
            {"problem": {"nu": [float("nan"), 1.0]}},
            "config error: problem.nu[0]: expected a finite number",
        ),
        "B-Infinity": (
            {"problem": {"B": [[1.0, -1.0], [-1.0, float("inf")]]}},
            "config error: problem.B[1][1]: expected a finite number",
        ),
        "sx-NaN": (
            {"problem": {"advection": {"preset": "constant", "sx": float("nan")}}},
            "config error: problem.advection.sx: expected a finite number",
        ),
        "amplitude-Infinity": (
            {"problem": {"advection": {"preset": "vortex", "amplitude": float("inf")}}},
            "config error: problem.advection.amplitude: expected a finite number",
        ),
        # a one-element-wide subdomain has no interface unknowns; it crashed
        # in the window assembly
        "nx-1": (
            {"geometry": {"nx": 1}},
            "config error: geometry.nx: expected an integer of at least 2",
        ),
        "nx-null": (
            {"geometry": {"nx": None}},
            "config error: geometry.nx: expected an integer of at least 2",
        ),
        "nx-pair-1": (
            {"geometry": {"nx": [1, 1], "ny": 2}},
            "config error: geometry.nx: expected an integer of at least 2",
        ),
        # advection numbers of the wrong type crashed with a TypeError or were
        # read as numbers
        "sx-list": (
            {"problem": {"advection": {"preset": "constant", "sx": [1]}}},
            "config error: problem.advection.sx: expected a number",
        ),
        "sx-object": (
            {"problem": {"advection": {"preset": "constant", "sx": {"a": 1}}}},
            "config error: problem.advection.sx: expected a number",
        ),
        "sx-string": (
            {"problem": {"advection": {"preset": "constant", "sx": "2.5"}}},
            "config error: problem.advection.sx: expected a number",
        ),
        "sx-bool": (
            {"problem": {"advection": {"preset": "constant", "sx": True}}},
            "config error: problem.advection.sx: expected a number",
        ),
        "amplitude-null": (
            {"problem": {"advection": {"preset": "vortex", "amplitude": None}}},
            "config error: problem.advection.amplitude: expected a number",
        ),
        "amplitude-pair-entry": (
            {"problem": {"advection": [{"preset": "zero"}, {"preset": "vortex", "amplitude": "1"}]}},
            "config error: problem.advection[1].amplitude: expected a number",
        ),
        # validation branches that no other config reaches
        "advection-list-of-non-objects": (
            {"problem": {"advection": [1, 2]}},
            "config error: problem.advection[0]: expected an object",
        ),
        "advection-string": (
            {"problem": {"advection": "zero"}},
            "config error: problem.advection: expected an object or a pair of objects",
        ),
        "B-not-2x2": (
            {"problem": {"B": [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]}},
            "config error: problem.B: expected a 2x2 numeric matrix",
        ),
        "D-ragged": (
            {"scheme": {"name": "dg", "q": 1, "n_s": 1, "k_s": 1, "thetas": [1.0],
                        "D": [[1.0], [1.0, 0.0]]}},
            "config error: scheme.D: expected a table of finite numbers",
        ),
        "q-missing": (
            {"scheme": {"name": "dg"}},
            "config error: scheme.q: missing",
        ),
    }

    @pytest.mark.parametrize(
        "command", [["run"], ["check", "--suite", "conservation"], ["convergence"]]
    )
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_numbers_are_config_errors(self, tmp_path, capsys, case, command):
        update, message = self.MALFORMED[case]
        payload = {"geometry": {"nx": 2, "ny": 2}, "window": {"t_f": 0.1, "N": 2}, **update}
        config = write_config(tmp_path, payload)
        argv = [command[0], "--config", str(config), *command[1:]]
        if command[0] != "check":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err

    def test_missing_config_is_config_error(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "none.json")]) == 2

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli.main(["run", "--config", str(path)]) == 2


class TestMainConvergence:
    def test_writes_rate_table(self, tmp_path):
        payload = json.loads(json.dumps(MINIMAL))
        payload["window"] = {"t_f": 0.5, "N": 2, "M1": 1, "M2": 2, "r1": 1, "r2": 1}
        payload["problem"]["forcing"] = "mms:smooth"
        payload["experiment"] = {"kind": "convergence", "levels": 3, "oracle_steps": 512}
        config = write_config(tmp_path, payload)
        out = tmp_path / "conv"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "rates.csv").read_text().strip().splitlines()
        assert lines[0] == "level,dt,dt1,dt2,err_l2_u1,err_l2_u2,err_sync,rate_running"
        assert len(lines) == 4

    def test_out_under_a_file_is_rejected_before_building(self, tmp_path, capsys, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("convergence built operators with an unusable --out")

        monkeypatch.setattr(cli, "build_operators", build)
        monkeypatch.setattr(coupling, "march", build)
        payload = {**MINIMAL, "experiment": {"kind": "convergence", "levels": 3}}
        config = write_config(tmp_path, payload)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "sub"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("cannot write output: ")

    @pytest.mark.parametrize(
        "experiment, flag, where",
        [({}, ["--levels", "1"], "--levels"), ({"levels": 2}, [], "experiment.levels")],
    )
    def test_too_few_levels(self, tmp_path, capsys, experiment, flag, where):
        payload = {**MINIMAL, "experiment": {"kind": "convergence", **experiment}}
        config = write_config(tmp_path, payload)
        out = tmp_path / "conv"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out), *flag]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            f"config error: {where}: convergence needs at least 3 levels"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, flag, where",
        [
            ({"levels": 40}, [], "experiment.levels"),
            ({"levels": 4, "oracle_steps": 8}, [], "experiment.levels"),
            ({}, ["--levels", "10"], "--levels"),  # 2*2^9 windows, 819 oracle steps
            ({}, ["--levels", "1000000000"], "--levels"),
        ],
    )
    def test_levels_finer_than_the_oracle_are_config_error(
        self, tmp_path, capsys, experiment, flag, where
    ):
        payload = {**MINIMAL, "experiment": {"kind": "convergence", **experiment}}
        config = write_config(tmp_path, payload)
        out = tmp_path / "conv"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out), *flag]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {where}:")
        assert "oracle" in err[0]
        assert not out.exists()

    def test_study_skips_reference_windows(self, tmp_path):
        # window 1 of every level is filled from the reference solve, and the
        # error norms leave it out
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["forcing"] = "mms:smooth"
        payload["scheme"] = REACH_TWO
        payload["window"] = {"t_f": 0.5, "N": 2, "M1": 1, "M2": 2, "r1": 1, "r2": 1}
        payload["experiment"] = {"kind": "convergence", "levels": 3, "oracle_steps": 512}
        config = write_config(tmp_path, payload)
        out = tmp_path / "conv"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "rates.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        errors = np.array([row[4:7] for row in rows], dtype=float)
        assert np.all(np.isfinite(errors)) and np.all(errors > 0)

    def test_levels_up_to_the_oracle_step_count_run(self, tmp_path):
        payload = {**MINIMAL, "experiment": {"kind": "convergence", "levels": 3, "oracle_steps": 8}}
        config = write_config(tmp_path, payload)
        out = tmp_path / "conv"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 0
        assert len((out / "rates.csv").read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        config = write_config(tmp_path, MINIMAL)
        out = tmp_path / "conv"
        argv = ["convergence", "--config", str(config), "--out", str(out), "--jobs", jobs]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"config error: --jobs must be at least 1, got {jobs}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("experiment", "oracle_scheme", "rk4"),
            ("experiment", "oracle_steps", 0),
            ("geometry", "nx", [4, 8]),
        ],
    )
    def test_bad_setting_is_config_error(self, tmp_path, capsys, section, key, value):
        payload = json.loads(json.dumps(MINIMAL))
        payload.setdefault(section, {})[key] = value
        config = write_config(tmp_path, payload)
        out = tmp_path / "conv"
        assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {section}.{key}:")
        assert not out.exists()

    def test_forked_map_submits_finest_level_first(self, monkeypatch):
        submitted = []

        class InlinePool:
            def __init__(self, workers, mp_context, initializer, initargs):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, cfg):
                submitted.append(cfg.N)
                future = concurrent.futures.Future()
                future.set_result(fn(cfg))
                return future

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_level_fn", None)
        configs = [coupling.WindowConfig(t_f=1.0, N=n) for n in (4, 8, 16)]
        assert cli._forked_map(2)(lambda cfg: cfg.N, configs) == [4, 8, 16]
        assert submitted == [16, 8, 4]

    def test_parallel_levels_match_sequential(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL))
        payload["window"] = {"t_f": 0.5, "N": 2, "M1": 1, "M2": 2, "r1": 1, "r2": 1}
        payload["problem"]["forcing"] = "mms:smooth"
        payload["experiment"] = {
            "kind": "convergence", "levels": 3, "oracle_steps": 256, "spin_up": 0.1,
        }
        # no data at all: every level sits at the roundoff floor and is noted
        still = json.loads(json.dumps(payload))
        still["problem"].update(forcing="zero", initial="zero")
        del still["experiment"]["spin_up"]
        for case, case_payload in (("mms", payload), ("still", still)):
            config = write_config(tmp_path, case_payload, name=f"{case}.json")
            outputs = []
            for jobs in (1, 2):
                out = tmp_path / f"{case}-{jobs}"
                rc = cli.main(
                    ["convergence", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]
                )
                assert rc == 0
                stdout = capsys.readouterr().out.replace(str(out), "<out>")
                outputs.append(((out / "rates.csv").read_bytes(), stdout))
            assert outputs[0] == outputs[1]
        assert "note:" in outputs[0][1]


    def test_fixed_point_solver_reaches_every_level(self, tmp_path, capsys, monkeypatch):
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["forcing"] = "mms:smooth"
        payload["scheme"] = {"name": "dg1"}
        payload["window"] = {"t_f": 0.5, "N": 50, "M1": 1, "M2": 2, "r1": 1, "r2": 1}
        payload["experiment"] = {"kind": "convergence", "levels": 3}
        payload["solver"] = {"name": "fixed-point"}
        config = write_config(tmp_path, payload)
        solvers = []
        init = coupling.WindowOperator.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            solvers.append(self.solver)

        rates = {}
        for jobs in (1, 2):
            out = tmp_path / f"fp-{jobs}"
            argv = ["convergence", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]
            with monkeypatch.context() as patch:
                patch.setattr(coupling.WindowOperator, "__init__", recording)
                assert cli.main(argv) == 0
            rates[jobs] = (out / "rates.csv").read_bytes()
        capsys.readouterr()
        # the sequential study builds its levels here; the forked ones, in the workers
        assert solvers == ["fixed-point"] * 3
        assert rates[1] == rates[2]


class TestSolverFailure:
    # strong coupling against the subdomains' implicit response: the lagged
    # sweeps diverge here, and the fixed point solves for their limit
    DIVERGING = {
        **MINIMAL,
        "problem": {
            **MINIMAL["problem"],
            "forcing": "mms:smooth",
            "B": [[10.0, -10.0], [-10.0, 10.0]],
        },
        "window": {"t_f": 0.5, "N": 2, "M1": 2, "M2": 3, "r1": 1, "r2": 1},
        "solver": {"name": "fixed-point"},
    }

    @staticmethod
    def energies(tmp_path, payload):
        """Per solver, the side energies of trajectory.csv from `run` on payload."""
        energies = {}
        for name in ("fixed-point", "direct"):
            config = write_config(tmp_path, {**payload, "solver": {"name": name}}, f"{name}.json")
            out = tmp_path / name
            assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
            rows = (out / "trajectory.csv").read_text().splitlines()[1:]
            energies[name] = [float(v) for row in rows for v in row.split(",")[2:4]]
        return energies

    def test_unit_coupling_converges_and_agrees_with_direct(self, tmp_path):
        # with B of unit size the same config diverged when the sweeps also
        # lagged the subdomain operators
        problem = {**self.DIVERGING["problem"], "B": MINIMAL["problem"]["B"]}
        energies = self.energies(tmp_path, {**self.DIVERGING, "problem": problem})
        for fp, direct in zip(energies["fixed-point"], energies["direct"]):
            assert abs(fp - direct) <= 1e-8 * abs(direct)

    def test_run_solves_where_the_sweeps_diverge(self, tmp_path):
        energies = self.energies(tmp_path, self.DIVERGING)
        assert len(energies["fixed-point"]) == 2 * (self.DIVERGING["window"]["N"] + 1)
        for fp, direct in zip(energies["fixed-point"], energies["direct"]):
            assert abs(fp - direct) <= 1e-8 * abs(direct)

    def test_convergence_solves_where_the_sweeps_diverge(self, tmp_path, capsys):
        payload = {**self.DIVERGING, "experiment": {"kind": "convergence", "levels": 3}}
        tables = {}
        for name in ("fixed-point", "direct"):
            config = write_config(tmp_path, {**payload, "solver": {"name": name}}, f"{name}.json")
            out = tmp_path / name
            assert cli.main(["convergence", "--config", str(config), "--out", str(out)]) == 0
            rows = (out / "rates.csv").read_text().splitlines()[1:]
            tables[name] = [[float(v) for v in row.split(",")] for row in rows]
        assert "Traceback" not in capsys.readouterr().err
        assert len(tables["fixed-point"]) == 3
        for fp, direct in zip(tables["fixed-point"], tables["direct"]):
            # the level's sizes, errors and running rate; a rate is nan on level 0
            assert np.allclose(fp, direct, rtol=1e-8, atol=0.0, equal_nan=True)

    # anti-dissipative coupling over a long span: the reference fill of
    # window 1 overflows
    BLOWN_UP_FILL = {
        "geometry": {"nx": 3, "ny": 3},
        "problem": {
            "nu": [1e-06, 1e-06], "advection": {"preset": "vortex", "amplitude": -1.0},
            "B": [[0.5, 3.0], [1.0, 1e-12]], "forcing": "mms:smooth", "initial": "zero",
        },
        "window": {"t_f": 200.0, "N": 3, "M1": 3, "M2": 4, "r1": 1, "r2": 0},
        "scheme": {**REACH_TWO, "quadrature": "exact"},
    }

    def test_run_names_a_blown_up_reference_fill(self, tmp_path, capsys):
        config = write_config(tmp_path, self.BLOWN_UP_FILL)
        rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "solver failure: reference fill of window 1 produced non-finite values"
        ]

    # the symmetric part of this B overflows when formed as (B + B^T) / 2
    NEAR_FLOAT_MAX = {"problem": {"B": [[1e308, -1e308], [-1e308, 1e308]]}}

    def test_coupling_near_the_float_maximum_fails_without_warnings(self, tmp_path, capsys):
        config = write_config(tmp_path, self.NEAR_FLOAT_MAX)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "solver failure: window 1: window factorization produced non-finite values"
        ]
        assert [str(w.message) for w in caught] == []

    # the same coupling in a convergence study: SuperLU finds the coupled
    # system's Crank-Nicolson step matrix exactly singular, in a reference
    # march, before any window is solved
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_convergence_names_a_singular_reference_factor(self, tmp_path, capsys, jobs):
        payload = {
            "window": {"t_f": 0.3, "N": 3, "M1": 1, "M2": 2},
            "problem": {"forcing": "mms:smooth", **self.NEAR_FLOAT_MAX["problem"]},
            "experiment": {"levels": 3},
        }
        config = write_config(tmp_path, payload)
        argv = ["--config", str(config), "--out", str(tmp_path / "out"), "--jobs", str(jobs)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["convergence", *argv])
        assert rc == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("solver failure: ")
        assert "Traceback" not in captured.err
        assert [str(w.message) for w in caught] == []

    # coupling so strong that the squares in the direct solve's residual
    # norms pass the float maximum: the window fails, it is not accepted
    # on a NaN residual
    @pytest.mark.parametrize("scale", [1e100, 1e160])
    def test_overflowing_residual_norms_fail_the_window(self, tmp_path, capsys, scale):
        payload = {
            "geometry": {"nx": 4},
            "problem": {"B": [[scale, -scale], [-scale, scale]]},
            "window": {"t_f": 0.2, "N": 3, "M1": 1, "M2": 2},
        }
        config = write_config(tmp_path, payload)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("solver failure: window 1: window solve residual ")
        assert [str(w.message) for w in caught] == []

    # the same coupling under the fixed point: its flux system I + K is so
    # ill-conditioned that a window residual of roundoff size says nothing of
    # its error (at 1e100 the energy rose from 0.094 to 47 in three windows
    # whose residuals were below 4e-15)
    @pytest.mark.parametrize("scale", [1e7, 1e100])
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_ill_conditioned_flux_system_fails_the_fixed_point(
        self, tmp_path, capsys, scale, command
    ):
        payload = {
            "geometry": {"nx": 4},
            "problem": {"B": [[scale, -scale], [-scale, scale]]},
            "window": {"t_f": 0.2, "N": 3, "M1": 1, "M2": 2},
            "solver": {"name": "fixed-point"},
        }
        config = str(write_config(tmp_path, payload))
        argv = ["--out", str(tmp_path / "out")] if command == "run" else ["--suite", "energy"]
        assert cli.main([command, "--config", config, *argv]) == 1
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in captured.err
        prefix = "solver failure: " if command == "run" else "check energy: solver failure: "
        assert err[0].startswith(prefix + "fixed-point flux system I + K has condition number ")

    @pytest.mark.parametrize(
        "solver, failure",
        [
            ("direct", "window 1: window factorization produced non-finite values"),
            # the fixed point factors A_ss, which holds no B; its guard refuses
            # the Schur complement (fnmatch pattern: * stands for the number)
            pytest.param(
                "fixed-point",
                "fixed-point flux system I + K has condition number *, above 4.504e+05 (the "
                "window residual tolerance over machine epsilon), so the window residual "
                "cannot bound its error; the direct solver does not form it",
                id="fixed-point-guard",
            ),
        ],
    )
    @pytest.mark.parametrize("suite", ["energy", "conservation"])
    def test_check_reports_solver_failure(self, tmp_path, capsys, suite, solver, failure):
        config = write_config(tmp_path, {**self.NEAR_FLOAT_MAX, "solver": {"name": solver}})
        assert cli.main(["check", "--config", str(config), "--suite", suite]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert fnmatch.fnmatchcase(err[0], f"check {suite}: solver failure: {failure}")


class TestMainCheck:
    def test_conservation_passes(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        assert cli.main(["check", "--config", str(config), "--suite", "conservation"]) == 0

    def test_conservation_rejects_incompatible_coupling(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["B"] = [[1.0, 0.0], [1.0, 0.0]]
        config = write_config(tmp_path, payload)
        assert cli.main(["check", "--config", str(config), "--suite", "conservation"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("check conservation: config error:")

    def test_energy_passes(self, tmp_path):
        config = write_config(tmp_path, MINIMAL)
        assert cli.main(["check", "--config", str(config), "--suite", "energy"]) == 0

    def test_energy_rejects_forced_runs(self, tmp_path, capsys):
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["forcing"] = "pulse"
        config = write_config(tmp_path, payload)
        assert cli.main(["check", "--config", str(config), "--suite", "energy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("check energy: config error:")

    def test_energy_of_a_zero_state_passes(self, tmp_path, capsys):
        # E0 = 0: the bound 1e-12 E0 is 0, and every energy and work term is 0
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["initial"] = "zero"
        config = write_config(tmp_path, payload)
        assert cli.main(["check", "--config", str(config), "--suite", "energy"]) == 0
        assert capsys.readouterr().out == (
            "check energy: monotone=True, max interfacial term 0.000e+00 -> PASS\n"
        )

    @pytest.mark.parametrize("forcing, suite", [("mms:smooth", "conservation"), ("pulse", "energy")])
    def test_rejects_before_simulating(self, tmp_path, monkeypatch, forcing, suite):
        def simulate(*args, **kwargs):
            raise AssertionError("check simulated a config it cannot check")

        monkeypatch.setattr(coupling, "march", simulate)
        payload = json.loads(json.dumps(MINIMAL))
        payload["problem"]["forcing"] = forcing
        config = write_config(tmp_path, payload)
        assert cli.main(["check", "--config", str(config), "--suite", suite]) == 2


def test_commands_never_import_sympy(tmp_path):
    payload = {
        **MINIMAL,
        "problem": {**MINIMAL["problem"], "forcing": "mms:smooth"},
        "experiment": {"kind": "convergence", "levels": 3, "oracle_steps": 64},
    }
    config = str(write_config(tmp_path, payload))
    out = str(tmp_path / "out")
    script = f"""
import sys
import mrcouple
from mrcouple import cli
codes = [
    cli.main(["run", "--config", {config!r}, "--out", {out!r}]),
    cli.main(["convergence", "--config", {config!r}, "--out", {out!r}]),
    cli.main(["check", "--config", {config!r}, "--suite", "conservation"]),
]
print(codes, "sympy" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    # check builds the case and finds its interface data not conservative
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 2] False"


# -- generated configs ------------------------------------------------------

NAMED_MESSAGE = re.compile(r"^(config error|solver failure|check (conservation|energy)\b.*): ")


def _allowed(keys, key):
    return st.sampled_from(keys[key].allowed)


@st.composite
def custom_dg_scheme(draw):
    q = draw(st.integers(0, 2))
    n_s = draw(st.integers(0, q + 1))
    k_s = draw(st.integers(0, 2))
    thetas = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n_s, max_size=n_s)))
    entries = st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0])
    D = draw(st.lists(st.lists(entries, min_size=k_s + 1, max_size=k_s + 1),
                      min_size=n_s, max_size=n_s))
    return {"name": "dg", "q": q, "n_s": n_s, "k_s": k_s, "thetas": thetas, "D": D}


@st.composite
def small_configs(draw):
    """Configs drawn from the cli key tables: nx <= 4, N <= 4, 3 levels."""
    advection = st.fixed_dictionaries(
        {"preset": _allowed(cli.ADVECTION_KEYS, "preset")},
        optional={"sx": st.floats(-2.0, 2.0), "amplitude": st.floats(0.0, 2.0)},
    )
    problem = {
        "nu": draw(st.lists(st.floats(0.05, 2.0), min_size=2, max_size=2)),
        "advection": draw(advection | st.lists(advection, min_size=2, max_size=2)),
        "B": draw(st.sampled_from([
            [[1.0, -1.0], [-1.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [-1.0, 0.0]],
            [[2.0, -1.0], [-1.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]],
        ])),
        "forcing": draw(_allowed(cli.PROBLEM_KEYS, "forcing")),
        "initial": draw(_allowed(cli.PROBLEM_KEYS, "initial")),
    }
    shipped = [name for name in cli.SCHEME_KEYS["name"].allowed if name != "dg"]
    scheme = draw(custom_dg_scheme() | st.fixed_dictionaries({"name": st.sampled_from(shipped)}))
    quadrature = draw(st.none() | _allowed(cli.SCHEME_KEYS, "quadrature"))
    if quadrature is not None:
        scheme["quadrature"] = quadrature
    window = {
        "t_f": draw(st.sampled_from([0.05, 0.2, 1.0])),
        "N": draw(st.integers(1, 4)),
        "M1": draw(st.integers(1, 3)),
        "M2": draw(st.integers(1, 3)),
        "r1": draw(st.integers(0, 2)),
        "r2": draw(st.integers(0, 2)),
    }
    return {
        "geometry": {"nx": draw(st.integers(2, 4)), "ny": draw(st.integers(1, 4))},
        "problem": problem,
        "scheme": scheme,
        "window": window,
        "solver": {"name": draw(_allowed(cli.SOLVER_KEYS, "name"))},
        "experiment": {
            "levels": 3,
            "target": draw(_allowed(cli.EXPERIMENT_KEYS, "target")),
            "oracle_scheme": draw(_allowed(cli.EXPERIMENT_KEYS, "oracle_scheme")),
            "oracle_steps": draw(st.sampled_from([16, 64, 256])),
            "spin_up": draw(st.sampled_from([0.0, 0.05])),
        },
    }


@settings(max_examples=25, deadline=None)
@given(config=small_configs())
def test_generated_configs_run_or_fail_by_name(config):
    """run, check and convergence exit 0, 1 or 2; a failure names its kind
    in every line it prints, and no exception escapes cli.main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out = str(Path(tmp) / "out")
        for argv in (
            ["run", "--config", str(path), "--out", out],
            ["check", "--config", str(path), "--suite", "conservation"],
            ["check", "--config", str(path), "--suite", "energy"],
            ["convergence", "--config", str(path), "--out", out],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            text = stdout.getvalue() + stderr.getvalue()
            assert code in (0, 1, 2), (argv, text)
            assert "Traceback" not in text
            if code != 0:
                lines = [line for line in text.splitlines() if line]
                assert lines, argv
                assert all(NAMED_MESSAGE.match(line) for line in lines), (argv, text)
