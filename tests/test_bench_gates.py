"""The benchmark's correctness gates read the solved windows as the program makes them.

perfbench/gates.py reads the last window's side values U and flux modes F;
a change to WindowSolution that breaks those reads would fail every
benchmark repeat's gates.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from mrcouple import cli, coupling

GATES = Path(__file__).resolve().parents[1] / "perfbench" / "gates.py"
# mms_error bounds the spatial error too: at nx 4 it is 7.6e-3, above the
# gate's 1e-3, while nx 16 leaves a factor 2
CONFIG = {
    "geometry": {"nx": 16, "ny": 16},
    "problem": {"forcing": "mms:smooth"},
    "scheme": {"name": "dg1"},
    "window": {"t_f": 0.05, "N": 5, "M1": 2, "M2": 3},
    "solver": {"name": "fixed-point"},
}


def load_gates():
    spec = importlib.util.spec_from_file_location("perfbench_gates", GATES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixed_point_gates_pass_on_a_small_mms_run():
    gates = load_gates()
    mods = {name: importlib.import_module(f"mrcouple.{name}") for name in ("coupling", "mesh")}
    cfg = cli.parse_config(json.dumps(CONFIG))
    ops, _ = cli.build_operators(cfg)
    traj = coupling.run_simulation(ops, cfg.scheme, cfg.window, **cli._solver_args(cfg))
    last = traj.windows[-1]
    ok, detail = gates.fixed_point_vs_direct(mods, cfg, ops, last)
    assert ok, detail
    ok, detail = gates.mms_error(mods, cfg, tuple(u[-1] for u in last.U))
    assert ok, detail
