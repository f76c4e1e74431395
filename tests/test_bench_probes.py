"""The benchmark's probes find every program name they wrap.

perfbench/probes.py looks its targets up as owner.__dict__[name]; a renamed
or deleted target would make every benchmark repeat fail.
"""

import importlib
import importlib.util
import time
from pathlib import Path

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
MODULES = ("cli", "coupling", "dgit", "fespace", "mesh", "timepoly", "verify")


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_probes_install_and_remove():
    mods = {name: importlib.import_module(f"mrcouple.{name}") for name in MODULES}
    mods["scipy.sparse.linalg"] = importlib.import_module("scipy.sparse.linalg")
    probes = load_probes().Probes(mods, traced=True, clock=time.perf_counter, sync=lambda: None)
    probes.install()
    try:
        installed = [(owner, attr, orig) for owner, attr, orig in probes._saved]
        assert probes.missing == {}
    finally:
        probes.remove()
    assert installed
    for owner, attr, orig in installed:
        assert owner.__dict__[attr] is orig
