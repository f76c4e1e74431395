"""Record the golden outputs of every workload at seed 0.

    python3 perfbench/record_goldens.py

Writes perfbench/goldens/<workload>/ from the checkout's src/.  Goldens
define what the correctness gates accept, so re-record them only at a
commit whose outputs are known to be right.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from gates import GOLDEN_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from mrcouple import cli  # noqa: E402


def main() -> int:
    for workload in WORKLOADS.values():
        target = GOLDEN_DIR / workload.name
        target.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(workload.config(0)))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(workload.argv(str(config), str(target)))
        if code != 0:
            print(f"{workload.name}: CLI exit code {code}", file=sys.stderr)
            return 1
        print(f"{workload.name}: wrote {sorted(p.name for p in target.iterdir())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
