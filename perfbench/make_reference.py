"""Write reference.json: the expected outputs of every workload input set.

Usage, from the root of a checkout (takes a few minutes):

    python3 perfbench/make_reference.py

Runs each workload once per input set, untimed, with the trend rules
but without a reference, and stores the numbers the checks compare:
per-row mean and standard deviation of the sweep MAEs, the CLI models'
MAEs and the probe MAEs.  Refuses to write if any check fails.  Only
regenerate when a change is meant to alter outputs, and say why.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    doc = {
        "about": "expected outputs per workload and input set (run seed mod "
                 f"{workloads.INPUT_SETS}); compared with relative tolerance "
                 f"{workloads.REL_TOL}",
        "env": run.environment(),
        "workloads": {},
    }
    run.OUT.mkdir(exist_ok=True)
    failed = False
    for name, cls in workloads.WORKLOADS.items():
        sets = doc["workloads"][name] = {}
        for k in range(workloads.INPUT_SETS):
            wl = cls()
            out = workloads.Outcome()
            with tempfile.TemporaryDirectory(dir=run.OUT) as work:
                wl.setup(Path(work), k)
                wl.run(out)
                wl.check(out, None)
                wl.probe(out, None)
            if out.failed:
                failed = True
                print(f"{name} input set {k}: {out.problems}", file=sys.stderr)
            sets[str(k)] = out.observed
            print(f"{name} input set {k}: {out.maes}", flush=True)
    if failed:
        return 1
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
