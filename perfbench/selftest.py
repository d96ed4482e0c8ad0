"""Self-test of the benchmark: metric names and repeatable counts.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For each workload of ``BENCHMARK.json`` it makes one untraced run and
two traced runs, one after another, at seed ``SEED`` for ``SECONDS``
each, and checks that

- every run exits 0 and reports ``correct``;
- the untraced run reports exactly the ``end_to_end`` metrics of
  ``BENCHMARK.json`` and the traced runs exactly its ``per_layer``
  metrics, each with the unit listed there;
- every count metric (``*.calls``, ``workload.matrix_mb`` and
  ``pipeline.selections_per_publish``) is equal in the two traced runs.

Exits 1 if any check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COUNT_METRICS = ("workload.matrix_mb", "pipeline.selections_per_publish")

SEED = 0
SECONDS = 1.0


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name in COUNT_METRICS


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, listed: list[dict], kind: str) -> list[str]:
    problems = []
    wanted = {m["name"]: m["unit"] for m in listed}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    if set(got) != set(wanted):
        problems.append(f"{kind} names differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    problems += [f"{name}: unit {got[name]!r}, BENCHMARK.json says {unit!r}"
                 for name, unit in wanted.items() if name in got and got[name] != unit]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        problems = []
        try:
            plain = run(workload, 0)
            first = run(workload, 1)
            second = run(workload, 1)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(str(exc))
        else:
            for label, result in (("untraced", plain), ("traced 1", first), ("traced 2", second)):
                if not result["correct"] or result["failed"]:
                    problems.append(f"{label} run is not correct")
            problems += check_names(plain, spec["end_to_end"], "end_to_end")
            problems += check_names(first, spec["per_layer"], "per_layer")
            for name, value in first["metrics"].items():
                again = second["metrics"].get(name, {}).get("value")
                if is_count(name) and again != value["value"]:
                    problems.append(f"{name}: {value['value']!r} then {again!r}")
        ok = ok and not problems
        print(f"selftest {workload}: {'PASS' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
