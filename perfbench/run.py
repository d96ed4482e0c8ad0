"""Benchmark of the mldp package: one workload per run, metrics on stdout.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eps-sweep-d128 --seed 3 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):
``eps-sweep-d128``, ``train-sweep-d512`` and ``cli-session-d256``.

The run imports ``mldp`` from ``src/`` of the checkout, makes the
workload's inputs from the seed, repeats the timed body until
``--seconds`` have passed, and checks every output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced iterations and reports the per-layer
table.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result,
with the machine and library versions, is also written to
``.perfbench/results/`` and the spans of the last traced iteration to
``.perfbench/traces/``.
"""

import os

# Fixed before numpy loads: one BLAS thread, the plain single-threaded
# baseline, which is at most nproc on any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOAD_NAMES = ("eps-sweep-d128", "train-sweep-d512", "cli-session-d256")

# Set-up runs this many times; setup_s reports the median.
SETUP_REPEATS = 3

# A traced run makes at least two traced iterations, to check that counts
# repeat, and one untraced iteration after the untraced warm-up.
MIN_TRACED = 2

MAE_UNIT = "records"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mldp").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
        "machine": platform.machine(),
    }


class Iteration(NamedTuple):
    traced: bool
    wall: float
    outcome: object
    recorder: object


def measure(wl, seconds: float, trace: bool, ref):
    """Start timed iterations until ``seconds`` have passed."""
    from workloads import Outcome

    iterations: list[Iteration] = []
    start = perf_counter()
    while True:
        plain = [it.wall for it in iterations if not it.traced]
        traced = [it.wall for it in iterations if it.traced]
        # In a traced run the first, untraced iteration warms caches and is
        # left out of trace.overhead; then traced and untraced alternate.
        next_traced = trace and bool(plain) and len(traced) < len(plain)
        done_minimum = bool(plain) and (
            not trace or (len(traced) >= MIN_TRACED and len(plain) >= 2)
        )
        if done_minimum and perf_counter() - start >= seconds:
            break
        outcome = Outcome()
        recorder = tracing.Recorder() if next_traced else None
        crash = None
        t0 = perf_counter()
        try:
            with recorder if recorder is not None else contextlib.nullcontext():
                wl.run(outcome)
        except Exception:  # reported as failed operations; measuring goes on
            crash = traceback.format_exc(limit=4)
        wall = perf_counter() - t0
        if crash is None:
            wl.check(outcome, ref)
        else:
            outcome.attempted += wl.ops_per_iteration()
            outcome.fail(wl.ops_per_iteration(), crash)
        iterations.append(Iteration(next_traced, wall, outcome, recorder))
    return iterations


def layer_metrics(iterations, problems) -> dict:
    """The per-layer table: counts of one traced iteration, median self times."""
    traced = [it for it in iterations if it.traced]
    plain = [it.wall for it in iterations if not it.traced]
    tables = [it.recorder.layer_table() for it in traced]
    metrics = {}

    def counts_of(table, recorder):
        counts = {}
        for name in tracing.span_names() + tracing.count_names():
            counts[f"{name}.calls"] = table.get(name, {}).get("calls", 0)
        counts["workload.matrix_mb"] = recorder.matrix_bytes / 2**20
        selections = sum(
            counts[f"learning.select_training_set.{s}.calls"]
            for s in tracing.SPLITS["select_training_set"]
        )
        publishes = counts["pipeline.mldp_publish.calls"]
        counts["pipeline.selections_per_publish"] = selections / publishes if publishes else 0.0
        return counts

    all_counts = [counts_of(t, it.recorder) for t, it in zip(tables, traced)]
    for name, value in all_counts[0].items():
        if any(c[name] != value for c in all_counts[1:]):
            problems.append(f"count {name} differs between traced iterations")
    for name in tracing.span_names():
        metrics[f"{name}.calls"] = (all_counts[0][f"{name}.calls"], "count")
        self_s = statistics.median(t.get(name, {}).get("self_s", 0.0) for t in tables)
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in tracing.count_names():
        metrics[f"{name}.calls"] = (all_counts[0][f"{name}.calls"], "count")
    metrics["workload.matrix_mb"] = (all_counts[0]["workload.matrix_mb"], "MiB")
    metrics["pipeline.selections_per_publish"] = (
        all_counts[0]["pipeline.selections_per_publish"], "ratio"
    )
    metrics["trace.overhead"] = (
        statistics.median(it.wall for it in traced) / statistics.median(plain[1:]), "ratio"
    )
    return metrics


def end_to_end_metrics(iterations, probe, import_s, setup_walls, peak_rss_mb, ok_frac) -> dict:
    from workloads import MECHANISMS

    plain = [it for it in iterations if not it.traced]
    last = plain[-1].outcome
    maes = {**last.maes, **probe.maes}
    return {
        "setup_s": (import_s + statistics.median(setup_walls), "s"),
        "wall_s": (statistics.median(it.wall for it in plain), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "publish_s": (statistics.median(it.outcome.publish_s for it in plain), "s"),
        "answer_qps": (
            statistics.median(
                it.outcome.answered / it.outcome.answer_s if it.outcome.answer_s else 0.0
                for it in plain
            ),
            "1/s",
        ),
        "ok_frac": (ok_frac, "fraction"),
        # None (JSON null) only when a failed check left no MAE to report.
        **{f"mae.{m}": (maes.get(m), MAE_UNIT) for m in MECHANISMS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mldp" / "__init__.py").is_file():
        print(f"error: no mldp sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    reference_path = HERE / "reference.json"
    if not reference_path.is_file():
        print(f"error: missing {reference_path}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import mldp  # noqa: F401
    import workloads
    import_s = perf_counter() - t0

    k = args.seed % workloads.INPUT_SETS
    with open(reference_path) as fh:
        ref = json.load(fh)["workloads"][args.workload].get(str(k))
    env = environment()
    wl = workloads.WORKLOADS[args.workload]()

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            wl.setup(work, k)
            setup_walls.append(perf_counter() - t)

        iterations = measure(wl, args.seconds, bool(args.trace), ref)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        probe = workloads.Outcome()
        wl.probe(probe, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [it.outcome for it in iterations] + [probe]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    if ref is None:
        problems.append(f"reference.json has no input set {k} for {args.workload}")

    if args.trace:
        metrics = layer_metrics(iterations, problems)
    else:
        metrics = end_to_end_metrics(
            iterations, probe, import_s, setup_walls, peak_rss_mb, 1.0 - failed / attempted
        )
    correct = failed == 0 and not problems

    walls = {
        "untraced": [it.wall for it in iterations if not it.traced],
        "traced": [it.wall for it in iterations if it.traced],
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": k,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "iteration_walls_s": walls,
        "setup_walls_s": setup_walls,
        "import_s": import_s,
        "problems": problems,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / "results" / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        last = [it for it in iterations if it.traced][-1]
        last.recorder.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json.gz",
                            origin=last.recorder.spans[0][1] if last.recorder.spans else 0.0)

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed={args.seed} input_set={k} "
          f"iterations untraced={len(walls['untraced'])} traced={len(walls['traced'])} "
          f"attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1)}")
    for problem in problems:
        print(f"# problem: {problem}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value!r:>24}  {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
