"""Entry point: ``python -m benchmarks.perf`` or ``python3 benchmarks/perf/__main__.py``.

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one run in this
  process; the last line of stdout is the result object (BENCHMARK.json's
  contract).
* no ``--workload`` — every workload, each run in a fresh process, printed as
  one table; ``--runs`` repeats with consecutive seeds, ``--trace`` adds the
  traced run and the layer table, ``--out`` saves the set for ``compare``,
  ``--record`` appends the medians to ``trajectory.jsonl``.
* ``compare A.json B.json`` — two saved sets against the bounds.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Chunk stores, journals, reports and trace files live here: inside the
#: checkout (the benchmark may write nowhere else) and listed in .gitignore.
WORK_ROOT = REPO_ROOT / ".perf_work"


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (hence the whole in-process cluster) to one CPU.

    Must run before ``repro`` is imported and before any thread exists:
    threads migrating between cores make GIL hand-offs cross-core and the
    small-file workloads bimodal (README, "Noise").
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def benchmark_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def format_metric(name: str, metric: dict) -> str:
    text = f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}"
    if "q1" in metric:
        text += f"   q1 {metric['q1']:.4f}  q3 {metric['q3']:.4f}  n={metric['n']}"
    return text


def run_one(args) -> int:
    pinned = pin_to_one_cpu()
    from benchmarks.perf.harness import SelfCheckError
    from benchmarks.perf.run import run_workload

    import_s = time.perf_counter() - _PROCESS_START
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), import_s, pinned, WORK_ROOT)
    except SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 2
    env = report["env"]
    print(f"workload={report['workload']} seed={report['seed']} trace={report['trace']} "
          f"blocks={report['blocks']} "
          + (f"pinned_cpu={pinned}" if pinned is not None else "pinned=false")
          + f" store_root={env['store_root']} calib_mbps={env['calib_mbps']:.1f}")
    print(f"ops_attempted={report['attempted']} ops_failed={report['failed']}")
    shown = report["per_layer"] if args.trace else report["end_to_end"]
    for name, metric in shown.items():
        print(format_metric(name, metric))
    if args.trace:
        print("  layer share of traced wall time: " + "  ".join(
            f"{layer}={share:.1f}%" for layer, share in report["layer_shares_pct"].items()))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in shown.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload ``--runs`` times, one fresh process per run."""
    from benchmarks.perf import compare

    reports: List[dict] = []
    for name in args.names:
        for index in range(args.runs):
            for trace in ([0, 1] if args.trace and index == 0 else [0]):
                report_path = WORK_ROOT / f"report-{os.getpid()}.json"
                command = [sys.executable, str(PERF_DIR / "__main__.py"),
                           "--workload", name, "--seed", str(args.seed + index),
                           "--seconds", str(args.seconds), "--trace", str(trace),
                           "--report", str(report_path)]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    print(f"{name}: run failed with exit code {done.returncode}",
                          file=sys.stderr)
                    return done.returncode
                with open(report_path, encoding="utf-8") as handle:
                    reports.append(json.load(handle))
                report_path.unlink()
                print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
    results = {"spec": benchmark_spec()["end_to_end"], "reports": reports}
    print()
    compare.print_summary(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    if args.record:
        compare.record(results, PERF_DIR / "trajectory.jsonl", REPO_ROOT)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.perf import compare
        return compare.main(argv[1:])
    spec = benchmark_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--report", help="also write the full report (quartiles, env) here")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", help="save the set of runs for `compare`")
    parser.add_argument("--record", action="store_true",
                        help="append this set's medians to trajectory.jsonl")
    args = parser.parse_args(argv)
    args.names = names
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
