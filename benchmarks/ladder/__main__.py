"""``python -m benchmarks.ladder run|compare`` — the ladder's command line.

``run`` measures every workload, each pass in a fresh subprocess: first the
end-to-end metrics with tracing off, then the per-layer metrics from a
shorter traced pass.  It prints every metric by name with its unit and
leaves ``RESULT_<workload>.json`` and ``TRACE_<workload>.json`` in ``--out``.

``compare A B`` reads two such directories (or two comma-separated sets of
them) and judges B against A by the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from benchmarks.ladder import driver

RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"


def run_pass(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    command = [
        sys.executable,
        str(RUN_SCRIPT),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--out", str(args.out),
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    finished = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    *notes, last = finished.stdout.strip().splitlines()
    for note in notes:
        print(note)
    return json.loads(last)


def command_run(args: argparse.Namespace) -> int:
    declared = driver.declaration()
    names = [args.workload] if args.workload else [w["name"] for w in declared["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    all_correct = True
    for workload in names:
        untraced = run_pass(workload, args, trace=0)
        traced = run_pass(workload, args, trace=1)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        result = {
            "workload": workload,
            "seed": args.seed,
            "correct": untraced["correct"] and traced["correct"],
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "latency_samples": untraced["attempted"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
        }
        all_correct &= result["correct"]
        (args.out / f"RESULT_{workload}.json").write_text(json.dumps(result, indent=1) + "\n")
        print(f"\n== {workload}  seed {args.seed}  correct {result['correct']}")
        print(f"   {'failed_fraction':<46}{result['failed_fraction']:>14.6g} ratio"
              f"  ({failed} of {attempted})")
        for section in ("end_to_end", "per_layer"):
            for name, metric in result[section].items():
                note = ""
                if name.startswith("latency_"):
                    note = f"  ({result['latency_samples']} samples)"
                print(f"   {name:<46}{metric['value']:>14.6g} {metric['unit']}{note}")
    return 0 if all_correct else 1


# ------------------------------------------------------------------ compare


def load_side(spec: str) -> dict[str, list[dict[str, Any]]]:
    """``workload -> [result of each directory in the set]``."""
    side: dict[str, list[dict[str, Any]]] = {}
    for directory in spec.split(","):
        for path in sorted(Path(directory).glob("RESULT_*.json")):
            result = json.loads(path.read_text())
            side.setdefault(result["workload"], []).append(result)
    if not side:
        raise SystemExit(f"no RESULT_*.json under {spec!r}")
    return side


def relative_spread(values: list[float]) -> float:
    """Quartile distance over the median; the range for fewer than 4 runs."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    """``ok``, ``regression`` (head's median is worse by more than the bound)
    or ``unresolved`` (the runs spread wider than the bound)."""
    sign = 1.0 if better == "lower" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    worse_by = sign * (head_median - base_median) / base_median
    if max(relative_spread(base), relative_spread(head)) > bound:
        every_run_better = all(sign * (h - b) < 0 for h in head for b in base)
        return "ok" if every_run_better else "unresolved"
    return "regression" if worse_by > bound else "ok"


def command_compare(args: argparse.Namespace) -> int:
    declared = driver.declaration()
    base, head = load_side(args.base), load_side(args.head)
    regressions = 0
    print(f"{'workload':<22}{'metric':<18}{'base':>12}{'head':>12}{'head/base':>11}  verdict")
    for workload in (w["name"] for w in declared["workloads"]):
        if workload not in base or workload not in head:
            continue
        rows = []
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = [r["end_to_end"][name]["value"] for r in base[workload]]
            b = [r["end_to_end"][name]["value"] for r in head[workload]]
            status = verdict(a, b, metric["better"], metric["bound"])
            rows.append((name, statistics.median(a), statistics.median(b), status))
        # failed_fraction may not rise at all.
        a = max(r["failed_fraction"] for r in base[workload])
        b = max(r["failed_fraction"] for r in head[workload])
        rows.append(("failed_fraction", a, b, "regression" if b > a else "ok"))
        for name, a, b, status in rows:
            ratio = f"{b / a:.4f}" if a else "-"
            print(f"{workload:<22}{name:<18}{a:>12.5g}{b:>12.5g}{ratio:>11}  {status}")
            regressions += status == "regression"
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure the workloads")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--workload", choices=sorted(driver.WORKLOADS))
    run.add_argument("--out", type=Path, default=driver.DEFAULT_OUT)
    run.add_argument("--seconds", type=float, default=driver.declaration()["run_seconds"])
    run.add_argument("--quick", action="store_true", help="2 cycles, small cohorts")
    run.set_defaults(handler=command_run)
    compare = commands.add_parser("compare", help="judge B against A by the bounds")
    compare.add_argument("base", help="an --out directory, or several joined by commas")
    compare.add_argument("head", help="an --out directory, or several joined by commas")
    compare.set_defaults(handler=command_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
