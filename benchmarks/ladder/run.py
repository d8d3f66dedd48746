"""The benchmark's command: one workload, one run, one JSON line.

    python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1

The last line of standard output is the result object.  The script finds the
repository from its own location, so it needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    sys.path.insert(0, str(entry))

from benchmarks.ladder import driver  # noqa: E402 - needs the paths above
from repro.observability import log  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(driver.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="2 cycles, small cohorts")
    parser.add_argument("--out", type=Path, default=driver.DEFAULT_OUT)
    args = parser.parse_args(argv)
    # Fixed-round Newton fits log "not converged" once per experiment.
    log.configure(level="error")
    result = driver.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick, args.out
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
