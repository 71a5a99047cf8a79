#!/usr/bin/env python3
"""Run the spine benchmark: one workload, or all four.

    python3 benchmarks/spine/run.py --workload batch_cold --seed 1 --seconds 15 --trace 0
    python3 benchmarks/spine/run.py --workload all --seed 1 --trace 1

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` prints its per-layer metrics and writes the span file.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  The exit code is non-zero when any output was
wrong.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import sys

from spinebench import SRC_DIR


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the workload measures (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a fraction of a second per "
                        "workload (the tier-1 smoke test)")
    parser.add_argument("--own-layers", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"error: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2

    from spinebench import driver

    return driver.main(args)


if __name__ == "__main__":
    sys.exit(main())
