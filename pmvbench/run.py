"""The system benchmark of the PMV serving stack.

Usage, from the root of a checkout::

    python3 pmvbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Workloads: ``hot-read`` and ``cold-read`` (in process) and
``wire-mixed`` (a server process and a two-connection load generator).
With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it installs span wrappers around each
layer's public functions and reports the per-layer ledger.  Every run
first runs the oracle and span self-tests, checks every answer outside
the timed window, and exits non-zero without a result line when a
check fails.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OracleError, use_source_tree  # noqa: E402

WORKLOADS = ("hot-read", "cold-read", "wire-mixed")

END_TO_END: list[tuple[str, str]] = [
    ("setup_s", "s"),
    ("teardown_s", "s"),
    ("ops_per_s", "ops/s"),
    ("first_mean_us", "us"),
    ("first_p90_us", "us"),
    ("read_mean_us", "us"),
    ("read_p90_us", "us"),
    ("write_mean_us", "us"),
    ("write_p90_us", "us"),
    ("peak_rss_mb", "MB"),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="pmvbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_source_tree()
    import selftest

    selftest.run_all()

    if args.workload == "wire-mixed":
        import wire

        run = wire.traced_run if args.trace else wire.untraced_run
    else:
        import inproc

        run = inproc.traced_run if args.trace else inproc.untraced_run
    try:
        outcome = run(args.workload, args.seed, args.seconds)
    except OracleError as exc:
        print(f"pmvbench: correctness check failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import ledger

        units = ledger.UNITS
    else:
        units = dict(END_TO_END)
    values = outcome["metrics"]
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    print(
        f"pmvbench: {args.workload} seed {args.seed}: {outcome['attempted']} ops, "
        f"{outcome['failed']} failed, {outcome['checked']} answers checked",
        file=sys.stderr,
    )
    result = {
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
