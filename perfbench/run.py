"""Run one benchmark workload and print its result as the last line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload bulk_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The line before the result is a JSON object with the host
fingerprint and the workload's details (sample counts, generator
lateness, checks).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

DEFAULT_SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk_cold", "intake_open", "stream_retrain"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--fleet-seed", type=int, default=None,
                        help="fleet layout seed (default: the fixed one)")
    args = parser.parse_args(argv)

    from common import DEFAULT_FLEET_SEED, host_fingerprint, make_fleet
    from workloads import WORKLOADS

    fleet_seed = (DEFAULT_FLEET_SEED if args.fleet_seed is None
                  else args.fleet_seed)
    fleet = make_fleet(fleet_seed)
    result, details = WORKLOADS[args.workload](fleet, args.seed,
                                               args.seconds,
                                               bool(args.trace))
    host = host_fingerprint()
    host["pool_start_method"] = details.pop("pool_start_method", "no pool")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "fleet_seed": fleet_seed, "trace": args.trace,
                      "host": host, "details": details}, default=str))
    print(json.dumps(result))
    _stop_resource_tracker()
    return 0


def _stop_resource_tracker() -> None:
    """Wait for the helper process multiprocessing starts for the pool."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
