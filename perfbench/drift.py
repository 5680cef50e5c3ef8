"""Measure in-process drift: N passes of one workload in a single process
against N passes in fresh processes (the benchmark's choice).

    python3 perfbench/drift.py --workload NAME --seed N --passes N
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=4)
    args = ap.parse_args()
    d = os.path.join(run.WORK, args.workload)
    run.setup(args.workload, args.seed, d)
    argv_cli, _ = run.cli_argv(args.workload, args.seed, d)
    fresh = [run.run_worker(["pass", d, "0", "--"] + argv_cli)["pass_s"]
             for _ in range(args.passes)]
    same = run.run_worker(["repeat", d, str(args.passes), "--"] + argv_cli)["pass_s"]
    print(json.dumps({"workload": args.workload, "fresh_process_pass_s": fresh,
                      "one_process_pass_s": same}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
