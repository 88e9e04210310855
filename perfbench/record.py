"""Record the reference digests the benchmark checks outputs against.

Runs one untimed pass of an offline workload for each input seed and
stores its result digests in ``perfbench/references.json``. Run it only in
a change that means to alter results (see README, "Correctness"), never
to make a failing run pass::

    python3 perfbench/record.py --workload paper_campaign

Every input seed (0 to ``SEED_POOL - 1``) is recorded each time, so the
references always come from one commit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from run import run_worker  # noqa: E402

OFFLINE = ("paper_campaign", "supplementary", "large_n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=OFFLINE)
    args = parser.parse_args()
    common.require_source()

    references = common.load_references()
    table = references.setdefault(args.workload, {})
    for seed in range(common.SEED_POOL):
        extra = ["--setups", "1"] if args.workload == "large_n" else []
        _, out = run_worker(
            ["--workload", args.workload, "--seed", str(seed)] + extra
        )
        table[str(seed)] = out["passes"][0]["digests"]
        with open(common.REFERENCES, "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{args.workload} seed {seed}: "
              f"{len(table[str(seed)])} digests", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
