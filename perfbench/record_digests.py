"""Record the SHA-256 of every CSV each workload writes, for a range of seeds.

    python3 perfbench/record_digests.py [--seeds 0-99]

Writes perfbench/digests.json, which `run.py` checks every repetition
against.  Each digest key is recorded once, from its single-worker
workload, so `ber-sweep-w2` is held to the bytes of `ber-sweep`.  Re-record
only in a change that alters the random-stream layout on purpose.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, WORKLOADS, BenchError, preflight, run_cli, write_config
from sweep import _seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-99"))
    args = parser.parse_args(argv)
    preflight()
    table = {}
    for name, wl in WORKLOADS.items():
        if wl.workers != 1 or wl.digest_key in table:
            continue
        config = write_config(name)
        entry = table[wl.digest_key] = {}
        for seed in args.seeds:
            rec = run_cli(name, seed, config)
            if "error" in rec:
                raise BenchError("%s seed %d: %s" % (name, seed, rec["error"]))
            entry[str(seed)] = rec["digests"]
            print("%s seed %d recorded" % (name, seed), flush=True)
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
