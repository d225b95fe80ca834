"""Run the benchmark over several seeds, round-robin, and summarise it.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads a,b] [--seconds S]
                               [--trace 0|1]

Seeds form the outer loop and workloads the inner loop, and the workload
order rotates with each seed, so a slow spell on a shared host spreads over
every workload instead of landing on consecutive runs of one.  For each
workload and metric it prints the median, the quartiles and their distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
It also checks that workloads sharing a digest key (`ber-sweep` and
`ber-sweep-w2`) wrote the same CSV bytes for each seed, and, with
`--trace 1`, that the traced runs wrote the same bytes as untraced runs of
the same seed made earlier.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORK, WORKLOADS


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _result(workload, seed, trace):
    path = WORK / "results" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}

    values = {w: {} for w in workloads}
    attempted = {w: 0 for w in workloads}
    failed = {w: 0 for w in workloads}
    units = {}
    ok = True
    for i, seed in enumerate(args.seeds):
        k = i % len(workloads)
        for wl in workloads[k:] + workloads[:k]:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", wl, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (wl, seed, proc.returncode,
                                                  proc.stderr[-800:]))
                ok = False
                continue
            res = json.loads(lines[-1])
            attempted[wl] += res["attempted"]
            failed[wl] += res["failed"]
            ok &= res["correct"]
            for name, metric in res["metrics"].items():
                values[wl].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print("%-15s seed %-4d correct=%s %s" % (
                wl, seed, res["correct"],
                " ".join("%s=%.4g" % (n, m["value"])
                         for n, m in res["metrics"].items()
                         if n in bounds and bounds[n] is not None)),
                flush=True)

    for wl in workloads:
        print("\n%s: failed_frac %.4f (%d of %d repetitions)" % (
            wl, failed[wl] / max(attempted[wl], 1), failed[wl], attempted[wl]))
        print("  %-36s %-9s %12s %12s %12s %8s %6s" % (
            "metric", "unit", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values[wl].items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print("  %-36s %-9s %12.6g %12.6g %12.6g %8.4f %6s" % (
                name, units[name], med, q1, q3, spread,
                "-" if bound is None else bound))

    groups = {}
    for wl in workloads:
        groups.setdefault(WORKLOADS[wl].digest_key, []).append(wl)
    for key, members in groups.items():
        for seed in args.seeds:
            runs = [(wl, _result(wl, seed, args.trace)) for wl in members]
            if args.trace:
                runs += [(wl + " (untraced run)", _result(wl, seed, 0))
                         for wl in members]
            digests = {name: r["digests"] for name, r in runs if r is not None}
            if len({json.dumps(d, sort_keys=True) for d in digests.values()}) > 1:
                print("digest mismatch for seed %d: %s" % (seed, digests))
                ok = False
            elif len(digests) > 1:
                print("seed %d: CSV digests agree across %s" % (
                    seed, ", ".join(sorted(digests))))
    print("\nall runs correct" if ok else "\nFAILURES above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
