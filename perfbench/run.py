"""relaybf benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one shipped CLI experiment (scaled down where
`WORKLOADS` says so) in a fresh interpreter with `--seed N`, and checks
every CSV it writes.  Repetitions continue until S seconds have passed.
Set-up time is probed in fresh interpreters between repetitions.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1`, traced and untraced repetitions
alternate and the object holds the per-layer metrics of `tracing.METRICS`.
Full results, with the environment and every sample, are written to
`.perfbench_work/results/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"
BLAS_THREADS = "1"
MIN_REPS = 3
MIN_SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    command: str            # CLI subcommand
    config: str             # shipped file under configs/
    workers: int
    digest_key: str         # workloads with equal keys must write equal CSVs
    overrides: dict = field(default_factory=dict)


# BER, scaled 10x down: 100-realization blocks, target 200 errors, 16 -> 6
# block cap.  8 and 12 dB stop on error_target after one block (every
# scheme has > 1000 errors there), 24 and 26 dB stop on bits_cap (every
# scheme but no-bf has < 100 errors), so the work per run hardly depends on
# the seed.  The 300-frame warm-up and 25 frames per realization are kept.
BER_SCALED = {"snr_db_grid": [8.0, 12.0, 24.0, 26.0], "block_size": 100,
              "num_realizations": 1600, "error_target": 200,
              "min_bits": 100_000, "bits_cap": 600_000}

# Tracking, scaled down ~50x: two Doppler values by both betas (the paired
# grid), two 16-realization blocks per point, 75 + 75 frames.
TRACKING_SCALED = {"normalized_doppler_grid": [0.001, 0.01],
                   "num_realizations": 32, "block_size": 16,
                   "warmup_frames": 75, "num_frames": 75}

WORKLOADS = {
    "convergence": Workload("convergence", "convergence_sum_power.json", 1,
                            "convergence"),
    "ber-sweep": Workload("ber", "ber_snr_sweep.json", 1, "ber-sweep",
                          BER_SCALED),
    "ber-sweep-w2": Workload("ber", "ber_snr_sweep.json", 2, "ber-sweep",
                             BER_SCALED),
    "tracking-sweep": Workload("tracking", "tracking_doppler_sweep.json", 1,
                               "tracking-sweep", TRACKING_SCALED),
}

CSV_HEADERS = {
    "convergence": {
        "trajectories.csv": ["realization", "frame", "snr_normalized", "gap",
                             "feedback_bit"],
        "gap_cdf.csv": ["frames", "gap_threshold", "fraction"],
    },
    "ber": {"ber.csv": ["scheme", "snr_db", "bits", "errors", "ber"]},
    "tracking": {"tracking.csv": ["scheme", "beta", "normalized_doppler",
                                  "bits", "errors", "ber"]},
}

END_TO_END = {"wall_s": "s", "setup_s": "s",
              "frames_per_s": "frames/s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _call(cmd, timeout=CHILD_TIMEOUT_S):
    """Run `cmd` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, out, err + "\ntimed out after %d s" % timeout
    return proc.returncode, out, err


def preflight():
    if not (ROOT / "src" / "relaybf" / "__init__.py").is_file():
        raise BenchError("src/relaybf not found under %s" % ROOT)
    for wl in WORKLOADS.values():
        if not (ROOT / "configs" / wl.config).is_file():
            raise BenchError("configs/%s not found" % wl.config)


def write_config(name):
    """Shipped config with the workload's overrides; returns its path."""
    wl = WORKLOADS[name]
    with open(ROOT / "configs" / wl.config) as fh:
        cfg = json.load(fh)
    cfg.update(wl.overrides)
    path = WORK / name / "config.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
    return path


def cli_args(name, seed, config_path, out_dir):
    wl = WORKLOADS[name]
    return [wl.command, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed), "--workers", str(wl.workers), "--force"]


def setup_probe(config_path):
    """Seconds for a fresh interpreter to import the CLI and load a config."""
    t0 = time.perf_counter()
    code, _, err = _call([sys.executable, str(HERE / "child.py"), "setup",
                          str(config_path)])
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise BenchError("set-up probe failed: %s" % err.strip()[-400:])
    return elapsed


def run_cli(name, seed, config_path, mode="plain"):
    """One CLI repetition in a fresh interpreter; returns the child's record,
    or a record with an "error" entry."""
    out_dir = WORK / name / "out"
    result = WORK / name / "child.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result), "--"] \
        + cli_args(name, seed, config_path, out_dir)
    code, _, err = _call(cmd)
    if code != 0 or not result.exists():
        return {"error": "child exited %d: %s" % (code, err.strip()[-400:])}
    with open(result) as fh:
        rec = json.load(fh)
    if rec["exit"] != 0:
        rec["error"] = "CLI exited %d" % rec["exit"]
        return rec
    command = WORKLOADS[name].command
    rec["digests"] = csv_digests(command, out_dir)
    problems = check_csvs(command, out_dir)
    if problems:
        rec["error"] = "; ".join(problems)
        return rec
    rec["realization_frames"] = realization_frames(command, out_dir)
    return rec


def csv_digests(command, out_dir):
    out = {}
    for fname in CSV_HEADERS[command]:
        path = out_dir / fname
        if path.is_file():
            out[fname] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_csvs(command, out_dir):
    """Problems with the CSVs a run wrote: missing, bad header, non-finite."""
    problems = []
    for fname, header in CSV_HEADERS[command].items():
        path = out_dir / fname
        if not path.is_file():
            problems.append("%s missing" % fname)
            continue
        rows = _read_csv(path)
        if not rows or rows[0] != header:
            problems.append("%s has a wrong header" % fname)
            continue
        if len(rows) < 2:
            problems.append("%s has no rows" % fname)
        numeric = [i for i, col in enumerate(header) if col != "scheme"]
        for row in rows[1:]:
            if len(row) != len(header) or not all(
                    math.isfinite(float(row[i])) for i in numeric):
                problems.append("%s has a malformed or non-finite row" % fname)
                break
    return problems


def realization_frames(command, out_dir):
    """Realizations advanced one frame at one grid point, warm-up included,
    counted once however many schemes share them."""
    with open(out_dir / "config.json") as fh:
        cfg = json.load(fh)
    if command == "convergence":
        return cfg["num_realizations"] * cfg["num_frames"]
    frames = cfg["warmup_frames"] + cfg["num_frames"]
    if command == "tracking":
        points = len(_read_csv(out_dir / "tracking.csv")) - 1
        return points * cfg["num_realizations"] * frames
    bits_per_realization = cfg["num_frames"] * cfg["num_data"]
    bits_at = {}
    for row in _read_csv(out_dir / "ber.csv")[1:]:
        bits_at[row[1]] = int(row[2])
    return sum(b // bits_per_realization for b in bits_at.values()) * frames


def recorded_digests(name, seed):
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS) as fh:
        table = json.load(fh)
    return table.get(WORKLOADS[name].digest_key, {}).get(str(seed))


def environment(name, seed, child_env_info):
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")]
        cpu = models[0] if models else "unknown"
    except OSError:
        cpu = "unknown"
    env = {"nproc": os.cpu_count(), "cpu_model": cpu,
           "workload": name, "seed": seed,
           "workers": WORKLOADS[name].workers,
           "blas_threads": BLAS_THREADS}
    env.update(child_env_info)
    return env


def measure(name, seed, seconds, trace):
    """Run repetitions for `seconds`; returns the full result record."""
    preflight()
    config_path = write_config(name)
    expected = recorded_digests(name, seed)
    setup_probe(config_path)  # untimed: compiles bytecode caches once
    traced_mode = "scheduler" if WORKLOADS[name].workers > 1 else "full"
    modes = ["plain", traced_mode] if trace else ["plain"]

    setups, reps = [], []
    t_start = time.perf_counter()
    while (len(reps) < MIN_REPS * len(modes)
           or time.perf_counter() - t_start < seconds):
        setups.append(setup_probe(config_path))
        mode = modes[len(reps) % len(modes)]
        rec = run_cli(name, seed, config_path, mode)
        rec["mode"] = mode
        if "error" not in rec:
            reference = expected if expected is not None else next(
                (r["digests"] for r in reps if "error" not in r), None)
            if reference is not None and rec["digests"] != reference:
                rec["error"] = "CSV digests differ from %s" % (
                    "the recorded digests" if expected else "the first run")
        reps.append(rec)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(config_path))

    failed = 0
    for r in reps:
        if "error" in r:
            failed += 1
            print("failed repetition (%s): %s" % (r["mode"], r["error"]),
                  file=sys.stderr)
    # A repetition whose CSVs are well formed is timed even if its digests
    # are wrong: the result then reports the failure with its timings.
    timed = [r for r in reps if "realization_frames" in r]
    plain = [r for r in timed if r["mode"] == "plain"]
    if not plain:
        raise BenchError("no repetition completed")
    count_problem = None
    if trace:
        metrics, count_problem = trace_metrics(
            plain, [r for r in timed if r["mode"] != "plain"])
    else:
        med = lambda key: statistics.median(r[key] for r in plain)  # noqa: E731
        metrics = {
            "wall_s": med("wall_s"),
            "setup_s": statistics.median(setups),
            "frames_per_s": statistics.median(
                r["realization_frames"] / r["wall_s"] for r in plain),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
        }
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "env": environment(name, seed, plain[0]["env"]),
        "digests": plain[0]["digests"],
        "digests_recorded": expected is not None,
        "attempted": len(reps), "failed": failed,
        "failed_frac": failed / len(reps),
        "correct": failed == 0 and count_problem is None,
        "count_problem": count_problem,
        "missing_hooks": sorted({h for r in timed
                                 for h in r.get("missing_hooks", [])}),
        "setup_samples": setups,
        "samples": [{k: v for k, v in r.items() if k != "env"} for r in reps],
        "metrics": metrics,
    }


def trace_metrics(plain, traced):
    """Per-layer metrics and a description of any count that differed
    between traced repetitions (None when all agree).  Counts come from the
    traced repetitions, times are medians, and the tracing overhead is
    traced minus untraced wall time."""
    from tracing import COUNT_METRICS, METRICS

    if not traced:
        raise BenchError("no traced repetition completed")
    out = {}
    for metric in METRICS:
        if metric.startswith("trace."):
            continue
        values = [r["layers"][metric] for r in traced]
        out[metric] = values[0] if metric in COUNT_METRICS \
            else statistics.median(values)
    problems = [m for m in COUNT_METRICS
                if len({r["layers"][m] for r in traced}) > 1]
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(
        r["wall_s"] for r in plain)
    problem = ("counts differ between traced runs: " + ", ".join(problems)
               if problems else None)
    return out, problem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / ("%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(res, fh, indent=1)

    units = END_TO_END
    if args.trace:
        from tracing import METRICS
        units = {name: unit for name, (unit, _) in METRICS.items()}
    print("environment: %s" % json.dumps(res["env"], sort_keys=True))
    print("csv digests (%s): %s" % (
        "recorded for this seed" if res["digests_recorded"]
        else "no recorded digests for this seed; repetitions checked against each other",
        json.dumps(res["digests"], sort_keys=True)))
    for name in res["missing_hooks"]:
        print("absent hook (its metrics read 0): %s" % name)
    if res["count_problem"]:
        print(res["count_problem"])
    for name, value in res["metrics"].items():
        print("%-36s %16.6f %s" % (name, value, units[name]))
    print("%-36s %16.6f ratio (%d of %d repetitions)" % (
        "failed_frac", res["failed_frac"], res["failed"], res["attempted"]))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
