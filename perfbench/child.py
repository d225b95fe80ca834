"""One measured step of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py setup CONFIG
        import the CLI and load CONFIG: the set-up every CLI call pays
    python3 perfbench/child.py MODE RESULT -- CLI-ARGS...
        run `relaybf.cli.main(CLI-ARGS)` and record its wall time, CPU time
        (worker processes included) and peak RSS; MODE is "plain", or
        "full" / "scheduler" to run it under `tracing.Tracer`, and
        write them to the JSON file RESULT

`run.py` starts this script with `src` on PYTHONPATH and one BLAS thread.
"""

import contextlib
import json
import resource
import sys
import time


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _environment():
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        pass
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?"))}


def _setup(config_path):
    import relaybf.cli  # noqa: F401  (what every CLI call imports)
    from relaybf import ExperimentConfig

    with open(config_path) as fh:
        ExperimentConfig.from_dict(json.load(fh))


def _run(mode, argv):
    from relaybf import cli

    tracer = None
    if mode != "plain":
        from tracing import Tracer
        tracer = Tracer(mode)
    with tracer or contextlib.nullcontext():
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {"exit": code, "wall_s": wall, "cpu_s": cpu,
           "peak_rss_mb": max(own, kids) / 1024.0, "env": _environment()}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["missing_hooks"] = tracer.missing
    return out


def main():
    if sys.argv[1] == "setup":
        _setup(sys.argv[2])
        return
    mode, result_path = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py MODE RESULT -- CLI-ARGS...")
    out = _run(mode, sys.argv[4:])
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
