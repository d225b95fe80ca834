"""Command line front end.

Subcommands map one-to-one onto the experiment runners plus a closed-form
oracle self-check, `engine.oracle_margins`, which acceptance criterion 03
runs as well.  Exit codes: 0 on success, 1 for configuration problems
(bad flags, unreadable or invalid config JSON), 2 for runtime failures
(including refusal to overwrite existing outputs without --force, and an
allocation that does not fit in memory).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from operator import attrgetter, methodcaller

import numpy as np

from . import __version__, engine
from .config import ConfigError, ExperimentConfig

ORACLE_CHECK_VECTORS = 20000
ORACLE_CHECK_SLACK = 1e-9


# command -> (help text, runner, [(CSV file name, row type, rows of a
# result)]); each CSV's header is its row type's fields
_EXPERIMENTS = {
    "convergence": (
        "idealized adaptation against the exact oracle",
        engine.run_convergence_experiment,
        [("trajectories.csv", engine.TrajectoryRow,
          methodcaller("trajectory_rows")),
         ("gap_cdf.csv", engine.GapCdfRow, methodcaller("cdf_rows"))]),
    "ber": ("idealized BER over an SNR grid", engine.run_ber_experiment,
            [("ber.csv", engine.BerRow, attrgetter("rows"))]),
    "tracking": ("realistic PM tracking over a Doppler grid",
                 engine.run_tracking_experiment,
                 [("tracking.csv", engine.TrackingRow, attrgetter("rows"))]),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through ConfigError
    # instead so the documented exit code (1) applies.
    def error(self, message):
        raise ConfigError(message)


def _worker_count(text):
    """The value of --workers: an integer >= 1."""
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r"
                                         % text)
    return workers


def _build_parser() -> _Parser:
    parser = _Parser(prog="relaybf",
                     description="Adaptive relay beamforming simulations.")
    parser.add_argument("--version", action="version",
                        version="relaybf %s" % __version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def _common(p, config_required=True):
        p.add_argument("--config", required=config_required,
                       help="experiment description (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    for command, (help_text, _, _) in _EXPERIMENTS.items():
        p = sub.add_parser(command, help=help_text)
        _common(p)
        p.add_argument("--workers", type=_worker_count, default=1,
                       help="process pool size (default 1)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
        p.set_defaults(run=_cmd_experiment)

    p = sub.add_parser("oracle-check",
                       help="verify closed-form weights against random search")
    _common(p, config_required=False)
    p.set_defaults(run=_cmd_oracle_check)
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc) from None
        cfg = ExperimentConfig.from_dict(data)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(args, csv_files):
    """Refuse to overwrite outputs without --force.  Creates nothing, so a
    run that the engine rejects leaves no output directory behind."""
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise RuntimeError("--out is not a directory: %s" % args.out)
    existing = [name for name in csv_files + ["config.json", "manifest.json"]
                if os.path.exists(os.path.join(args.out, name))]
    if existing and not args.force:
        raise RuntimeError(
            "output files exist: %s (pass --force to overwrite)"
            % ", ".join(sorted(existing)))


def _write_outputs(args, result, csvs):
    """Write each CSV of `csvs`, config.json and the manifest to a temp file
    next to its path, then rename them all into place, the manifest last,
    so a run that fails while writing keeps every previous output."""
    os.makedirs(args.out, exist_ok=True)
    cfg = result.config
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": cfg.seed,
        "workers": args.workers,
        "outputs": sorted(name for name, _, _ in csvs),
        "config": cfg.to_dict(),
    }
    names = [name for name, _, _ in csvs] + ["config.json", "manifest.json"]
    tmp = {name: os.path.join(args.out, ".%s.%d.tmp" % (name, os.getpid()))
           for name in names}
    try:
        for name, row_type, rows in csvs:
            _write_csv(tmp[name], row_type._fields, rows(result))
        _write_json(tmp["config.json"], cfg.to_dict())
        _write_json(tmp["manifest.json"], manifest)
        for name in names:
            os.replace(tmp[name], os.path.join(args.out, name))
    finally:
        for path in tmp.values():
            if os.path.exists(path):  # only after a failure
                os.remove(path)


def _cmd_experiment(args) -> int:
    _, runner, csvs = _EXPERIMENTS[args.command]
    cfg = _load_config(args)
    _prepare_out(args, [name for name, _, _ in csvs])
    result = runner(cfg, workers=args.workers)
    _write_outputs(args, result, csvs)
    if isinstance(result, engine.GridResult):
        for row in result.rows:
            print("%s: %s" % (args.command, " ".join(
                "%s=%s" % (field, _fmt(value))
                for field, value in zip(row._fields, row))))
    else:
        print("convergence: %d realizations, %d frames -> %s"
              % (cfg.num_realizations, cfg.num_frames, args.out))
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    worst_power, worst_snr, psp_dev = engine.oracle_margins(
        cfg, ORACLE_CHECK_VECTORS)
    if psp_dev > ORACLE_CHECK_SLACK:
        print("oracle-check: FAIL (power objective of the matched "
              "vector deviates from the closed form)")
        return 2
    print("oracle-check: channels=%d vectors=%d max_power_margin=%.3e "
          "max_snr_margin=%.3e"
          % (cfg.num_realizations, ORACLE_CHECK_VECTORS,
             worst_power - 1.0, worst_snr - 1.0))
    if worst_power <= 1.0 + ORACLE_CHECK_SLACK \
            and worst_snr <= 1.0 + ORACLE_CHECK_SLACK:
        print("oracle-check: PASS")
        return 0
    print("oracle-check: FAIL")
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
