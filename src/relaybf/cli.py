"""Command line front end.

Subcommands map one-to-one onto the experiment runners plus a closed-form
oracle self-check.  Exit codes: 0 on success, 1 for configuration problems
(bad flags, unreadable or invalid config JSON), 2 for runtime failures
(including refusal to overwrite existing outputs without --force).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, engine, network, oracles
from .config import ConfigError, ExperimentConfig

ORACLE_CHECK_VECTORS = 20000
ORACLE_CHECK_SLACK = 1e-9


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

    def _experiment(p):
        _common(p)
        p.add_argument("--workers", type=_worker_count, default=1,
                       help="process pool size (default 1)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")

    _experiment(sub.add_parser(
        "convergence", help="idealized adaptation against the exact oracle"))
    _experiment(sub.add_parser("ber", help="idealized BER over an SNR grid"))
    _experiment(sub.add_parser(
        "tracking", help="realistic PM tracking over a Doppler grid"))

    p = sub.add_parser("oracle-check",
                       help="verify closed-form weights against random search")
    _common(p, config_required=False)
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


def _atomic_write(path, write):
    """Call `write(fh)` on a temp file next to `path`, then rename it over
    `path`, so a failed run never leaves a half-written output behind."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, ".%s.%d.tmp" % (tail, os.getpid()))
    try:
        with open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only after a failure
            os.remove(tmp)


def _write_csv(path, header, rows):
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    _atomic_write(path, write)


def _write_json(path, data):
    def write(fh):
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _atomic_write(path, write)


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


def _write_outputs(args, command, cfg, csvs):
    """Write each (file name, header, rows) CSV, then config.json and the
    manifest."""
    os.makedirs(args.out, exist_ok=True)
    for name, header, rows in csvs:
        _write_csv(os.path.join(args.out, name), header, rows)
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg.seed,
        "workers": args.workers,
        "outputs": sorted(name for name, _, _ in csvs),
        "config": cfg.to_dict(),
    }
    _write_json(os.path.join(args.out, "config.json"), cfg.to_dict())
    # last, so a manifest only ever lists outputs that were fully written
    _write_json(os.path.join(args.out, "manifest.json"), manifest)


def _cmd_convergence(args) -> int:
    cfg = _load_config(args)
    _prepare_out(args, ["trajectories.csv", "gap_cdf.csv"])
    result = engine.run_convergence_experiment(cfg, workers=args.workers)
    _write_outputs(args, "convergence", result.config, [
        ("trajectories.csv",
         ["realization", "frame", "snr_normalized", "gap", "feedback_bit"],
         result.trajectory_rows()),
        ("gap_cdf.csv", ["frames", "gap_threshold", "fraction"],
         result.cdf_rows())])
    print("convergence: %d realizations, %d frames -> %s"
          % (cfg.num_realizations, cfg.num_frames, args.out))
    return 0


def _cmd_ber(args) -> int:
    cfg = _load_config(args)
    _prepare_out(args, ["ber.csv"])
    result = engine.run_ber_experiment(cfg, workers=args.workers)
    _write_outputs(args, "ber", result.config, [
        ("ber.csv", ["scheme", "snr_db", "bits", "errors", "ber"],
         [(r.scheme, r.snr_db, r.bits, r.errors, r.ber)
          for r in result.rows])])
    for r in result.rows:
        print("ber: scheme=%s snr_db=%s bits=%d errors=%d ber=%s"
              % (r.scheme, _fmt(r.snr_db), r.bits, r.errors, _fmt(r.ber)))
    return 0


def _cmd_tracking(args) -> int:
    cfg = _load_config(args)
    _prepare_out(args, ["tracking.csv"])
    result = engine.run_tracking_experiment(cfg, workers=args.workers)
    _write_outputs(args, "tracking", result.config, [
        ("tracking.csv",
         ["scheme", "beta", "normalized_doppler", "bits", "errors", "ber"],
         [(r.scheme, r.beta, r.normalized_doppler, r.bits, r.errors, r.ber)
          for r in result.rows])])
    for r in result.rows:
        print("tracking: scheme=%s beta=%s doppler=%s bits=%d errors=%d ber=%s"
              % (r.scheme, _fmt(r.beta), _fmt(r.normalized_doppler), r.bits,
                 r.errors, _fmt(r.ber)))
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = _load_config(args)
    noise_power = cfg.single_noise_power("oracle-check")
    h, g = engine._draw_channels(cfg, 0, cfg.num_realizations)
    hbar, gbar = network.ideal_compound(h, g, 1.0, noise_power)
    # the margins below are ratios to the closed forms' objectives, which
    # must be finite and positive
    engine._ssp_reference(hbar, np.abs(gbar) ** 2, noise_power)
    achieved = network._signal_power(oracles._psp(hbar), hbar)
    expected = np.sum(np.abs(hbar) ** 2, axis=0)  # ||hbar||^2
    if np.any(np.abs(achieved - expected) > 1e-9 * np.maximum(expected, 1.0)):
        print("oracle-check: FAIL (power objective of the matched "
              "vector deviates from the closed form)")
        return 2
    worst_power = worst_snr = 0.0
    for i in range(cfg.num_realizations):
        rng = engine._stream(cfg.seed, i, engine._STREAM_NOISE)
        p_margin, s_margin = oracles.random_search_margins(
            hbar[:, i], gbar[:, i], noise_power, ORACLE_CHECK_VECTORS, rng)
        worst_power = max(worst_power, p_margin)
        worst_snr = max(worst_snr, s_margin)
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


_COMMANDS = {
    "convergence": _cmd_convergence,
    "ber": _cmd_ber,
    "tracking": _cmd_tracking,
    "oracle-check": _cmd_oracle_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
