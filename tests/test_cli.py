"""End-to-end tests for the command line front end (in-process)."""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybf.cli import main
from relaybf.config import REFERENCES, SCHEMES
from relaybf.engine import ConvergenceResult

CONV_CFG = {
    "scheme": "pm", "num_realizations": 12, "num_frames": 12,
    "num_trajectories": 3, "cdf_frames": [6, 12],
    "gap_thresholds": [0.01, 0.1, 0.5], "block_size": 8, "seed": 3,
}
BER_CFG = {
    "snr_db_grid": [8.0],
    "schemes": ["no-bf", "p-sp"], "num_realizations": 8, "num_frames": 3,
    "error_target": 10**9, "block_size": 8, "seed": 3,
}
TRACK_CFG = {
    "scheme": "pm", "snr_db_grid": [22.0],
    "normalized_doppler_grid": [0.05], "betas": [0.1],
    "num_realizations": 4, "num_frames": 5, "warmup_frames": 10,
    "block_size": 4, "seed": 1,
}


def _cfg_file(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["ber", "--out", str(tmp_path / "o")]) == 1  # --config missing
    capsys.readouterr()


def test_config_errors_exit_1(tmp_path, capsys):
    out = str(tmp_path / "o")
    missing = str(tmp_path / "nope.json")
    assert main(["ber", "--config", missing, "--out", out]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["ber", "--config", str(bad), "--out", out]) == 1

    unknown = _cfg_file(tmp_path, {"bogus_key": 1}, "unknown.json")
    assert main(["ber", "--config", unknown, "--out", out]) == 1

    cfg = _cfg_file(tmp_path, BER_CFG)
    assert main(["ber", "--config", cfg, "--out", out, "--workers", "0"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


_INVALID_NUMBERS = [
    # accepted before strict validation, with meaningless rows
    ({"betas": [float("nan")], "schemes": ["pb-s-sp"]}, ""),
    ({"snr_db_grid": [float("inf")]}, ""),
    # TypeError or OverflowError tracebacks before strict validation
    ({"num_frames": 2.5}, ""),
    ({"num_data": True}, ""),
    ({"snr_db_grid": [-1e6]}, ""),
    # every compound channel underflowed to 0: exit 0, meaningless counts
    ({"distances": [1e100, 1e100, 1e100]}, ""),
    # a TypeError message that did not name the key
    ({"distances": None}, ""),
    # "unknown scheme tokens: []" named no unknown token
    ({"schemes": []}, "schemes must be a non-empty list of scheme tokens"),
    # every |hbar|^2 underflowed: warnings, detection with NaN weights, exit 0
    ({"snr_db_grid": [-300.0], "distances": [1e76, 1e76, 1e76]},
     "the s-sp SNR is not finite and positive"),
    # |w + beta*q|^2 overflowed: a warning on exit 0
    ({"betas": [1e155], "schemes": ["pb-s-sp"]},
     "betas must be non-empty, all in (0, 1e150]"),
    ({"betas": [0.1, 1e151]}, "betas must be non-empty, all in (0, 1e150]"),
]


@pytest.mark.parametrize(
    "bad,message", _INVALID_NUMBERS,
    ids=["bad%d" % i for i in range(len(_INVALID_NUMBERS))])
def test_invalid_numbers_exit_1_with_one_line(tmp_path, capsys, bad, message):
    cfg = _cfg_file(tmp_path, {**BER_CFG, **bad})
    out = tmp_path / "o"
    assert main(["ber", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and err.count("\n") == 1
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("relaybf ")


def test_convergence_outputs_and_overwrite_guard(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, CONV_CFG)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0

    traj = (out / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "realization,frame,snr_normalized,gap,feedback_bit"
    assert len(traj) == 1 + 3 * 12
    cdf = (out / "gap_cdf.csv").read_text().splitlines()
    assert cdf[0] == "frames,gap_threshold,fraction"
    assert len(cdf) == 1 + 2 * 3

    stored = json.loads((out / "config.json").read_text())
    assert stored["num_realizations"] == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "convergence"
    assert manifest["outputs"] == ["gap_cdf.csv", "trajectories.csv"]

    # refuse to clobber, then allow with --force and reproduce byte for byte
    first = (out / "trajectories.csv").read_bytes()
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["convergence", "--config", cfg, "--out", str(out),
                 "--force"]) == 0
    assert (out / "trajectories.csv").read_bytes() == first
    # an --out that is a file is refused before the run
    assert main(["convergence", "--config", cfg, "--out",
                 str(out / "gap_cdf.csv"), "--force"]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_failed_rerun_keeps_previous_outputs(tmp_path, capsys, monkeypatch):
    cfg = _cfg_file(tmp_path, CONV_CFG)
    out = tmp_path / "conv"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    # a failure in the first CSV, or in the second after the first is
    # written; the rerun's other seed would change every file it replaced
    for method in ("trajectory_rows", "cdf_rows"):
        original = getattr(ConvergenceResult, method)

        def failing_rows(self, original=original):
            yield next(original(self))
            raise RuntimeError("row generator failed")

        with monkeypatch.context() as patch:
            patch.setattr(ConvergenceResult, method, failing_rows)
            assert main(["convergence", "--config", cfg, "--out", str(out),
                         "--force", "--seed", "4"]) == 2
        assert "row generator failed" in capsys.readouterr().err
        # the same files with the same bytes, and no temp file left behind
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, \
            method


def test_convergence_worker_count_does_not_change_bytes(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, CONV_CFG)
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert main(["convergence", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["convergence", "--config", cfg, "--out", str(out2),
                 "--workers", "2"]) == 0
    for name in ("trajectories.csv", "gap_cdf.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    capsys.readouterr()


def test_ber_outputs(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, BER_CFG)
    out = tmp_path / "ber"
    assert main(["ber", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "ber.csv").read_text().splitlines()
    assert lines[0] == "scheme,snr_db,bits,errors,ber"
    assert len(lines) == 3  # two schemes, one grid point
    assert lines[1].startswith("no-bf,8.0,")
    stdout = capsys.readouterr().out
    assert stdout.count("ber: scheme=") == 2


def test_ber_seed_override(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, BER_CFG)
    out = tmp_path / "ber"
    assert main(["ber", "--config", cfg, "--out", str(out),
                 "--seed", "123"]) == 0
    stored = json.loads((out / "config.json").read_text())
    assert stored["seed"] == 123
    capsys.readouterr()


def test_tracking_outputs(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, TRACK_CFG)
    out = tmp_path / "trk"
    assert main(["tracking", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "tracking.csv").read_text().splitlines()
    assert lines[0] == "scheme,beta,normalized_doppler,bits,errors,ber"
    assert len(lines) == 2
    assert lines[1].startswith("pb-s-sp,0.1,0.05,800,")
    assert "tracking: scheme=pb-s-sp" in capsys.readouterr().out


@pytest.mark.parametrize("command,data,name", [
    ("ber", BER_CFG, "ber.csv"),
    ("tracking", {**TRACK_CFG, "betas": [0.1, 0.2]}, "tracking.csv"),
], ids=["ber", "tracking"])
def test_printed_lines_match_the_csv(tmp_path, capsys, command, data, name):
    # one `command: column=value ...` line per CSV row, in order
    cfg = _cfg_file(tmp_path, data)
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    header, *rows = (out / name).read_text().splitlines()
    expected = ["%s: %s" % (command, " ".join(
        "%s=%s" % pair for pair in zip(header.split(","), row.split(","))))
        for row in rows]
    assert len(expected) == 2
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("bad", [
    {"scheme": "tr"},  # rejected by the runner, after the outputs are checked
    # the command fixes the scenario and each scheme token its objective and
    # constraint, so these keys are unknown
    {"scenario": "realistic"},
    {"objective": "snr"},
    {"constraint": "sum-power"},
    # R is len(distances), and every command reads its steps from betas
    {"num_relays": 3},
    {"beta": 0.1},
], ids=lambda bad: next(iter(bad)))
def test_tracking_rejects_mismatched_scenario(tmp_path, capsys, bad):
    cfg = _cfg_file(tmp_path, {**TRACK_CFG, **bad})
    out = tmp_path / "t"
    assert main(["tracking", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "scheme" not in bad:
        assert err == "error: unknown config keys: %s\n" % next(iter(bad))
    assert not out.exists()


@pytest.mark.parametrize("command", ["convergence", "ber"])
def test_idealized_commands_take_a_single_beta(tmp_path, capsys, command):
    data = {"convergence": CONV_CFG, "ber": BER_CFG}[command]
    cfg = _cfg_file(tmp_path, {**data, "betas": [0.1, 0.5]})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err \
        == "error: %s uses a single betas entry\n" % command
    assert not out.exists()


@pytest.mark.parametrize("schemes,message", [
    (["s-sp"], "convergence adapts a pb-* token, got 's-sp'"),
    (["pb-s-sp", "pb-egc"], "convergence uses a single schemes entry"),
], ids=["closed-form", "two-tokens"])
def test_convergence_takes_one_adaptive_token(tmp_path, capsys, schemes,
                                              message):
    cfg = _cfg_file(tmp_path, {**CONV_CFG, "schemes": schemes})
    out = tmp_path / "o"
    assert main(["convergence", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_convergence_runs_the_token_it_records(tmp_path, capsys):
    # pb-s-sp is the default; pb-egc adapts its own weights against egc, so
    # its curves differ, and config.json names the token that ran
    csvs = {}
    for name, extra in (("default", {}), ("pb-s-sp", {"schemes": ["pb-s-sp"]}),
                        ("pb-egc", {"schemes": ["pb-egc"]})):
        cfg = _cfg_file(tmp_path, {**CONV_CFG, **extra}, name + ".json")
        out = tmp_path / name
        assert main(["convergence", "--config", cfg, "--out", str(out)]) == 0
        stored = json.loads((out / "config.json").read_text())
        assert stored["schemes"] == extra.get("schemes", ["pb-s-sp"])
        csvs[name] = [(out / f).read_bytes()
                      for f in ("trajectories.csv", "gap_cdf.csv")]
    capsys.readouterr()
    assert csvs["default"] == csvs["pb-s-sp"]
    assert all(a != b for a, b in zip(csvs["pb-egc"], csvs["pb-s-sp"]))


def test_even_pilot_count_is_a_tracking_rule(tmp_path, capsys):
    # ber and convergence send no pilots, so an odd count is theirs to ignore
    cfg = _cfg_file(tmp_path, {**BER_CFG, "scheme": "pm", "num_pilots": 3})
    assert main(["ber", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    cfg = _cfg_file(tmp_path, {**TRACK_CFG, "num_pilots": 3}, "track.json")
    out = tmp_path / "t"
    assert main(["tracking", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err \
        == "error: PM needs an even pilot count >= 2\n"
    assert not out.exists()


def test_tracking_snr_objective_needs_two_pilots_per_half(tmp_path, capsys):
    # with one pilot per half both SNR probes hit the cap and tie forever
    cfg = _cfg_file(tmp_path, {**TRACK_CFG, "num_pilots": 2})
    out = tmp_path / "t"
    assert main(["tracking", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "num_pilots" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [
    {"normalized_doppler_grid": [1e308]},
    {"normalized_doppler_grid": [0.05, 1e307], "warmup_frames": 2,
     "num_frames": 2},
], ids=["1e308", "1e307-4-frames"])
def test_tracking_rejects_a_doppler_that_overflows_the_phase(tmp_path, capsys,
                                                             bad):
    # omega * t overflowed in JakesBank.block: NaN fading, exit 0, BER ~ 1/2
    cfg = _cfg_file(tmp_path, {**TRACK_CFG, **bad})
    out = tmp_path / "t"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tracking", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: normalized_doppler_grid entry ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_oracle_check_has_no_workers_flag(tmp_path, capsys):
    # it runs in one process: a pool size would be silently ignored
    cfg = _cfg_file(tmp_path, {"num_realizations": 2, "seed": 0})
    assert main(["oracle-check", "--config", cfg, "--workers", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unrecognized arguments: --workers 2\n"


def test_oracle_check_passes(capsys):
    # the shipped config's output, byte for byte
    cfg = Path(__file__).resolve().parents[1] / "configs" / "oracle_check.json"
    assert main(["oracle-check", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "oracle-check: channels=200 vectors=20000 max_power_margin=-7.827e-04"
        " max_snr_margin=-2.189e-04\noracle-check: PASS\n")


@pytest.mark.parametrize("command", ["oracle-check", "convergence"])
def test_an_allocation_that_cannot_fit_exits_2_with_one_line(tmp_path, capsys,
                                                             command):
    # 10**14 realizations ask for more than 2**47 bytes, which no 64-bit
    # host maps, so the allocation fails before touching memory; numpy's
    # MemoryError ended in a traceback
    cfg = _cfg_file(tmp_path, {"num_realizations": 10**14,
                               "block_size": 10**14})
    out = tmp_path / "o"
    argv = [command, "--config", cfg]
    if command == "convergence":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("data", [
    # each relay's SNR overflows
    {"snr_db_grid": [2547.0], "distances": [1e-27] * 3},
    # every |hbar|^2 underflows, or every relay's SNR does
    {"snr_db_grid": [-300.0], "distances": [1e76] * 3},
    {"snr_db_grid": [-3000.0], "distances": [1e76] * 3},
    # a second SNR point, which went untested: the check takes one
    {"snr_db_grid": [18.0, -40.0]},
])
def test_oracle_check_rejects_an_out_of_range_channel(tmp_path, capsys, data):
    cfg = _cfg_file(tmp_path, {"num_realizations": 3, **data})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle-check", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


_WIDE = st.floats(-40.0, 60.0) | st.floats(-40.0, 60.0) \
    | st.floats(-3200.0, 3300.0) | st.floats()
_POSITIVE = st.floats(1e-3, 2.0) | st.floats(1e-3, 2.0) \
    | st.floats(min_value=0.0, allow_infinity=False)
_ADAPTIVE = sorted(REFERENCES)
# no large finite junk number: a size key set to 2**63 - 3 or 2.4e16 is a
# valid config that would run for days
_JUNK = st.none() | st.booleans() | st.text(max_size=2) \
    | st.integers(max_value=5) | st.floats(max_value=5.0) \
    | st.sampled_from([math.nan, math.inf]) \
    | st.lists(st.integers(-1, 2), max_size=2)


@st.composite
def _cli_configs(draw):
    """Config objects that are mostly valid, with wide numbers and, in a
    quarter of them, one key replaced by arbitrary JSON.  The sizes are
    small, and always present so that no default size applies."""
    frames = draw(st.integers(1, 3))
    data = {
        "num_realizations": draw(st.integers(1, 5)), "num_frames": frames,
        "warmup_frames": draw(st.integers(0, 3)),
        "num_pilots": draw(st.sampled_from([1, 2, 4, 4, 6])),
        "num_data": draw(st.integers(1, 4)),
        "block_size": draw(st.integers(1, 3)),
        "num_trajectories": draw(st.integers(0, 3)),
        "scheme": draw(st.sampled_from(["pm", "pm", "tr"])),
        # log-uniform over and past the range that keeps d**-4 normal
        "distances": [10.0 ** e for e in draw(
            st.lists(st.floats(-78.0, 78.0), min_size=1, max_size=4))],
        "snr_db_grid": draw(st.lists(_WIDE, min_size=1, max_size=2)),
    }
    optional = {
        "betas": st.lists(_POSITIVE, min_size=1, max_size=2),
        "normalized_doppler_grid": st.lists(st.floats(0.0, 1.0) | _POSITIVE,
                                            min_size=1, max_size=2),
        "forgetting_factor": st.floats(0.0, 1.0),
        "pm_estimation_mode": st.sampled_from(["split", "whole"]),
        # adaptive tokens alone, which tracking accepts, or any tokens
        "schemes": st.lists(st.sampled_from(_ADAPTIVE), min_size=1,
                            unique=True)
        | st.lists(st.sampled_from(sorted(SCHEMES)), min_size=1, max_size=3,
                   unique=True),
        "error_target": st.integers(1, 50), "min_bits": st.integers(0, 100),
        "bits_cap": st.integers(1, 200),
        "cdf_frames": st.lists(st.integers(0, frames), max_size=2),
        "gap_thresholds": st.lists(_POSITIVE, max_size=2),
    }
    # sorted: a set of strings iterates in hash order, which would tie the
    # examples to PYTHONHASHSEED
    for key in sorted(draw(st.sets(st.sampled_from(sorted(optional))))):
        data[key] = draw(optional[key])
    if draw(st.integers(0, 3)) == 0:
        data[draw(st.sampled_from(sorted(data)))] = draw(_JUNK)
    return data


_SMALL = {"num_realizations": 3, "num_frames": 2, "warmup_frames": 1,
          "num_pilots": 4, "num_data": 2, "block_size": 2,
          "num_trajectories": 2}


@settings(max_examples=60)
@given(data=_cli_configs())
# every compound channel underflows; the s-sp reference SNR was 0/0
@example(data={**_SMALL, "scheme": "pm", "distances": [1e100] * 3})
# distances in range, but each relay's SNR underflows at this noise power
@example(data={**_SMALL, "scheme": "pm", "snr_db_grid": [-3000.0]})
# ... or every |hbar|^2 does, so the s-sp weights are 0/0
@example(data={**_SMALL, "scheme": "pm", "snr_db_grid": [-300.0],
               "distances": [1e76] * 3})
# |w + beta*q|^2 overflows in the sum-power projection
@example(data={"num_realizations": 1, "num_frames": 1, "warmup_frames": 0,
               "num_pilots": 1, "num_data": 1, "block_size": 1,
               "num_trajectories": 0, "scheme": "tr", "distances": [1.0],
               "snr_db_grid": [0.0], "betas": [1e155]})
# each relay's SNR overflows to inf: the s-sp check must not warn first
@example(data={**_SMALL, "scheme": "pm", "snr_db_grid": [2547.0],
               "distances": [1e-27] * 3})
# omega * t overflows the fading phase to inf, and the channels to NaN
@example(data={**_SMALL, "scheme": "pm", "normalized_doppler_grid": [1e308]})
# every |hbar|^2 underflows, so each power reference is 0 (and the egc and
# p-sp weights are 0/0)
@example(data={**_SMALL, "scheme": "pm", "schemes": ["pb-p-sp"],
               "distances": [1e70, 2e70], "snr_db_grid": [-2900.0]})
@example(data={**_SMALL, "scheme": "pm", "schemes": ["pb-egc"],
               "distances": [1e70, 2e70], "snr_db_grid": [-2900.0]})
def test_any_json_config_exits_1_or_writes_finite_csvs(data):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data))
        for command in ("convergence", "ber", "tracking"):
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", str(cfg), "--out", str(out)])
            # a warning means NaN or inf arithmetic, and would print above
            # an error line
            assert not caught, (code, [str(w.message) for w in caught])
            if code == 1:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert not out.exists()
                continue
            assert code == 0, err.getvalue()
            for path in out.glob("*.csv"):
                with open(path) as fh:
                    rows = list(csv.reader(fh))[1:]
                for value in (v for row in rows for v in row
                              if v not in SCHEMES):
                    assert math.isfinite(float(value)), (path.name, value)
