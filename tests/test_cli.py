"""End-to-end tests for the command line front end (in-process)."""

import json

import pytest

from relaybf.cli import main

CONV_CFG = {
    "scenario": "idealized", "scheme": "pm", "objective": "snr",
    "constraint": "sum-power", "num_realizations": 12, "num_frames": 12,
    "num_trajectories": 3, "cdf_frames": [6, 12],
    "gap_thresholds": [0.01, 0.1, 0.5], "block_size": 8, "seed": 3,
}
BER_CFG = {
    "scenario": "idealized", "snr_db_grid": [8.0],
    "schemes": ["no-bf", "p-sp"], "num_realizations": 8, "num_frames": 3,
    "error_target": 10**9, "block_size": 8, "seed": 3,
}
TRACK_CFG = {
    "scenario": "realistic", "scheme": "pm", "snr_db_grid": [22.0],
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


@pytest.mark.parametrize("bad", [
    # accepted before strict validation, with meaningless rows
    {"beta": float("nan"), "schemes": ["pb-s-sp"]},
    {"snr_db_grid": [float("inf")]},
    # TypeError or OverflowError tracebacks before strict validation
    {"num_frames": 2.5},
    {"num_relays": True, "distances": [1.0]},
    {"snr_db_grid": [-1e6]},
])
def test_invalid_numbers_exit_1_with_one_line(tmp_path, capsys, bad):
    cfg = _cfg_file(tmp_path, {**BER_CFG, **bad})
    out = tmp_path / "o"
    assert main(["ber", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
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


def test_tracking_rejects_mismatched_scenario(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, {**TRACK_CFG, "scenario": "idealized"})
    assert main(["tracking", "--config", cfg,
                 "--out", str(tmp_path / "t")]) == 1
    capsys.readouterr()


def test_oracle_check_passes(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, {"num_realizations": 2, "seed": 0})
    assert main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "oracle-check: PASS" in out
    assert "max_power_margin" in out
