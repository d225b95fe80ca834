"""Checks on the benchmark's tracer.

    python3 -m pytest perfbench/tests

Two traced runs of one input must give identical counts, so that count
based claims can rest on them, the traced CSVs must equal the untraced
ones, and the tracer must leave `relaybf` exactly as it found it.
"""

import concurrent.futures
import hashlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE.parent)]

import relaybf.cli  # noqa: E402
from tracing import COUNT_METRICS, METRICS, Tracer  # noqa: E402

TINY = {
    "convergence": ("convergence_sum_power.json", {
        "num_realizations": 40, "num_frames": 10, "block_size": 16,
        "num_trajectories": 2}),
    "ber": ("ber_snr_sweep.json", {
        "snr_db_grid": [8.0, 26.0], "num_realizations": 40, "block_size": 10,
        "warmup_frames": 20, "error_target": 50, "min_bits": 0,
        "bits_cap": 30_000}),
    "tracking": ("tracking_doppler_sweep.json", {
        "normalized_doppler_grid": [0.001, 0.01], "num_realizations": 4,
        "block_size": 2, "warmup_frames": 5, "num_frames": 5}),
}


def _run(tmp_path, command, workers=1, mode=None, tag="a"):
    shipped, overrides = TINY[command]
    with open(ROOT / "configs" / shipped) as fh:
        cfg = json.load(fh)
    cfg.update(overrides)
    config = tmp_path / ("%s.json" % command)
    config.write_text(json.dumps(cfg))
    out = tmp_path / ("%s-%s-%s" % (command, workers, tag))
    argv = [command, "--config", str(config), "--out", str(out),
            "--workers", str(workers)]
    metrics = None
    if mode is None:
        assert relaybf.cli.main(argv) == 0
    else:
        with Tracer(mode) as tracer:
            assert relaybf.cli.main(argv) == 0
        assert tracer.missing == []
        metrics = tracer.metrics()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.glob("*.csv"))}
    return metrics, digests


def _snapshot():
    """Identity of every global in relaybf, plus the other patched names."""
    modules = {name: {k: id(v) for k, v in vars(mod).items()}
               for name, mod in sys.modules.items()
               if mod is not None and name.split(".")[0] == "relaybf"}
    return (modules, id(relaybf.channel.JakesBank.block),
            id(vars(concurrent.futures).get("ProcessPoolExecutor")))


def _counts(metrics):
    return {name: metrics[name] for name in COUNT_METRICS}


@pytest.mark.parametrize("command", sorted(TINY))
def test_counts_repeat_and_bytes_match(tmp_path, command):
    _, plain = _run(tmp_path, command, tag="plain")
    first, digests1 = _run(tmp_path, command, mode="full", tag="t1")
    second, digests2 = _run(tmp_path, command, mode="full", tag="t2")
    assert set(first) == set(METRICS) - {"trace.wall_s", "trace.overhead_s"}
    assert _counts(first) == _counts(second)
    assert digests1 == digests2 == plain
    assert first["engine.block.calls"] > 0
    assert first["engine.blocks_used"] == first["engine.blocks_submitted"]
    assert first["cli.csv_bytes"] > 0


def test_tracking_counts_jakes_bytes(tmp_path):
    metrics, _ = _run(tmp_path, "tracking", mode="full")
    assert metrics["channel.jakes_block.calls"] > 0
    assert metrics["channel.jakes_block.bytes_computed"] > 0
    assert metrics["engine.pm_batch.calls"] == 0


def test_scheduler_counts_pool_path(tmp_path):
    _, serial = _run(tmp_path, "ber", tag="serial")
    first, digests1 = _run(tmp_path, "ber", workers=2, mode="scheduler",
                           tag="t1")
    second, digests2 = _run(tmp_path, "ber", workers=2, mode="scheduler",
                            tag="t2")
    assert digests1 == digests2 == serial
    assert _counts(first) == _counts(second)
    assert first["engine.pools"] >= 1
    assert first["engine.blocks_submitted"] >= first["engine.blocks_used"] > 0
    assert first["engine.block.calls"] == 0  # blocks ran in the workers


@pytest.mark.parametrize("mode", ["full", "scheduler"])
def test_tracer_restores_relaybf(tmp_path, mode):
    before = _snapshot()
    _run(tmp_path, "ber", mode=mode)
    assert _snapshot() == before


def test_tracer_restores_after_an_error():
    before = _snapshot()
    with pytest.raises(RuntimeError):
        with Tracer("full"):
            assert _snapshot() != before
            raise RuntimeError("stop")
    assert _snapshot() == before
