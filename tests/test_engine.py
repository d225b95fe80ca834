"""Tests for the frame loop, the batched kernels, and the experiment runners."""

import concurrent.futures
import operator
from dataclasses import replace

import numpy as np
import pytest

from relaybf import engine
from relaybf.adaptation import (
    ConstraintKind,
    Scheme,
    build_perturbation_set,
    init_weights,
    pm_step,
    tr_step,
)
from relaybf.channel import PathLoss, sample_static_rayleigh
from relaybf.engine import (
    ConfigError,
    ExperimentConfig,
    FrameConfig,
    Objective,
    Scenario,
    bpsk_detect,
    bpsk_modulate,
    make_link,
    run_ber_experiment,
    run_convergence_experiment,
    run_frame,
    run_tracking_experiment,
    snr_at_ber,
)
from relaybf.network import NetworkParams


def test_config_defaults_and_coercion():
    cfg = ExperimentConfig(scheme="pm", scenario="idealized",
                           objective="snr", constraint="sum-power",
                           num_frames=30)
    assert cfg.scheme is Scheme.PM
    assert cfg.scenario is Scenario.IDEALIZED
    assert cfg.betas == [0.1]
    assert cfg.cdf_frames == [10, 20]  # clipped to num_frames
    assert any(abs(t - 0.043) < 1e-15 for t in cfg.gap_thresholds)


def test_config_round_trip_and_unknown_keys():
    cfg = ExperimentConfig(scheme="tr", beta=0.2, seed=7)
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()
    assert isinstance(cfg.to_dict()["scheme"], str)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"betta": 0.1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(["not", "a", "dict"])


@pytest.mark.parametrize("bad", [
    {"beta": 0.0},
    {"scheme": "pm", "num_pilots": 9},
    {"distances": [1.0, 2.0]},
    {"schemes": ["no-bf", "bogus"]},
    {"scheme": "take-reject"},
    {"forgetting_factor": 0.0},
    {"cdf_frames": [5, 999]},
    {"snr_db_grid": []},
    {"seed": -1},
    {"beta": float("nan")},
    {"betas": []},
    {"betas": [0.1, float("inf")]},
    {"distances": [1.0, 3.0, float("inf")]},
    {"snr_db_grid": [float("inf")]},
    {"snr_db_grid": [-1e6]},  # noise power overflows
    {"snr_db_grid": [1e6]},   # noise power underflows to zero
    {"snr_db_grid": 18.0},
    {"num_frames": 2.5},
    {"num_frames": "30"},
    {"num_relays": True},
    {"cdf_frames": [10.5]},
    {"schemes": ["p-sp", "p-sp"]},
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        ExperimentConfig(**bad)


def test_config_converts_integral_floats():
    cfg = ExperimentConfig(num_frames=30.0, cdf_frames=[10.0])
    assert cfg.num_frames == 30 and type(cfg.num_frames) is int
    assert cfg.cdf_frames == [10] and type(cfg.cdf_frames[0]) is int


def test_frame_config_pm_split():
    with pytest.raises(ValueError):
        FrameConfig(num_pilots=5).validate_for(Scheme.PM)
    assert FrameConfig(10, 40).symbols_per_frame == 50


def test_bpsk_mapping():
    np.testing.assert_array_equal(bpsk_modulate([0, 1, 0]), [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        bpsk_modulate([0, 2])
    assert bpsk_detect(0.3 + 1j, 1.0 + 0j) == 0
    assert bpsk_detect(-0.3 + 1j, 1.0 + 0j) == 1
    # detection rotates by the channel phase
    assert bpsk_detect(1.0j, 1.0j) == 0
    assert bpsk_detect(-0.2, 0.0) == 1  # zero estimate falls back to Re(y)


def _static_link(scheme, objective, constraint, *, snr_db=18.0, seed=0,
                 beta=0.1, forgetting_factor=1.0):
    noise = 10.0 ** (-snr_db / 10.0)
    params = NetworkParams(3, 1.0, 1.0, noise)
    rng = np.random.default_rng(seed)
    chan = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    return make_link(params, scheme, objective, constraint, beta, rng,
                     scenario=Scenario.IDEALIZED, chan=chan,
                     forgetting_factor=forgetting_factor)


def test_idealized_tr_objective_is_monotone():
    ctx = _static_link(Scheme.TR, Objective.SNR, ConstraintKind.SUM_POWER)
    rng = np.random.default_rng(99)
    results = [run_frame(ctx, rng.integers(0, 2, size=40)) for _ in range(120)]
    assert results[0].feedback_bit == 1  # stored best starts at zero
    objs = [res.objective_data for res in results]
    assert all(b >= a - 1e-12 for a, b in zip(objs, objs[1:]))


def test_idealized_pm_closes_most_of_the_gap():
    ctx = _static_link(Scheme.PM, Objective.SNR, ConstraintKind.SUM_POWER)
    rng = np.random.default_rng(99)
    first = run_frame(ctx, rng.integers(0, 2, size=40))
    assert first.feedback_bit == 0  # both frame-0 probes coincide with w0
    for _ in range(150):
        last = run_frame(ctx, rng.integers(0, 2, size=40))
    assert last.objective_data > 3.0 * first.objective_data


def test_noiseless_link_detects_without_errors():
    params = NetworkParams(3, 1.0, 1.0, 0.0)
    rng = np.random.default_rng(4)
    chan = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    ctx = make_link(params, Scheme.PM, Objective.POWER,
                    ConstraintKind.SUM_POWER, 0.1, rng,
                    scenario=Scenario.IDEALIZED, chan=chan)
    for _ in range(10):
        res = run_frame(ctx, rng.integers(0, 2, size=40))
        assert res.bit_errors == 0


def _batch_inputs(seed=3, snr_db=18.0):
    rng = np.random.default_rng(seed)
    chan = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    noise = 10.0 ** (-snr_db / 10.0)
    hbar, gbar = engine._compound_batch(chan.h[None, :], chan.g[None, :],
                                        1.0, noise)
    return chan, hbar, gbar, noise


@pytest.mark.parametrize("scheme", [Scheme.TR, Scheme.PM])
def test_batched_kernels_match_scalar_path(scheme):
    # The batch kernels and the per-link step functions must agree bitwise:
    # the distributed agents rely on it.
    chan, hbar, gbar, noise = _batch_inputs()
    from relaybf.adaptation import init_pm_state, init_tr_state, pm_perturb, tr_perturb
    from relaybf.network import CompoundParams, objective_snr

    cp = CompoundParams(hbar[0], gbar[0])
    pset = build_perturbation_set(3, scheme)
    w = init_weights(3, ConstraintKind.SUM_POWER).w[None, :].copy()
    best = np.zeros(1)
    state = init_tr_state(3, ConstraintKind.SUM_POWER) if scheme is Scheme.TR \
        else init_pm_state(3, ConstraintKind.SUM_POWER)
    for k in range(50):
        if scheme is Scheme.TR:
            cand = tr_perturb(state, 0.1, pset)
            state, bit = tr_step(state, cand, objective_snr(cand, cp, noise))
            w, best, take = engine._tr_batch(
                w, best, k, 0.1, pset, ConstraintKind.SUM_POWER,
                Objective.SNR, hbar, gbar, noise, 1.0)
            assert int(take[0]) == bit
        else:
            plus, minus = pm_perturb(state, 0.1, pset)
            state, bit = pm_step(state, plus, minus,
                                 objective_snr(plus, cp, noise),
                                 objective_snr(minus, cp, noise))
            w, take = engine._pm_batch(
                w, k, 0.1, pset, ConstraintKind.SUM_POWER,
                Objective.SNR, hbar, gbar, noise)
            assert int(take[0]) == bit
        assert np.array_equal(w[0], state.w_data.w)


CONV_CFG = dict(scenario="idealized", scheme="pm", objective="snr",
                constraint="sum-power", num_realizations=48, num_frames=30,
                num_trajectories=5, cdf_frames=[0, 10, 30], block_size=16,
                snr_db_grid=[18.0], seed=11)


def test_convergence_shapes_and_progress():
    res = run_convergence_experiment(ExperimentConfig(**CONV_CFG))
    assert res.snr_normalized.shape == (5, 30)
    assert res.gaps_at_frames[10].shape == (48,)
    assert res.fraction_below(30, 0.3) > res.fraction_below(0, 0.3)
    assert res.fraction_below(30, 0.3) > 0.6
    rows = list(res.trajectory_rows())
    assert len(rows) == 5 * 30
    cdf = list(res.cdf_rows())
    assert len(cdf) == 3 * len(res.config.gap_thresholds)
    assert all(0.0 <= frac <= 1.0 for _, _, frac in cdf)


def test_convergence_deterministic_and_worker_independent():
    a = run_convergence_experiment(ExperimentConfig(**CONV_CFG), workers=1)
    b = run_convergence_experiment(ExperimentConfig(**CONV_CFG), workers=2)
    np.testing.assert_array_equal(a.snr_normalized, b.snr_normalized)
    np.testing.assert_array_equal(a.feedback_bits, b.feedback_bits)
    for f in (0, 10, 30):
        np.testing.assert_array_equal(a.gaps_at_frames[f], b.gaps_at_frames[f])


def test_convergence_rejects_wrong_setup():
    with pytest.raises(ConfigError):
        run_convergence_experiment(ExperimentConfig(**{**CONV_CFG,
                                                       "scenario": "realistic"}))
    with pytest.raises(ConfigError):
        run_convergence_experiment(ExperimentConfig(**{**CONV_CFG,
                                                       "objective": "power"}))
    with pytest.raises(ConfigError):
        run_convergence_experiment(
            ExperimentConfig(**{**CONV_CFG, "snr_db_grid": [10.0, 18.0]}))


BER_CFG = dict(scenario="idealized", scheme="pm", objective="snr",
               constraint="sum-power", snr_db_grid=[6.0, 12.0],
               schemes=["no-bf", "p-sp", "pb-s-sp"], num_realizations=48,
               num_frames=5, warmup_frames=60, error_target=10**9,
               min_bits=0, bits_cap=10**9, block_size=16, seed=5)


def test_ber_rows_and_physics():
    res = run_ber_experiment(ExperimentConfig(**BER_CFG))
    assert len(res.rows) == 6
    per_real = 5 * 40
    assert all(r.bits == 48 * per_real for r in res.rows)
    # more SNR means fewer errors, and beamforming beats no beamforming
    snr, ber = res.curve("no-bf")
    np.testing.assert_array_equal(snr, [6.0, 12.0])
    assert ber[1] < ber[0]
    assert res.row("p-sp", 6.0).ber < res.row("no-bf", 6.0).ber


def test_ber_deterministic_and_worker_independent():
    a = run_ber_experiment(ExperimentConfig(**BER_CFG), workers=1)
    b = run_ber_experiment(ExperimentConfig(**BER_CFG), workers=2)
    assert [(r.scheme, r.snr_db, r.bits, r.errors) for r in a.rows] \
        == [(r.scheme, r.snr_db, r.bits, r.errors) for r in b.rows]


def test_ber_stops_on_whole_block_prefixes():
    # Early stop consumes whole blocks in order: the bit count is always a
    # block-boundary prefix, whatever the worker count.
    cfg = ExperimentConfig(**{**BER_CFG, "snr_db_grid": [6.0],
                              "error_target": 1})
    per_real = 5 * 40
    prefixes = {16 * per_real, 32 * per_real, 48 * per_real}
    for workers in (1, 2):
        res = run_ber_experiment(cfg, workers=workers)
        assert res.rows[0].bits in prefixes
    a = run_ber_experiment(cfg, workers=1)
    b = run_ber_experiment(cfg, workers=2)
    assert [(r.bits, r.errors) for r in a.rows] == [(r.bits, r.errors) for r in b.rows]


def test_ber_respects_bits_cap():
    cfg = ExperimentConfig(**{**BER_CFG, "snr_db_grid": [6.0],
                              "bits_cap": 3000})
    res = run_ber_experiment(cfg)
    # cap of 3000 bits -> ceil(3000/200) = 15 realizations -> one 15-block
    assert res.rows[0].bits == 15 * 200


def _ber_rows(res):
    return [(r.scheme, r.snr_db, r.bits, r.errors) for r in res.rows]


# error_target 200 stops 4 dB after one 8-realization block, 10 dB after
# three or four, and 30 dB only at the 5-block realization cap
STACK_BER_CFG = {**BER_CFG, "snr_db_grid": [4.0, 10.0, 4.0, 30.0],
                 "schemes": ["no-bf", "egc", "pb-s-sp"], "num_realizations": 40,
                 "num_frames": 4, "warmup_frames": 30, "error_target": 200,
                 "block_size": 8}


@pytest.mark.parametrize("scheme", ["pm", "tr"])
def test_ber_stacked_grid_matches_points_run_alone(scheme):
    # One block advances every SNR point still accumulating; each point's
    # rows must equal a run of that point alone, whatever the worker count.
    cfg = ExperimentConfig(**{**STACK_BER_CFG, "scheme": scheme})
    alone = []
    for snr_db in cfg.snr_db_grid:
        alone += _ber_rows(run_ber_experiment(replace(cfg,
                                                      snr_db_grid=[snr_db])))
    assert len({bits for _, _, bits, _ in alone}) == 3
    for workers in (1, 2):
        assert _ber_rows(run_ber_experiment(cfg, workers=workers)) == alone


def test_ber_block_carries_only_accumulating_points(monkeypatch):
    carried = []
    block = engine._ber_block

    def recording_block(cfg, points, start, count):
        carried.append(points)
        return block(cfg, points, start, count)

    monkeypatch.setattr(engine, "_ber_block", recording_block)
    res = run_ber_experiment(ExperimentConfig(**STACK_BER_CFG))
    block_bits = 8 * 4 * 40
    used = [row.bits // block_bits for row in res.rows[::3]]
    assert carried == [tuple(p for p, n in enumerate(used) if n > k)
                       for k in range(max(used))]


def test_ber_rejects_realistic_scenario():
    with pytest.raises(ConfigError):
        run_ber_experiment(ExperimentConfig(**{**BER_CFG,
                                               "scenario": "realistic"}))


TRACK_CFG = dict(scenario="realistic", scheme="pm", objective="snr",
                 constraint="sum-power", snr_db_grid=[22.0],
                 normalized_doppler_grid=[0.01, 0.1], betas=[0.1],
                 num_realizations=8, num_frames=10, warmup_frames=20,
                 block_size=4, seed=2)


def test_tracking_rows_and_determinism():
    res = run_tracking_experiment(ExperimentConfig(**TRACK_CFG))
    assert len(res.rows) == 2
    assert all(r.scheme == "pb-s-sp" and r.beta == 0.1 for r in res.rows)
    assert all(r.bits == 8 * 10 * 40 for r in res.rows)
    dop, ber = res.curve("pb-s-sp", 0.1)
    np.testing.assert_array_equal(dop, [0.01, 0.1])
    again = run_tracking_experiment(ExperimentConfig(**TRACK_CFG), workers=2)
    assert [(r.bits, r.errors) for r in res.rows] \
        == [(r.bits, r.errors) for r in again.rows]


def _tracking_rows(res):
    return [(r.scheme, r.beta, r.normalized_doppler, r.bits, r.errors)
            for r in res.rows]


@pytest.mark.parametrize("mode", ["split", "whole"])
def test_tracking_stacked_grid_matches_points_run_alone(mode):
    # pb-egc (per-relay, power) and pb-s-sp (sum power, SNR) share each
    # block's draws and fading banks with every beta and Doppler value.
    cfg = ExperimentConfig(**{**TRACK_CFG, "schemes": ["pb-egc", "pb-s-sp"],
                              "betas": [0.1, 0.5],
                              "pm_estimation_mode": mode})
    alone = []
    for token in cfg.schemes:
        for beta in cfg.betas:
            for doppler in cfg.normalized_doppler_grid:
                alone += _tracking_rows(run_tracking_experiment(replace(
                    cfg, schemes=[token], betas=[beta],
                    normalized_doppler_grid=[doppler])))
    for workers in (1, 2):
        assert _tracking_rows(run_tracking_experiment(cfg, workers=workers)) \
            == alone


def test_one_pool_per_multi_point_run(monkeypatch):
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        CountingPool)
    for run, rows, cfg in (
            (run_ber_experiment, _ber_rows, ExperimentConfig(**BER_CFG)),
            (run_tracking_experiment, _tracking_rows,
             ExperimentConfig(**TRACK_CFG))):
        serial = rows(run(cfg, workers=1))
        assert not pools
        assert rows(run(cfg, workers=2)) == serial
        assert len(pools) == 1
        pools.clear()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_scheduler_pulls_payloads_lazily(workers):
    pulled = []

    def payloads():
        for i in range(7):
            pulled.append(i)
            yield (i,)

    results = []
    for value in engine._iter_block_results(operator.neg, payloads(),
                                            workers):
        # at most `workers` blocks are in flight when a result arrives
        assert len(pulled) <= len(results) + workers
        results.append(value)
    assert results == [-i for i in range(7)]


def test_tracking_rejects_wrong_setup():
    with pytest.raises(ConfigError):
        run_tracking_experiment(ExperimentConfig(**{**TRACK_CFG,
                                                    "scenario": "idealized"}))
    with pytest.raises(ConfigError):
        run_tracking_experiment(ExperimentConfig(**{**TRACK_CFG,
                                                    "scheme": "tr"}))
    with pytest.raises(ConfigError):
        run_tracking_experiment(
            ExperimentConfig(**{**TRACK_CFG, "schemes": ["egc"]}))


def _realistic_link(pm_estimation_mode="split", noise=1e-3, seed=8):
    from relaybf.channel import JakesBank

    params = NetworkParams(2, 1.0, 1.0, noise)
    rng = np.random.default_rng(seed)
    bank = JakesBank.draw(rng, (4,), 0.01, np.ones(4), symbols_per_frame=50)
    return make_link(params, Scheme.PM, Objective.SNR,
                     ConstraintKind.SUM_POWER, 0.1, rng,
                     scenario=Scenario.REALISTIC, jakes=bank,
                     pm_estimation_mode=pm_estimation_mode)


def test_realistic_pm_detection_uses_previous_winner():
    # split mode: the data interval of frame k+1 is detected with the
    # estimate that won frame k; frame 0 bootstraps from its own winner.
    ctx = _realistic_link()
    rng = np.random.default_rng(17)
    res0 = run_frame(ctx, rng.integers(0, 2, size=40))
    assert res0.h_hat_used == ctx.stored_h_hat  # bootstrap
    prev_winner = ctx.stored_h_hat
    for _ in range(4):
        res = run_frame(ctx, rng.integers(0, 2, size=40))
        assert res.h_hat_used == prev_winner
        prev_winner = ctx.stored_h_hat


def test_realistic_pm_whole_mode_averages_the_halves():
    # zero noise, zero Doppler: both pilot halves are exact, so the
    # whole-interval estimate is the mean of the two half estimates.
    from relaybf.channel import JakesBank

    params = NetworkParams(2, 1.0, 1.0, 0.0)
    rng = np.random.default_rng(8)
    bank = JakesBank.draw(rng, (4,), 0.0, np.ones(4), symbols_per_frame=50)
    ctx = make_link(params, Scheme.PM, Objective.POWER,
                    ConstraintKind.SUM_POWER, 0.1, rng,
                    scenario=Scenario.REALISTIC, jakes=bank,
                    pm_estimation_mode="whole")
    coeff = bank.block(0, 1)[:, 0]
    h, g = coeff[:2], coeff[2:]
    alphas = np.sqrt(1.0 / np.abs(h) ** 2)
    res = run_frame(ctx, np.zeros(40, dtype=int))
    w0 = init_weights(2, ConstraintKind.SUM_POWER)
    pset = build_perturbation_set(2, Scheme.PM)
    from relaybf.adaptation import candidate_pair
    plus, minus = candidate_pair(w0, 0, 0.1, pset)
    a = lambda w: np.sum(np.conj(w.w) * g * alphas * h)
    assert res.h_hat_used == pytest.approx(0.5 * (a(plus) + a(minus)), rel=1e-12)


def test_realistic_tr_keeps_estimate_until_take():
    # TR: the stored estimate only moves on a take.
    from relaybf.channel import JakesBank

    params = NetworkParams(2, 1.0, 1.0, 1e-3)
    rng = np.random.default_rng(12)
    bank = JakesBank.draw(rng, (4,), 0.005, np.ones(4), symbols_per_frame=50)
    ctx = make_link(params, Scheme.TR, Objective.SNR,
                    ConstraintKind.SUM_POWER, 0.1, rng,
                    scenario=Scenario.REALISTIC, jakes=bank)
    stored = None
    for _ in range(12):
        res = run_frame(ctx, rng.integers(0, 2, size=40))
        if stored is not None:
            assert res.h_hat_used == stored
        if res.feedback_bit:
            assert ctx.stored_h_hat != stored
        elif stored is not None:
            assert ctx.stored_h_hat == stored
        stored = ctx.stored_h_hat


def test_snr_at_ber_interpolation():
    assert snr_at_ber([10.0, 12.0], [1e-1, 1e-3], 1e-2) \
        == pytest.approx(11.0, abs=1e-12)
    # flat segment sitting exactly on the target: first grid point wins
    assert snr_at_ber([4.0, 6.0], [1e-2, 1e-2], 1e-2) == 4.0
    with pytest.raises(ValueError):
        snr_at_ber([10.0, 12.0], [1e-1, 3e-2], 1e-2)
    with pytest.raises(ValueError):
        snr_at_ber([10.0, 12.0], [1e-1, 0.0], 1e-2)


def test_streams_are_stable_and_distinct():
    a = engine._stream(0, 5, engine._STREAM_CHANNEL).standard_normal(4)
    b = engine._stream(0, 5, engine._STREAM_CHANNEL).standard_normal(4)
    c = engine._stream(0, 5, engine._STREAM_NOISE).standard_normal(4)
    d = engine._stream(0, 6, engine._STREAM_CHANNEL).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
