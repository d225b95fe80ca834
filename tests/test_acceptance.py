"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantity (run
pytest with -s to see them alongside the verdicts).  The heavyweight BER and
tracking ensembles are shared module fixtures; everything is seeded, so the
suite is deterministic.
"""

import json

import numpy as np
import pytest
from scipy.special import j0

from relaybf import engine, estimation, network
from relaybf.adaptation import (
    ConstraintKind,
    Scheme,
    build_perturbation_set,
    decide,
    init_weights,
    probes,
    project,
    select,
)
from relaybf.channel import (
    JakesBank,
    PathLoss,
    complex_normal,
    sample_static_rayleigh,
)
from relaybf.cli import main as cli_main
from relaybf.config import ExperimentConfig
from relaybf.engine import (
    run_ber_experiment,
    run_convergence_experiment,
    run_tracking_experiment,
    snr_at_ber,
)
from relaybf.membership import (
    BirthMessage,
    DeathMessage,
    RelayAgent,
    RelayRegistry,
    apply_birth,
    apply_death,
    decode_message,
    encode_message,
    exclude_coordinate,
    insert_coordinate,
)

SEED = 20
SNR_DB = 18.0
DISTANCES = [1.0, 3.0, 5.0]


def _report(num, ok, detail):
    print("criterion %02d: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    return ok


# ---------------------------------------------------------------------------
# shared heavyweight fixtures

BER_GRID = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0]


@pytest.fixture(scope="module")
def ber_result():
    cfg = ExperimentConfig(
        scheme="pm", betas=[0.1], snr_db_grid=BER_GRID,
        distances=DISTANCES, num_realizations=16000, num_frames=25,
        warmup_frames=300, error_target=10**9, min_bits=0,
        bits_cap=16_000_000, block_size=1000, seed=SEED)
    return run_ber_experiment(cfg)


@pytest.fixture(scope="module")
def tracking_result():
    cfg = ExperimentConfig(
        scheme="pm", snr_db_grid=[22.0], schemes=["pb-s-sp"],
        betas=[0.1, 0.5], normalized_doppler_grid=[1e-4, 1e-3, 3e-3, 1e-2],
        distances=DISTANCES, num_realizations=512, num_frames=150,
        warmup_frames=150, block_size=128, seed=SEED)
    return run_tracking_experiment(cfg)


# ---------------------------------------------------------------------------
# 1. convergence of the gap CDF

def test_criterion_01_convergence_fractions():
    fractions = {}
    for scheme, frame in (("pm", 40), ("tr", 70)):
        cfg = ExperimentConfig(
            scheme=scheme, betas=[0.1], snr_db_grid=[SNR_DB],
            distances=DISTANCES, num_realizations=10_000, num_frames=frame,
            cdf_frames=[frame], num_trajectories=0, block_size=2500,
            seed=SEED)
        res = run_convergence_experiment(cfg)
        fractions[scheme] = res.fraction_below(frame, 0.043)
    ok = fractions["pm"] >= 0.88 and fractions["tr"] >= 0.88
    assert _report(1, ok, "gap<4.3%%: pm@40=%.3f tr@70=%.3f (need >=0.88)"
                   % (fractions["pm"], fractions["tr"]))


# ---------------------------------------------------------------------------
# 2. monotone objective under take/reject without forgetting

def test_criterion_02_tr_monotonicity():
    n, frames = 1000, 500
    noise = 10.0 ** (-SNR_DB / 10.0)
    cfg = ExperimentConfig(scheme="tr",
                           distances=DISTANCES, num_realizations=n,
                           num_frames=frames, block_size=n, seed=SEED)
    h, g = engine._draw_channels(cfg, 0, n)
    hbar, gbar = network.ideal_compound(h, g, 1.0, noise)
    gbar2 = np.abs(gbar) ** 2
    pset = build_perturbation_set(3, Scheme.TR)
    w = np.tile(init_weights(3, ConstraintKind.SUM_POWER), (n, 1)).T
    best = np.zeros(n)
    prev = network._snr(w, hbar, gbar2, noise)
    violations = 0
    for k in range(frames):
        w, best, _ = engine._tr_batch(w, best, k, 0.1, pset,
                                      ConstraintKind.SUM_POWER, slice(None),
                                      hbar, gbar2, noise, 1.0)
        cur = network._snr(w, hbar, gbar2, noise)
        violations += int(np.count_nonzero(cur < prev))
        prev = cur
    ok = violations == 0
    assert _report(2, ok, "%d realizations x %d frames, %d violations"
                   % (n, frames, violations))


# ---------------------------------------------------------------------------
# 3. closed-form weights against random search

def test_criterion_03_oracles_beat_random_search():
    # the self-check that `relaybf oracle-check` runs
    cfg = ExperimentConfig(snr_db_grid=[SNR_DB], distances=DISTANCES,
                           num_realizations=1000, seed=SEED)
    worst_power, worst_snr, worst_psp_dev = engine.oracle_margins(cfg, 100_000)
    ok = worst_snr <= 1.0 and worst_power <= 1.0 and worst_psp_dev <= 1e-9
    assert _report(3, ok,
                   "1000 channels x 1e5 vectors: max snr margin %.2e, max "
                   "power margin %.2e, psp dev %.1e"
                   % (worst_snr - 1.0, worst_power - 1.0, worst_psp_dev))


# ---------------------------------------------------------------------------
# 4-6. BER curve relationships on the shared ensemble

def test_criterion_04_adaptive_matches_closed_form(ber_result):
    row = lambda t: ber_result.row(t, SNR_DB)
    ratio_s = row("pb-s-sp").ber / row("s-sp").ber
    ratio_p = row("pb-p-sp").ber / row("p-sp").ber
    bits = row("s-sp").bits
    ok = ratio_s <= 1.5 and ratio_p <= 1.5 and bits >= 100_000
    assert _report(4, ok, "at %g dB: pb-s-sp/s-sp=%.3f pb-p-sp/p-sp=%.3f "
                   "bits=%d" % (SNR_DB, ratio_s, ratio_p, bits))


def test_criterion_05_horizontal_gap(ber_result):
    snr_n, ber_n = ber_result.curve("no-bf")
    snr_s, ber_s = ber_result.curve("pb-s-sp")
    gap = snr_at_ber(snr_n, ber_n, 1e-2) - snr_at_ber(snr_s, ber_s, 1e-2)
    ok = 6.5 <= gap <= 9.5
    assert _report(5, ok, "gap at BER 1e-2: %.3f dB (need 8 +/- 1.5)" % gap)


def test_criterion_06_high_snr_ordering(ber_result):
    top = max(BER_GRID)
    b = {t: ber_result.row(t, top).ber for t in ("s-sp", "egc", "p-sp")}
    slope = {t: (np.log10(ber_result.row(t, top).ber)
                 - np.log10(ber_result.row(t, 20.0).ber)) / (top - 20.0)
             for t in ("s-sp", "egc")}
    ok = (top >= 26.0 and b["s-sp"] < b["egc"] <= 1.3 * b["p-sp"]
          and slope["s-sp"] < slope["egc"])
    assert _report(6, ok, "at %g dB: s-sp=%.2e egc=%.2e p-sp=%.2e, slopes "
                   "s-sp=%.3f egc=%.3f" % (top, b["s-sp"], b["egc"],
                                           b["p-sp"], slope["s-sp"],
                                           slope["egc"]))


# ---------------------------------------------------------------------------
# 7. variance of the pilot-based channel estimate

def test_criterion_07_estimator_variance():
    rng = np.random.default_rng(SEED)
    noise = 10.0 ** (-SNR_DB / 10.0)
    h, g = sample_static_rayleigh(rng, PathLoss(DISTANCES))
    alphas = network.relay_gains(1.0, np.abs(h) ** 2 + noise)
    hbar, gbar = network.compound(h, g, alphas)
    w = project(complex_normal(rng, 3), ConstraintKind.SUM_POWER,
                init_weights(3, ConstraintKind.SUM_POWER))
    a = complex(np.vdot(w, hbar))
    trials, lp = 100_000, 10
    n = complex_normal(rng, (trials, lp, 3), noise)
    v = complex_normal(rng, (trials, lp), noise)
    x = h + n  # all-ones pilots
    y = np.sum(g * np.conj(w) * alphas * x, axis=2) + v
    h_hat = estimation._channel_estimate(y)
    var = float(np.mean(np.abs(h_hat - a) ** 2))
    noise_gain = float(np.sum(np.abs(w) ** 2 * np.abs(gbar) ** 2))
    predicted = noise * (1.0 + noise_gain) / lp
    rel = abs(var - predicted) / predicted
    ok = rel <= 0.05
    assert _report(7, ok, "1e5 trials: var=%.4e predicted=%.4e rel dev=%.4f"
                   % (var, predicted, rel))


# ---------------------------------------------------------------------------
# 8. fading autocorrelation against the Bessel reference

def test_criterion_08_jakes_autocorrelation():
    fd = 0.02  # per symbol
    bank = JakesBank.draw(np.random.default_rng(SEED), (100_000,), fd, 1.0,
                          num_oscillators=32)
    lags = int(np.floor(2.405 / (2 * np.pi * fd)))  # up to the first zero
    blk = bank.block(0, lags + 1)
    ac = np.mean(blk[:, 1:] * np.conj(blk[:, :1]), axis=0)
    ref = j0(2 * np.pi * fd * np.arange(1, lags + 1))
    dev = float(np.max(np.abs(ac.real - ref)))
    dev_imag = float(np.max(np.abs(ac.imag)))
    ok = dev <= 0.05 and dev_imag <= 0.05
    assert _report(8, ok, "1e5 paths, lags 1..%d: max |dev|=%.4f imag=%.4f"
                   % (lags, dev, dev_imag))


# ---------------------------------------------------------------------------
# 9. tracking: Doppler penalty and step-size crossover

def test_criterion_09_tracking_doppler_and_beta(tracking_result):
    dop1, ber1 = tracking_result.curve("pb-s-sp", 0.1)
    dop5, ber5 = tracking_result.curve("pb-s-sp", 0.5)
    np.testing.assert_array_equal(dop1, dop5)
    ratio = ber1[-1] / ber1[0]
    diff = ber1 - ber5
    crosses = bool(np.any(diff < 0) and np.any(diff > 0))
    small_beta_wins_low = diff[0] < 0
    ok = ratio >= 3.0 and crosses and small_beta_wins_low
    assert _report(9, ok, "beta=0.1 high/low doppler BER ratio=%.2f; "
                   "beta 0.1 vs 0.5 diff per doppler: %s"
                   % (ratio, " ".join("%+.1e" % d for d in diff)))


# ---------------------------------------------------------------------------
# 10. relay-side mirrors rebuild the trajectory from broadcast bits alone

def _mirror_run(scheme, constraint, frames=1000, death_at=300, birth_at=650):
    rmax = 4
    rng = np.random.default_rng(SEED)
    noise = 10.0 ** (-SNR_DB / 10.0)
    h, g = sample_static_rayleigh(rng, PathLoss([1.0, 2.0, 3.0, 4.0]))
    hbar_full, gbar_full = network.ideal_compound(h, g, 1.0, noise)

    registry = RelayRegistry.full(rmax)
    agents = [RelayAgent(i, registry, scheme, constraint, 0.1)
              for i in range(rmax)]
    reg = registry.copy()
    # the destination: working vector, TR's stored best, frame clock
    w, best, frame = init_weights(rmax, constraint), 0.0, 0
    pset = build_perturbation_set(rmax, scheme)

    def snr(v):
        idx = reg.active_indices()
        return network._snr(v, hbar_full[idx], np.abs(gbar_full[idx]) ** 2,
                            noise)

    checks = 0
    for k in range(frames):
        if k == death_at or k == birth_at:
            if k == death_at:
                pos = reg.position_of(1)
                reg, msg = apply_death(reg, 1)
                w = exclude_coordinate(w, pos, constraint)
                best = snr(w)  # TR restarts its benchmark; PM has none
            else:
                reg, msg = apply_birth(reg, 1)
                if constraint is ConstraintKind.SUM_POWER:
                    w = init_weights(reg.num_active, constraint)
                    best, frame = 0.0, 0
                else:
                    pos = reg.position_of(1)
                    w = insert_coordinate(w, pos)
            pset = build_perturbation_set(reg.num_active, scheme)
            wire = encode_message(msg, rmax)
            for agent in agents:
                agent.apply_message(decode_message(wire, rmax))
        cand = probes(scheme, w, pset.column(frame), 0.1, constraint)
        bit, best = decide(scheme, [snr(c) for c in cand], best)
        w = select(w, cand, bit)
        frame += 1
        for agent in agents:
            agent.advance(bit)
            if not np.array_equal(agent.weight_vector, w):
                return checks, False
            checks += 1
    return checks, True


def test_criterion_10_distributed_reconstruction():
    # TR death keeps the mirror's frame clock; the agents never reset it on
    # a death, so the reference must not either.  TR birth under sum power
    # resets everything, matching RelayAgent._reset.
    results = {}
    for scheme, constraint in ((Scheme.PM, ConstraintKind.PER_RELAY),
                               (Scheme.PM, ConstraintKind.SUM_POWER),
                               (Scheme.TR, ConstraintKind.SUM_POWER)):
        checks, ok = _mirror_run(scheme, constraint)
        results[(scheme.value, constraint.value)] = (checks, ok)
    ok = all(v[1] for v in results.values())
    detail = "; ".join("%s/%s: %d bitwise checks %s"
                       % (s, c, n, "ok" if good else "MISMATCH")
                       for (s, c), (n, good) in results.items())
    assert _report(10, ok, detail)


# ---------------------------------------------------------------------------
# 11. reproducible outputs, independent of the worker count

def test_criterion_11_byte_identical_reruns(tmp_path):
    cases = {
        "convergence": (
            {"scheme": "pm", "num_realizations": 300,
             "num_frames": 40, "num_trajectories": 8, "cdf_frames": [20, 40],
             "block_size": 64, "seed": SEED},
            ["trajectories.csv", "gap_cdf.csv"]),
        "ber": (
            {"scheme": "pm",
             "snr_db_grid": [10.0, 14.0],
             "schemes": ["no-bf", "s-sp", "pb-s-sp"],
             "num_realizations": 128, "num_frames": 5, "warmup_frames": 80,
             "error_target": 50, "min_bits": 10_000, "block_size": 32,
             "seed": SEED},
            ["ber.csv"]),
        "tracking": (
            {"scheme": "pm",
             "snr_db_grid": [22.0], "normalized_doppler_grid": [0.01],
             "betas": [0.1], "num_realizations": 8, "num_frames": 10,
             "warmup_frames": 20, "block_size": 3, "seed": SEED},
            ["tracking.csv"]),
    }
    identical = True
    details = []
    for command, (cfg, csvs) in cases.items():
        cfg_path = tmp_path / ("%s.json" % command)
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / (command + "-w1")
        out2 = tmp_path / (command + "-w2")
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out1)]) == 0
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out2), "--workers", "2"]) == 0
        first = {name: (out1 / name).read_bytes() for name in csvs}
        assert cli_main([command, "--config", str(cfg_path),
                         "--out", str(out1), "--force"]) == 0
        same_rerun = all((out1 / n).read_bytes() == first[n] for n in csvs)
        same_workers = all((out2 / n).read_bytes() == first[n] for n in csvs)
        identical &= same_rerun and same_workers
        details.append("%s rerun=%s workers=%s"
                       % (command, same_rerun, same_workers))
    assert _report(11, identical, "; ".join(details))
