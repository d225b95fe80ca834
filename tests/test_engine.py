"""Tests for the batched frame kernels and the experiment runners."""

import concurrent.futures
import json
import operator
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from relaybf import engine, estimation, network, oracles
from relaybf.adaptation import (
    ConstraintKind,
    Scheme,
    build_perturbation_set,
    decide,
    init_weights,
    probe_step,
    probe_steps,
    probes,
    select,
)
from relaybf.channel import (JakesBank, PathLoss, complex_normal,
                             sample_static_rayleigh)
from relaybf.config import (
    SCHEMES,
    ConfigError,
    ExperimentConfig,
    Objective,
    noise_power,
)
from relaybf.engine import (
    run_ber_experiment,
    run_convergence_experiment,
    run_tracking_experiment,
    snr_at_ber,
)
from relaybf.membership import RelayAgent, RelayRegistry


def test_config_defaults_and_coercion():
    cfg = ExperimentConfig(scheme="pm", num_frames=30)
    assert cfg.scheme is Scheme.PM
    assert cfg.betas == [0.1]
    assert cfg.cdf_frames == [10, 20]  # clipped to num_frames
    assert any(abs(t - 0.043) < 1e-15 for t in cfg.gap_thresholds)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_BETA = st.floats(min_value=0.0, max_value=1e150, exclude_min=True)
_DISTANCE = st.floats(1.3e-77, 8e76)  # d**-4 and d**4 stay normal floats
_COUNT = st.integers(1, 10**6)


@st.composite
def _valid_config_dicts(draw):
    """Valid config JSON objects; keys left out take their defaults."""
    frames = draw(_COUNT)
    data = {
        "scheme": draw(st.sampled_from(["tr", "pm"])),
        "betas": draw(st.lists(_BETA, min_size=1, max_size=3)),
        "snr_db_grid": draw(st.lists(st.floats(-300.0, 300.0), min_size=1,
                                     max_size=4)),
        "normalized_doppler_grid": draw(st.lists(st.floats(0.0, 1.0),
                                                 min_size=1, max_size=4)),
        "distances": draw(st.lists(_DISTANCE, min_size=1, max_size=8)),
        "num_realizations": draw(_COUNT),
        "num_frames": frames,
        "warmup_frames": draw(st.integers(0, 10**6)),
        "seed": draw(st.integers(0, 2**64)),
        "forgetting_factor": draw(st.floats(0.0, 1.0, exclude_min=True)),
        "pm_estimation_mode": draw(st.sampled_from(["split", "whole"])),
        "num_pilots": 2 * draw(st.integers(1, 50)),
        "num_data": draw(_COUNT),
        "schemes": draw(st.none() | st.lists(st.sampled_from(list(SCHEMES)),
                                             min_size=1, unique=True)),
        "error_target": draw(_COUNT),
        "min_bits": draw(st.integers(0, 10**9)),
        "bits_cap": draw(_COUNT),
        "block_size": draw(_COUNT),
        "cdf_frames": draw(st.none() | st.lists(st.integers(0, frames),
                                                max_size=5)),
        "gap_thresholds": draw(st.none() | st.lists(_POSITIVE, max_size=5)),
        "num_trajectories": draw(st.integers(0, 100)),
    }
    # frames and cdf_frames are kept together
    optional = sorted(set(data) - {"num_frames"})
    keep = draw(st.sets(st.sampled_from(optional)))
    return {k: v for k, v in data.items() if k in keep or k == "num_frames"}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.integers(-2**1100, 2**1100),  # JSON integers may overflow a float
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3), max_leaves=6)
# the schema, plus the keys that select nothing since the command fixes the
# scenario and each scheme token its objective and constraint, and the keys
# that stated an input twice: R is len(distances), every step is in betas
_REMOVED_KEYS = ("scenario", "objective", "constraint", "num_relays", "beta")
_KEYS = [f.name for f in fields(ExperimentConfig)] + list(_REMOVED_KEYS)
_SHIPPED = Path(__file__).resolve().parents[1] / "configs"


def _shipped_configs(test):
    # every file under configs/ must load and round-trip
    paths = sorted(_SHIPPED.glob("*.json"))
    assert paths, "no shipped configs under %s" % _SHIPPED
    for path in paths:
        test = example(valid=json.loads(path.read_text()), anything={})(test)
    return test


@settings(max_examples=200)
@given(valid=_valid_config_dicts(),
       anything=st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=4))
@_shipped_configs
def test_config_round_trip_and_unknown_keys(valid, anything):
    cfg = ExperimentConfig.from_dict(valid)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    assert isinstance(cfg.to_dict()["scheme"], str)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(list(valid))  # an array, not an object
    # any JSON object either builds a config or fails with ConfigError;
    # each arbitrary value also replaces one key of a valid config, so that
    # it is checked past the other keys
    for data in [anything] + [{**valid, k: v} for k, v in anything.items()]:
        try:
            built = ExperimentConfig.from_dict(data)
        except ConfigError:
            continue
        assert not set(data) & set(_REMOVED_KEYS)
        assert ExperimentConfig.from_dict(built.to_dict()) == built


_BAD_CONFIGS = [
    ({"betas": [0.0]}, None),
    ({"distances": []}, "distances must be non-empty, all > 0"),
    ({"distances": [1.0, 0.0]}, None),
    ({"schemes": ["no-bf", "bogus"]}, None),
    ({"scheme": "take-reject"}, None),
    ({"forgetting_factor": 0.0}, None),
    ({"cdf_frames": [5, 999]}, None),
    ({"snr_db_grid": []}, None),
    ({"seed": -1}, None),
    ({"betas": [float("nan")]}, None),
    ({"betas": []}, None),
    ({"betas": [0.1, float("inf")]}, None),
    ({"distances": [1.0, 3.0, float("inf")]}, None),
    # d**-4 under- or overflows: every compound channel is 0 or inf
    ({"distances": [1e100, 1e100, 1e100]}, None),
    ({"distances": [1.0, 3.0, 1e-100]}, None),
    ({"distances": None}, None),  # only lists with a derived default take null
    ({"snr_db_grid": [float("inf")]}, None),
    ({"snr_db_grid": [-1e6]}, None),  # noise power overflows
    ({"snr_db_grid": [1e6]}, None),   # noise power underflows to zero
    ({"snr_db_grid": 18.0}, None),
    ({"num_frames": 2.5}, None),
    ({"num_frames": "30"}, None),
    ({"num_data": True}, None),
    ({"cdf_frames": [10.5]}, None),
    ({"schemes": ["p-sp", "p-sp"]}, None),
    ({"schemes": []}, "schemes must be a non-empty list of scheme tokens"),
]


@pytest.mark.parametrize("bad,match", _BAD_CONFIGS,
                         ids=["bad%d" % i for i in range(len(_BAD_CONFIGS))])
def test_config_rejects_bad_values(bad, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig(**bad)


# integer key -> its least value
_INT_MINIMA = {"num_realizations": 1, "num_frames": 1,
               "warmup_frames": 0, "seed": 0, "num_pilots": 1, "num_data": 1,
               "error_target": 1, "min_bits": 0, "bits_cap": 1,
               "block_size": 1, "num_trajectories": 0}


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)
                                 if type(f.default) is int])
def test_config_range_message_names_one_key(key):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**{key: _INT_MINIMA[key] - 1})
    assert str(info.value).startswith(key + " must be >= ")


@settings(max_examples=100)
@given(valid=_valid_config_dicts(), as_tuples=st.booleans())
@example(valid={"distances": [1.0], "num_frames": 1,
                "schemes": ["p-sp"]}, as_tuples=True)
def test_config_survives_a_json_round_trip(valid, as_tuples):
    # a config built from tuples equals the one read back from its JSON
    if as_tuples:
        valid = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in valid.items()}
    cfg = ExperimentConfig.from_dict(valid)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) \
        == cfg


def _readme_section(title):
    text = (_SHIPPED.parent / "README.md").read_text()
    return text.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]


def test_readme_configuration_names_exactly_the_schema():
    # every key is documented, and no bullet documents a key that is gone
    section = _readme_section("Configuration")
    keys = {f.name for f in fields(ExperimentConfig)}
    assert not keys - set(re.findall(r"`(\w+)`", section))
    for bullet in re.split(r"\n- ", section)[1:]:
        # the leading backticked names, once the defaults in parentheses
        # are dropped
        lead = re.match(r"(?:`\w+`[\s,]*)*", re.sub(r"\([^)]*\)", "", bullet))
        assert set(re.findall(r"`(\w+)`", lead.group())) <= keys, bullet


def test_config_converts_integral_floats():
    cfg = ExperimentConfig(num_frames=30.0, cdf_frames=[10.0])
    assert cfg.num_frames == 30 and type(cfg.num_frames) is int
    assert cfg.cdf_frames == [10] and type(cfg.cdf_frames[0]) is int


def test_bpsk_mapping():
    # bit 0 is sent as +1 and bit 1 as -1; the detector inverts that mapping
    bits = np.array([[0, 1, 0, 1]])
    np.testing.assert_array_equal(engine._detect_bits(1.0 - 2.0 * bits, 1.0),
                                  bits)
    y = np.array([0.3 + 1j, -0.3 + 1j, 1.0j, -0.2])
    h_hat = np.array([1.0, 1.0, 1.0j, 0.0])
    # detection rotates by the channel phase; a zero estimate falls back
    # to the sign of Re(y)
    det = engine._detect_bits(y[:, None], h_hat)
    np.testing.assert_array_equal(det, [[0], [1], [0], [1]])
    assert det.dtype == np.int8


def test_idealized_tr_objective_is_monotone():
    cfg = ExperimentConfig(scheme="tr", num_realizations=32, num_frames=120,
                           num_trajectories=32, cdf_frames=[0, 120],
                           block_size=16, seed=4)
    res = run_convergence_experiment(cfg)
    assert np.all(res.feedback_bits[:, 0] == 1)  # stored best starts at zero
    assert np.all(np.diff(res.snr_normalized, axis=1) >= 0.0)


def test_idealized_pm_closes_most_of_the_gap():
    cfg = ExperimentConfig(scheme="pm", num_realizations=32, num_frames=150,
                           num_trajectories=32, cdf_frames=[0, 150],
                           block_size=16, seed=4)
    res = run_convergence_experiment(cfg)
    # both frame-0 probes equal the start vector up to rounding
    np.testing.assert_allclose(res.snr_normalized[:, 1],
                               res.snr_normalized[:, 0], rtol=1e-12)
    start = np.median(res.gaps_at_frames[0])
    assert np.median(res.gaps_at_frames[150]) < 0.05 * start


def test_noiseless_link_detects_without_errors():
    # at 200 dB the noise cannot flip a bit: every scheme detects exactly
    cfg = ExperimentConfig(scheme="pm", snr_db_grid=[200.0],
                           schemes=list(SCHEMES), num_realizations=16,
                           num_frames=5, warmup_frames=20, block_size=8,
                           error_target=10**9)
    rows = run_ber_experiment(cfg).rows
    assert len(rows) == len(SCHEMES)
    assert all(row.errors == 0 and row.bits == 16 * 5 * 40 for row in rows)


def test_ber_errors_match_their_exact_conditional_expectation(monkeypatch):
    # The BER weights adapt on exact objectives, never on the data noise, so
    # given a frame's detection gain a and noise scale sigma each data bit
    # is wrong with probability exactly p = erfc(|a|/sigma)/2.  A row's
    # error count is a sum of independent Bernoulli draws, with mean sum(p)
    # and variance sum(p(1-p)); it must lie within 5 standard deviations.
    cfg = ExperimentConfig(scheme="pm", snr_db_grid=[0.0, 5.0, 10.0],
                           schemes=list(SCHEMES), num_realizations=40,
                           num_frames=20, warmup_frames=50, block_size=16,
                           error_target=10**9, seed=731)
    calls = []
    detect = engine._detect_bits

    def recording(y, a):
        calls.append((y, a))
        return detect(y, a)

    monkeypatch.setattr(engine, "_detect_bits", recording)
    rows = run_ber_experiment(cfg).rows
    shape = (len(cfg.snr_db_grid), len(cfg.schemes))
    mean, var = np.zeros(shape), np.zeros(shape)
    calls = iter(calls)
    # blocks, then frames, then schemes: the order of the detection calls
    for start, count in engine._block_ranges(cfg, cfg.num_realizations):
        bits, z = engine._draw_ber_noise(cfg, start, count)
        s = 1.0 - 2.0 * bits
        for f in range(cfg.num_frames):
            for t in range(len(cfg.schemes)):
                y, a = next(calls)  # (points, count, data), (points, count)
                residual = y - a[..., None] * s[:, f]
                sigma = np.median(np.abs(residual) / np.abs(z[:, f]), axis=-1)
                # the data noise is the drawn noise at one scale per frame
                assert np.all(np.abs(residual - sigma[..., None] * z[:, f])
                              <= 1e-9 * (np.abs(a) + sigma)[..., None])
                p = 0.5 * erfc(np.abs(a) / sigma)
                mean[:, t] += cfg.num_data * p.sum(axis=-1)
                var[:, t] += cfg.num_data * (p * (1.0 - p)).sum(axis=-1)
    assert next(calls, None) is None
    errors = np.array([row.errors for row in rows]).reshape(shape)
    assert np.all(np.abs(errors - mean) <= 5.0 * np.sqrt(var)), (errors, mean)


# numpy: its elementwise kernels round a one-link array as they round a
# stack (it rounds the in-place complex product of a one-element array
# without FMA)
@pytest.mark.numpy_floor
@pytest.mark.parametrize("scheme", [Scheme.TR, Scheme.PM])
@settings(max_examples=100)
@given(r=st.integers(1, 6), beta=st.floats(0.01, 2.0),
       constraint=st.sampled_from(list(ConstraintKind)),
       objective=st.sampled_from(list(Objective)),
       forgetting=st.floats(0.5, 1.0), snr_db=st.floats(0.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
# the start vector and both frame-0 probes are bitwise equal here
@example(r=4, beta=0.5, constraint=ConstraintKind.SUM_POWER,
         objective=Objective.SNR, forgetting=1.0, snr_db=18.0, seed=0)
def test_batched_kernels_match_scalar_path(scheme, r, beta, constraint,
                                           objective, forgetting, snr_db,
                                           seed):
    # A kernel on a stack of links, the same kernel on each link alone, and
    # a relay mirror fed that link's bits must agree bitwise: the
    # distributed agents rely on it.
    rng = np.random.default_rng(seed)
    noise = 10.0 ** (-snr_db / 10.0)
    links = 3
    hbar, gbar = network.ideal_compound(
        complex_normal(rng, (links, r)).T, complex_normal(rng, (links, r)).T,
        engine._relay_power(constraint, r), noise)
    gbar2 = np.abs(gbar) ** 2
    # the whole stack scores the drawn objective, as in a convergence block
    snr = None if objective is Objective.POWER else slice(None)

    cfg = ExperimentConfig(scheme=scheme, betas=[beta],
                           forgetting_factor=forgetting)

    def step(w, best, k, hbar, gbar2):
        return engine._adapt(cfg, steps[k % len(steps)], w, best, snr,
                             constraint, hbar, gbar2, noise)

    def measure(cand):
        # the objectives of the candidate stack are those of each candidate
        # and link alone, a single vector (R,) whose relay sum is a numpy
        # scalar
        j = engine._objective_batch(snr, cand, hbar, gbar2, noise)
        for c, j_c in zip(cand, j):
            for i in range(links):
                assert j_c[i] == (network._signal_power(c[:, i], hbar[:, i])
                                  if objective is Objective.POWER
                                  else network._snr(c[:, i], hbar[:, i],
                                                    gbar2[:, i], noise))
        return j

    pset = build_perturbation_set(r, scheme)
    start = init_weights(r, constraint)[:, None]
    steps = probe_steps(scheme, pset, beta, start.ndim)
    w, best = np.tile(start, (1, links)), np.zeros(links)
    alone = [(start, np.zeros(1))] * links
    agents = [RelayAgent(0, RelayRegistry.full(r), scheme, constraint, beta)
              for _ in range(links)]
    for k in range(30):
        cand = probes(w, probe_step(scheme, pset.column(k), beta, w.ndim),
                      constraint)
        j = measure(cand)
        # the public decision rule, with the drawn forgetting factor, on the
        # public objectives; PM passes the stored best through
        bit, next_best = decide(scheme, j, best, forgetting)
        next_w = select(w, cand, bit)
        w, best, take = step(w, best, k, hbar, gbar2)
        assert np.array_equal(bit, take) and np.array_equal(next_best, best)
        assert np.array_equal(next_w, w)
        if k == 0 and scheme is Scheme.TR:
            assert take.all()  # the stored best starts at zero
        if k == 0 and scheme is Scheme.PM:
            # the first direction is parallel to the start vector, so the
            # probes tie up to rounding; an exact tie keeps plus
            np.testing.assert_allclose(j[1], j[0], rtol=1e-12)
            assert not take[np.all(cand[0] == cand[1], axis=0)].any()
        for i in range(links):
            w_i, best_i, take_i = step(*alone[i], k, hbar[:, i:i + 1],
                                       gbar2[:, i:i + 1])
            alone[i] = w_i, best_i
            assert np.array_equal(w_i[:, 0], w[:, i])
            assert best_i[0] == best[i] and take_i[0] == take[i]
            agents[i].advance(int(take[i]))
            assert np.array_equal(agents[i].weight_vector, w[:, i])


CONV_CFG = dict(scheme="pm", num_realizations=48, num_frames=30,
                num_trajectories=5, cdf_frames=[0, 10, 30], block_size=16,
                snr_db_grid=[18.0], seed=11)


# Every objective stack a run builds: a BER or convergence block's stacks
# (R, schemes, *links), by the objectives of their schemes with the SNR
# slice that `_scheme_stacks` derives, and the s-sp reference (R, n) of
# `oracle_margins`, which scores the SNR on every link.
_OBJECTIVE_STACKS = [
    ((Objective.POWER,), None),                       # pb-egc or pb-p-sp
    ((Objective.POWER, Objective.SNR), slice(1, 2)),  # pb-p-sp, pb-s-sp
    ((Objective.SNR, Objective.POWER), slice(0, 1)),  # pb-s-sp, pb-p-sp
    ((Objective.SNR,), slice(0, 1)),                  # pb-s-sp
    (None, slice(None)),                              # s-sp reference
]


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 9), stack=st.sampled_from(_OBJECTIVE_STACKS),
       num_probes=st.sampled_from([1, 2]),
       snr_db=st.lists(st.floats(-10.0, 40.0), min_size=2, max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_objective_batch_matches_each_entry_alone(r, stack, num_probes,
                                                  snr_db, seed):
    # each entry of a candidate block (TR's one probe or PM's two, stacked
    # candidate first as `probes` returns them) has the bits of its
    # objective, `network._snr` or `network._signal_power`, on its single
    # vector (R,) alone
    objectives, snr = stack
    rng = np.random.default_rng(seed)
    noise = 10.0 ** (-np.array(snr_db)[:, None] / 10.0)  # (points, 1)
    hbar, gbar = network.ideal_compound(
        complex_normal(rng, (r, 2, 3)), complex_normal(rng, (r, 2, 3)), 1.0,
        noise)
    gbar2 = np.abs(gbar) ** 2
    if objectives is None:  # one SNR point, no scheme axis
        hbar, gbar2, noise = hbar[:, 0], gbar2[:, 0], noise[0, 0]
        cand = complex_normal(rng, (num_probes, r, 3))
        j = engine._objective_batch(snr, cand, hbar, gbar2, noise)
        entries = [(Objective.SNR, (i,), (i,), noise) for i in range(3)]
    else:
        cand = complex_normal(rng, (num_probes, r, len(objectives), 2, 3))
        j = engine._objective_batch(snr, cand, hbar[:, None],
                                    gbar2[:, None], noise)
        entries = [(o, (s, p, i), (p, i), noise[p, 0])
                   for s, o in enumerate(objectives)
                   for p in range(2) for i in range(3)]
    assert j.shape == (num_probes,) + cand.shape[2:]
    for c, j_c in zip(cand, j):
        for objective, at, link, noise_at in entries:
            w_at, hbar_at = c[(slice(None),) + at], hbar[(slice(None),) + link]
            if objective is Objective.POWER:
                alone = network._signal_power(w_at, hbar_at)
            else:
                alone = network._snr(w_at, hbar_at,
                                     gbar2[(slice(None),) + link], noise_at)
            assert j_c[at].tobytes() == alone.tobytes(), (objective, at)


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


# each adaptive token's closed-form optimum, written out here so that the
# test does not read the engine's table
_OPTIMUM = {"pb-egc": "egc", "pb-p-sp": "p-sp", "pb-s-sp": "s-sp"}


# numpy: the objective kernels give a stacked (R, 1, count) array the bits
# they give the unstacked (R, count) links
@pytest.mark.numpy_floor
@settings(max_examples=30, deadline=None)
@given(scheme=st.sampled_from(["tr", "pm"]), r=st.integers(1, 9),
       n=st.integers(1, 12), block_size=st.integers(1, 5),
       num_trajectories=st.integers(0, 14), frames=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), token=st.sampled_from(sorted(_OPTIMUM)),
       data=st.data())
def test_convergence_matches_the_snr_of_every_link(scheme, r, n, block_size,
                                                  num_trajectories, frames,
                                                  seed, token, data):
    # The blocks score a stacked (R, 1, count) array, every link only at
    # cdf_frames and the recorded links at the other frames; the reference
    # scores the unstacked (R, count) links, every link at every frame, on
    # the token's objective (`network._snr` for pb-s-sp, else
    # `network._signal_power`), and the trajectories, bits and gaps must
    # keep their bits.
    cdf_frames = data.draw(st.lists(st.integers(0, frames), max_size=3))
    cfg = ExperimentConfig(
        scheme=scheme, distances=[1.0 + i for i in range(r)],
        num_realizations=n, num_frames=frames, block_size=block_size,
        num_trajectories=num_trajectories, cdf_frames=cdf_frames, seed=seed,
        schemes=[token])
    res = run_convergence_experiment(cfg)
    noise = noise_power(cfg.snr_db_grid[0])
    objective, constraint = SCHEMES[token]
    snr = slice(None) if objective is Objective.SNR else None

    def score(w, hbar, gbar2):
        if objective is Objective.SNR:
            return network._snr(w, hbar, gbar2, noise)
        return network._signal_power(w, hbar)

    (beta,) = cfg.betas
    # the weights are (R, count)
    steps = probe_steps(cfg.scheme, build_perturbation_set(r, cfg.scheme),
                        beta, 2)
    ratio, bits = [], []
    for start, count in engine._block_ranges(cfg, n):
        h, g = engine._draw_channels(cfg, start, count)
        hbar, gbar = network.ideal_compound(
            h, g, engine._relay_power(constraint, r), noise)
        gbar2 = np.abs(gbar) ** 2
        opt = score(oracles.closed_form(_OPTIMUM[token], hbar, gbar2), hbar,
                    gbar2)
        w = np.tile(init_weights(r, constraint)[:, None], (1, count))
        best = np.zeros(count)
        for k in range(frames + 1):
            ratio.append(score(w, hbar, gbar2) / opt)
            if k < frames:
                w, best, bit = engine._adapt(cfg, steps[k % len(steps)], w,
                                             best, snr, constraint, hbar,
                                             gbar2, noise)
                bits.append(bit)
    # (realizations, frames + 1) and (realizations, frames)
    ratio = np.vstack([np.stack(ratio[i:i + frames + 1], axis=1)
                       for i in range(0, len(ratio), frames + 1)])
    bits = np.vstack([np.stack(bits[i:i + frames], axis=1)
                      for i in range(0, len(bits), frames)])
    m = min(num_trajectories, n)
    assert res.snr_normalized.tobytes() == ratio[:m, :frames].tobytes()
    np.testing.assert_array_equal(res.feedback_bits, bits[:m])
    assert sorted(res.gaps_at_frames) == sorted(set(cdf_frames))
    for f, gaps in res.gaps_at_frames.items():
        assert gaps.tobytes() == (1.0 - ratio[:, f]).tobytes()


def test_convergence_rejects_wrong_setup():
    with pytest.raises(ConfigError):
        run_convergence_experiment(
            ExperimentConfig(**{**CONV_CFG, "snr_db_grid": [10.0, 18.0]}))


BER_CFG = dict(scheme="pm", snr_db_grid=[6.0, 12.0],
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
    # rows are keyed by their leading fields, (scheme, snr_db)
    assert res.row("pb-s-sp", 12.0) is res.rows[5]
    with pytest.raises(KeyError):
        res.row("pb-s-sp", 9.0)


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


def test_ber_block_adapts_only_before_frames_it_detects(monkeypatch):
    # one step per warm-up frame and one between data frames, per weight
    # stack: the weights after the last data frame are never read
    calls = []
    adapt = engine._adapt

    def counting_adapt(*args):
        calls.append(1)
        return adapt(*args)

    monkeypatch.setattr(engine, "_adapt", counting_adapt)
    blocks, stacks = 48 // 16, 2  # per-relay pb-egc, sum-power pb-s-sp
    for scheme in ("pm", "tr"):
        calls.clear()
        run_ber_experiment(ExperimentConfig(**{
            **BER_CFG, "scheme": scheme,
            "schemes": ["no-bf", "pb-egc", "pb-s-sp"]}))
        assert len(calls) == blocks * stacks * (60 + 5 - 1), scheme


@settings(max_examples=40, deadline=None)
@given(schemes=st.lists(st.sampled_from(sorted(SCHEMES)), min_size=1,
                        unique=True),
       scheme=st.sampled_from(["tr", "pm"]), forgetting=st.floats(0.5, 1.0),
       r=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(schemes=["pb-egc", "pb-p-sp", "no-bf", "pb-s-sp"], scheme="tr",
         forgetting=0.9, r=3, seed=0)
def test_ber_scheme_stack_matches_each_scheme_alone(schemes, scheme,
                                                    forgetting, r, seed):
    # The adaptive schemes of one constraint advance on one weight stack;
    # each scheme's errors must equal a block of that scheme alone.
    cfg = ExperimentConfig(
        scheme=scheme, forgetting_factor=forgetting,
        distances=[1.0 + 0.5 * i for i in range(r)], snr_db_grid=[0.0, 8.0],
        schemes=schemes, num_frames=3, warmup_frames=4, num_data=8,
        seed=seed)
    _, _, errors = engine._ber_block(cfg, (0, 1), 2, 5)
    assert errors.shape == (2, len(schemes))
    for t, token in enumerate(schemes):
        _, _, alone = engine._ber_block(replace(cfg, schemes=[token]),
                                        (0, 1), 2, 5)
        np.testing.assert_array_equal(errors[:, t], alone[:, 0])


TRACK_CFG = dict(scheme="pm", snr_db_grid=[22.0],
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


# numpy: its last-axis mean and sum give each row the same bits whatever the
# leading axes are
@pytest.mark.numpy_floor
@pytest.mark.parametrize("mode, distances", [
    pytest.param("split", [1.0, 3.0, 5.0], id="split"),
    pytest.param("whole", [1.0, 3.0, 5.0], id="whole"),
    # R = 1: `relay_receive`'s pairwise mean; R = 5: `relay_sum`'s np.sum
    pytest.param("split", [2.0], id="split-R1"),
    pytest.param("whole", [2.0], id="whole-R1"),
    pytest.param("split", [1.0, 2.0, 3.0, 4.0, 5.0], id="split-R5"),
    pytest.param("whole", [1.0, 2.0, 3.0, 4.0, 5.0], id="whole-R5"),
])
def test_tracking_stacked_grid_matches_points_run_alone(mode, distances):
    # pb-p-sp and pb-s-sp share one sum-power stack, which scores power at
    # its first entry and the SNR at its second; pb-egc (per-relay, power)
    # runs on its own stack.  All share each block's draws and fading banks
    # with every beta and Doppler value.
    cfg = ExperimentConfig(**{**TRACK_CFG,
                              "schemes": ["pb-p-sp", "pb-egc", "pb-s-sp"],
                              "betas": [0.1, 0.5], "distances": distances,
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


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    # fork starts every pool worker at once, so a huge --workers on a short
    # run must not ask for that many; the fake pool starts no process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = ExperimentConfig(**{**CONV_CFG, "block_size": 20})  # 3 blocks
    serial = run_convergence_experiment(cfg)
    pooled = run_convergence_experiment(cfg, workers=10**6)
    assert sizes == [3]
    np.testing.assert_array_equal(pooled.snr_normalized, serial.snr_normalized)


def test_tracking_rejects_wrong_setup():
    with pytest.raises(ConfigError):
        run_tracking_experiment(ExperimentConfig(**{**TRACK_CFG,
                                                    "scheme": "tr"}))
    with pytest.raises(ConfigError):
        run_tracking_experiment(
            ExperimentConfig(**{**TRACK_CFG, "schemes": ["egc"]}))
    # one pilot per half leaves no residual to estimate an SNR from
    with pytest.raises(ConfigError, match="num_pilots"):
        run_tracking_experiment(ExperimentConfig(**{
            **TRACK_CFG, "schemes": ["pb-egc", "pb-s-sp"], "num_pilots": 2}))
    # the power objective needs no residual
    res = run_tracking_experiment(ExperimentConfig(**{
        **TRACK_CFG, "schemes": ["pb-egc"], "num_pilots": 2}))
    assert [r.scheme for r in res.rows] == ["pb-egc", "pb-egc"]


SUM = ConstraintKind.SUM_POWER


def _frame_inputs(bank, frame, rng, noise, num_pilots=10, num_data=40):
    """One link's frame as `_tracking_block` feeds `_pm_track_frame`,
    relays first with a scheme axis of length one: the pilots' forwarded
    receptions (R, 2, 1, 1, L/2) and noise (2, 1, 1, L/2), the plus and
    minus halves stacked as views; the data interval's, (R, 1, 1, L) and
    (1, L); and the measured powers (R, 1, 1)."""
    r = bank.phases.shape[-2] // 2
    s_total = num_pilots + num_data
    coeff = bank.block(frame * s_total, s_total).transpose(1, 0, 2)
    h, g = coeff[:r, None], coeff[r:, None]                # (R, 1, 1, S)
    bits = rng.integers(0, 2, size=(1, num_data))
    s = np.concatenate([np.ones((1, num_pilots)), 1.0 - 2.0 * bits], axis=1)
    x, measured = network.relay_receive(h, s, complex_normal(
        rng, (1, s_total, r), noise).transpose(2, 0, 1)[:, None])
    v = complex_normal(rng, (1, s_total), noise)
    gx = g * x
    pilots = (gx[..., :num_pilots].reshape(r, 1, 1, 2, -1)
              .transpose(0, 3, 1, 2, 4),
              v[:, :num_pilots].reshape(1, 2, -1).transpose(1, 0, 2)[:, None])
    return pilots, (gx[..., num_pilots:], v[:, num_pilots:]), measured


def test_realistic_pm_detection_uses_previous_winner():
    # split mode: the data interval of frame k+1 is detected with the
    # estimate that won frame k; frame 0 bootstraps from its own winner.
    # One call runs a stack of two schemes, power at entry 0 and the SNR at
    # entry 1; each entry follows its own per-probe reference.
    rng = np.random.default_rng(8)
    bank = JakesBank.draw(rng, (1, 4), 0.01 / 50, 1.0)
    pset = build_perturbation_set(2, Scheme.PM)
    w = [init_weights(2, SUM)] * 2
    ws, carry = np.tile(w[0][:, None, None], (1, 2, 1)), None
    for f in range(6):
        pilots, data, measured = _frame_inputs(bank, f, rng, 1e-3)
        ws, winner, h_data, _ = engine._pm_track_frame(
            ws, carry, probe_step(Scheme.PM, pset.column(f), 0.1, ws.ndim),
            slice(1, 2), SUM, pilots, data, measured, False)
        (gx, v), alpha = pilots, np.sqrt(1.0 / measured[:, 0, 0])
        for m, objective in enumerate([Objective.POWER, Objective.SNR]):
            # the same frame through one link's candidates and the
            # estimators
            cand = probes(w[m], probe_step(Scheme.PM, pset.column(f), 0.1,
                                           w[m].ndim), SUM)
            y = [np.sum(gx[:, i, 0, 0] * (np.conj(c) * alpha)[:, None],
                        axis=0) + v[i, 0, 0] for i, c in enumerate(cand)]
            halves = [estimation._channel_estimate(yy) for yy in y]
            j = [np.abs(hh) ** 2 if objective is Objective.POWER
                 else estimation._snr_estimate(hh, yy)
                 for hh, yy in zip(halves, y)]
            won = int(j[1] > j[0])
            w[m] = cand[won]
            np.testing.assert_array_equal(ws[:, m, 0], w[m])
            assert winner[m, 0] == pytest.approx(halves[won], rel=1e-12)
            assert h_data[m, 0] == (winner[m, 0] if carry is None
                                    else carry[m, 0])
        carry = winner
    # the two objectives took different probes on some frame
    assert not np.array_equal(w[0], w[1])


def test_realistic_pm_whole_mode_averages_the_halves():
    # zero noise, zero Doppler: both pilot halves are exact, so the
    # whole-interval estimate is the mean of the two half estimates.
    rng = np.random.default_rng(8)
    bank = JakesBank.draw(rng, (1, 4), 0.0, 1.0)
    coeff = bank.block(0, 1)[0, :, 0]
    h, g = coeff[:2], coeff[2:]
    pilots, data, measured = _frame_inputs(bank, 0, rng, 0.0)
    pset = build_perturbation_set(2, Scheme.PM)
    w0 = init_weights(2, SUM)
    # column 1 is not aligned with w0, so the two halves differ
    _, winner, h_data, _ = engine._pm_track_frame(
        w0[:, None, None], np.array([[7.0 + 0j]]),
        probe_step(Scheme.PM, pset.column(1), 0.1, 3), None, SUM, pilots,
        data, measured, True)
    plus, minus = probes(w0, probe_step(Scheme.PM, pset.column(1), 0.1,
                                        w0.ndim), SUM)
    a = lambda c: np.sum(np.conj(c) * g * h / np.abs(h))
    assert a(plus) != pytest.approx(a(minus), rel=1e-3)
    assert h_data[0, 0] == pytest.approx(0.5 * (a(plus) + a(minus)),
                                         rel=1e-12)
    assert winner[0, 0] == pytest.approx(max(a(plus), a(minus), key=abs),
                                         rel=1e-12)


def test_snr_at_ber_interpolation():
    assert snr_at_ber([10.0, 12.0], [1e-1, 1e-3], 1e-2) \
        == pytest.approx(11.0, abs=1e-12)
    # flat segment sitting exactly on the target: first grid point wins
    assert snr_at_ber([4.0, 6.0], [1e-2, 1e-2], 1e-2) == 4.0
    with pytest.raises(ValueError):
        snr_at_ber([10.0, 12.0], [1e-1, 3e-2], 1e-2)
    with pytest.raises(ValueError):
        snr_at_ber([10.0, 12.0], [1e-1, 0.0], 1e-2)
    # unequal lengths interpolated past the shorter curve, or hit its end
    for snr_db, ber in (([0, 1, 2], [0.3, 0.1]), ([0, 1, 2], [0.3, 0.25])):
        with pytest.raises(ValueError, match="same length"):
            snr_at_ber(snr_db, ber, 0.2)


def test_streams_are_stable_and_distinct():
    a = engine._stream(0, 5, engine._STREAM_CHANNEL).standard_normal(4)
    b = engine._stream(0, 5, engine._STREAM_CHANNEL).standard_normal(4)
    c = engine._stream(0, 5, engine._STREAM_NOISE).standard_normal(4)
    d = engine._stream(0, 6, engine._STREAM_CHANNEL).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# seeds and realization indices on both sides of 2**32 and 2**64, where
# numpy's SeedSequence takes one more entropy word
_WIDE_INTS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1) \
    | st.integers(2**64, 2**80)
# realization ranges that may straddle 2**32, where block seeding falls back
# to `engine._stream`
_STARTS = st.integers(0, 10**6) | st.integers(2**32 - 6, 2**32 + 2)


# numpy: a Generator fills one block draw in the order of the draws it
# replaces, one realization after another
@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 8), seed=_WIDE_INTS, start=_STARTS,
       count=st.integers(1, 6),
       exponents=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8))
def test_draw_channels_match_the_scalar_draws(r, seed, start, count,
                                              exponents):
    # the block fold and block seeding give the bits of one scalar draw per
    # realization
    distances = [10.0 ** e for e in exponents[:r]]
    cfg = ExperimentConfig(distances=distances, seed=seed)
    h, g = engine._draw_channels(cfg, start, count)
    assert h.shape == g.shape == (r, count)
    assert h.flags.c_contiguous and g.flags.c_contiguous
    for j in range(count):
        h_j, g_j = sample_static_rayleigh(
            engine._stream(seed, start + j, engine._STREAM_CHANNEL),
            PathLoss(distances))
        assert h[:, j].tobytes() == h_j.tobytes()
        assert g[:, j].tobytes() == g_j.tobytes()


# numpy: as for the channel draws, the block noise keeps the draw order
@pytest.mark.numpy_floor
def test_tracking_frame_noise_matches_the_per_realization_draws():
    # per frame and stream: relay noise, destination noise, then the bits;
    # the relay noise comes relays first, (R, count, S)
    s_total, r, num_data, noise = 7, 3, 4, 0.3
    rngs = [engine._stream(5, i, engine._STREAM_NOISE) for i in range(4)]
    refs = [engine._stream(5, i, engine._STREAM_NOISE) for i in range(4)]
    spare = None
    for _ in range(3):
        n, v, bits, spare = engine._draw_frame_noise(rngs, spare, s_total, r,
                                                     num_data, noise)
        assert n.shape == (r, 4, s_total) and v.shape == (4, s_total)
        assert v.flags.c_contiguous
        for j, rng in enumerate(refs):
            assert np.ascontiguousarray(n[:, j].T).tobytes() \
                == complex_normal(rng, (s_total, r), noise).tobytes()
            assert v[j].tobytes() \
                == complex_normal(rng, s_total, noise).tobytes()
            assert bits[j].tobytes() \
                == rng.integers(0, 2, size=num_data).tobytes()


# numpy: as for the channel draws, the block noise keeps the draw order
@pytest.mark.numpy_floor
@settings(max_examples=60, deadline=None)
@given(seed=_WIDE_INTS, start=_STARTS, count=st.integers(1, 5),
       num_frames=st.integers(1, 4), num_data=st.integers(1, 7))
@example(seed=9, start=4, count=3, num_frames=3, num_data=5)
def test_ber_noise_matches_the_per_realization_draws(seed, start, count,
                                                     num_frames, num_data):
    # per stream: the bits, then the real and imaginary noise blocks
    cfg = ExperimentConfig(num_frames=num_frames, num_data=num_data,
                           seed=seed)
    shape = (num_frames, num_data)
    bits, z = engine._draw_ber_noise(cfg, start, count)
    assert bits.shape == z.shape == (count,) + shape
    for j in range(count):
        rng = engine._stream(seed, start + j, engine._STREAM_NOISE)
        assert bits[j].tobytes() \
            == rng.integers(0, 2, size=shape).astype(np.int8).tobytes()
        zz = rng.standard_normal((2,) + shape)
        assert z[j].tobytes() == ((zz[0] + 1j * zz[1]) / np.sqrt(2.0)).tobytes()
