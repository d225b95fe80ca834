import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybf.adaptation import (CONSTRAINT_TOL, BeamVector, ConstraintKind,
                                Scheme, build_perturbation_set, decide,
                                dft_matrix, init_weights, normalize, probes,
                                project, select)
from relaybf.channel import PathLoss, complex_normal, sample_static_rayleigh
from relaybf.network import CompoundParams, _snr, ideal_compound, objective_snr

SUM = ConstraintKind.SUM_POWER
PER = ConstraintKind.PER_RELAY


def test_init_weights():
    w = init_weights(4, SUM)
    np.testing.assert_allclose(w.w, np.full(4, 0.5))
    assert w.feasibility_error() < 1e-14
    w = init_weights(3, PER)
    np.testing.assert_allclose(w.w, np.ones(3))


def test_normalize_sum_preserves_direction():
    raw = np.array([3.0, 4.0j])
    fallback = init_weights(2, SUM)
    w = normalize(raw, SUM, fallback)
    np.testing.assert_allclose(w.w, [0.6, 0.8j], atol=1e-15)
    assert np.linalg.norm(w.w) == pytest.approx(1.0, rel=1e-14)


def test_normalize_per_relay_preserves_phases():
    raw = np.array([2.0j, -3.0, 0.5 + 0.5j])
    fallback = init_weights(3, PER)
    w = normalize(raw, PER, fallback)
    np.testing.assert_allclose(np.abs(w.w), 1.0, atol=1e-14)
    np.testing.assert_allclose(w.w[0], 1.0j, atol=1e-15)
    np.testing.assert_allclose(w.w[2], (1.0 + 1.0j) / np.sqrt(2.0), atol=1e-15)


def test_normalize_zero_falls_back_to_previous():
    prev = BeamVector(np.array([0.6, 0.8]), SUM)
    w = normalize(np.zeros(2), SUM, prev)
    np.testing.assert_array_equal(w.w, prev.w)
    prev_per = BeamVector(np.array([1.0, 1.0j]), PER)
    w = normalize(np.array([0.0, 5.0]), PER, prev_per)
    # only the vanished coordinate falls back
    np.testing.assert_allclose(w.w, [1.0, 1.0], atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=300)
@given(raw=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6),
       constraint=st.sampled_from([SUM, PER]))
def test_normalize_output_is_feasible(raw, constraint):
    # any finite raw update, from all zeros to entries whose squares
    # overflow, projects onto the constraint set
    w = normalize(np.array(raw), constraint, init_weights(len(raw), constraint))
    assert w.feasibility_error() < CONSTRAINT_TOL


def test_dft_matrix_is_unitary():
    for r in (1, 2, 3, 4, 7):
        q = dft_matrix(r)
        np.testing.assert_allclose(q @ q.conj().T, np.eye(r), atol=1e-12)
    assert dft_matrix(4)[1, 1] == pytest.approx(-0.5j, abs=1e-15)


@pytest.mark.parametrize("scheme,factor", [(Scheme.PM, 2), (Scheme.TR, 4)])
def test_perturbation_set_layout(scheme, factor):
    r = 3
    pset = build_perturbation_set(r, scheme)
    assert pset.columns.shape == (r, factor * r)
    q = dft_matrix(r)
    np.testing.assert_allclose(pset.columns[:, :r], q, atol=1e-15)
    np.testing.assert_allclose(pset.columns[:, r:2 * r], 1j * q, atol=1e-15)
    # cyclic indexing
    np.testing.assert_array_equal(pset.column(1), pset.column(1 + factor * r))
    # the first direction is aligned with the uniform starting vector
    col0 = pset.column(0)
    np.testing.assert_allclose(col0, col0[0] * np.ones(r), atol=1e-15)


def test_pm_probes_are_tr_probes_at_plus_minus_beta():
    rng = np.random.default_rng(3)
    q = build_perturbation_set(3, Scheme.PM).column(2)
    for constraint in (SUM, PER):
        # 5 links, stacked relay-first
        w = project(complex_normal(rng, (5, 3)).T, constraint,
                    init_weights(3, constraint).w[:, None])
        plus, minus = probes(Scheme.PM, w, q, 0.3, constraint)
        (tr_plus,) = probes(Scheme.TR, w, q, 0.3, constraint)
        (tr_minus,) = probes(Scheme.TR, w, q, -0.3, constraint)
        np.testing.assert_array_equal(plus, tr_plus)
        np.testing.assert_array_equal(minus, tr_minus)
        # a batch is its links one at a time
        for link, p, m in zip(w.T, plus.T, minus.T):
            np.testing.assert_array_equal(
                np.stack(probes(Scheme.PM, link, q, 0.3, constraint)),
                np.stack([p, m]))


def test_project_rejects_unknown_constraint():
    with pytest.raises(ValueError):
        project(np.ones(2), "sum-power", np.ones(2))


def test_decide_and_select_on_a_batch():
    # 3 links of 2 relays, stacked relay-first
    plus, minus = np.array([[1.0, 0.0]] * 3).T, np.array([[0.0, 1.0]] * 3).T
    bit, best = decide(Scheme.PM, (np.array([2.0, 2.0, 3.0]),
                                   np.array([3.0, 2.0, 2.0])))
    assert bit.tolist() == [True, False, False]  # the tie keeps plus
    assert best is None
    np.testing.assert_array_equal(select(None, (plus, minus), bit).T,
                                  [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    # TR: the stored best decays first, a tie with it rejects
    bit, best = decide(Scheme.TR, (np.array([0.95, 0.5, 0.45]),),
                       np.array([1.0, 1.0, 0.5]), 0.9)
    assert bit.tolist() == [True, False, False]
    np.testing.assert_array_equal(best, [0.95, 0.9, 0.45])
    np.testing.assert_array_equal(select(minus, (plus,), bit).T,
                                  [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


def test_tr_step_take_reject_and_tie():
    # one link, unit forgetting: an exact tie rejects, anything above takes
    w, cand = np.array([0.0, 1.0]), np.array([1.0, 0.0])
    bit, best = decide(Scheme.TR, (1.0,), 1.0)
    assert not bit
    assert best == 1.0
    np.testing.assert_array_equal(select(w, (cand,), bit), w)
    bit, best = decide(Scheme.TR, (1.0 + 1e-9,), 1.0)
    assert bit
    assert best == 1.0 + 1e-9
    np.testing.assert_array_equal(select(w, (cand,), bit), cand)


def test_pm_step_selection_and_tie():
    # one link: J- > J+ takes minus, a tie keeps plus
    plus, minus = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    bit, _ = decide(Scheme.PM, (2.0, 3.0))
    assert bit
    np.testing.assert_array_equal(select(None, (plus, minus), bit), minus)
    bit, _ = decide(Scheme.PM, (2.0, 2.0))
    assert not bit
    np.testing.assert_array_equal(select(None, (plus, minus), bit), plus)


def test_perturbed_vectors_stay_feasible():
    for constraint in (SUM, PER):
        for scheme in (Scheme.PM, Scheme.TR):
            pset = build_perturbation_set(4, scheme)
            w = init_weights(4, constraint).w
            for k in range(12):
                cands = probes(scheme, w, pset.column(k), 0.25, constraint)
                for c in cands:
                    assert BeamVector(c, constraint).feasibility_error() < 1e-12
                w = cands[-1]


def test_tr_forgetting_factor_decays_the_benchmark():
    bit, best = decide(Scheme.TR, (0.95,), 1.0, 0.9)  # 0.95 > 0.9 * 1.0
    assert bit
    assert best == pytest.approx(0.95)
    bit, best = decide(Scheme.TR, (0.5,), best, 0.9)  # 0.5 < 0.9 * 0.95
    assert not bit
    assert best == pytest.approx(0.855)


def test_first_frame_probes_the_starting_direction():
    # column 0 is proportional to the uniform start, so frame 0 is a
    # self-measurement: TR must take (J > 0 = initial benchmark).  PM's two
    # probes equal the start only up to rounding (they may differ from it
    # in the last place), so frame 0 may emit either bit, and the kept
    # vector matches the start to rounding.
    beta = 0.1
    w = init_weights(3, SUM).w
    tr_set = build_perturbation_set(3, Scheme.TR)
    (cand,) = probes(Scheme.TR, w, tr_set.column(0), beta, SUM)
    np.testing.assert_allclose(cand, w, atol=1e-14)
    bit, _ = decide(Scheme.TR, (0.42,), 0.0)
    assert bit

    pm_set = build_perturbation_set(3, Scheme.PM)
    plus, minus = probes(Scheme.PM, w, pm_set.column(0), beta, SUM)
    np.testing.assert_allclose(plus, w, atol=1e-14)
    np.testing.assert_allclose(minus, w, atol=1e-14)


def _compound(rng, noise_power):
    chan = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    return ideal_compound(chan.h, chan.g, 1.0, noise_power)


def test_tr_trajectory_is_monotone_with_unit_forgetting():
    noise = 10.0 ** -1.8
    pset = build_perturbation_set(3, Scheme.TR)
    for seed in range(20):
        hbar, gbar = _compound(np.random.default_rng(seed), noise)
        gbar2 = np.abs(gbar) ** 2
        w, best = init_weights(3, SUM).w, 0.0
        prev = _snr(w, hbar, gbar2, noise)
        for k in range(120):
            cand = probes(Scheme.TR, w, pset.column(k), 0.1, SUM)
            bit, best = decide(Scheme.TR, (_snr(cand[0], hbar, gbar2, noise),),
                               best)
            w = select(w, cand, bit)
            cur = _snr(w, hbar, gbar2, noise)
            assert cur >= prev
            prev = cur


def test_pm_converges_toward_oracle():
    from relaybf.oracles import ssp_weights
    noise = 10.0 ** -1.8
    pset = build_perturbation_set(3, Scheme.PM)
    gaps = []
    for seed in range(30):
        hbar, gbar = _compound(np.random.default_rng(100 + seed), noise)
        cp = CompoundParams(hbar, gbar)
        gbar2 = np.abs(gbar) ** 2
        opt = objective_snr(ssp_weights(cp, noise), cp, noise)
        w = init_weights(3, SUM).w
        for k in range(60):
            cand = probes(Scheme.PM, w, pset.column(k), 0.1, SUM)
            bit, _ = decide(Scheme.PM,
                            [_snr(c, hbar, gbar2, noise) for c in cand])
            w = select(w, cand, bit)
        gaps.append(1.0 - _snr(w, hbar, gbar2, noise) / opt)
    assert np.median(gaps) < 0.05
