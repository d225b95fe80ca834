import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaybf.adaptation import (CONSTRAINT_TOL, BeamVector, ConstraintKind,
                                Scheme, build_perturbation_set, decide,
                                dft_matrix, init_pm_state, init_tr_state,
                                init_weights, normalize, pm_perturb, pm_step,
                                probes, project, select, tr_perturb, tr_step)
from relaybf.channel import PathLoss, complex_normal, sample_static_rayleigh
from relaybf.network import (NetworkParams, compound_params,
                             ideal_relay_gains, objective_snr)

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
        w = project(complex_normal(rng, (5, 3)), constraint,
                    init_weights(3, constraint).w)
        plus, minus = probes(Scheme.PM, w, q, 0.3, constraint)
        (tr_plus,) = probes(Scheme.TR, w, q, 0.3, constraint)
        (tr_minus,) = probes(Scheme.TR, w, q, -0.3, constraint)
        np.testing.assert_array_equal(plus, tr_plus)
        np.testing.assert_array_equal(minus, tr_minus)
        # a batch is its links one at a time
        for row, p, m in zip(w, plus, minus):
            np.testing.assert_array_equal(
                np.stack(probes(Scheme.PM, row, q, 0.3, constraint)),
                np.stack([p, m]))


def test_project_rejects_unknown_constraint():
    with pytest.raises(ValueError):
        project(np.ones(2), "sum-power", np.ones(2))


def test_decide_and_select_on_a_batch():
    plus, minus = np.array([[1.0, 0.0]] * 3), np.array([[0.0, 1.0]] * 3)
    bit, best = decide(Scheme.PM, (np.array([2.0, 2.0, 3.0]),
                                   np.array([3.0, 2.0, 2.0])))
    assert bit.tolist() == [True, False, False]  # the tie keeps plus
    assert best is None
    np.testing.assert_array_equal(select(None, (plus, minus), bit),
                                  [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    # TR: the stored best decays first, a tie with it rejects
    bit, best = decide(Scheme.TR, (np.array([0.95, 0.5, 0.45]),),
                       np.array([1.0, 1.0, 0.5]), 0.9)
    assert bit.tolist() == [True, False, False]
    np.testing.assert_array_equal(best, [0.95, 0.9, 0.45])
    np.testing.assert_array_equal(select(minus, (plus,), bit),
                                  [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])


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


def test_scheme_tag_mismatch_rejected():
    tr_state = init_tr_state(3, SUM)
    pm_state = init_pm_state(3, SUM)
    pm_set = build_perturbation_set(3, Scheme.PM)
    tr_set = build_perturbation_set(3, Scheme.TR)
    with pytest.raises(ValueError):
        tr_perturb(tr_state, 0.1, pm_set)
    with pytest.raises(ValueError):
        pm_perturb(pm_state, 0.1, tr_set)


def test_tr_step_take_reject_and_tie():
    state = init_tr_state(2, SUM)
    state.best_objective = 1.0
    cand = BeamVector(np.array([1.0, 0.0]), SUM)
    new, bit = tr_step(state, cand, 1.0)  # exact tie rejects
    assert bit == 0
    np.testing.assert_array_equal(new.w_data.w, state.w_data.w)
    assert new.best_objective == 1.0
    assert new.frame_index == 1
    new, bit = tr_step(state, cand, 1.0 + 1e-9)
    assert bit == 1
    np.testing.assert_array_equal(new.w_data.w, cand.w)
    assert new.best_objective == pytest.approx(1.0 + 1e-9)
    with pytest.raises(ValueError):
        tr_step(state, cand, -0.5)


def test_tr_forgetting_factor_decays_the_benchmark():
    state = init_tr_state(2, SUM, forgetting_factor=0.9)
    state.best_objective = 1.0
    cand = BeamVector(np.array([1.0, 0.0]), SUM)
    new, bit = tr_step(state, cand, 0.95)  # 0.95 > 0.9 * 1.0
    assert bit == 1
    assert new.best_objective == pytest.approx(0.95)
    new2, bit2 = tr_step(new, cand, 0.5)  # 0.5 < 0.9 * 0.95
    assert bit2 == 0
    assert new2.best_objective == pytest.approx(0.855)


def test_pm_step_selection_and_tie():
    state = init_pm_state(2, SUM)
    plus = BeamVector(np.array([1.0, 0.0]), SUM)
    minus = BeamVector(np.array([0.0, 1.0]), SUM)
    new, bit = pm_step(state, plus, minus, 2.0, 3.0)
    assert bit == 1
    np.testing.assert_array_equal(new.w_data.w, minus.w)
    new, bit = pm_step(state, plus, minus, 2.0, 2.0)  # ties keep plus
    assert bit == 0
    np.testing.assert_array_equal(new.w_data.w, plus.w)
    assert new.frame_index == 1


def test_first_frame_probes_the_starting_direction():
    # column 0 is proportional to the uniform start, so frame 0 is a
    # self-measurement: TR must take (J > 0 = initial benchmark).  PM's two
    # probes equal the start only up to rounding (they may differ from it
    # in the last place), so frame 0 may emit either bit, and the kept
    # vector matches the start to rounding.
    beta = 0.1
    tr_state = init_tr_state(3, SUM)
    tr_set = build_perturbation_set(3, Scheme.TR)
    cand = tr_perturb(tr_state, beta, tr_set)
    np.testing.assert_allclose(cand.w, tr_state.w_data.w, atol=1e-14)
    new, bit = tr_step(tr_state, cand, 0.42)
    assert bit == 1

    pm_state = init_pm_state(3, SUM)
    pm_set = build_perturbation_set(3, Scheme.PM)
    plus, minus = pm_perturb(pm_state, beta, pm_set)
    np.testing.assert_allclose(plus.w, pm_state.w_data.w, atol=1e-14)
    np.testing.assert_allclose(minus.w, pm_state.w_data.w, atol=1e-14)


def _idealized_objective(w, cp, noise_power):
    return objective_snr(w, cp, noise_power)


def test_tr_trajectory_is_monotone_with_unit_forgetting():
    params = NetworkParams(3, 1.0, 1.0, 10.0 ** -1.8)
    pset = build_perturbation_set(3, Scheme.TR)
    pl = PathLoss([1.0, 3.0, 5.0])
    for seed in range(20):
        rng = np.random.default_rng(seed)
        chan = sample_static_rayleigh(rng, pl)
        alphas = ideal_relay_gains(params, chan)
        cp = compound_params(params, chan, alphas)
        state = init_tr_state(3, SUM)
        prev = _idealized_objective(state.w_data, cp, params.noise_power)
        for _ in range(120):
            cand = tr_perturb(state, 0.1, pset)
            state, _ = tr_step(
                state, cand, _idealized_objective(cand, cp, params.noise_power))
            cur = _idealized_objective(state.w_data, cp, params.noise_power)
            assert cur >= prev
            prev = cur


def test_pm_converges_toward_oracle():
    from relaybf.oracles import ssp_weights
    params = NetworkParams(3, 1.0, 1.0, 10.0 ** -1.8)
    pset = build_perturbation_set(3, Scheme.PM)
    pl = PathLoss([1.0, 3.0, 5.0])
    gaps = []
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        chan = sample_static_rayleigh(rng, pl)
        alphas = ideal_relay_gains(params, chan)
        cp = compound_params(params, chan, alphas)
        opt = objective_snr(ssp_weights(cp, params.noise_power), cp,
                            params.noise_power)
        state = init_pm_state(3, SUM)
        for _ in range(60):
            plus, minus = pm_perturb(state, 0.1, pset)
            state, _ = pm_step(
                state, plus, minus,
                _idealized_objective(plus, cp, params.noise_power),
                _idealized_objective(minus, cp, params.noise_power))
        gaps.append(1.0 - _idealized_objective(state.w_data, cp,
                                               params.noise_power) / opt)
    assert np.median(gaps) < 0.05
