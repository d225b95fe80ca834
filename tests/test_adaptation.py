import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaybf.adaptation import (ConstraintKind, Scheme,
                                build_perturbation_set, decide, dft_matrix,
                                init_weights, probe_step, probe_steps, probes,
                                project, select)
from relaybf.channel import PathLoss, complex_normal, sample_static_rayleigh
from relaybf.network import _snr, ideal_compound
from relaybf.oracles import closed_form

SUM = ConstraintKind.SUM_POWER
PER = ConstraintKind.PER_RELAY
CONSTRAINT_TOL = 1e-10


def _feasibility_error(w, constraint):
    """Distance of a vector (R,) from its constraint set: | ||w||^2 - 1 |
    under sum power, the largest | |w_i|^2 - 1 | per relay."""
    if constraint is SUM:
        return abs(float(np.sum(np.abs(w) ** 2)) - 1.0)
    return float(np.max(np.abs(np.abs(w) ** 2 - 1.0)))


def test_init_weights():
    w = init_weights(4, SUM)
    np.testing.assert_allclose(w, np.full(4, 0.5))
    assert _feasibility_error(w, SUM) < 1e-14
    w = init_weights(3, PER)
    np.testing.assert_allclose(w, np.ones(3))


def test_normalize_sum_preserves_direction():
    raw = np.array([3.0, 4.0j])
    fallback = init_weights(2, SUM)
    w = project(raw, SUM, fallback)
    np.testing.assert_allclose(w, [0.6, 0.8j], atol=1e-15)
    assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-14)


def test_normalize_per_relay_preserves_phases():
    raw = np.array([2.0j, -3.0, 0.5 + 0.5j])
    fallback = init_weights(3, PER)
    w = project(raw, PER, fallback)
    np.testing.assert_allclose(np.abs(w), 1.0, atol=1e-14)
    np.testing.assert_allclose(w[0], 1.0j, atol=1e-15)
    np.testing.assert_allclose(w[2], (1.0 + 1.0j) / np.sqrt(2.0), atol=1e-15)


def test_normalize_zero_falls_back_to_previous():
    prev = np.array([0.6, 0.8], dtype=complex)
    w = project(np.zeros(2, dtype=complex), SUM, prev)
    np.testing.assert_array_equal(w, prev)
    prev_per = np.array([1.0, 1.0j])
    w = project(np.array([0.0, 5.0], dtype=complex), PER, prev_per)
    # only the vanished coordinate falls back
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@settings(max_examples=300)
@given(raw=st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6),
       constraint=st.sampled_from([SUM, PER]))
def test_normalize_output_is_feasible(raw, constraint):
    # any finite raw update, from all zeros to entries whose squares
    # overflow, projects onto the constraint set
    w = project(np.array(raw, dtype=complex), constraint,
                init_weights(len(raw), constraint))
    assert _feasibility_error(w, constraint) < CONSTRAINT_TOL


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
                    init_weights(3, constraint)[:, None])
        plus, minus = probes(w, probe_step(Scheme.PM, q, 0.3, w.ndim),
                             constraint)
        (tr_plus,) = probes(w, probe_step(Scheme.TR, q, 0.3, w.ndim),
                            constraint)
        (tr_minus,) = probes(w, probe_step(Scheme.TR, q, -0.3, w.ndim),
                             constraint)
        np.testing.assert_array_equal(plus, tr_plus)
        np.testing.assert_array_equal(minus, tr_minus)
        # a batch is its links one at a time
        for link, p, m in zip(w.T, plus.T, minus.T):
            np.testing.assert_array_equal(
                np.stack(probes(link, probe_step(Scheme.PM, q, 0.3, link.ndim),
                                constraint)),
                np.stack([p, m]))


# how each link of a drawn stack is set: left as drawn, scaled down until
# the projection falls back to w, set huge until |w|^2 (sum power) or |w_i|
# (per relay) overflows, or set to minus or plus the step, so that one PM
# candidate is exactly zero and falls back while the other does not
_LINK_KINDS = ["drawn", "tiny", "huge", "-step", "+step"]


# numpy: its elementwise kernels give a candidate the same bits however the
# candidates are stacked
@pytest.mark.numpy_floor
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 9),
       links=st.lists(st.integers(1, 3), min_size=1, max_size=2),
       kinds=st.lists(st.sampled_from(_LINK_KINDS), min_size=9, max_size=9),
       huge=st.sampled_from([1e160, 1e308]),
       scheme=st.sampled_from([Scheme.PM, Scheme.TR]),
       constraint=st.sampled_from([SUM, PER]),
       beta=st.sampled_from([0.1, -0.5, 2.0, 1e-14]))
@example(seed=0, r=3, links=[3, 3], kinds=_LINK_KINDS * 2, huge=1e308,
         scheme=Scheme.PM, constraint=SUM, beta=0.1)
@example(seed=0, r=3, links=[3, 3], kinds=_LINK_KINDS * 2, huge=1e308,
         scheme=Scheme.PM, constraint=PER, beta=0.1)
def test_stacked_probes_equal_each_projection_alone(seed, r, links, kinds,
                                                    huge, scheme, constraint,
                                                    beta):
    # The candidate stack of `probes`, one block projected in one call, has
    # the bits of `project` on each candidate alone, w + beta*q and, for PM,
    # w - beta*q, whichever branch the block takes: links whose candidates
    # fall back to w or overflow sit next to ordinary ones.  The same holds
    # when the block is a reused array with stale contents.
    q = build_perturbation_set(r, scheme).column(r)
    step = beta * q.reshape((r,) + (1,) * len(links))
    w = complex_normal(np.random.default_rng(seed), (r,) + tuple(links))
    flat = w.reshape(r, -1)  # a view: setting a link sets it in w
    for i, kind in enumerate(kinds[:flat.shape[1]]):
        if kind == "tiny":
            flat[:, i] *= 1e-14
        elif kind == "huge":
            flat[:, i] = huge * (1.5 - 1.5j)
        elif kind != "drawn":
            flat[:, i] = (-1.0 if kind == "-step" else 1.0) \
                * step.reshape(r, -1)[:, 0]
    alone = [project(w + step, constraint, w)]
    if scheme is Scheme.PM:
        alone.append(project(w - step, constraint, w))
    block = np.full((r, len(alone)) + tuple(links), np.nan + 0j)
    for out in (None, block):
        stack = probes(w, probe_step(scheme, q, beta, w.ndim), constraint, out)
        assert stack.shape == (len(alone),) + w.shape
        assert out is None or np.shares_memory(stack, block)
        for got, want in zip(stack, alone):
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("constraint", [SUM, PER])
@pytest.mark.parametrize("scheme", [Scheme.PM, Scheme.TR])
def test_hoisted_steps_give_the_per_frame_probes(scheme, constraint):
    # `probe_steps`, built once per block, give `probes` on frame k the
    # projections of w + beta*q and, for PM, w - beta*q, built from frame
    # k's column, bit for bit: for a convergence stack (R, 1, links) with
    # one beta, and for a tracking stack (R, schemes, B, D, count) with the
    # beta stack (B, 1, 1), over more than one cycle of the columns.
    rng = np.random.default_rng(4)
    r = 3
    pset = build_perturbation_set(r, scheme)
    for beta, shape in ((0.1, (r, 1, 5)),
                        (np.array([0.05, 0.1, 0.3])[:, None, None],
                         (r, 2, 3, 2, 4))):
        w = project(complex_normal(rng, shape), constraint, np.ones(shape))
        steps = probe_steps(scheme, pset, beta, w.ndim)
        assert len(steps) == pset.num_columns
        for k in range(2 * pset.num_columns + 1):
            dq = beta * pset.column(k).reshape((r,) + (1,) * (w.ndim - 1))
            want = [project(w + dq, constraint, w)]
            if scheme is Scheme.PM:
                want.append(project(w - dq, constraint, w))
            got = probes(w, steps[k % len(steps)], constraint)
            assert got.shape == (len(want),) + w.shape
            for g, w_k in zip(got, want):
                assert np.ascontiguousarray(g).tobytes() == w_k.tobytes()


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
            w = init_weights(4, constraint)
            for k in range(12):
                cands = probes(w, probe_step(scheme, pset.column(k), 0.25,
                                             w.ndim), constraint)
                for c in cands:
                    assert _feasibility_error(c, constraint) < 1e-12
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
    w = init_weights(3, SUM)
    tr_set = build_perturbation_set(3, Scheme.TR)
    (cand,) = probes(w, probe_step(Scheme.TR, tr_set.column(0), beta, w.ndim),
                     SUM)
    np.testing.assert_allclose(cand, w, atol=1e-14)
    bit, _ = decide(Scheme.TR, (0.42,), 0.0)
    assert bit

    pm_set = build_perturbation_set(3, Scheme.PM)
    plus, minus = probes(w, probe_step(Scheme.PM, pm_set.column(0), beta,
                                       w.ndim), SUM)
    np.testing.assert_allclose(plus, w, atol=1e-14)
    np.testing.assert_allclose(minus, w, atol=1e-14)


def _compound(rng, noise_power):
    h, g = sample_static_rayleigh(rng, PathLoss([1.0, 3.0, 5.0]))
    return ideal_compound(h, g, 1.0, noise_power)


def test_tr_trajectory_is_monotone_with_unit_forgetting():
    noise = 10.0 ** -1.8
    pset = build_perturbation_set(3, Scheme.TR)
    for seed in range(20):
        hbar, gbar = _compound(np.random.default_rng(seed), noise)
        gbar2 = np.abs(gbar) ** 2
        w, best = init_weights(3, SUM), 0.0
        prev = _snr(w, hbar, gbar2, noise)
        for k in range(120):
            cand = probes(w, probe_step(Scheme.TR, pset.column(k), 0.1,
                                        w.ndim), SUM)
            bit, best = decide(Scheme.TR, (_snr(cand[0], hbar, gbar2, noise),),
                               best)
            w = select(w, cand, bit)
            cur = _snr(w, hbar, gbar2, noise)
            assert cur >= prev
            prev = cur


def test_pm_converges_toward_oracle():
    noise = 10.0 ** -1.8
    pset = build_perturbation_set(3, Scheme.PM)
    gaps = []
    for seed in range(30):
        hbar, gbar = _compound(np.random.default_rng(100 + seed), noise)
        gbar2 = np.abs(gbar) ** 2
        opt = _snr(closed_form("s-sp", hbar, gbar2), hbar, gbar2, noise)
        w = init_weights(3, SUM)
        for k in range(60):
            cand = probes(w, probe_step(Scheme.PM, pset.column(k), 0.1,
                                        w.ndim), SUM)
            bit, _ = decide(Scheme.PM,
                            [_snr(c, hbar, gbar2, noise) for c in cand])
            w = select(w, cand, bit)
        gaps.append(1.0 - _snr(w, hbar, gbar2, noise) / opt)
    assert np.median(gaps) < 0.05
