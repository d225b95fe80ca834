"""Batched frame kernels, block draws and scheduling, and the runners of
the three experiment families (their description lives in `config`).

A frame is a training interval (pilot symbols sent under perturbed weights)
followed by a data interval sent under the current working vector.
Convergence and BER give the destination exact objectives and the exact
compound channel; tracking runs per-symbol time-varying channels, measured
relay gains and pilot-based estimates.  Every kernel advances a whole stack
of links at once; weights and channels are shaped (R, *links), relays first.

Experiments fan independent realizations out over fixed-size blocks.  Every
realization draws from its own seed-derived sub-streams, and blocks are
merged in index order, so results are identical for any worker count.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import adaptation, channel, config, estimation, network, oracles
from .adaptation import (ConstraintKind, Scheme, build_perturbation_set,
                         init_weights)
from .channel import JakesBank, PathLoss
from .config import (DEFAULT_BER_SCHEMES, DEFAULT_TRACKING_SCHEMES, SCHEMES,
                     ConfigError, ExperimentConfig, Objective)

_STREAM_CHANNEL = 0
_STREAM_NOISE = 1


def _stream(seed, realization, stream):
    """Deterministic per-(realization, purpose) generator; order-independent."""
    ss = np.random.SeedSequence(seed, spawn_key=(realization, stream))
    return np.random.default_rng(ss)


def _detect_bits(y, h_hat):
    """ML BPSK decision, bit 1 iff Re(conj(h_hat)*y) < 0, for y (..., L)
    and h_hat (...,); a zero estimate falls back to the sign of Re(y)."""
    h_hat = np.asarray(h_hat)
    coef = np.where(h_hat == 0, 1.0 + 0j, np.conj(h_hat))
    return (np.real(coef[..., None] * y) < 0).astype(np.int8)


# ---------------------------------------------------------------------------
# batched kernels (weights and compound channels (R, *links), relays
# first): the adaptation step of `adaptation` on exact objectives

def _objective_batch(objective, w, hbar, gbar2, noise_power):
    """Exact objectives of weights `w` (R, *links), given hbar and the
    noise-forwarding powers gbar2 = |gbar|^2.

    `objective` is one `Objective` for the whole stack, or a sequence with
    one per entry of the scheme axis that follows the relay axis.
    """
    if objective is Objective.POWER:
        return network._signal_power(w, hbar)
    if objective is Objective.SNR:
        return network._snr(w, hbar, gbar2, noise_power)
    j = network._signal_power(w, hbar)
    snr = [s for s, o in enumerate(objective) if o is Objective.SNR]
    if snr:
        if snr[-1] - snr[0] == len(snr) - 1:  # a run: index with a view
            snr = slice(snr[0], snr[-1] + 1)
        # the expression of `network._snr`, on the SNR schemes only
        j[snr] /= noise_power * (1.0 + network._noise_gain(w[:, snr], gbar2))
    return j


def _tr_batch(w, best, frame_index, beta, pset, constraint, objective,
              hbar, gbar2, noise_power, forgetting):
    cand = adaptation.probes(Scheme.TR, w, pset.column(frame_index), beta,
                             constraint)
    j = _objective_batch(objective, cand[0], hbar, gbar2, noise_power)
    take, best = adaptation.decide(Scheme.TR, (j,), best, forgetting)
    return adaptation.select(w, cand, take), best, take


def _pm_batch(w, frame_index, beta, pset, constraint, objective,
              hbar, gbar2, noise_power):
    cand = adaptation.probes(Scheme.PM, w, pset.column(frame_index), beta,
                             constraint)
    take_minus, _ = adaptation.decide(Scheme.PM, [
        _objective_batch(objective, c, hbar, gbar2, noise_power) for c in cand])
    return adaptation.select(w, cand, take_minus), take_minus


def _adapt(cfg, pset, frame_index, w, best, objective, constraint,
           hbar, gbar2, noise_power):
    """(w, best, bit) after one `cfg.scheme` frame; PM leaves `best` as is."""
    if cfg.scheme is Scheme.TR:
        return _tr_batch(w, best, frame_index, cfg.beta, pset, constraint,
                         objective, hbar, gbar2, noise_power,
                         cfg.forgetting_factor)
    w, bit = _pm_batch(w, frame_index, cfg.beta, pset, constraint, objective,
                       hbar, gbar2, noise_power)
    return w, best, bit


def _relay_power(constraint, num_relays):
    """Relay budget P: the unit total under sum power, a 1/R share per relay."""
    return 1.0 if constraint is ConstraintKind.SUM_POWER else 1.0 / num_relays


def _draw_channels(cfg, start, count):
    """Per-realization static channel draws, stacked (R, count).

    Each realization's stream fills its row of one normal block in a single
    call, with the layout of `channel.sample_static_rayleigh`; the block is
    then folded into complex channels once.
    """
    z = np.empty((count, 4, cfg.num_relays))
    for j, i in enumerate(range(start, start + count)):
        _stream(cfg.seed, i, _STREAM_CHANNEL).standard_normal(out=z[j])
    h, g = channel._static_rayleigh(z.transpose(1, 2, 0),
                                    PathLoss(cfg.distances).variances)
    # C order, as the callers always got: numpy's summation order, and so
    # the bits of a reduction, can depend on the memory layout
    return np.ascontiguousarray(h), np.ascontiguousarray(g)


def _ssp_reference(hbar, gbar2, noise_power):
    """The s-sp weights' SNR on sum-power compound channels (R, *links).

    Raises `ConfigError` unless every link's value is finite and positive:
    otherwise the closed forms divide by an underflowed norm, or the SNR
    objectives overflow, and every curve would rest on NaN or inf values.
    """
    # a noise power far from the channel gains underflows or overflows the
    # SNR, which the check below turns into a one-line error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        snr_opt = network._snr(oracles.closed_form("s-sp", hbar, gbar2),
                               hbar, gbar2, noise_power)
    if not np.all((snr_opt > 0) & (snr_opt < np.inf)):
        raise ConfigError("the s-sp SNR is not finite and positive: at this "
                          "noise power every relay's SNR is out of range")
    return snr_opt


def _iter_block_results(fn, payloads, workers):
    """Yield `fn(*payload)` for each payload, in payload order.

    Payloads are pulled lazily and at most `workers` blocks are in flight:
    once the first ones are started, a new payload is pulled only after a
    result has been yielded and merged by the caller, so a payload
    generator can look at everything merged so far.  With more than one
    worker a single process pool serves the whole call; fork starts all its
    processes at once, so it gets no more than there are blocks.
    """
    payloads = iter(payloads)
    if workers <= 1:
        for payload in payloads:
            yield fn(*payload)
        return
    first = list(itertools.islice(payloads, workers))
    if not first:
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(first)) as pool:
        pending = collections.deque(pool.submit(fn, *p) for p in first)
        while pending:
            yield pending.popleft().result()
            payload = next(payloads, None)
            if payload is not None:
                pending.append(pool.submit(fn, *payload))


def _block_ranges(cfg, total):
    """(start, count) of each realization block, in index order."""
    for start in range(0, total, cfg.block_size):
        yield start, min(cfg.block_size, total - start)


# ---------------------------------------------------------------------------
# convergence experiment

@dataclass
class ConvergenceResult:
    """Normalized-SNR trajectories plus the gap distribution at key frames."""

    config: ExperimentConfig
    snr_normalized: np.ndarray   # (num_trajectories, num_frames)
    feedback_bits: np.ndarray
    gaps_at_frames: dict         # frame -> (num_realizations,) gap array

    def fraction_below(self, frame, threshold) -> float:
        return float(np.mean(self.gaps_at_frames[frame] < threshold))

    def trajectory_rows(self):
        n, f = self.snr_normalized.shape
        for r in range(n):
            for k in range(f):
                yield (r, k, self.snr_normalized[r, k],
                       1.0 - self.snr_normalized[r, k],
                       int(self.feedback_bits[r, k]))

    def cdf_rows(self):
        for frame in self.config.cdf_frames:
            for thr in self.config.gap_thresholds:
                yield (frame, thr, self.fraction_below(frame, thr))


def _convergence_block(cfg, start, count):
    r = cfg.num_relays
    objective, constraint = SCHEMES["pb-s-sp"]
    noise_power = cfg.single_noise_power("convergence")
    h, g = _draw_channels(cfg, start, count)
    hbar, gbar = network.ideal_compound(h, g, _relay_power(constraint, r),
                                        noise_power)
    gbar2 = np.abs(gbar) ** 2
    snr_opt = _ssp_reference(hbar, gbar2, noise_power)
    pset = build_perturbation_set(r, cfg.scheme)
    w = np.tile(init_weights(r, constraint)[:, None], (1, count))
    best = np.zeros(count)
    n_traj = max(0, min(cfg.num_trajectories - start, count))
    snr_traj = np.empty((n_traj, cfg.num_frames))
    bit_traj = np.empty((n_traj, cfg.num_frames), dtype=np.int8)
    # the links whose trajectories are recorded; the SNR is elementwise, so
    # on them alone it has the bits it has on the whole block
    traj = slice(0, n_traj)
    wanted = set(cfg.cdf_frames)
    gaps_at = {}
    for k in range(cfg.num_frames + 1):
        if k in wanted:
            ratio = network._snr(w, hbar, gbar2, noise_power) / snr_opt
            gaps_at[k] = 1.0 - ratio
        elif n_traj and k < cfg.num_frames:
            ratio = network._snr(w[:, traj], hbar[:, traj], gbar2[:, traj],
                                 noise_power) / snr_opt[traj]
        if k == cfg.num_frames:
            break
        if n_traj:
            snr_traj[:, k] = ratio[traj]
        w, best, bit = _adapt(cfg, pset, k, w, best, objective, constraint,
                              hbar, gbar2, noise_power)
        if n_traj:
            bit_traj[:, k] = bit[:n_traj]
    return start, snr_traj, bit_traj, gaps_at


def run_convergence_experiment(cfg: ExperimentConfig, workers=1) -> ConvergenceResult:
    """Idealized pb-s-sp adaptation against the exact s-sp oracle."""
    cfg.single_noise_power("convergence")  # fails before any block starts
    n = cfg.num_realizations
    gaps_at = {f: np.empty(n) for f in cfg.cdf_frames}
    parts = []
    payloads = ((cfg, start, count) for start, count in _block_ranges(cfg, n))
    for start, snr_t, bit_t, gdict in _iter_block_results(
            _convergence_block, payloads, workers):
        for f, arr in gdict.items():
            gaps_at[f][start:start + arr.size] = arr
        parts.append((snr_t, bit_t))
    # blocks past num_trajectories contribute (0, num_frames) arrays
    snr, bits = (np.vstack(p) for p in zip(*parts))
    return ConvergenceResult(cfg, snr, bits, gaps_at)


# ---------------------------------------------------------------------------
# BER-vs-SNR experiment

@dataclass
class BerRow:
    scheme: str
    snr_db: float
    bits: int
    errors: int

    @property
    def ber(self) -> float:
        return self.errors / self.bits


@dataclass
class BerResult:
    config: ExperimentConfig
    rows: list

    def curve(self, scheme):
        """(snr_db, ber) arrays for one scheme, in grid order."""
        pts = [(r.snr_db, r.ber) for r in self.rows if r.scheme == scheme]
        snr = np.array([p[0] for p in pts])
        ber = np.array([p[1] for p in pts])
        return snr, ber

    def row(self, scheme, snr_db) -> BerRow:
        for r in self.rows:
            if r.scheme == scheme and r.snr_db == snr_db:
                return r
        raise KeyError((scheme, snr_db))


def _draw_ber_noise(cfg, start, count):
    """Data bits and unit-variance complex noise, each (count, frames, data).

    Each realization's stream draws its bits, then fills its row of one
    normal block (re, im) in a single call; the block is then assembled
    once, in place, so at most one float and one complex block are alive.
    """
    shape = (cfg.num_frames, cfg.num_data)
    bits = np.empty((count,) + shape, dtype=np.int8)
    zz = np.empty((count, 2) + shape)
    for j, i in enumerate(range(start, start + count)):
        rng = _stream(cfg.seed, i, _STREAM_NOISE)
        bits[j] = rng.integers(0, 2, size=shape)
        rng.standard_normal(out=zz[j])
    # (re + 1j*im) / sqrt(2), not `channel._complex_gaussian`: dividing by
    # sqrt(2) rounds differently from scaling by sqrt(1/2)
    z = np.multiply(1j, zz[:, 1])
    np.add(zz[:, 0], z, out=z)
    return bits, np.divide(z, np.sqrt(2.0), out=z)


def _ber_block(cfg, points, start, count):
    """BER of one realization range at the SNR points `points`.

    `points` are positions in `cfg.snr_db_grid`.  The channels, bits and
    noise of each realization are drawn once and shared by every point and
    scheme; the points advance together on a link axis.  The adaptive
    schemes of one constraint share one weight stack (R, schemes, points,
    count) and advance with one `_adapt` call per frame.  Returns the
    block's bits per point, `points`, and errors shaped (points, schemes).
    """
    r = cfg.num_relays
    noise_power = np.array(
        [config.noise_power(cfg.snr_db_grid[p]) for p in points])[:, None]
    n_frames, n_data = cfg.num_frames, cfg.num_data
    schemes = [SCHEMES[token] for token in cfg.schemes]
    h, g = _draw_channels(cfg, start, count)
    compound = {}  # constraint -> (hbar, |gbar|^2), each (R, points, count)
    for ck in {ck for _, ck in schemes} | {ConstraintKind.SUM_POWER}:
        hbar, gbar = network.ideal_compound(h[:, None], g[:, None],
                                            _relay_power(ck, r), noise_power)
        compound[ck] = hbar, np.abs(gbar) ** 2
    _ssp_reference(*compound[ConstraintKind.SUM_POWER], noise_power)

    def gains(w, hbar, gbar2):
        """Detection gain a = w^H hbar and noise scale sigma of weights w."""
        return (adaptation.relay_sum(np.conj(w) * hbar),
                np.sqrt(noise_power * (1.0 + network._noise_gain(w, gbar2))))

    # closed-form weights never change: their gains hold for the block
    fixed = {}
    for t, (token, (objective, ck)) in enumerate(zip(cfg.schemes, schemes)):
        if objective is None:
            hbar, gbar2 = compound[ck]
            fixed[t] = gains(oracles.closed_form(token, hbar, gbar2), hbar,
                             gbar2)
    # adaptive schemes: one stack per constraint, with the positions and
    # objectives of its schemes and (hbar, |gbar|^2) with a scheme axis;
    # `state` holds each stack's weights (R, schemes, points, count) and
    # stored best
    adaptive = {}
    for t, (objective, ck) in enumerate(schemes):
        if objective is not None:
            adaptive.setdefault(ck, []).append(t)
    stacks, state = [], []
    for ck, members in adaptive.items():
        hbar, gbar2 = (x[:, None] for x in compound[ck])
        stacks.append((members, tuple(schemes[t][0] for t in members), ck,
                       hbar, gbar2))
        w = np.tile(init_weights(r, ck)[:, None, None, None],
                    (1, len(members), len(points), count))
        state.append((w, np.zeros(w.shape[1:])))
    pset = build_perturbation_set(r, cfg.scheme)

    def advance(frame_index):
        """One `_adapt` call per stack."""
        for i, (_, objectives, ck, hbar, gbar2) in enumerate(stacks):
            state[i] = _adapt(cfg, pset, frame_index, *state[i], objectives,
                              ck, hbar, gbar2, noise_power)[:2]

    for k in range(cfg.warmup_frames):
        advance(k)

    # shared data bits and unit-variance noise: schemes are compared on
    # identical draws, only the effective channel differs
    bits, z = _draw_ber_noise(cfg, start, count)
    s = 1.0 - 2.0 * bits

    errors = np.zeros((len(points), len(schemes)), dtype=np.int64)
    for f in range(n_frames):
        frame_gains = dict(fixed)
        for (members, *_, hbar, gbar2), (w, _) in zip(stacks, state):
            frame_gains.update(zip(members, zip(*gains(w, hbar, gbar2))))
        # detection stays per scheme: a y stacked over every scheme would
        # raise the block's peak memory for little time
        for t in range(len(schemes)):
            a, sigma = frame_gains[t]
            y = a[..., None] * s[:, f, :] + sigma[..., None] * z[:, f, :]
            det = _detect_bits(y, a)
            errors[:, t] += np.count_nonzero(det != bits[:, f, :], axis=(1, 2))
        if f + 1 < n_frames:  # the weights after the last frame go unread
            advance(cfg.warmup_frames + f)
    return count * n_frames * n_data, points, errors


def run_ber_experiment(cfg: ExperimentConfig, workers=1) -> BerResult:
    """Idealized BER curves over an SNR grid, paired draws across schemes.

    Each point accumulates whole realization blocks, in index order, until
    every scheme has reached the error target (and min_bits), or the bit cap
    or realization cap is hit, so results do not depend on the worker count.
    A block covers every point still accumulating when it starts; points
    are told apart by position, so a repeated SNR value gets its own row.
    """
    cfg = replace(cfg, schemes=list(cfg.schemes or DEFAULT_BER_SCHEMES))
    bits_per_real = cfg.num_frames * cfg.num_data
    cap = min(cfg.num_realizations,
              math.ceil(cfg.bits_cap / bits_per_real))
    n_points = len(cfg.snr_db_grid)
    total_bits = [0] * n_points
    err = np.zeros((n_points, len(cfg.schemes)), dtype=np.int64)
    active = list(range(n_points))
    # pulled lazily by the scheduler, so each block carries the points still
    # active once every earlier block but the ones in flight is merged
    payloads = ((cfg, tuple(active), start, count)
                for start, count in _block_ranges(cfg, cap))
    for block_bits, points, block_err in _iter_block_results(
            _ber_block, payloads, workers):
        for p, point_err in zip(points, block_err):
            if p not in active:  # stopped while this block was in flight
                continue
            total_bits[p] += block_bits
            err[p] += point_err
            if total_bits[p] >= cfg.bits_cap \
                    or (total_bits[p] >= cfg.min_bits
                        and all(e >= cfg.error_target for e in err[p])):
                active.remove(p)
        if not active:
            break
    rows = [BerRow(token, float(snr_db), total_bits[p], int(err[p, t]))
            for p, snr_db in enumerate(cfg.snr_db_grid)
            for t, token in enumerate(cfg.schemes)]
    return BerResult(cfg, rows)


# ---------------------------------------------------------------------------
# tracking experiment

@dataclass
class TrackingRow:
    scheme: str
    beta: float
    normalized_doppler: float
    bits: int
    errors: int

    @property
    def ber(self) -> float:
        return self.errors / self.bits


@dataclass
class TrackingResult:
    config: ExperimentConfig
    rows: list

    def curve(self, scheme, beta):
        pts = [(r.normalized_doppler, r.ber) for r in self.rows
               if r.scheme == scheme and r.beta == beta]
        dop = np.array([p[0] for p in pts])
        ber = np.array([p[1] for p in pts])
        return dop, ber


def _pm_track_frame(w, carry, beta, q, objective, constraint, gx, v,
                    measured, whole):
    """One realistic PM frame for every link of `w` (R, *links).

    `gx` (relay receptions times forward channels, (..., L, R)) and `v`
    (destination noise, (..., L)) come split into the plus pilot half, the
    minus pilot half and the data interval; pilots are all ones, and their
    estimates score the probes.  Data is detected with `carry`, the previous
    frame's winning half estimate (its own winner on frame 0), or with
    `whole`, the full-interval estimate.  Returns (weights, winning half
    estimate, data estimate, data samples).
    """
    alpha = network.relay_gains(_relay_power(constraint, w.shape[0]),
                                measured)
    cand = adaptation.probes(Scheme.PM, w, q, beta, constraint)
    *y, y_d = (network.combine(gx_seg, np.moveaxis(ww, 0, -1), alpha, v_seg)
               for gx_seg, ww, v_seg in zip(gx, cand + (w,), v))
    pilots = [np.ones(yy.shape[-1], dtype=complex) for yy in y]
    h = [estimation._channel_estimate(*yp) for yp in zip(y, pilots)]
    j = [np.abs(hh) ** 2 if objective is Objective.POWER
         else estimation._snr_estimate(hh, yy, p)
         for hh, yy, p in zip(h, y, pilots)]
    take_minus, _ = adaptation.decide(Scheme.PM, j)
    h_winner = np.where(take_minus, h[1], h[0])
    if whole:
        h_data = estimation._channel_estimate(np.concatenate(y, axis=-1),
                                              np.concatenate(pilots))
    else:
        h_data = h_winner if carry is None else carry
    return adaptation.select(w, cand, take_minus), h_winner, h_data, y_d


def _draw_frame_noise(rngs, s_total, r, num_data, noise_power):
    """One tracking frame's relay noise (count, S, R), destination noise
    (count, S) and data bits (count, num_data), one stream per realization.

    Each stream makes one normal call, for the relay noise (re, im) and then
    the destination noise (re, im), followed by one bit call; the block is
    then assembled into complex noise once.
    """
    count = len(rngs)
    z = np.empty((count, 2 * s_total * (r + 1)))
    bits = np.empty((count, num_data), dtype=np.int64)
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=z[j])
        bits[j] = rng.integers(0, 2, size=num_data)
    zn = z[:, :2 * s_total * r].reshape(count, 2, s_total, r).swapaxes(0, 1)
    zv = z[:, 2 * s_total * r:].reshape(count, 2, s_total).swapaxes(0, 1)
    return (channel._complex_gaussian(zn, noise_power),
            channel._complex_gaussian(zv, noise_power), bits)


def _tracking_block(cfg, start, count):
    """Tracking BER of one realization range over the whole grid.

    The fading phases, noise and bits of each realization are drawn once.
    Each Doppler value gets one `JakesBank`, shared by every scheme and
    beta; per scheme, all (beta, Doppler) points advance together on
    link axes.  Returns the block's bits per point and errors shaped
    (schemes, betas, dopplers).
    """
    r = cfg.num_relays
    noise_power = cfg.single_noise_power("tracking")
    lp, ld = cfg.num_pilots, cfg.num_data
    s_total = lp + ld
    segments = (slice(0, lp // 2), slice(lp // 2, lp), slice(lp, s_total))
    pl = PathLoss(cfg.distances)
    amps = np.concatenate([pl.amplitudes, pl.amplitudes])  # h then g processes

    phases = np.empty((count, 2 * r, channel.DEFAULT_NUM_OSCILLATORS))
    rngs = []
    for j, i in enumerate(range(start, start + count)):
        crng = _stream(cfg.seed, i, _STREAM_CHANNEL)
        phases[j] = crng.uniform(0.0, 2.0 * np.pi, size=phases.shape[1:])
        rngs.append(_stream(cfg.seed, i, _STREAM_NOISE))
    banks = [JakesBank(phases, doppler, amps, symbols_per_frame=s_total)
             for doppler in cfg.normalized_doppler_grid]
    grid = (len(cfg.betas), len(banks), count)
    betas = np.array([float(b) for b in cfg.betas])[:, None, None]

    pset = build_perturbation_set(r, Scheme.PM)
    schemes = [SCHEMES[token] for token in cfg.schemes]
    weights = [np.tile(init_weights(r, ck)[:, None, None, None], (1,) + grid)
               for _, ck in schemes]
    carry = [None] * len(schemes)
    whole = cfg.pm_estimation_mode == "whole"
    errors = np.zeros((len(schemes),) + grid[:2], dtype=np.int64)
    for f in range(cfg.warmup_frames + cfg.num_frames):
        coeff = np.stack([bank.block(f * s_total, s_total)
                          for bank in banks])            # (D, count, 2R, S)
        h_t = coeff[:, :, :r, :].transpose(0, 1, 3, 2)   # (D, count, S, R)
        g_t = coeff[:, :, r:, :].transpose(0, 1, 3, 2)
        n, v, bits = _draw_frame_noise(rngs, s_total, r, ld, noise_power)
        s = np.concatenate(
            [np.ones((count, lp)), 1.0 - 2.0 * bits], axis=1)
        x, measured = network.relay_receive(h_t, s, n)  # source power 1
        gx = [g_t[..., sl, :] * x[..., sl, :] for sl in segments]
        vs = [v[:, sl] for sl in segments]
        q = pset.column(f)
        for t, (objective, ck) in enumerate(schemes):
            weights[t], carry[t], h_data, y_d = _pm_track_frame(
                weights[t], carry[t], betas, q, objective, ck, gx, vs,
                measured, whole)
            if f >= cfg.warmup_frames:
                errors[t] += np.count_nonzero(
                    _detect_bits(y_d, h_data) != bits, axis=(-2, -1))
    return count * cfg.num_frames * ld, errors


def run_tracking_experiment(cfg: ExperimentConfig, workers=1) -> TrackingResult:
    """Realistic PM tracking: BER over a normalized-Doppler grid.

    Channels, noise and payload bits are drawn from per-realization streams
    that do not depend on the scheme, beta or Doppler, so every curve is a
    paired comparison on identical randomness.  Each block draws them once
    and advances the whole grid; grid points are told apart by position.
    """
    if cfg.scheme is not Scheme.PM:
        raise ConfigError("tracking uses the PM scheme")
    cfg.single_noise_power("tracking")
    cfg = replace(cfg, schemes=list(cfg.schemes or DEFAULT_TRACKING_SCHEMES))
    bad = [t for t in cfg.schemes if SCHEMES[t][0] is None]
    if bad:
        raise ConfigError("tracking supports adaptive schemes only, got %r" % bad)
    if cfg.num_pilots < 4 \
            and any(SCHEMES[t][0] is Objective.SNR for t in cfg.schemes):
        # one pilot per half leaves no residual: every probe scores SNR_MAX
        raise ConfigError("SNR-objective tracking needs num_pilots >= 4, "
                          "at least 2 pilots per half")
    frames = cfg.warmup_frames + cfg.num_frames
    for doppler in cfg.normalized_doppler_grid:
        # bounds every oscillator phase omega*t that JakesBank computes
        if not math.isfinite(2.0 * math.pi * doppler * frames):
            raise ConfigError("normalized_doppler_grid entry %r overflows the "
                              "fading phase over %d frames" % (doppler, frames))
    payloads = ((cfg, start, count)
                for start, count in _block_ranges(cfg, cfg.num_realizations))
    bits_total = 0
    err_total = 0
    for blk_bits, blk_err in _iter_block_results(_tracking_block, payloads,
                                                 workers):
        bits_total += blk_bits
        err_total = err_total + blk_err
    rows = [TrackingRow(token, float(beta), float(doppler), bits_total,
                        int(err_total[t, b, d]))
            for t, token in enumerate(cfg.schemes)
            for b, beta in enumerate(cfg.betas)
            for d, doppler in enumerate(cfg.normalized_doppler_grid)]
    return TrackingResult(cfg, rows)


def snr_at_ber(snr_db, ber, target) -> float:
    """SNR where a BER curve first crosses `target`, log-linear in BER."""
    snr_db = np.asarray(snr_db, dtype=float)
    ber = np.asarray(ber, dtype=float)
    for i in range(len(snr_db) - 1):
        b1, b2 = ber[i], ber[i + 1]
        if b1 >= target >= b2:
            if b2 <= 0 or b1 <= 0:
                raise ValueError("cannot interpolate through a zero BER")
            if b1 == b2:
                return float(snr_db[i])
            frac = (np.log10(b1) - np.log10(target)) \
                / (np.log10(b1) - np.log10(b2))
            return float(snr_db[i] + frac * (snr_db[i + 1] - snr_db[i]))
    raise ValueError("BER curve does not cross the target level")
