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
from .config import (DEFAULT_BER_SCHEMES, DEFAULT_PB_SCHEMES, REFERENCES,
                     SCHEMES, ConfigError, ExperimentConfig, Objective)

_STREAM_CHANNEL = 0
_STREAM_NOISE = 1


def _stream(seed, realization, stream):
    """Deterministic per-(realization, purpose) generator; order-independent."""
    ss = np.random.SeedSequence(seed, spawn_key=(realization, stream))
    return np.random.default_rng(ss)


# numpy's SeedSequence hash constants (pool of 4 words) and PCG64's 128-bit
# LCG multiplier, as in numpy/random/bit_generator.pyx and pcg64.h
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1


def _uint32_words(n):
    """The 32-bit words, least significant first, SeedSequence makes of n >= 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashes(init, mult):
    """SeedSequence's hashmix with hash constants starting at `init`: each
    call takes a uint32 array (all arithmetic stays in array ops, which wrap
    silently) and advances the constant."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 arrays."""
    z = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return z ^ (z >> np.uint32(16))


def _seed_words(seed, start, count, stream):
    """PCG64's seeding words (initstate high, low, initseq high, low), shaped
    (count, 4) uint64, from `SeedSequence(seed, spawn_key=(i, stream))` for
    the realizations i in [start, start + count), all < 2**32.

    Each realization's entropy is the seed's words, padded to the pool
    size, then i and the stream's words; the entropies differ only in the
    word i, so the pool hashing and mixing, and the words that the pool
    generates, run as array ops over the block.
    """
    seed_words = _uint32_words(seed)
    words = seed_words + [0] * (_POOL_SIZE - len(seed_words))
    entropy = np.empty((len(words) + 1 + len(_uint32_words(stream)), count),
                       dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, start + count)
    entropy[len(words) + 1:] = np.array(_uint32_words(stream),
                                        dtype=np.uint32)[:, None]
    # SeedSequence.mix_entropy: every entropy word is at least a pool word
    hashmix = _hashes(_INIT_A, _MULT_A)
    pool = [hashmix(e) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(e))
    # SeedSequence.generate_state(4, uint64): 8 words read as 4 little-endian
    # uint64
    hashmix = _hashes(_INIT_B, _MULT_B)
    out = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return np.stack([lo | hi << np.uint64(32)
                     for lo, hi in zip(out[0::2], out[1::2])], axis=1)


def _stream_states(seed, start, count, stream):
    """The PCG64 state of `_stream(seed, i, stream)` for each realization
    i in [start, start + count), in order.

    The SeedSequence words of a whole block come from `_seed_words`, and
    PCG64's seeding step runs on Python ints, one realization at a time.  A
    realization index >= 2**32 has more than one entropy word, and falls
    back to `_stream`.
    """
    split = max(start, min(start + count, 1 << 32))
    for s_hi, s_lo, q_hi, q_lo in map(
            np.ndarray.tolist, _seed_words(seed, start, split - start, stream)):
        # pcg64_srandom_r: inc = 2*initseq + 1, then two LCG steps from 0
        # with the initial state added in between
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        yield {"bit_generator": "PCG64",
               "state": {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                                   + inc) & _MASK128,
                         "inc": inc},
               "has_uint32": 0, "uinteger": 0}
    for i in range(split, start + count):
        yield _stream(seed, i, stream).bit_generator.state


def _block_streams(seed, start, count, stream):
    """Yield the generator of `_stream(seed, i, stream)` for each realization
    i in [start, start + count), in order: one generator, reset to each
    realization's state, so draw from it before taking the next."""
    rng = np.random.Generator(np.random.PCG64(0))
    for state in _stream_states(seed, start, count, stream):
        rng.bit_generator.state = state
        yield rng


def _detect_bits(y, h_hat):
    """ML BPSK decision, bit 1 iff Re(conj(h_hat)*y) < 0, for y (..., L)
    and h_hat (...,); a zero estimate falls back to the sign of Re(y)."""
    h_hat = np.asarray(h_hat)
    coef = np.where(h_hat == 0, 1.0 + 0j, np.conj(h_hat))
    return (np.real(coef[..., None] * y) < 0).astype(np.int8)


# ---------------------------------------------------------------------------
# batched kernels (weights and compound channels (R, *links), relays
# first): the adaptation step of `adaptation` on exact objectives

def _objective_batch(snr, cand, hbar, gbar2, noise_power):
    """Exact objectives (P, *links) of a candidate stack `cand` (P, R,
    *links), as `adaptation.probes` returns it, given hbar and the
    noise-forwarding powers gbar2 = |gbar|^2, (R, *links): the signal
    power, divided into the SNR on the entries `snr` of the first link
    axis, past the candidate axis (a slice, or None when every entry
    scores power).
    """
    w = cand.swapaxes(0, 1)  # (R, P, *links), relays first
    j = network._signal_power(w, hbar[:, None])
    if snr is not None:
        # the expression of `network._snr`, on the SNR entries only
        j[:, snr] /= noise_power * (1.0 + network._noise_gain(
            w[:, :, snr], gbar2[:, None]))
    return j


def _adapt(cfg, step, w, best, snr, constraint, hbar, gbar2, noise_power,
           block=None):
    """(w, best, bit) after one `cfg.scheme` frame with the probe offsets
    `step` (the frame's entry of `adaptation.probe_steps`); PM leaves `best`
    as is.  `snr` as in `_objective_batch`, `block` from
    `adaptation.probe_block` or None."""
    cand = adaptation.probes(w, step, constraint, block)
    bit, best = adaptation.decide(
        cfg.scheme, _objective_batch(snr, cand, hbar, gbar2, noise_power),
        best, cfg.forgetting_factor)
    return adaptation.select(w, cand, bit), best, bit


# the name under which perfbench's tracer times the adaptation step; it
# wraps every alias, so calls through `_adapt` are counted too
_pm_batch = _adapt


def _relay_power(constraint, num_relays):
    """Relay budget P: the unit total under sum power, a 1/R share per relay."""
    return 1.0 if constraint is ConstraintKind.SUM_POWER else 1.0 / num_relays


def _draw_channels(cfg, start, count):
    """Per-realization static channel draws, stacked (R, count).

    Each realization's stream (all seeded in one pass) fills its row of one
    normal block in a single call, with the layout of
    `channel.sample_static_rayleigh`; the block is then folded into complex
    channels once.
    """
    z = np.empty((count, 4, cfg.num_relays))
    for j, rng in enumerate(_block_streams(cfg.seed, start, count,
                                           _STREAM_CHANNEL)):
        rng.standard_normal(out=z[j])
    h, g = channel._static_rayleigh(z.transpose(1, 2, 0),
                                    PathLoss(cfg.distances).variances)
    # C order, as the callers always got: numpy's summation order, and so
    # the bits of a reduction, can depend on the memory layout
    return np.ascontiguousarray(h), np.ascontiguousarray(g)


def _reference(token, snr, hbar, gbar2, noise_power):
    """`_objective_batch`'s objective (1, *links), with `snr`, of the
    closed-form weights `token` on compound channels (R, *links).

    Raises `ConfigError` unless every link's value is finite and positive:
    otherwise the closed forms divide by an underflowed norm, or the
    objectives overflow, and every curve would rest on NaN or inf values.
    """
    # a noise power far from the channel gains underflows or overflows the
    # objective, which the check below turns into a one-line error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        j = _objective_batch(snr, oracles.closed_form(token, hbar, gbar2)[None],
                             hbar, gbar2, noise_power)
    if not np.all((j > 0) & (j < np.inf)):
        raise ConfigError("the %s %s is not finite and positive: at this "
                          "noise power every relay's SNR is out of range"
                          % (token, "power" if snr is None else "SNR"))
    return j


def oracle_margins(cfg: ExperimentConfig, num_vectors):
    """The worst power margin, SNR margin and p-sp deviation
    |P(p-sp) - ||hbar||^2| / max(||hbar||^2, 1) over the config's channels
    at relay power 1 and its one SNR point; `oracles.random_search_margins`
    probes each channel with `num_vectors` draws of its noise stream."""
    noise_power = config.noise_power(cfg.single("snr_db_grid", "oracle-check"))
    n = cfg.num_realizations
    h, g = _draw_channels(cfg, 0, n)
    hbar, gbar = network.ideal_compound(h, g, 1.0, noise_power)
    gbar2 = np.abs(gbar) ** 2
    # the margins are ratios to the closed forms' objectives, which must be
    # finite and positive
    _reference("s-sp", slice(None), hbar, gbar2, noise_power)
    power = adaptation.relay_sum(np.abs(hbar) ** 2)  # ||hbar||^2
    psp_dev = np.abs(network._signal_power(oracles.closed_form(
        "p-sp", hbar, gbar2), hbar) - power) / np.maximum(power, 1.0)
    p_margin, s_margin = oracles.random_search_margins(
        hbar, gbar2, noise_power, num_vectors,
        _block_streams(cfg.seed, 0, n, _STREAM_NOISE))
    return float(p_margin.max()), float(s_margin.max()), float(psp_dev.max())


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

# like BerRow and TrackingRow, each row type's fields are its CSV's columns
TrajectoryRow = collections.namedtuple(
    "TrajectoryRow", "realization frame snr_normalized gap feedback_bit")
GapCdfRow = collections.namedtuple("GapCdfRow", "frames gap_threshold fraction")


@dataclass
class ConvergenceResult:
    """J(w)/J(ref) trajectories plus the gap distribution at key frames."""

    config: ExperimentConfig
    snr_normalized: np.ndarray   # (num_trajectories, num_frames)
    feedback_bits: np.ndarray
    gaps_at_frames: dict         # frame -> (num_realizations,) gap array

    def fraction_below(self, frame, threshold) -> float:
        return float(np.mean(self.gaps_at_frames[frame] < threshold))

    def trajectory_rows(self):
        # Python floats and ints: 1.0 - ratio is the same IEEE subtraction
        # as on a numpy scalar, at a fraction of the cost of indexing one
        for r, (ratios, bits) in enumerate(zip(self.snr_normalized.tolist(),
                                               self.feedback_bits.tolist())):
            for k, (ratio, bit) in enumerate(zip(ratios, bits)):
                yield TrajectoryRow(r, k, ratio, 1.0 - ratio, bit)

    def cdf_rows(self):
        for frame in self.config.cdf_frames:
            for thr in self.config.gap_thresholds:
                yield GapCdfRow(frame, thr, self.fraction_below(frame, thr))


def _convergence_block(cfg, start, count):
    r = cfg.num_relays
    ((_, snr, constraint, w),) = _scheme_stacks(cfg.schemes, r, (count,))
    noise_power = config.noise_power(cfg.single("snr_db_grid", "convergence"))
    h, g = _draw_channels(cfg, start, count)
    # (R, 1, count), with the scheme axis of the weight stack
    hbar, gbar = network.ideal_compound(
        h[:, None], g[:, None], _relay_power(constraint, r), noise_power)
    gbar2 = np.abs(gbar) ** 2
    ref = _reference(REFERENCES[cfg.schemes[0]], snr, hbar, gbar2,
                     noise_power)[0, 0]
    (beta,) = cfg.betas
    steps = adaptation.probe_steps(
        cfg.scheme, build_perturbation_set(r, cfg.scheme), beta, w.ndim)
    block = adaptation.probe_block(cfg.scheme, w)
    best = np.zeros(w.shape[1:])
    n_traj = max(0, min(cfg.num_trajectories - start, count))
    snr_traj = np.empty((n_traj, cfg.num_frames))
    bit_traj = np.empty((n_traj, cfg.num_frames), dtype=np.int8)
    wanted = set(cfg.cdf_frames)
    gaps_at = {}
    for k in range(cfg.num_frames + 1):
        # J(w)/J(ref) on every link at cdf_frames, else on the recorded
        # links alone, where the elementwise objective keeps its bits
        links = slice(None) if k in wanted else slice(0, n_traj)
        if k in wanted or (n_traj and k < cfg.num_frames):
            ratio = _objective_batch(snr, w[None, ..., links],
                                     hbar[..., links], gbar2[..., links],
                                     noise_power)[0, 0] / ref[links]
        if k in wanted:
            gaps_at[k] = 1.0 - ratio
        if k == cfg.num_frames:
            break
        if n_traj:
            snr_traj[:, k] = ratio[:n_traj]
        w, best, bit = _adapt(cfg, steps[k % len(steps)], w, best, snr,
                              constraint, hbar, gbar2, noise_power, block)
        if n_traj:
            bit_traj[:, k] = bit[0, :n_traj]
    return start, snr_traj, bit_traj, gaps_at


def run_convergence_experiment(cfg: ExperimentConfig, workers=1) -> ConvergenceResult:
    """Idealized adaptation of the one token of `cfg.schemes` (pb-s-sp by
    default) against its closed form in `REFERENCES`, on its own objective."""
    cfg.single("snr_db_grid", "convergence")  # fails before any block starts
    cfg.single("betas", "convergence")
    cfg = replace(cfg, schemes=list(cfg.schemes or DEFAULT_PB_SCHEMES))
    token = cfg.single("schemes", "convergence")
    if token not in REFERENCES:
        raise ConfigError("convergence adapts a pb-* token, got %r" % token)
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
class GridResult:
    """The rows of a BER or tracking grid, in grid order.  A curve is keyed
    by the leading fields of its rows: the scheme of a `BerRow`, the scheme
    and beta of a `TrackingRow`."""

    config: ExperimentConfig
    rows: list

    def _keyed(self, key):
        return [(r[len(key)], r) for r in self.rows if r[:len(key)] == key]

    def curve(self, *key):
        """(the field after `key`, ber) arrays over the rows keyed by `key`."""
        pts = self._keyed(key)
        return (np.array([x for x, _ in pts]),
                np.array([r.ber for _, r in pts]))

    def row(self, *key):
        """The first row whose leading fields equal `key`."""
        for _, r in self._keyed(key):
            return r
        raise KeyError(key)


BerRow = collections.namedtuple("BerRow", "scheme snr_db bits errors ber")


def _raw_bits(raw, num_bits, spare=None):
    """The bits of `integers(0, 2, size=num_bits)`, one row per stream,
    from raw PCG64 outputs `raw` (count, k) "<u8": each bit is the top bit
    of a 32-bit draw, and each 64-bit output is its low half, then its high
    half.  `spare` (count,) holds the 32-bit halves that an earlier odd
    count left over, which the bits start with, or None.  Returns the bits
    (count, num_bits) as uint32 and the halves left over now, or None.
    """
    words = raw.view("<u4")  # little-endian: low half, then high half
    if spare is not None:
        words = np.concatenate([spare[:, None], words], axis=1)
    spare = words[:, num_bits] if words.shape[1] > num_bits else None
    return words[:, :num_bits] >> 31, spare


def _draw_ber_noise(cfg, start, count):
    """Data bits and unit-variance complex noise, each (count, frames, data).

    Each realization's stream (all seeded in one pass) draws its bits, as
    raw output that `_raw_bits` reads, then fills its row of one normal
    block (re, im) in a single call; the normals use whole 64-bit outputs,
    so they follow the bits as they follow `integers(0, 2)`.  The block is
    then assembled once, in place, so at most one float and one complex
    block are alive.
    """
    shape = (cfg.num_frames, cfg.num_data)
    num_bits = cfg.num_frames * cfg.num_data
    raw = np.empty((count, (num_bits + 1) // 2), dtype="<u8")
    zz = np.empty((count, 2) + shape)
    for j, rng in enumerate(_block_streams(cfg.seed, start, count,
                                           _STREAM_NOISE)):
        raw[j] = rng.bit_generator.random_raw(raw.shape[1])
        rng.standard_normal(out=zz[j])
    bits = _raw_bits(raw, num_bits)[0].astype(np.int8).reshape(
        (count,) + shape)
    del raw  # freed before the complex block is assembled
    # (re + 1j*im) / sqrt(2), not `channel._complex_gaussian`: dividing by
    # sqrt(2), as `divide_by_real` does with numpy's bits, rounds differently
    # from scaling by sqrt(1/2)
    z = np.multiply(1j, zz[:, 1])
    np.add(zz[:, 0], z, out=z)
    return bits, adaptation.divide_by_real(z, np.sqrt(2.0), out=z)


def _scheme_stacks(tokens, r, link_shape):
    """One stack per constraint of the adaptive `tokens` (the keys of
    `config.REFERENCES`): their positions, the slice of the stack's scheme
    axis that scores the SNR (pb-s-sp, held at most once) or None, the
    constraint and the start weights (R, schemes, *link_shape)."""
    adaptive = {}
    for t, token in enumerate(tokens):
        if token in REFERENCES:
            adaptive.setdefault(SCHEMES[token][1], []).append(t)
    for ck, members in adaptive.items():
        snr = next((slice(i, i + 1) for i, t in enumerate(members)
                    if SCHEMES[tokens[t]][0] is Objective.SNR), None)
        w0 = init_weights(r, ck).reshape((r,) + (1,) * (1 + len(link_shape)))
        yield members, snr, ck, np.tile(w0, (1, len(members)) + link_shape)


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
    h, g = _draw_channels(cfg, start, count)
    compound = {}  # constraint -> (hbar, |gbar|^2), each (R, points, count)
    for ck in {SCHEMES[t][1] for t in cfg.schemes} \
            | {ConstraintKind.SUM_POWER}:
        hbar, gbar = network.ideal_compound(h[:, None], g[:, None],
                                            _relay_power(ck, r), noise_power)
        compound[ck] = hbar, np.abs(gbar) ** 2
    _reference("s-sp", slice(None), *compound[ConstraintKind.SUM_POWER],
               noise_power)

    def gains(w, hbar, gbar2):
        """Detection gain a = w^H hbar and noise scale sigma of weights w."""
        return (adaptation.relay_sum(np.conj(w) * hbar),
                np.sqrt(noise_power * (1.0 + network._noise_gain(w, gbar2))))

    # closed-form weights never change: their gains hold for the block
    fixed = {}
    for t, token in enumerate(cfg.schemes):
        if token not in REFERENCES:
            hbar, gbar2 = compound[SCHEMES[token][1]]
            fixed[t] = gains(oracles.closed_form(token, hbar, gbar2), hbar,
                             gbar2)
    # adaptive schemes: one stack per constraint, with (hbar, |gbar|^2) with
    # a scheme axis; `state` holds each stack's weights (R, schemes, points,
    # count) and stored best
    link_shape = (len(points), count)
    stacks, state = [], []
    for members, snr, ck, w in _scheme_stacks(cfg.schemes, r, link_shape):
        hbar, gbar2 = (x[:, None] for x in compound[ck])
        stacks.append((members, snr, ck, hbar, gbar2,
                       adaptation.probe_block(cfg.scheme, w)))
        state.append((w, np.zeros(w.shape[1:])))
    (beta,) = cfg.betas
    # every stack's weights are (R, schemes, *link_shape)
    steps = adaptation.probe_steps(cfg.scheme,
                                   build_perturbation_set(r, cfg.scheme),
                                   beta, 2 + len(link_shape))

    def advance(frame_index):
        """One `_adapt` call per stack."""
        step = steps[frame_index % len(steps)]
        for i, (_, snr, ck, hbar, gbar2, block) in enumerate(stacks):
            state[i] = _adapt(cfg, step, *state[i], snr, ck, hbar, gbar2,
                              noise_power, block)[:2]

    for k in range(cfg.warmup_frames):
        advance(k)

    # shared data bits and unit-variance noise: schemes are compared on
    # identical draws, only the effective channel differs
    bits, z = _draw_ber_noise(cfg, start, count)
    s = 1.0 - 2.0 * bits

    errors = np.zeros((len(points), len(cfg.schemes)), dtype=np.int64)
    for f in range(n_frames):
        frame_gains = dict(fixed)
        for (members, *_, hbar, gbar2, _), (w, _) in zip(stacks, state):
            frame_gains.update(zip(members, zip(*gains(w, hbar, gbar2))))
        # detection stays per scheme: a y stacked over every scheme would
        # raise the block's peak memory for little time
        for t in range(len(cfg.schemes)):
            a, sigma = frame_gains[t]
            y = a[..., None] * s[:, f, :] + sigma[..., None] * z[:, f, :]
            det = _detect_bits(y, a)
            errors[:, t] += np.count_nonzero(det != bits[:, f, :], axis=(1, 2))
        if f + 1 < n_frames:  # the weights after the last frame go unread
            advance(cfg.warmup_frames + f)
    return count * n_frames * n_data, points, errors


def run_ber_experiment(cfg: ExperimentConfig, workers=1) -> GridResult:
    """Idealized BER curves over an SNR grid, paired draws across schemes.

    Each point accumulates whole realization blocks, in index order, until
    every scheme has reached the error target (and min_bits), or the bit cap
    or realization cap is hit, so results do not depend on the worker count.
    A block covers every point still accumulating when it starts; points
    are told apart by position, so a repeated SNR value gets its own row.
    """
    cfg.single("betas", "ber")
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
    errors = err.tolist()
    rows = [BerRow(token, float(snr_db), total_bits[p], errors[p][t],
                   errors[p][t] / total_bits[p])
            for p, snr_db in enumerate(cfg.snr_db_grid)
            for t, token in enumerate(cfg.schemes)]
    return GridResult(cfg, rows)


# ---------------------------------------------------------------------------
# tracking experiment

TrackingRow = collections.namedtuple(
    "TrackingRow", "scheme beta normalized_doppler bits errors ber")


def _pm_track_frame(w, carry, step, snr, constraint, pilots, data, measured,
                    whole):
    """One realistic PM frame for every link of `w` (R, *links), probed at
    the offsets `step` of `adaptation.probe_step`.

    `pilots` holds the forwarded receptions g*x (R, 2, ..., L/2) and noise
    (2, ..., L/2) of the plus and minus pilot halves, `data` those of the
    data interval, (R, ..., L) and (..., L).  One pass scores both probes
    on their all-ones pilots' estimates: |h|^2, and the SNR estimate on the
    entries `snr`, as in `_objective_batch`.  `measured` (R, ...) holds
    each relay's mean received power.  Data is detected with `carry`, the
    previous frame's winning half estimate (its own winner on frame 0), or
    with `whole`, the full-interval estimate.  Returns (weights, winning
    half estimate, data estimate, data samples).
    """
    alpha = network.relay_gains(_relay_power(constraint, w.shape[0]),
                                measured)
    cand = adaptation.probes(w, step, constraint)
    y = network.combine(pilots[0], cand.swapaxes(0, 1), alpha[:, None],
                        pilots[1])
    h = estimation._channel_estimate(y)
    j = np.abs(h) ** 2
    if snr is not None:
        j[:, snr] = estimation._snr_estimate(h[:, snr], y[:, snr])
    take_minus, _ = adaptation.decide(Scheme.PM, j)
    h_winner = np.where(take_minus, h[1], h[0])
    if whole:
        h_data = estimation._channel_estimate(np.concatenate(y, axis=-1))
    else:
        h_data = h_winner if carry is None else carry
    return (adaptation.select(w, cand, take_minus), h_winner, h_data,
            network.combine(data[0], w, alpha, data[1]))


def _draw_frame_noise(rngs, spare, s_total, r, num_data, noise_power):
    """One tracking frame's relay noise (R, count, S), destination noise
    (count, S) and data bits (count, num_data), one stream per realization.

    Each stream makes one normal call, for the relay noise (re, im) and then
    the destination noise (re, im), followed by the bits; the block is then
    assembled into complex noise once.  The bits are those of
    `integers(0, 2, size=num_data)`, read from raw output by `_raw_bits`.
    `spare` (count,) holds the 32-bit halves that an odd count left over,
    which the next frame's bits start with, or None; the updated value is
    returned last.  The normals use whole 64-bit outputs only, so the bits
    are the streams' one 32-bit consumer.
    """
    count = len(rngs)
    num_raw = (num_data - (spare is not None) + 1) // 2
    z = np.empty((count, 2 * s_total * (r + 1)))
    raw = np.empty((count, num_raw), dtype="<u8")
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=z[j])
        raw[j] = rng.bit_generator.random_raw(num_raw)
    bits, spare = _raw_bits(raw, num_data, spare)
    bits = bits.astype(np.int64)
    zn = z[:, :2 * s_total * r].reshape(count, 2, s_total, r)
    zv = z[:, 2 * s_total * r:].reshape(count, 2, s_total).swapaxes(0, 1)
    return (channel._complex_gaussian(zn.transpose(1, 3, 0, 2), noise_power),
            channel._complex_gaussian(zv, noise_power), bits, spare)


def _tracking_block(cfg, start, count):
    """Tracking BER of one realization range over the whole grid.

    The fading phases, noise and bits of each realization are drawn once.
    Each Doppler value gets one `JakesBank`, shared by every scheme and
    beta; the schemes of one constraint share a weight stack (R, schemes,
    betas, D, count), whose points all advance together.  The chain runs
    relays first: fading, noise and receptions are (R, D, count, S), with
    scheme and beta axes of length one after the relays.  Returns the
    block's bits per point and errors shaped (schemes, betas, dopplers).
    """
    r = cfg.num_relays
    noise_power = config.noise_power(cfg.single("snr_db_grid", "tracking"))
    lp, ld = cfg.num_pilots, cfg.num_data
    s_total = lp + ld
    pl = PathLoss(cfg.distances)
    amps = np.concatenate([pl.amplitudes, pl.amplitudes])  # h then g processes

    phases = np.empty((count, 2 * r, channel.DEFAULT_NUM_OSCILLATORS))
    for j, rng in enumerate(_block_streams(cfg.seed, start, count,
                                           _STREAM_CHANNEL)):
        phases[j] = rng.uniform(0.0, 2.0 * np.pi, size=phases.shape[1:])
    # the noise streams stay alive across frames
    rngs = [_stream(cfg.seed, i, _STREAM_NOISE)
            for i in range(start, start + count)]
    banks = [JakesBank(phases, float(doppler) / s_total, amps)
             for doppler in cfg.normalized_doppler_grid]
    grid = (len(cfg.betas), len(banks), count)
    betas = np.array([float(b) for b in cfg.betas])[:, None, None]

    stacks = list(_scheme_stacks(cfg.schemes, r, grid))
    # every stack's weights are (R, schemes, *grid)
    steps = adaptation.probe_steps(Scheme.PM,
                                   build_perturbation_set(r, Scheme.PM),
                                   betas, 2 + len(grid))
    weights = [w for *_, w in stacks]
    carry = [None] * len(stacks)
    whole = cfg.pm_estimation_mode == "whole"
    errors = np.zeros((len(cfg.schemes),) + grid[:2], dtype=np.int64)
    coeff = np.empty((2 * r, len(banks), count, s_total), dtype=complex)
    s = np.ones((count, s_total))  # pilots, then each frame's data symbols
    spare = None

    def halves(a):  # the plus and minus pilot halves of a (..., S), as a view
        return np.moveaxis(a[..., :lp].reshape(a.shape[:-1] + (2, -1)), -2, 0)

    for f in range(cfg.warmup_frames + cfg.num_frames):
        for d, bank in enumerate(banks):
            coeff[:, d] = bank.block(f * s_total, s_total).transpose(1, 0, 2)
        h, g = coeff[:r, None, None], coeff[r:, None, None]
        n, v, bits, spare = _draw_frame_noise(rngs, spare, s_total, r, ld,
                                              noise_power)
        s[:, lp:] = 1.0 - 2.0 * bits
        # source power 1
        x, measured = network.relay_receive(h, s, n[:, None, None, None])
        gx = g * x
        # v (count, S) takes scheme, beta and Doppler axes of length one
        pilots = halves(gx).swapaxes(0, 1), halves(v[None, None, None])
        data = gx[..., lp:], v[:, lp:]
        for i, (members, snr, ck, _) in enumerate(stacks):
            weights[i], carry[i], h_data, y_d = _pm_track_frame(
                weights[i], carry[i], steps[f % len(steps)], snr, ck, pilots,
                data, measured, whole)
            if f >= cfg.warmup_frames:
                errors[members] += np.count_nonzero(
                    _detect_bits(y_d, h_data) != bits, axis=(-2, -1))
    return count * cfg.num_frames * ld, errors


def run_tracking_experiment(cfg: ExperimentConfig, workers=1) -> GridResult:
    """Realistic PM tracking: BER over a normalized-Doppler grid.

    Channels, noise and payload bits are drawn from per-realization streams
    that do not depend on the scheme, beta or Doppler, so every curve is a
    paired comparison on identical randomness.  Each block draws them once
    and advances the whole grid; grid points are told apart by position.
    """
    if cfg.scheme is not Scheme.PM:
        raise ConfigError("tracking uses the PM scheme")
    cfg.single("snr_db_grid", "tracking")
    cfg = replace(cfg, schemes=list(cfg.schemes or DEFAULT_PB_SCHEMES))
    bad = [t for t in cfg.schemes if t not in REFERENCES]
    if bad:
        raise ConfigError("tracking supports adaptive schemes only, got %r" % bad)
    if cfg.num_pilots % 2:
        raise ConfigError("PM needs an even pilot count >= 2")
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
    errors = err_total.tolist()
    rows = [TrackingRow(token, float(beta), float(doppler), bits_total,
                        errors[t][b][d], errors[t][b][d] / bits_total)
            for t, token in enumerate(cfg.schemes)
            for b, beta in enumerate(cfg.betas)
            for d, doppler in enumerate(cfg.normalized_doppler_grid)]
    return GridResult(cfg, rows)


def snr_at_ber(snr_db, ber, target) -> float:
    """SNR where a BER curve first crosses `target`, log-linear in BER."""
    snr_db = np.asarray(snr_db, dtype=float)
    ber = np.asarray(ber, dtype=float)
    if snr_db.shape != ber.shape:
        raise ValueError("snr_db and ber must have the same length")
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
