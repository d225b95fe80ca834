"""Frame-level simulation loop and the three experiment families.

A frame is a training interval (pilot symbols sent under perturbed weights)
followed by a data interval sent under the current working vector.  The
idealized scenario gives the destination exact objectives and the exact
compound channel; the realistic scenario runs per-symbol time-varying
channels, measured relay gains and pilot-based estimates.

Experiments fan independent realizations out over fixed-size blocks.  Every
realization draws from its own seed-derived sub-streams, and blocks are
merged in index order, so results are identical for any worker count.
"""

from __future__ import annotations

import collections
import concurrent.futures
import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import adaptation, estimation, network, oracles
from .adaptation import (BeamVector, ConstraintKind, PerturbationSet, PmState,
                         Scheme, TrState, build_perturbation_set,
                         init_pm_state, init_tr_state, init_weights,
                         pm_perturb, pm_step, tr_perturb, tr_step)
from .channel import (ChannelRealization, JakesBank, PathLoss, complex_normal,
                      sample_static_rayleigh)
from .network import (CompoundParams, NetworkParams, compound_params,
                      ideal_relay_gains, objective_power, objective_snr,
                      relay_gain, simulate_symbols)

_STREAM_CHANNEL = 0
_STREAM_NOISE = 1


class ConfigError(ValueError):
    """An experiment description that fails validation."""


class Scenario(enum.Enum):
    IDEALIZED = "idealized"
    REALISTIC = "realistic"


class Objective(enum.Enum):
    POWER = "power"
    SNR = "snr"


# BER/tracking scheme tokens: kind, adaptation objective (PB only), constraint
SCHEME_INFO = {
    "no-bf": ("batch", None, ConstraintKind.SUM_POWER),
    "egc": ("batch", None, ConstraintKind.PER_RELAY),
    "p-sp": ("batch", None, ConstraintKind.SUM_POWER),
    "s-sp": ("batch", None, ConstraintKind.SUM_POWER),
    "pb-egc": ("pb", Objective.POWER, ConstraintKind.PER_RELAY),
    "pb-p-sp": ("pb", Objective.POWER, ConstraintKind.SUM_POWER),
    "pb-s-sp": ("pb", Objective.SNR, ConstraintKind.SUM_POWER),
}
DEFAULT_BER_SCHEMES = ["no-bf", "egc", "p-sp", "s-sp", "pb-p-sp", "pb-s-sp"]
DEFAULT_TRACKING_SCHEMES = ["pb-s-sp"]

_DEFAULT_CDF_FRAMES = (10, 20, 40, 70, 100)


def _default_gap_thresholds():
    grid = np.geomspace(1e-4, 1.0, 61)
    return sorted(set(float(t) for t in grid) | {0.043})


@dataclass
class FrameConfig:
    """Frame layout: pilot block followed by the data block."""

    num_pilots: int = 10
    num_data: int = 40

    def __post_init__(self):
        if self.num_pilots < 1 or self.num_data < 1:
            raise ValueError("frames need at least one pilot and one data symbol")

    @property
    def symbols_per_frame(self) -> int:
        return self.num_pilots + self.num_data

    def validate_for(self, scheme: Scheme):
        if scheme is Scheme.PM and (self.num_pilots < 2 or self.num_pilots % 2):
            raise ValueError("PM needs an even pilot count >= 2 to split in half")
        return self


def _as_enum(kind, value, name):
    if isinstance(value, kind):
        return value
    try:
        return kind(value)
    except ValueError:
        raise ConfigError("invalid %s: %r" % (name, value)) from None


def _as_real(value, name):
    """A finite real number, returned as given (bools are rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError("%s must be a number, got %r" % (name, value))
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise ConfigError("%s must be finite, got %r" % (name, value))
    return value


def _as_int(value, name):
    """An integer; integral floats are converted, bools are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer()):
        raise ConfigError("%s must be an integer, got %r" % (name, value))
    return int(value)


def _as_list(value, name, item):
    if not isinstance(value, (list, tuple)):
        raise ConfigError("%s must be a list, got %r" % (name, value))
    return [item(v, name + " entry") for v in value]


_INT_FIELDS = ("num_relays", "num_realizations", "num_frames",
               "warmup_frames", "seed", "num_pilots", "num_data",
               "error_target", "min_bits", "bits_cap", "block_size",
               "num_trajectories")
_REAL_FIELDS = ("beta", "forgetting_factor")
# list fields -> entry check; None (a derived default) is left alone
_LIST_FIELDS = {"betas": _as_real, "snr_db_grid": _as_real,
                "normalized_doppler_grid": _as_real, "distances": _as_real,
                "cdf_frames": _as_int, "gap_thresholds": _as_real}


@dataclass
class ExperimentConfig:
    """Declarative experiment description; see README for the JSON schema."""

    scenario: Scenario = Scenario.IDEALIZED
    scheme: Scheme = Scheme.TR
    objective: Objective = Objective.SNR
    constraint: ConstraintKind = ConstraintKind.SUM_POWER
    beta: float = 0.1
    betas: list = None
    snr_db_grid: list = field(default_factory=lambda: [18.0])
    normalized_doppler_grid: list = field(
        default_factory=lambda: [0.001, 0.003, 0.01, 0.03, 0.1])
    num_relays: int = 3
    distances: list = field(default_factory=lambda: [1.0, 3.0, 5.0])
    num_realizations: int = 1000
    num_frames: int = 100
    warmup_frames: int = 300
    seed: int = 0
    forgetting_factor: float = 1.0
    pm_estimation_mode: str = "split"
    num_pilots: int = 10
    num_data: int = 40
    schemes: list = None
    error_target: int = 100
    min_bits: int = 0
    bits_cap: int = 10_000_000
    block_size: int = 256
    cdf_frames: list = None
    gap_thresholds: list = None
    num_trajectories: int = 16

    def __post_init__(self):
        self.scenario = _as_enum(Scenario, self.scenario, "scenario")
        self.scheme = _as_enum(Scheme, self.scheme, "scheme")
        self.objective = _as_enum(Objective, self.objective, "objective")
        self.constraint = _as_enum(ConstraintKind, self.constraint, "constraint")
        for name in _INT_FIELDS:
            setattr(self, name, _as_int(getattr(self, name), name))
        for name in _REAL_FIELDS:
            setattr(self, name, _as_real(getattr(self, name), name))
        for name, item in _LIST_FIELDS.items():
            if getattr(self, name) is not None:
                setattr(self, name, _as_list(getattr(self, name), name, item))
        if self.betas is None:
            self.betas = [self.beta]
        if self.cdf_frames is None:
            self.cdf_frames = [f for f in _DEFAULT_CDF_FRAMES if f <= self.num_frames]
        if self.gap_thresholds is None:
            self.gap_thresholds = _default_gap_thresholds()
        self.validate()

    def validate(self):
        if self.beta <= 0:
            raise ConfigError("beta must be > 0")
        if not self.betas or any(b <= 0 for b in self.betas):
            raise ConfigError("betas must be non-empty, all > 0")
        if not self.snr_db_grid:
            raise ConfigError("snr_db_grid must be non-empty")
        for snr_db in self.snr_db_grid:
            try:
                noise_power = 10.0 ** (-snr_db / 10.0)
            except OverflowError:
                noise_power = math.inf
            if not 0 < noise_power < math.inf:
                raise ConfigError("snr_db_grid entry %r gives a noise power "
                                  "that is not finite and positive" % snr_db)
        if not self.normalized_doppler_grid \
                or any(d < 0 for d in self.normalized_doppler_grid):
            raise ConfigError("normalized_doppler_grid must be non-empty, all >= 0")
        if self.num_relays < 1:
            raise ConfigError("num_relays must be >= 1")
        if len(self.distances) != self.num_relays \
                or any(d <= 0 for d in self.distances):
            raise ConfigError("distances must list one positive value per relay")
        if self.num_realizations < 1 or self.num_frames < 1:
            raise ConfigError("num_realizations and num_frames must be >= 1")
        if self.warmup_frames < 0:
            raise ConfigError("warmup_frames must be >= 0")
        if not 0 < self.forgetting_factor <= 1:
            raise ConfigError("forgetting_factor must be in (0, 1]")
        if self.pm_estimation_mode not in ("split", "whole"):
            raise ConfigError("pm_estimation_mode must be 'split' or 'whole'")
        if self.num_pilots < 1 or self.num_data < 1:
            raise ConfigError("num_pilots and num_data must be >= 1")
        if self.scheme is Scheme.PM and (self.num_pilots < 2 or self.num_pilots % 2):
            raise ConfigError("PM needs an even pilot count >= 2")
        if self.schemes is not None:
            if not isinstance(self.schemes, (list, tuple)):
                raise ConfigError("schemes must be a list of scheme tokens")
            unknown = [t for t in self.schemes
                       if not isinstance(t, str) or t not in SCHEME_INFO]
            if unknown or not self.schemes:
                raise ConfigError("unknown scheme tokens: %r" % (unknown,))
            if len(set(self.schemes)) != len(self.schemes):
                raise ConfigError("schemes must not repeat a token")
        if self.error_target < 1 or self.bits_cap < 1 or self.block_size < 1:
            raise ConfigError("error_target, bits_cap and block_size must be >= 1")
        if self.min_bits < 0:
            raise ConfigError("min_bits must be >= 0")
        if any(f < 0 or f > self.num_frames for f in self.cdf_frames):
            raise ConfigError("cdf_frames must lie in [0, num_frames]")
        if any(t <= 0 for t in self.gap_thresholds):
            raise ConfigError("gap_thresholds must be > 0")
        if self.num_trajectories < 0:
            raise ConfigError("num_trajectories must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        return self

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self):
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, enum.Enum):
                value = value.value
            out[name] = value
        return out

    def frame_config(self) -> FrameConfig:
        return FrameConfig(self.num_pilots, self.num_data)


def _stream(seed, realization, stream):
    """Deterministic per-(realization, purpose) generator; order-independent."""
    ss = np.random.SeedSequence(seed, spawn_key=(realization, stream))
    return np.random.default_rng(ss)


def bpsk_modulate(bits) -> np.ndarray:
    """Map bit 0 to +1 and bit 1 to -1."""
    bits = np.asarray(bits)
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must be 0 or 1")
    return (1.0 - 2.0 * bits).astype(complex)


def bpsk_detect(y, h_hat) -> int:
    """ML decision: bit 0 iff Re(conj(h_hat)*y) >= 0; h_hat 0 falls back to Re(y)."""
    coef = np.conj(h_hat) if h_hat != 0 else 1.0
    return int(np.real(coef * y) < 0)


def _detect_bits(y, h_hat):
    """Vectorized detector; y (..., L), h_hat (...,)."""
    h_hat = np.asarray(h_hat)
    coef = np.where(h_hat == 0, 1.0 + 0j, np.conj(h_hat))
    return (np.real(coef[..., None] * y) < 0).astype(np.int8)


@dataclass
class FrameResult:
    """Everything one frame produced at the destination."""

    feedback_bit: int
    objective_training: object  # float (TR) or (j_plus, j_minus) (PM)
    objective_data: float
    detected_bits: np.ndarray
    bit_errors: int
    h_hat_used: complex


@dataclass
class LinkContext:
    """Full state of one source-relays-destination link between frames."""

    params: NetworkParams
    frame_config: FrameConfig
    scenario: Scenario
    scheme: Scheme
    objective: Objective
    beta: float
    pset: PerturbationSet
    state: object  # TrState | PmState
    rng: np.random.Generator
    chan: ChannelRealization = None
    jakes: JakesBank = None  # (2R,) processes: backward channels then forward
    pm_estimation_mode: str = "split"
    stored_h_hat: complex = None
    symbol_cursor: int = 0

    @property
    def constraint(self) -> ConstraintKind:
        return self.state.w_data.constraint


def make_link(params, scheme, objective, constraint, beta, rng, *,
              scenario=Scenario.IDEALIZED, chan=None, jakes=None,
              frame_config=None, forgetting_factor=1.0,
              pm_estimation_mode="split") -> LinkContext:
    """Assemble a ready-to-run link with freshly initialized adaptation."""
    fc = (frame_config or FrameConfig()).validate_for(scheme)
    if scenario is Scenario.IDEALIZED and chan is None:
        raise ValueError("idealized links need a static channel realization")
    if scenario is Scenario.REALISTIC and jakes is None:
        raise ValueError("realistic links need a bank of fading processes")
    r = params.num_relays
    pset = build_perturbation_set(r, scheme)
    if scheme is Scheme.TR:
        state = init_tr_state(r, constraint, forgetting_factor)
    else:
        state = init_pm_state(r, constraint)
    return LinkContext(params, fc, scenario, scheme, objective, float(beta),
                       pset, state, rng, chan=chan, jakes=jakes,
                       pm_estimation_mode=pm_estimation_mode)


def _exact_objective(ctx, w: BeamVector, cp: CompoundParams) -> float:
    if ctx.objective is Objective.POWER:
        return objective_power(w, cp)
    return objective_snr(w, cp, ctx.params.noise_power)


def run_frame(ctx: LinkContext, frame_bits) -> FrameResult:
    """Advance one frame: train, update weights from the feedback bit, and
    detect the data interval with the estimate that belongs to its weights."""
    bits = np.asarray(frame_bits)
    if bits.shape != (ctx.frame_config.num_data,):
        raise ValueError("frame_bits must have length num_data")
    if ctx.scenario is Scenario.IDEALIZED:
        return _run_frame_idealized(ctx, bits)
    return _run_frame_realistic(ctx, bits)


def _run_frame_idealized(ctx, bits):
    alphas = ideal_relay_gains(ctx.params, ctx.chan)
    cp = compound_params(ctx.params, ctx.chan, alphas)
    w_data = ctx.state.w_data
    if ctx.scheme is Scheme.TR:
        cand = tr_perturb(ctx.state, ctx.beta, ctx.pset)
        j_train = _exact_objective(ctx, cand, cp)
        new_state, bit = tr_step(ctx.state, cand, j_train)
        objective_training = j_train
    else:
        plus, minus = pm_perturb(ctx.state, ctx.beta, ctx.pset)
        j_plus = _exact_objective(ctx, plus, cp)
        j_minus = _exact_objective(ctx, minus, cp)
        new_state, bit = pm_step(ctx.state, plus, minus, j_plus, j_minus)
        objective_training = (j_plus, j_minus)
    # the destination knows the compound channel exactly in this scenario
    h_hat = complex(np.vdot(w_data.w, cp.hbar))
    y = simulate_symbols(ctx.params, ctx.chan, alphas, w_data,
                         bpsk_modulate(bits), ctx.rng)
    detected = _detect_bits(y, h_hat)
    errors = int(np.count_nonzero(detected != bits))
    result = FrameResult(bit, objective_training,
                         _exact_objective(ctx, w_data, cp), detected, errors,
                         h_hat)
    ctx.state = new_state
    ctx.symbol_cursor += ctx.frame_config.symbols_per_frame
    return result


def _combine(g_seg, w, alphas, x_seg):
    """Destination sum over relays for one symbol segment (no noise)."""
    return np.sum(g_seg * np.conj(w)[None, :] * alphas[None, :] * x_seg, axis=1)


def _run_frame_realistic(ctx, bits):
    fc = ctx.frame_config
    params = ctx.params
    r = params.num_relays
    lp, s_total = fc.num_pilots, fc.symbols_per_frame
    coeff = ctx.jakes.block(ctx.symbol_cursor, s_total)  # (2R, S)
    h_t = coeff[:r].T  # (S, R)
    g_t = coeff[r:].T
    pilots = np.ones(lp, dtype=complex)
    s = np.concatenate([pilots, bpsk_modulate(bits)])
    n = complex_normal(ctx.rng, (s_total, r), params.noise_power)
    v = complex_normal(ctx.rng, s_total, params.noise_power)
    x = np.sqrt(params.source_power) * h_t * s[:, None] + n
    measured = np.mean(np.abs(x) ** 2, axis=0)
    alphas = np.array([relay_gain(params, 0.0, "measured", m) for m in measured])
    w_data = ctx.state.w_data

    if ctx.scheme is Scheme.TR:
        cand = tr_perturb(ctx.state, ctx.beta, ctx.pset)
        y_p = _combine(g_t[:lp], cand.w, alphas, x[:lp]) + v[:lp]
        block = estimation.PilotBlock(pilots, y_p)
        h_tilde = estimation.estimate_compound_channel(block)
        if ctx.objective is Objective.POWER:
            j_train = estimation.estimate_power(h_tilde)
        else:
            j_train = estimation.estimate_snr(h_tilde, block)
        new_state, bit = tr_step(ctx.state, cand, j_train)
        h_for_data = ctx.stored_h_hat if ctx.stored_h_hat is not None else h_tilde
        if bit:
            ctx.stored_h_hat = h_tilde
        objective_training = j_train
    else:
        plus, minus = pm_perturb(ctx.state, ctx.beta, ctx.pset)
        half = lp // 2
        y_p1 = _combine(g_t[:half], plus.w, alphas, x[:half]) + v[:half]
        y_p2 = _combine(g_t[half:lp], minus.w, alphas, x[half:lp]) + v[half:lp]
        b1 = estimation.PilotBlock(pilots[:half], y_p1)
        b2 = estimation.PilotBlock(pilots[half:], y_p2)
        h_plus = estimation.estimate_compound_channel(b1)
        h_minus = estimation.estimate_compound_channel(b2)
        if ctx.objective is Objective.POWER:
            j_plus = estimation.estimate_power(h_plus)
            j_minus = estimation.estimate_power(h_minus)
        else:
            j_plus = estimation.estimate_snr(h_plus, b1)
            j_minus = estimation.estimate_snr(h_minus, b2)
        new_state, bit = pm_step(ctx.state, plus, minus, j_plus, j_minus)
        h_winner = h_minus if bit else h_plus
        if ctx.pm_estimation_mode == "whole":
            whole = estimation.PilotBlock(pilots, np.concatenate([y_p1, y_p2]))
            h_for_data = estimation.estimate_compound_channel(whole)
        else:
            h_for_data = ctx.stored_h_hat if ctx.stored_h_hat is not None else h_winner
        ctx.stored_h_hat = h_winner
        objective_training = (j_plus, j_minus)

    y_d = _combine(g_t[lp:], w_data.w, alphas, x[lp:]) + v[lp:]
    detected = _detect_bits(y_d, complex(h_for_data))
    errors = int(np.count_nonzero(detected != bits))
    # diagnostic: exact objective of the data weights at the frame's first
    # data symbol, with the gains actually applied
    cp0 = compound_params(params, ChannelRealization(h_t[lp], g_t[lp]), alphas)
    if ctx.objective is Objective.POWER:
        obj_data = objective_power(w_data, cp0)
    else:
        obj_data = objective_snr(w_data, cp0, params.noise_power)
    result = FrameResult(bit, objective_training, obj_data, detected, errors,
                         complex(h_for_data))
    ctx.state = new_state
    ctx.symbol_cursor += s_total
    return result


# ---------------------------------------------------------------------------
# batched kernels (one row per realization, identical arithmetic to the
# per-link operations above)

def _objective_batch(objective, w, hbar, gbar, noise_power):
    if objective is Objective.POWER:
        return network._signal_power(w, hbar)
    return network._snr(w, hbar, gbar, noise_power)


def _normalize_batch(w_raw, constraint, fallback):
    if constraint is ConstraintKind.SUM_POWER:
        return adaptation._normalize_sum(w_raw, fallback)
    return adaptation._normalize_per_relay(w_raw, fallback)


def _tr_batch(w, best, frame_index, beta, pset, constraint, objective,
              hbar, gbar, noise_power, forgetting):
    q = pset.column(frame_index)
    cand = _normalize_batch(w + beta * q, constraint, w)
    j1 = _objective_batch(objective, cand, hbar, gbar, noise_power)
    decayed = forgetting * best
    take = j1 > decayed
    w_new = np.where(take[..., None], cand, w)
    best_new = np.where(take, j1, decayed)
    return w_new, best_new, take


def _pm_batch(w, frame_index, beta, pset, constraint, objective,
              hbar, gbar, noise_power):
    q = pset.column(frame_index)
    plus = _normalize_batch(w + beta * q, constraint, w)
    minus = _normalize_batch(w - beta * q, constraint, w)
    j_plus = _objective_batch(objective, plus, hbar, gbar, noise_power)
    j_minus = _objective_batch(objective, minus, hbar, gbar, noise_power)
    take_minus = j_minus > j_plus
    w_new = np.where(take_minus[..., None], minus, plus)
    return w_new, take_minus


def _draw_channels(cfg, start, count):
    """Per-realization static channel draws, stacked (count, R)."""
    pl = PathLoss(cfg.distances)
    h = np.empty((count, cfg.num_relays), dtype=complex)
    g = np.empty_like(h)
    for j, i in enumerate(range(start, start + count)):
        ch = sample_static_rayleigh(_stream(cfg.seed, i, _STREAM_CHANNEL), pl)
        h[j] = ch.h
        g[j] = ch.g
    return h, g


def _compound_batch(h, g, relay_power, noise_power):
    """Ideal relay gains and compound parameters; source power 1."""
    alphas = np.sqrt(relay_power / (np.abs(h) ** 2 + noise_power))
    gbar = g * alphas
    hbar = gbar * h
    return hbar, gbar


def _batch_oracle(token, hbar, gbar):
    if token == "no-bf":
        r = hbar.shape[-1]
        return np.full(hbar.shape, 1.0 / np.sqrt(r), dtype=complex)
    if token == "egc":
        return oracles._egc(hbar)
    if token == "p-sp":
        return oracles._psp(hbar)
    if token == "s-sp":
        return oracles._ssp(hbar, gbar)
    raise ValueError("unknown batch scheme %r" % token)


def _iter_block_results(fn, payloads, workers):
    """Yield `fn(*payload)` for each payload, in payload order.

    Payloads are pulled lazily and at most `workers` blocks are in flight:
    once the first ones are started, a new payload is pulled only after a
    result has been yielded and merged by the caller, so a payload
    generator can look at everything merged so far.  With more than one
    worker a single process pool serves the whole call.
    """
    payloads = iter(payloads)
    if workers <= 1:
        for payload in payloads:
            yield fn(*payload)
        return
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque(
            pool.submit(fn, *p) for p in itertools.islice(payloads, workers))
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
    gaps: np.ndarray
    feedback_bits: np.ndarray
    gaps_at_frames: dict         # frame -> (num_realizations,) gap array

    def fraction_below(self, frame, threshold) -> float:
        return float(np.mean(self.gaps_at_frames[frame] < threshold))

    def trajectory_rows(self):
        n, f = self.snr_normalized.shape
        for r in range(n):
            for k in range(f):
                yield (r, k, self.snr_normalized[r, k], self.gaps[r, k],
                       int(self.feedback_bits[r, k]))

    def cdf_rows(self):
        for frame in self.config.cdf_frames:
            gaps = self.gaps_at_frames[frame]
            for thr in self.config.gap_thresholds:
                yield (frame, thr, float(np.mean(gaps < thr)))


def _convergence_block(cfg, start, count):
    r = cfg.num_relays
    noise_power = 10.0 ** (-cfg.snr_db_grid[0] / 10.0)
    h, g = _draw_channels(cfg, start, count)
    hbar, gbar = _compound_batch(h, g, 1.0, noise_power)
    w_opt = oracles._ssp(hbar, gbar)
    snr_opt = network._snr(w_opt, hbar, gbar, noise_power)
    pset = build_perturbation_set(r, cfg.scheme)
    w = np.tile(init_weights(r, cfg.constraint).w, (count, 1))
    best = np.zeros(count)
    n_traj = max(0, min(cfg.num_trajectories - start, count))
    snr_traj = np.empty((n_traj, cfg.num_frames))
    gap_traj = np.empty((n_traj, cfg.num_frames))
    bit_traj = np.empty((n_traj, cfg.num_frames), dtype=np.int8)
    wanted = set(cfg.cdf_frames)
    gaps_at = {}
    for k in range(cfg.num_frames + 1):
        ratio = network._snr(w, hbar, gbar, noise_power) / snr_opt
        if k in wanted:
            gaps_at[k] = 1.0 - ratio
        if k == cfg.num_frames:
            break
        if n_traj:
            snr_traj[:, k] = ratio[:n_traj]
            gap_traj[:, k] = 1.0 - ratio[:n_traj]
        if cfg.scheme is Scheme.TR:
            w, best, bit = _tr_batch(w, best, k, cfg.beta, pset, cfg.constraint,
                                     cfg.objective, hbar, gbar, noise_power,
                                     cfg.forgetting_factor)
        else:
            w, bit = _pm_batch(w, k, cfg.beta, pset, cfg.constraint,
                               cfg.objective, hbar, gbar, noise_power)
        if n_traj:
            bit_traj[:, k] = bit[:n_traj]
    return start, snr_traj, gap_traj, bit_traj, gaps_at


def run_convergence_experiment(cfg: ExperimentConfig, workers=1) -> ConvergenceResult:
    """Idealized adaptation against the exact SNR oracle, many realizations."""
    if cfg.scenario is not Scenario.IDEALIZED:
        raise ConfigError("the convergence experiment runs the idealized scenario")
    if cfg.objective is not Objective.SNR \
            or cfg.constraint is not ConstraintKind.SUM_POWER:
        raise ConfigError("convergence tracks the SNR objective under sum power")
    if len(cfg.snr_db_grid) != 1:
        raise ConfigError("convergence uses a single snr_db_grid entry")
    n = cfg.num_realizations
    gaps_at = {f: np.empty(n) for f in cfg.cdf_frames}
    parts_snr, parts_gap, parts_bit = [], [], []
    payloads = ((cfg, start, count) for start, count in _block_ranges(cfg, n))
    for start, snr_t, gap_t, bit_t, gdict in _iter_block_results(
            _convergence_block, payloads, workers):
        for f, arr in gdict.items():
            gaps_at[f][start:start + arr.size] = arr
        if snr_t.size:
            parts_snr.append(snr_t)
            parts_gap.append(gap_t)
            parts_bit.append(bit_t)
    if parts_snr:
        snr = np.vstack(parts_snr)
        gap = np.vstack(parts_gap)
        bits = np.vstack(parts_bit)
    else:
        snr = np.empty((0, cfg.num_frames))
        gap = np.empty((0, cfg.num_frames))
        bits = np.empty((0, cfg.num_frames), dtype=np.int8)
    return ConvergenceResult(cfg, snr, gap, bits, gaps_at)


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


def _ber_block(cfg, points, start, count):
    """BER of one realization range at the SNR points `points`.

    `points` are positions in `cfg.snr_db_grid`.  The channels, bits and
    noise of each realization are drawn once and shared by every point and
    scheme; the points advance together on a leading axis.  Returns the
    block's bits per point, `points`, and errors shaped (points, schemes).
    """
    r = cfg.num_relays
    noise_power = np.array(
        [10.0 ** (-cfg.snr_db_grid[p] / 10.0) for p in points])[:, None]
    n_frames, n_data = cfg.num_frames, cfg.num_data
    schemes = cfg.schemes
    h, g = _draw_channels(cfg, start, count)
    compound = {}
    for ck, power in ((ConstraintKind.SUM_POWER, 1.0),
                      (ConstraintKind.PER_RELAY, 1.0 / r)):
        if any(SCHEME_INFO[t][2] is ck for t in schemes):
            compound[ck] = _compound_batch(h, g, power, noise_power[..., None])

    weights = []
    best = []
    pset = build_perturbation_set(r, cfg.scheme)
    for token in schemes:
        kind, objective, ck = SCHEME_INFO[token]
        hbar, gbar = compound[ck]
        b = None
        if kind == "batch":
            w = _batch_oracle(token, hbar, gbar)
        else:
            w = np.tile(init_weights(r, ck).w, (len(points), count, 1))
            b = np.zeros((len(points), count))
            for k in range(cfg.warmup_frames):
                if cfg.scheme is Scheme.TR:
                    w, b, _ = _tr_batch(w, b, k, cfg.beta, pset, ck, objective,
                                        hbar, gbar, noise_power,
                                        cfg.forgetting_factor)
                else:
                    w, _ = _pm_batch(w, k, cfg.beta, pset, ck, objective,
                                     hbar, gbar, noise_power)
        weights.append(w)
        best.append(b)

    # shared data bits and unit-variance noise: schemes are compared on
    # identical draws, only the effective channel differs
    bits = np.empty((count, n_frames, n_data), dtype=np.int8)
    z = np.empty((count, n_frames, n_data), dtype=complex)
    for j, i in enumerate(range(start, start + count)):
        rng = _stream(cfg.seed, i, _STREAM_NOISE)
        bits[j] = rng.integers(0, 2, size=(n_frames, n_data))
        zz = rng.standard_normal((2, n_frames, n_data))
        z[j] = (zz[0] + 1j * zz[1]) / np.sqrt(2.0)
    s = 1.0 - 2.0 * bits

    errors = np.zeros((len(points), len(schemes)), dtype=np.int64)
    for f in range(n_frames):
        for t, token in enumerate(schemes):
            kind, objective, ck = SCHEME_INFO[token]
            hbar, gbar = compound[ck]
            w = weights[t]
            a = np.sum(np.conj(w) * hbar, axis=-1)
            sigma = np.sqrt(noise_power
                            * (1.0 + network._noise_gain(w, gbar)))
            y = a[..., None] * s[:, f, :] + sigma[..., None] * z[:, f, :]
            coef = np.where(a == 0, 1.0 + 0j, np.conj(a))
            det = (np.real(coef[..., None] * y) < 0).astype(np.int8)
            errors[:, t] += np.count_nonzero(det != bits[:, f, :], axis=(1, 2))
            if kind == "pb":
                k = cfg.warmup_frames + f
                if cfg.scheme is Scheme.TR:
                    weights[t], best[t], _ = _tr_batch(
                        w, best[t], k, cfg.beta, pset, ck, objective,
                        hbar, gbar, noise_power, cfg.forgetting_factor)
                else:
                    weights[t], _ = _pm_batch(
                        w, k, cfg.beta, pset, ck, objective, hbar, gbar,
                        noise_power)
    return count * n_frames * n_data, points, errors


def run_ber_experiment(cfg: ExperimentConfig, workers=1) -> BerResult:
    """Idealized BER curves over an SNR grid, paired draws across schemes.

    Each point accumulates whole realization blocks, in index order, until
    every scheme has reached the error target (and min_bits), or the bit cap
    or realization cap is hit, so results do not depend on the worker count.
    A block covers every point still accumulating when it starts; points
    are told apart by position, so a repeated SNR value gets its own row.
    """
    if cfg.scenario is not Scenario.IDEALIZED:
        raise ConfigError("the BER experiment runs the idealized scenario")
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


def _tracking_block(cfg, start, count):
    """Tracking BER of one realization range over the whole grid.

    The fading phases, noise and bits of each realization are drawn once.
    Each Doppler value gets one `JakesBank`, shared by every scheme and
    beta; per scheme, all (beta, Doppler) points advance together on
    leading axes.  Returns the block's bits per point and errors shaped
    (schemes, betas, dopplers).
    """
    r = cfg.num_relays
    noise_power = 10.0 ** (-cfg.snr_db_grid[0] / 10.0)
    lp, ld = cfg.num_pilots, cfg.num_data
    s_total = lp + ld
    half = lp // 2
    segments = (slice(0, half), slice(half, lp), slice(lp, s_total))
    pl = PathLoss(cfg.distances)
    amps = np.concatenate([pl.amplitudes, pl.amplitudes])  # h then g processes

    m = 32
    phases = np.empty((count, 2 * r, m))
    rngs = []
    for j, i in enumerate(range(start, start + count)):
        crng = _stream(cfg.seed, i, _STREAM_CHANNEL)
        phases[j] = crng.uniform(0.0, 2.0 * np.pi, size=(2 * r, m))
        rngs.append(_stream(cfg.seed, i, _STREAM_NOISE))
    banks = [JakesBank(phases, doppler, amps, symbols_per_frame=s_total)
             for doppler in cfg.normalized_doppler_grid]
    grid = (len(cfg.betas), len(banks), count)
    betas = np.array([float(b) for b in cfg.betas])[:, None, None, None]

    pset = build_perturbation_set(r, Scheme.PM)
    schemes = [SCHEME_INFO[token][1:] for token in cfg.schemes]
    relay_power = {ConstraintKind.SUM_POWER: 1.0,
                   ConstraintKind.PER_RELAY: 1.0 / r}
    weights = [np.tile(init_weights(r, ck).w, grid + (1,)) for _, ck in schemes]
    carry = [None] * len(schemes)
    pilots = np.ones(lp, dtype=complex)
    errors = np.zeros((len(schemes),) + grid[:2], dtype=np.int64)
    n = np.empty((count, s_total, r), dtype=complex)
    v = np.empty((count, s_total), dtype=complex)
    bits = np.empty((count, ld), dtype=np.int64)
    for f in range(cfg.warmup_frames + cfg.num_frames):
        coeff = np.stack([bank.block(f * s_total, s_total)
                          for bank in banks])            # (D, count, 2R, S)
        h_t = coeff[:, :, :r, :].transpose(0, 1, 3, 2)   # (D, count, S, R)
        g_t = coeff[:, :, r:, :].transpose(0, 1, 3, 2)
        for j in range(count):
            n[j] = complex_normal(rngs[j], (s_total, r), noise_power)
            v[j] = complex_normal(rngs[j], s_total, noise_power)
            bits[j] = rngs[j].integers(0, 2, size=ld)
        s = np.concatenate(
            [np.ones((count, lp)), 1.0 - 2.0 * bits], axis=1)
        x = h_t * s[:, :, None] + n                     # source power 1
        measured = np.mean(np.abs(x) ** 2, axis=2)      # (D, count, R)
        gx = [g_t[..., sl, :] * x[..., sl, :] for sl in segments]
        q = pset.column(f)
        for t, (objective, ck) in enumerate(schemes):
            w = weights[t]                              # (B, D, count, R)
            alpha = np.sqrt(relay_power[ck] / measured)
            plus = _normalize_batch(w + betas * q, ck, w)
            minus = _normalize_batch(w - betas * q, ck, w)
            y_p1, y_p2, y_d = (
                np.sum(gx_seg * (np.conj(ww) * alpha)[..., None, :], axis=-1)
                + v[:, sl]
                for gx_seg, ww, sl in zip(gx, (plus, minus, w), segments))
            h_plus = estimation._channel_estimate(y_p1, pilots[:half])
            h_minus = estimation._channel_estimate(y_p2, pilots[half:])
            if objective is Objective.POWER:
                j_plus = np.abs(h_plus) ** 2
                j_minus = np.abs(h_minus) ** 2
            else:
                j_plus = estimation._snr_estimate(h_plus, y_p1, pilots[:half])
                j_minus = estimation._snr_estimate(h_minus, y_p2,
                                                   pilots[half:])
            take_minus = j_minus > j_plus
            h_winner = np.where(take_minus, h_minus, h_plus)
            if cfg.pm_estimation_mode == "whole":
                h_data = estimation._channel_estimate(
                    np.concatenate([y_p1, y_p2], axis=-1), pilots)
            else:
                h_data = carry[t] if carry[t] is not None else h_winner
            if f >= cfg.warmup_frames:
                coef = np.where(h_data == 0, 1.0 + 0j, np.conj(h_data))
                det = (np.real(coef[..., None] * y_d) < 0).astype(np.int8)
                errors[t] += np.count_nonzero(det != bits, axis=(-2, -1))
            weights[t] = np.where(take_minus[..., None], minus, plus)
            carry[t] = h_winner
    return count * cfg.num_frames * ld, errors


def run_tracking_experiment(cfg: ExperimentConfig, workers=1) -> TrackingResult:
    """Realistic PM tracking: BER over a normalized-Doppler grid.

    Channels, noise and payload bits are drawn from per-realization streams
    that do not depend on the scheme, beta or Doppler, so every curve is a
    paired comparison on identical randomness.  Each block draws them once
    and advances the whole grid; grid points are told apart by position.
    """
    if cfg.scenario is not Scenario.REALISTIC:
        raise ConfigError("the tracking experiment runs the realistic scenario")
    if cfg.scheme is not Scheme.PM:
        raise ConfigError("tracking uses the PM scheme")
    if len(cfg.snr_db_grid) != 1:
        raise ConfigError("tracking uses a single snr_db_grid entry")
    cfg = replace(cfg, schemes=list(cfg.schemes or DEFAULT_TRACKING_SCHEMES))
    bad = [t for t in cfg.schemes if SCHEME_INFO[t][0] != "pb"]
    if bad:
        raise ConfigError("tracking supports adaptive schemes only, got %r" % bad)
    cfg.frame_config().validate_for(Scheme.PM)
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
