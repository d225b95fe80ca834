"""The experiment description of all three commands, and its scheme tokens.
Each rule is checked once, on construction; checks that depend on the
command or on drawn channels stay with the runners in `engine`."""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .adaptation import ConstraintKind, Scheme


class ConfigError(ValueError):
    """An experiment description that fails validation."""


class Objective(enum.Enum):
    POWER = "power"
    SNR = "snr"


# BER/tracking scheme token -> (adaptation objective, or None for
# closed-form weights; constraint)
SCHEMES = {
    "no-bf": (None, ConstraintKind.SUM_POWER),
    "egc": (None, ConstraintKind.PER_RELAY),
    "p-sp": (None, ConstraintKind.SUM_POWER),
    "s-sp": (None, ConstraintKind.SUM_POWER),
    "pb-egc": (Objective.POWER, ConstraintKind.PER_RELAY),
    "pb-p-sp": (Objective.POWER, ConstraintKind.SUM_POWER),
    "pb-s-sp": (Objective.SNR, ConstraintKind.SUM_POWER),
}
# adaptive token -> its closed-form optimum; the keys are the tokens that adapt
REFERENCES = {"pb-egc": "egc", "pb-p-sp": "p-sp", "pb-s-sp": "s-sp"}
DEFAULT_BER_SCHEMES = ["no-bf", "egc", "p-sp", "s-sp", "pb-p-sp", "pb-s-sp"]
DEFAULT_PB_SCHEMES = ["pb-s-sp"]  # of tracking and convergence

_DEFAULT_CDF_FRAMES = (10, 20, 40, 70, 100)
_MAX_BETA = 1e150


def noise_power(snr_db):
    """10^(-snr_db/10) as a Python float (unit budgets); inf on overflow."""
    try:
        return 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        return math.inf


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


# integer fields -> least value
_INT_MINIMA = {"num_realizations": 1, "num_frames": 1,
               "warmup_frames": 0, "seed": 0, "num_pilots": 1, "num_data": 1,
               "error_target": 1, "min_bits": 0, "bits_cap": 1,
               "block_size": 1, "num_trajectories": 0}
# list fields -> entry check
_LIST_FIELDS = {"betas": _as_real, "snr_db_grid": _as_real,
                "normalized_doppler_grid": _as_real, "distances": _as_real,
                "cdf_frames": _as_int, "gap_thresholds": _as_real}


@dataclass
class ExperimentConfig:
    """Declarative experiment description; see README for the JSON schema."""

    scheme: Scheme = Scheme.TR
    betas: list = field(default_factory=lambda: [0.1])
    snr_db_grid: list = field(default_factory=lambda: [18.0])
    normalized_doppler_grid: list = field(
        default_factory=lambda: [0.001, 0.003, 0.01, 0.03, 0.1])
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
        try:
            self.scheme = Scheme(self.scheme)
        except ValueError:
            raise ConfigError("invalid scheme: %r" % (self.scheme,)) from None
        for name, least in _INT_MINIMA.items():
            value = _as_int(getattr(self, name), name)
            if value < least:
                raise ConfigError("%s must be >= %d" % (name, least))
            setattr(self, name, value)
        self.forgetting_factor = _as_real(self.forgetting_factor,
                                          "forgetting_factor")
        # None stands for a default derived from other keys
        if self.cdf_frames is None:
            self.cdf_frames = [f for f in _DEFAULT_CDF_FRAMES if f <= self.num_frames]
        if self.gap_thresholds is None:
            grid = np.geomspace(1e-4, 1.0, 61)
            self.gap_thresholds = sorted(set(float(t) for t in grid) | {0.043})
        for name, item in _LIST_FIELDS.items():
            setattr(self, name, _as_list(getattr(self, name), name, item))
        # a larger step overflows |w + beta*q|^2 in the projection
        if not self.betas or any(not 0 < b <= _MAX_BETA for b in self.betas):
            raise ConfigError("betas must be non-empty, all in (0, 1e150]")
        if not self.snr_db_grid:
            raise ConfigError("snr_db_grid must be non-empty")
        for snr_db in self.snr_db_grid:
            if not 0 < noise_power(snr_db) < math.inf:
                raise ConfigError("snr_db_grid entry %r gives a noise power "
                                  "that is not finite and positive" % snr_db)
        if not self.normalized_doppler_grid \
                or any(d < 0 for d in self.normalized_doppler_grid):
            raise ConfigError("normalized_doppler_grid must be non-empty, all >= 0")
        if not self.distances or any(d <= 0 for d in self.distances):
            raise ConfigError("distances must be non-empty, all > 0")
        # a relay's mean |h*g|^2, d**-4, and its inverse must be normal floats
        if any(abs(math.log(d)) > -math.log(np.finfo(float).tiny) / 4
               for d in self.distances):
            raise ConfigError("distances must lie in [1.2e-77, 8.1e76]")
        if not 0 < self.forgetting_factor <= 1:
            raise ConfigError("forgetting_factor must be in (0, 1]")
        if self.pm_estimation_mode not in ("split", "whole"):
            raise ConfigError("pm_estimation_mode must be 'split' or 'whole'")
        if self.schemes is not None:
            if not isinstance(self.schemes, (list, tuple)) or not self.schemes:
                raise ConfigError("schemes must be a non-empty list of scheme "
                                  "tokens")
            unknown = [t for t in self.schemes
                       if not isinstance(t, str) or t not in SCHEMES]
            if unknown:
                raise ConfigError("unknown scheme tokens: %r" % (unknown,))
            if len(set(self.schemes)) != len(self.schemes):
                raise ConfigError("schemes must not repeat a token")
            self.schemes = list(self.schemes)
        if any(f < 0 or f > self.num_frames for f in self.cdf_frames):
            raise ConfigError("cdf_frames must lie in [0, num_frames]")
        if any(t <= 0 for t in self.gap_thresholds):
            raise ConfigError("gap_thresholds must be > 0")

    @property
    def num_relays(self) -> int:
        """R, one relay per entry of `distances`."""
        return len(self.distances)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self):
        return {**asdict(self), "scheme": self.scheme.value}

    def single(self, key, command):
        """The one entry of the list `key` that `command` runs on."""
        values = getattr(self, key)
        if len(values) != 1:
            raise ConfigError("%s uses a single %s entry" % (command, key))
        return values[0]
