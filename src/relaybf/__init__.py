"""Distributed one-bit-feedback beamforming for amplify-and-forward relays."""

__version__ = "0.1.0"

from .adaptation import (ConstraintKind, PerturbationSet, Scheme,
                         build_perturbation_set, dft_matrix, init_weights)
from .channel import JakesBank, PathLoss, complex_normal, sample_static_rayleigh
from .config import ConfigError, ExperimentConfig, Objective
from .engine import (BerRow, ConvergenceResult, GapCdfRow, GridResult,
                     TrackingRow, TrajectoryRow, run_ber_experiment,
                     run_convergence_experiment, run_tracking_experiment,
                     snr_at_ber)
from .membership import (BirthMessage, DeathMessage, ProtocolError,
                         RelayAgent, RelayRegistry, apply_birth, apply_death,
                         apply_message, decode_message, encode_message,
                         exclude_coordinate, index_bits, insert_coordinate)
from .oracles import random_search_margins

__all__ = [name for name in dir() if not name.startswith("_")]
