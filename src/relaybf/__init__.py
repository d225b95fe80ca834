"""Distributed one-bit-feedback beamforming for amplify-and-forward relays."""

__version__ = "0.1.0"

from .adaptation import (BeamVector, ConstraintKind, PerturbationSet, PmState,
                         Scheme, TrState, build_perturbation_set, dft_matrix,
                         init_pm_state, init_tr_state, init_weights, normalize,
                         pm_perturb, pm_step, tr_perturb, tr_step)
from .channel import (ChannelRealization, JakesBank, PathLoss, complex_normal,
                      sample_static_rayleigh)
from .engine import (BerResult, BerRow, ConfigError, ConvergenceResult,
                     ExperimentConfig, Objective, Scenario, TrackingResult,
                     TrackingRow, run_ber_experiment,
                     run_convergence_experiment, run_tracking_experiment,
                     snr_at_ber)
from .estimation import (PilotBlock, estimate_compound_channel, estimate_power,
                         estimate_snr)
from .membership import (BirthMessage, DeathMessage, ProtocolError,
                         RelayAgent, RelayRegistry, apply_birth, apply_death,
                         decode_message, encode_message, exclude_coordinate,
                         index_bits, insert_coordinate)
from .network import (CompoundParams, NetworkParams, compound_params,
                      ideal_relay_gains, objective_power, objective_snr,
                      relay_gain, simulate_symbols)
from .oracles import (DegenerateChannelError, egc_weights, nobf_weights,
                      psp_weights, random_search_margins, ssp_weights)

__all__ = [name for name in dir() if not name.startswith("_")]
