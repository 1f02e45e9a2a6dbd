"""Covert beacon-pattern authentication: protocol library and simulator.

An emitter encodes a secret as a sequence of (txpower-pattern, channel,
interval) triplets carried by ordinary beacon frames; a passive sensor
recovers the triplets from RSSI alone and matches them against a credential
store. The package provides the codec, the channel model, a deterministic
discrete-event simulator with adversary actors, and Monte Carlo metrics.
"""

from .core import (DEFAULT_BAND, DEFAULT_MAX_TU, MAX_BITS, ACCEPTED,
                   IN_PROGRESS, REJECTED, BandPlan, MatcherError,
                   MatcherState, PatternError, RejectReason, SecretPattern,
                   Triplet, TxPattern, ValidationReport, Violation,
                   match_step, new_matcher, parse_pattern, pattern_space_size,
                   render_pattern, validate_pattern)
from .emitter import (Beacon, EmissionTimeline, FlipTxBit, SlotConfig,
                      SlotFitError, WrongChannel, WrongInterval,
                      candidate_from_index, compile_schedule, iter_candidates,
                      mutate, random_candidate, random_pattern)
from .radio import (ChannelParams, Trajectory, TxPowerLevels, distance_at,
                    path_loss, received_power)
from .sensor import (TIMED_OUT, AuthResult, QuantizationFailure, Samples,
                     SensorConfig, SensorNode, SensorSession,
                     UndecodableWindow, apply_app_stage, authenticate,
                     decode_slots, extract_triplets, quantize_interval)
from .scenario import (ConfigError, build_fig3, build_flyover, build_proto,
                       config_sha256, dump_scenario, load_scenario,
                       loads_scenario, render_report_json, render_trials_csv,
                       write_fixtures, write_report, write_sweep)
from .sim import (SWEEP_AXES, Actor, BruteForce, Legit, Metrics, Mitm,
                  Mutant, Proto, Replay, RunReport, ScenarioConfig,
                  TrialResult, compute_metrics, eavesdrop, observe_emission,
                  run_scenario, run_trial, sweep, validate_scenario, wilson)

__version__ = "0.1.0"

# The names imported above, not the submodules that importing them binds.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, type(core))]
