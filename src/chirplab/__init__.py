"""Chirp-spread-spectrum PHY laboratory with adaptive symbol-period truncation."""

from .adaptive import (
    CalibrationError,
    LinkHistory,
    ThresholdTable,
    calibrate_thresholds,
    record_packet,
    select_beta,
)
from .channel import ChannelConfig, awgn, snr_estimate
from .chirps import (
    BETA_TABLE,
    FULL_PERIOD,
    IqBuffer,
    LoraParams,
    ReductionFactor,
    base_downchirp,
    base_upchirp,
    instantaneous_frequency,
    shifted_upchirp,
    truncate,
)
from .experiments import ExperimentConfig, run_ber_sweep, run_peak_experiment
from .framing import (
    AirtimeReport,
    ChecksumMismatchError,
    FrameDiagnostics,
    FrameSpec,
    PreambleNotFoundError,
    UnknownBetaIndexError,
    build_frame,
    decode_frame,
    detect_preamble,
    time_on_air,
    time_saving,
)
from .modem import (
    DemodResult,
    LengthMismatchError,
    bit_errors,
    demodulate,
    modulate,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_TABLE",
    "FULL_PERIOD",
    "AirtimeReport",
    "CalibrationError",
    "ChannelConfig",
    "ChecksumMismatchError",
    "DemodResult",
    "ExperimentConfig",
    "FrameDiagnostics",
    "FrameSpec",
    "IqBuffer",
    "LengthMismatchError",
    "LinkHistory",
    "LoraParams",
    "PreambleNotFoundError",
    "ReductionFactor",
    "ThresholdTable",
    "UnknownBetaIndexError",
    "awgn",
    "base_downchirp",
    "base_upchirp",
    "bit_errors",
    "build_frame",
    "calibrate_thresholds",
    "decode_frame",
    "demodulate",
    "detect_preamble",
    "instantaneous_frequency",
    "modulate",
    "record_packet",
    "run_ber_sweep",
    "run_peak_experiment",
    "select_beta",
    "shifted_upchirp",
    "snr_estimate",
    "time_on_air",
    "time_saving",
    "truncate",
]
